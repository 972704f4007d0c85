"""Benchmark of k2seq: one workload per process, end to end or traced.

    python3 bench/run.py --workload cli-large --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--smoke`` runs
every workload, untraced and traced, on small inputs.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("roundtrip-corpus", "cli-large", "generate-eval")
END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("stream_ms_p50", "ms"),
              ("decode_ms_p50", "ms"), ("peak_rss_mib", "MiB"),
              ("attrs_per_edge", "attr/edge"))
TRACE_OVERHEAD = ("trace.overhead_s", "s")
MIN_ROUNDS = 3
SETUPS = 7


def _import_program():
    """Put the checkout's ``src`` first on the path and import k2seq from it;
    never fall back to an installed copy."""
    if not (SRC / "k2seq" / "__init__.py").is_file():
        raise SystemExit(f"error: no k2seq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import k2seq

    if Path(k2seq.__file__).resolve().parent != SRC / "k2seq":
        raise SystemExit(f"error: k2seq was imported from {k2seq.__file__}, not {SRC}")


def _setup_timer(args, work: Path):
    """A callable that times one fresh process which starts Python, imports
    k2seq and runs the workload's set-up, and the list it appends to.

    Called before each round with the seconds elapsed, it spreads SETUPS - 1
    timings evenly over the run; its call with ``last=True``, after the last
    round, takes the final one."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    if args.smoke:
        cmd.append("--smoke")
    times: list[float] = []

    def run(elapsed: float, last: bool = False):
        due = len(times) < SETUPS - 1 and elapsed >= len(times) * args.seconds / (SETUPS - 1)
        if not (due or last):
            return
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return run, times


def _run_op(op, failures: list):
    try:
        return op()
    except Exception:  # a failed operation is counted, and the run goes on
        failures.append(traceback.format_exc())
        return None, None


def _measure(ops: list, seconds: float, tracer, between=None):
    """Whole rounds over ``ops`` until ``seconds`` have passed.

    ``between`` runs before each round with the seconds elapsed, and once
    more, with ``last=True``, after the last.  Each round
    starts after ``gc.collect()``.  With a tracer, rounds alternate untraced
    and traced, at least two of each; without, at least three rounds run.
    Returns the per-round part times of untraced and traced rounds, the first
    round's outputs, the spans of each traced round, the tracebacks of failed
    operations and the errors found comparing later rounds' outputs with the
    first round's.
    """
    from spans import instrument

    timed = {False: [], True: []}
    spans, failures, mismatches, first = [], [], [], None
    start = perf_counter()
    while True:
        traced = tracer is not None and len(timed[False]) > len(timed[True])
        if between:
            between(perf_counter() - start)
        gc.collect()
        round_start = perf_counter()
        parts, outputs = [], []
        with instrument(tracer) if traced else contextlib.nullcontext():
            for idx, op in enumerate(ops):
                if traced:
                    tracer.op = idx
                part, out = _run_op(op, failures)
                parts.append(part)
                outputs.append(out)
        if traced:
            spans.append(tracer.take())
        timed[traced].append(parts)
        if first is None:
            first = outputs
        else:
            mismatches += [f"operation {i}: output differs from the first round"
                           for i, (a, b) in enumerate(zip(first, outputs)) if a != b]
        now = perf_counter()
        if tracer is None:
            enough = len(timed[False]) >= MIN_ROUNDS
        else:
            enough = min(len(timed[False]), len(timed[True])) >= 2
        if enough and now - start + (now - round_start) > seconds:
            if between:
                between(perf_counter() - start, last=True)
            return timed, first, spans, failures, mismatches


def _estimate(rounds: list[list]) -> tuple[float, list[float], list[float]]:
    """Each operation's part times as their minimum over rounds; returns the
    pass time (the sum of those minima) and the per-operation stream and
    decode minima.  Host slowdowns only ever add time, and they come in
    episodes of seconds to tens of seconds, so the fastest of an operation's
    rounds, which lie a pass apart, is the one least disturbed."""
    total, stream, decode = 0.0, [], []
    for op_parts in zip(*rounds):
        op_parts = [p for p in op_parts if p is not None]
        if not op_parts:
            continue
        for name in op_parts[0]:
            value = min(p[name] for p in op_parts)
            total += value
            if name == "stream":
                stream.append(value)
            elif name == "decode":
                decode.append(value)
    return total, stream, decode


def _run(args) -> int:
    _import_program()
    from spans import PER_LAYER, Tracer, instrument, per_layer, write_jsonl
    from workloads import WORKLOADS

    results = BENCH / "results"
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](work, args.seed, args.smoke)
        wl.write_inputs()
        tracer = Tracer() if args.trace else None
        time_setup, setup_times = _setup_timer(args, work)
        with instrument(tracer) if tracer else contextlib.nullcontext():
            wl.setup()
        setup_spans = tracer.take() if tracer else []
        ops = wl.ops()
        for op in ops[:wl.warmup_ops]:
            _run_op(op, [])
        timed, first, spans, failures, errors = _measure(
            ops, args.seconds, tracer, None if tracer else time_setup)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for text in failures:
            print(text, file=sys.stderr)
        check_errors, attrs_per_edge = wl.check(first)
        errors += check_errors
        pass_s, stream, decode = _estimate(timed[False])
        if tracer:
            traced_pass_s = _estimate(timed[True])[0]
            values = per_layer(setup_spans, spans)
            values["trace.overhead_s"] = traced_pass_s - pass_s
            units = dict(PER_LAYER + [TRACE_OVERHEAD])
            results.mkdir(exist_ok=True)
            write_jsonl(results / f"{args.workload}-seed{args.seed}.trace.jsonl",
                        {"setup": setup_spans, "round": spans[0]})
        else:
            values = {"setup_s": statistics.median(setup_times), "pass_s": pass_s,
                      "stream_ms_p50": statistics.median(stream) * 1e3,
                      "decode_ms_p50": statistics.median(decode) * 1e3,
                      "peak_rss_mib": peak_rss_mib, "attrs_per_edge": attrs_per_edge}
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for line in errors[:50]:
        print(f"check failed: {line}", file=sys.stderr)
    rounds = len(timed[False]) + len(timed[True])
    result = {"correct": not errors, "attempted": rounds * len(ops),
              "failed": len(failures),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(f"{args.workload}: {rounds} rounds of {len(ops)} operations", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not errors else 1


def _setup_only(args) -> int:
    _import_program()
    from workloads import WORKLOADS

    WORKLOADS[args.workload](Path(args.setup_only), args.seed, args.smoke).setup()
    return 0


def _smoke_all() -> int:
    """Every workload, untraced and traced, on small inputs, in fresh
    processes; fails unless each run is correct, complete and fails nothing."""
    from spans import PER_LAYER

    bad = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", "1",
                   "--seconds", "0", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().split("\n")
            result = json.loads(lines[-1]) if proc.stdout.strip() else {}
            want = [n for n, _ in (PER_LAYER + [TRACE_OVERHEAD] if trace else END_TO_END)]
            good = (proc.returncode == 0 and result.get("correct") is True
                    and result.get("failed") == 0
                    and sorted(result.get("metrics", {})) == sorted(want))
            bad += not good
            print(f"{'ok' if good else 'FAILED'}  {name} trace={trace}")
            if not good:
                print(proc.stderr[-4000:], file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs; without --workload, run every workload")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke and args.workload is None:
        return _smoke_all()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        return _setup_only(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())

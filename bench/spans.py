"""Spans around the public functions of each k2seq module.

While :func:`instrument` is active, each function listed in ``FUNCTIONS`` is
replaced, in every k2seq module that binds it, by a wrapper that records a
span: name, start, end, parent span and the benchmark operation it belongs
to.  The program's own calls between modules (``cli`` into ``sequence``,
``sequence`` into ``tree``) therefore nest under their callers without any
change to the program.  Outside :func:`instrument` nothing is wrapped, so
untraced runs pay nothing.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


def _nodes(args, result):
    return {"nodes": len(result.nodes)}


def _pruned(args, result):
    return {"full": len(args[0].nodes), "kept": len(result.nodes)}


def _tokens(args, result):
    return {"tokens": len(args[0].tokens)}


def _mask(args, result):
    vocab = args[1]
    # The mask covers every id past BOS, EOS and PAD.
    return {"k": vocab.k, "admissible": int(result.sum()), "scanned": vocab.size - 3}


def _cli_name(args):
    return f"cli.{args[0][0]}"


# (span name or a function of the call's arguments that gives it, module
# under k2seq, attribute, optional counter)
FUNCTIONS = (
    (_cli_name, "cli", "main", None),
    ("graphs.parse", "graphs", "parse_edge_list", None),
    ("graphs.order", "graphs", "order_nodes", None),
    ("graphs.relabel", "graphs", "apply_ordering", None),
    ("graphs.serialize", "graphs", "serialize_edge_list", None),
    ("tree.build", "tree", "build_k2tree", _nodes),
    ("tree.rebuild", "tree", "rebuild_graph", None),
    ("tree.stats", "tree", "tree_stats", None),
    ("sequence.encode", "sequence", "encode_graph", None),
    ("sequence.decode", "sequence", "decode_graph", None),
    ("sequence.prune", "sequence", "prune", _pruned),
    ("sequence.flatten", "sequence", "flatten_tokenize", None),
    ("sequence.write", "sequence", "write_token_stream", _tokens),
    ("sequence.read", "sequence", "read_token_stream", None),
    ("sequence.detokenize", "sequence", "detokenize_build", None),
    ("sampling.sample", "sampling", "sample_sequence", None),
    ("sampling.mask", "sampling", "builder_mask", _mask),
    ("sampling.train", "sampling", "ngram_model", None),
    ("metrics.evaluate", "metrics", "evaluate_sets", None),
    ("metrics.degree", "metrics", "degree_histogram", None),
    ("metrics.clustering", "metrics", "clustering_histogram", None),
    ("metrics.orbit", "metrics", "mean_orbit_vector", None),
    ("metrics.mmd", "metrics", "mmd", None),
    ("metrics.ratio", "metrics", "compression_ratio", None),
    ("generators.read_dataset", "generators", "read_dataset", None),
)

# (span name, module under k2seq, class, method)
METHODS = (
    ("sampling.model", "sampling", "NGramModel", "__call__"),
    ("sampling.step", "sequence", "IncrementalBuilder", "step"),
)

# Per-layer metrics that are the summed duration of one span name, in ms.
TIMED = ("graphs.parse", "graphs.order", "graphs.relabel", "graphs.serialize",
         "tree.build", "tree.rebuild", "sequence.prune", "sequence.flatten",
         "sequence.write", "sequence.read", "sequence.detokenize",
         "sampling.model", "sampling.train", "metrics.degree",
         "metrics.clustering", "metrics.orbit", "metrics.mmd",
         "generators.read_dataset", "cli.encode", "cli.decode", "cli.stats")

PER_LAYER = ([(f"{name}_ms", "ms") for name in TIMED] + [
    ("tree.full_nodes", "count"), ("tree.kept_ratio", "ratio"),
    ("sequence.tokens", "count"), ("sampling.mask_ms.k2", "ms"),
    ("sampling.mask_ms.k3", "ms"), ("sampling.step_ms", "ms"),
    ("sampling.steps", "count"), ("sampling.mask_width", "ratio"),
    ("cli.overhead_ms", "ms")])


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.counts = None


class Tracer:
    """Spans of one traced stretch of work, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        span = Span(name, self._stack[-1] if self._stack else None, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _wrap_function(tracer, name, fn, counter):
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        return tracer.call(span_name, fn, *args, counter=counter, **kwargs)
    return wrapper


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every listed k2seq function and method while the block runs."""
    restore = []
    try:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "k2seq" or n.startswith("k2seq.")]
        for name, modname, attr, counter in FUNCTIONS:
            original = getattr(importlib.import_module(f"k2seq.{modname}"), attr)
            wrapper = _wrap_function(tracer, name, original, counter)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(importlib.import_module(f"k2seq.{modname}"), clsname)
            original = cls.__dict__[attr]
            restore.append((cls, attr, original))
            setattr(cls, attr, _wrap_function(tracer, name, original, None))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def _raw_totals(spans: list[Span]) -> dict[str, float]:
    """Summed ms per layer and raw counts of a list of spans.  A CLI span's
    self time (its duration minus the spans directly under it) is its
    overhead."""
    raw: dict[str, float] = defaultdict(float)
    child_ms: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_ms[s.parent] += (s.end - s.start) * 1e3
    for idx, s in enumerate(spans):
        dur = (s.end - s.start) * 1e3
        counts = s.counts or {}  # empty when the call raised
        if s.name in TIMED:
            raw[f"{s.name}_ms"] += dur
        if s.name.startswith("cli."):
            raw["cli.overhead_ms"] += dur - child_ms[idx]
        elif s.name == "tree.build":
            raw["tree.full_nodes"] += counts.get("nodes", 0)
        elif s.name == "sequence.prune":
            raw["pruned_from"] += counts.get("full", 0)
            raw["pruned_to"] += counts.get("kept", 0)
        elif s.name == "sequence.write":
            raw["sequence.tokens"] += counts.get("tokens", 0)
        elif s.name == "sampling.mask" and counts:
            raw[f"sampling.mask_ms.k{counts['k']}"] += dur
            raw["admissible"] += counts["admissible"]
            raw["scanned"] += counts["scanned"]
        elif s.name == "sampling.step" and s.parent is not None \
                and spans[s.parent].name == "sampling.sample":
            raw["sampling.step_ms"] += dur
            raw["sampling.steps"] += 1
    return raw


def _finish(raw: dict[str, float]) -> dict[str, float]:
    out = {name: raw.get(name, 0.0) for name, _ in PER_LAYER}
    out["tree.kept_ratio"] = raw["pruned_to"] / raw["pruned_from"] if raw.get("pruned_from") else 0.0
    out["sampling.mask_width"] = raw["admissible"] / raw["scanned"] if raw.get("scanned") else 0.0
    return out


def per_layer(setup: list[Span], rounds: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics of one set-up plus one pass: the set-up's spans are
    added to each traced round's, and each metric is the median over rounds."""
    base = _raw_totals(setup)
    finished = []
    for spans in rounds:
        raw = _raw_totals(spans)
        for key, value in base.items():
            raw[key] += value
        finished.append(_finish(raw))
    return {name: statistics.median(f[name] for f in finished) for name, _ in PER_LAYER}


def write_jsonl(path: Path, phases: dict[str, list[Span]]) -> None:
    """One JSON line per span; ``id`` and ``parent`` count within a phase."""
    with path.open("w", encoding="ascii") as f:
        for phase, spans in phases.items():
            for idx, s in enumerate(spans):
                f.write(json.dumps({"phase": phase, "id": idx, "name": s.name,
                                    "parent": s.parent, "op": s.op, "start_s": s.start,
                                    "end_s": s.end, **(s.counts or {})}) + "\n")

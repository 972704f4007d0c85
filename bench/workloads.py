"""The three workloads: inputs, set-up, timed operations and output checks.

An operation returns ``(parts, output)``: ``parts`` maps ``"stream"``,
``"decode"`` or ``"other"`` to seconds, and ``output`` is what the checks
read.  Calls into k2seq go through module attributes (``sq.encode_graph``),
so the spans of a traced round see them.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from k2seq import cli
from k2seq import generators as gn
from k2seq import metrics as mt
from k2seq import sampling as sp
from k2seq import sequence as sq

ROOT = Path(__file__).resolve().parent.parent


def _read(path: Path) -> str:
    return path.read_text(encoding="ascii")


def _stream_check(where: str, text: str, n: int, edges: np.ndarray, labeled: bool,
                  k: int) -> tuple[list[str], int]:
    """Header, perm and size checks of one stream against the block-count
    oracle; returns the errors and the stream's value count."""
    from oracles import block_counts, is_bijection, smallest_power, stream_fields

    f = stream_fields(text)
    errors = []
    if (f.k, f.original_n, f.featured) != (k, n, labeled):
        errors.append(f"{where}: header {f.k} {f.original_n} {int(f.featured)}")
    if f.padded_n != smallest_power(n, k):
        errors.append(f"{where}: padded_n {f.padded_n} for n={n}, K={k}")
    if f.perm is not None and not is_bijection(f.perm, n):
        errors.append(f"{where}: perm is not a bijection")
        return errors, f.values
    want = block_counts(n, edges, f.perm, k, f.padded_n, labeled)
    if (f.tokens, f.values) != want:
        errors.append(f"{where}: {f.tokens} tokens, {f.values} values; "
                      f"the block count gives {want}")
    return errors, f.values


class Workload:
    name = ""
    warmup_ops = 0

    def __init__(self, work: Path, seed: int, small: bool):
        self.work, self.seed, self.small = work, seed, small

    def write_inputs(self) -> None:
        """Generate the inputs with the benchmark's own seeded code."""
        raise NotImplementedError

    def setup(self) -> None:
        """What a user pays before the first operation: read the inputs with
        the program's parsers and build vocabularies or models."""
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, outputs: list) -> tuple[list[str], float]:
        """Errors in one round's outputs, and the round's values per edge.
        A failed operation's output is None; checks skip it."""
        raise NotImplementedError


class RoundtripCorpus(Workload):
    """Small graphs of every family, each encoded at K=2 and K=3 with
    Cuthill-McKee ordering and decoded back."""

    name = "roundtrip-corpus"
    warmup_ops = 20

    def write_inputs(self):
        import inputs

        self.specs = inputs.corpus(self.seed, self.small)
        inputs.write(self.work / "corpus.ds", inputs.dataset_text("corpus", self.seed, self.specs))

    def setup(self):
        self.graphs = gn.read_dataset(_read(self.work / "corpus.ds")).graphs

    def ops(self):
        def op(g, k):
            def run():
                t0 = perf_counter()
                text = sq.write_token_stream(sq.encode_graph(g, k, ordering="cm"))
                t1 = perf_counter()
                back = sq.decode_graph(sq.read_token_stream(text))
                t2 = perf_counter()
                return {"stream": t1 - t0, "decode": t2 - t1}, (text, back)
            return run
        return [op(g, k) for g in self.graphs for k in (2, 3)]

    def check(self, outputs):
        errors, values, edges = [], 0, 0
        for idx, out in enumerate(outputs):
            if out is None:
                continue
            text, back = out
            spec, k = self.specs[idx // 2], 2 + idx % 2
            where = f"graph {idx // 2} ({spec.family}, n={spec.n}) K={k}"
            if back.n != spec.n or back.edges != spec.edge_set():
                errors.append(f"{where}: decoded graph differs from the input")
            if spec.labeled and (
                    back.node_labels != dict(enumerate(spec.node_labels.tolist()))
                    or back.edge_labels != dict(zip(map(tuple, spec.edges.tolist()),
                                                    spec.edge_labels.tolist()))):
                errors.append(f"{where}: decoded labels differ from the input")
            errs, v = _stream_check(where, text, spec.n, spec.edges, spec.labeled, k)
            errors += errs
            values += v
            edges += spec.m
        return errors, values / max(edges, 1)


class CliLarge(Workload):
    """Large sparse edge-list files through ``k2seq encode --order cm``,
    ``decode`` and ``stats``, in-process through ``k2seq.cli.main``."""

    name = "cli-large"
    warmup_ops = 3

    def write_inputs(self):
        import inputs

        self.specs = []
        for name, spec in inputs.cli_files(self.seed, self.small):
            inputs.write(self.work / f"{name}.txt", inputs.edge_list_text(spec))
            self.specs.append((name, spec))

    def setup(self):
        self.names = sorted(p.stem for p in self.work.glob("*.txt"))

    def ops(self):
        def command(argv, part, out=None):
            def run():
                buf = io.StringIO()
                t0 = perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(argv)
                t1 = perf_counter()
                return {part: t1 - t0}, (code, out.read_bytes() if out else buf.getvalue())
            return run

        ops = []
        # Smallest file first, so that the warm-up operations are cheap.
        for name in sorted(self.names, key=lambda n: (self.work / f"{n}.txt").stat().st_size):
            src, k2s, back = (self.work / f"{name}{ext}" for ext in (".txt", ".k2s", ".back"))
            ops.append(command(["encode", "--k", "2", "--order", "cm", "--in", str(src),
                                "--out", str(k2s)], "stream", k2s))
            ops.append(command(["decode", "--in", str(k2s), "--out", str(back)], "decode", back))
            ops.append(command(["stats", "--k", "2", "--order", "cm", "--in", str(src)], "other"))
        return ops

    def check(self, outputs):
        specs = dict(self.specs)
        order = sorted(self.names, key=lambda n: (self.work / f"{n}.txt").stat().st_size)
        errors, values, edges = [], 0, 0
        for i, name in enumerate(order):
            spec = specs[name]
            if None in outputs[3 * i:3 * i + 3]:
                continue
            (c1, stream), (c2, decoded), (c3, stats) = outputs[3 * i:3 * i + 3]
            if (c1, c2, c3) != (0, 0, 0):
                errors.append(f"{name}: exit codes {c1} {c2} {c3}")
                continue
            if decoded != (self.work / f"{name}.txt").read_bytes():
                errors.append(f"{name}: decoded file differs from the input file")
            text = stream.decode("ascii")
            errs, v = _stream_check(name, text, spec.n, spec.edges, False, 2)
            errors += errs
            tokens = len(text.split("\n")[1].split())
            printed = dict(line.split("\t") for line in stats.strip().split("\n"))
            if int(printed["tokens"]) != tokens or int(printed["attrs_pruned"]) != v:
                errors.append(f"{name}: stats prints tokens {printed['tokens']} and "
                              f"attrs_pruned {printed['attrs_pruned']}, the stream has "
                              f"{tokens} and {v}")
            if not math.isclose(float(printed["ratio"]), v / spec.n ** 2, rel_tol=1e-11):
                errors.append(f"{name}: ratio {printed['ratio']} is not {v} / {spec.n}^2")
            values += v
            edges += spec.m
        return errors, values / max(edges, 1)


class GenerateEval(Workload):
    """Order-3 n-gram models at K=2 and K=3 sample under the structural mask;
    the samples are decoded and scored against a reference set."""

    name = "generate-eval"
    warmup_ops = 1
    KS = (2, 3)
    # Samples per K, full size and small, and how many of each K
    # evaluate_sets scores.  The sampling seeds are fixed like the model, so
    # every run draws the same samples; the seed varies the reference set.
    SAMPLES = {False: {2: 48, 3: 6}, True: {2: 3, 3: 2}}
    EVALUATED = 6

    def write_inputs(self):
        import inputs

        train, ref = inputs.planar_sets(self.seed, self.small)
        inputs.write(self.work / "train.ds", inputs.dataset_text("train", self.seed, train))
        inputs.write(self.work / "ref.ds", inputs.dataset_text("ref", self.seed, ref))

    def setup(self):
        train = gn.read_dataset(_read(self.work / "train.ds")).graphs
        self.ref = gn.read_dataset(_read(self.work / "ref.ds")).graphs
        self.models, self.sizes = {}, {}
        for k in self.KS:
            corpus = [sq.encode_graph(g, k, ordering="cm") for g in train]
            self.models[k] = sp.ngram_model(corpus, 3)
            self.sizes[k] = sp.empirical_sizes(corpus)
        rng = np.random.default_rng(4)
        self.sample_seeds = {k: [int(s) for s in rng.integers(0, 2 ** 31, size=count)]
                             for k, count in self.SAMPLES[self.small].items()}

    def ops(self):
        self.samples = {k: [None] * len(self.sample_seeds[k]) for k in self.KS}

        def sample(k, i):
            config = sp.GenerationConfig(k=k, seed=self.sample_seeds[k][i], sizes=self.sizes[k])

            def run():
                t0 = perf_counter()
                text = sq.write_token_stream(sp.sample_sequence(self.models[k], config))
                t1 = perf_counter()
                g = sq.decode_graph(sq.read_token_stream(text))
                t2 = perf_counter()
                self.samples[k][i] = g
                return {"stream": t1 - t0, "decode": t2 - t1}, (text, g)
            return run

        def evaluate(k):
            def run():
                t0 = perf_counter()
                values = mt.evaluate_sets(self.ref, self.samples[k][:self.EVALUATED],
                                          ("deg", "clus", "orbit"))
                return {"other": perf_counter() - t0}, values
            return run

        ops = []
        for k in self.KS:
            ops += [sample(k, i) for i in range(len(self.sample_seeds[k]))]
            ops.append(evaluate(k))
        return ops

    def check(self, outputs):
        import oracles

        errors, values, edges = [], 0, 0
        pos = 0
        helpers = _test_helpers()
        for k in self.KS:
            count = len(self.sample_seeds[k])
            samples, scores = outputs[pos:pos + count], outputs[pos + count]
            pos += count + 1
            for i, out in enumerate(samples):
                if out is None:
                    continue
                text, g = out
                where = f"K={k} sample {i}"
                f = oracles.stream_fields(text)
                if g.n != f.original_n or any(not 0 <= u < v < g.n for u, v in g.edges):
                    errors.append(f"{where}: not a simple graph on {f.original_n} nodes")
                if sq.write_token_stream(sq.encode_graph(g, k)) != text:
                    errors.append(f"{where}: re-encoding does not reproduce the stream")
                values += f.values
                edges += g.m
            if scores is None or None in samples[:self.EVALUATED]:
                continue
            nx_ref = [oracles.nx_graph(g.n, g.edges) for g in self.ref]
            nx_gen = [oracles.nx_graph(g.n, g.edges) for _, g in samples[:self.EVALUATED]]
            for metric, feature in (("deg", oracles.degree_counts),
                                    ("clus", oracles.clustering_counts)):
                want = oracles.tv_mmd([feature(g) for g in nx_ref], [feature(g) for g in nx_gen])
                if abs(scores[metric] - want) > 1e-9:
                    errors.append(f"K={k} {metric}: MMD {scores[metric]!r}, "
                                  f"recomputed {want!r}")
            errors += _orbit_check(f"K={k} sample 0", samples[0][1], nx_gen[0], helpers)
        return errors, values / max(edges, 1)


def _test_helpers():
    """``tests/helpers.py``, the test suite's brute-force orbit oracle."""
    spec = importlib.util.spec_from_file_location("k2seq_test_helpers",
                                                  ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _orbit_check(where: str, g, nx_g, helpers) -> list[str]:
    """Orbit counts of ``g`` against networkx's 4-cliques, and of its
    induced subgraph on the first 12 nodes against the brute-force oracle."""
    from oracles import clique4_per_node

    errors = []
    counts = mt.orbit4_counts(g)
    if not np.array_equal(counts[:, 10], clique4_per_node(nx_g)):
        errors.append(f"{where}: 4-clique orbit differs from networkx")
    sub_n = min(12, g.n)
    sub = type(g)(n=sub_n, edges=frozenset(e for e in g.edges if e[1] < sub_n))
    if not np.array_equal(mt.orbit4_counts(sub), helpers.orbit4_oracle(sub)):
        errors.append(f"{where}: orbit counts differ from the brute-force oracle")
    return errors


WORKLOADS = {w.name: w for w in (RoundtripCorpus, CliLarge, GenerateEval)}

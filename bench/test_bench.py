"""Tests of the benchmark's own oracles and inputs, and a smoke run.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from k2seq import Graph, encode_graph, write_token_stream  # noqa: E402
from k2seq.metrics import (clustering_histogram, degree_histogram, mmd,  # noqa: E402
                           orbit4_counts)

STAR = "2 4 4 0\nd:110 d:010 o:0101\nperm 1 0 2 3\n"
STAR_EDGES = np.array([[0, 1], [0, 2], [0, 3]])


def test_star_stream_fields():
    f = oracles.stream_fields(STAR)
    assert (f.k, f.padded_n, f.original_n, f.featured) == (2, 4, 4, False)
    assert (f.tokens, f.values, f.perm) == (3, 10, (1, 0, 2, 3))


def test_star_block_count():
    assert oracles.block_counts(4, STAR_EDGES, (1, 0, 2, 3), 2, 4, False) == (3, 10)


def test_block_count_of_empty_graph():
    assert oracles.block_counts(5, np.zeros((0, 2), dtype=np.int64), None, 2, 8, False) == (0, 0)


def test_labeled_block_count_covers_the_diagonal():
    # One node, no edges: the node label alone fills cell (0, 0) of a 2x2
    # matrix, so the root is one diagonal token of 3 values.
    assert oracles.block_counts(1, np.zeros((0, 2), dtype=np.int64), None, 2, 2, True) == (1, 3)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("ordering", ["identity", "cm"])
def test_block_count_agrees_with_the_encoder(k, ordering):
    rng = np.random.default_rng(7)
    specs = [inputs.grid(3, 4), inputs.er(rng, 20, 0.2), inputs.planar(rng, 16),
             inputs.community(rng, 14, 0.7, 0.1), inputs.labeled_er(rng, 9, 0.3, 3, 2)]
    for spec in specs:
        g = Graph(n=spec.n, edges=spec.edge_set(),
                  node_labels=dict(enumerate(spec.node_labels.tolist())) if spec.labeled else None,
                  edge_labels=dict(zip(map(tuple, spec.edges.tolist()), spec.edge_labels.tolist()))
                  if spec.labeled else None,
                  node_vocab=spec.node_vocab, edge_vocab=spec.edge_vocab)
        f = oracles.stream_fields(write_token_stream(encode_graph(g, k, ordering=ordering)))
        assert (f.tokens, f.values) == oracles.block_counts(
            spec.n, spec.edges, f.perm, k, f.padded_n, spec.labeled), spec.family


def test_smallest_power_and_bijection():
    assert [oracles.smallest_power(n, 2) for n in (1, 2, 3, 4, 5, 64, 65)] == [2, 2, 4, 4, 8, 64, 128]
    assert oracles.smallest_power(28, 3) == 81
    assert oracles.is_bijection((1, 0, 2, 3), 4)
    assert not oracles.is_bijection((1, 1, 2, 3), 4)
    assert not oracles.is_bijection((0, 1, 2), 4)


def test_tv_mmd_hand_values():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    assert oracles.tv_mmd([a], [a]) == 0.0
    assert math.isclose(oracles.tv_mmd([a], [b]), 2.0 - 2.0 * math.exp(-0.5), rel_tol=1e-15)
    # Padding: [1] and [1, 0] are the same distribution.
    assert oracles.tv_mmd([np.array([1.0])], [a]) == 0.0


def test_networkx_features_agree_with_the_program():
    # A triangle with a pendant node and an isolated node.
    edges = frozenset({(0, 1), (0, 2), (1, 2), (2, 3)})
    g = Graph(n=5, edges=edges)
    nx_g = oracles.nx_graph(5, edges)
    assert oracles.degree_counts(nx_g).tolist() == [1, 1, 2, 1]
    assert oracles.degree_counts(nx_g).tolist() == degree_histogram(g).counts.tolist()
    assert oracles.clustering_counts(nx_g).tolist() == clustering_histogram(g).counts.tolist()
    h = Graph(n=4, edges=frozenset({(0, 1), (1, 2), (2, 3)}))
    want = oracles.tv_mmd([oracles.degree_counts(nx_g)],
                          [oracles.degree_counts(oracles.nx_graph(4, h.edges))])
    assert abs(mmd([degree_histogram(g)], [degree_histogram(h)]) - want) < 1e-12


def test_clique4_per_node():
    k5 = frozenset((u, v) for u in range(5) for v in range(u + 1, 5))
    assert oracles.clique4_per_node(oracles.nx_graph(5, k5)).tolist() == [4] * 5
    assert orbit4_counts(Graph(n=5, edges=k5))[:, 10].tolist() == [4] * 5
    path = frozenset({(0, 1), (1, 2), (2, 3)})
    assert oracles.clique4_per_node(oracles.nx_graph(4, path)).tolist() == [0] * 4


def test_inputs_follow_the_seed():
    def texts(seed):
        return (inputs.dataset_text("c", seed, inputs.corpus(seed, True)),
                [inputs.edge_list_text(s) for _, s in inputs.cli_files(seed, True)])

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def test_generated_graphs_are_canonical_and_simple():
    rng = np.random.default_rng(1)
    for spec in (inputs.planar(rng, 40), inputs.community(rng, 30, 0.5, 0.1),
                 inputs.er(rng, 30, 0.3), inputs.grid(5, 6)):
        e = spec.edges
        assert (e[:, 0] < e[:, 1]).all() and e.max() < spec.n
        assert len(np.unique(e, axis=0)) == len(e)
        assert [tuple(x) for x in e.tolist()] == sorted(map(tuple, e.tolist()))
    assert inputs.grid(5, 6).m == 5 * 5 + 4 * 6
    assert len(np.unique(inputs.planar(rng, 50).edges)) == 50


def test_smoke_runs_every_workload():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok ") == 6


# Per-layer metrics each workload's traced run must see work in.
LAYERS = {
    "roundtrip-corpus": ("graphs.parse_ms", "graphs.order_ms", "graphs.relabel_ms",
                         "tree.build_ms", "tree.rebuild_ms", "sequence.prune_ms",
                         "sequence.flatten_ms", "sequence.write_ms", "sequence.read_ms",
                         "sequence.detokenize_ms", "generators.read_dataset_ms",
                         "tree.full_nodes", "tree.kept_ratio", "sequence.tokens"),
    "cli-large": ("graphs.parse_ms", "graphs.serialize_ms", "tree.build_ms",
                  "sequence.detokenize_ms", "cli.encode_ms", "cli.decode_ms",
                  "cli.stats_ms", "cli.overhead_ms"),
    "generate-eval": ("sampling.mask_ms.k2", "sampling.mask_ms.k3", "sampling.model_ms",
                      "sampling.step_ms", "sampling.steps", "sampling.mask_width",
                      "sampling.train_ms", "metrics.degree_ms", "metrics.clustering_ms",
                      "metrics.orbit_ms", "metrics.mmd_ms", "generators.read_dataset_ms"),
}


@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_traced_run_sees_each_layer(workload):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "2", "--seconds", "0", "--trace", "1", "--smoke"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert [name for name in LAYERS[workload] if metrics[name]["value"] <= 0] == []


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)

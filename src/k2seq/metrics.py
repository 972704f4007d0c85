"""Graph-distribution statistics and kernel two-sample distances.

Per-graph features are degree histograms, local-clustering-coefficient
histograms (100 uniform bins on [0, 1]), and per-node counts over the 11
orbits of the six connected 4-node graphlets.  Sets of graphs are compared
with a biased squared MMD estimate under a Gaussian kernel over total
variation distance for histograms, or over Euclidean distance for plain
feature vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .graphs import Graph
from .sequence import TokenSequence, encode_graph

CLUSTERING_BINS = 100
ORBIT_COUNT = 11
ORBIT_GUARD_N = 128

# Orbit columns 0..10 stand for the conventional graphlet orbits 4..14:
# path ends / path interiors, star leaves / star center, 4-cycle,
# tailed-triangle tail / triangle pair / attachment, diamond degree-2 /
# degree-3, and the 4-clique.
_ORBIT_BY_SHAPE = {
    (3, (1, 1, 2, 2)): {1: 0, 2: 1},
    (3, (1, 1, 1, 3)): {1: 2, 3: 3},
    (4, (2, 2, 2, 2)): {2: 4},
    (4, (1, 2, 2, 3)): {1: 5, 2: 6, 3: 7},
    (5, (2, 2, 3, 3)): {2: 8, 3: 9},
    (6, (3, 3, 3, 3)): {3: 10},
}


class MetricsError(ValueError):
    """Raised for undefined metric inputs."""


@dataclass(frozen=True)
class KernelConfig:
    sigma: float = 1.0


@dataclass(frozen=True)
class Histogram:
    """Counts over bins delimited by ``edges`` (length ``len(counts) + 1``)."""

    counts: np.ndarray
    edges: np.ndarray

    def normalized(self) -> np.ndarray:
        total = self.counts.sum()
        if total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts.astype(float) / total


def degree_histogram(g: Graph) -> Histogram:
    """Counts of node degrees 0..max on unit-width integer bins."""
    counts = np.bincount(g.degrees())
    return Histogram(counts=counts.astype(np.int64),
                     edges=np.arange(len(counts) + 1, dtype=float))


def clustering_values(g: Graph) -> np.ndarray:
    """Local clustering coefficient per node; 0 for degree below 2."""
    adj = [set(neigh) for neigh in g.neighbors()]
    vals = np.zeros(g.n)
    for u in range(g.n):
        d = len(adj[u])
        if d < 2:
            continue
        links = sum(1 for a, b in combinations(sorted(adj[u]), 2) if b in adj[a])
        vals[u] = 2.0 * links / (d * (d - 1))
    return vals


def clustering_histogram(g: Graph) -> Histogram:
    """Local clustering coefficients on 100 uniform bins over [0, 1]."""
    counts, edges = np.histogram(clustering_values(g), bins=CLUSTERING_BINS,
                                 range=(0.0, 1.0))
    return Histogram(counts=counts.astype(np.int64), edges=edges)


def _connected_quads(adj: list[set[int]], n: int) -> list[tuple[int, ...]]:
    """Every connected induced 4-node subgraph exactly once (ESU enumeration)."""
    quads: list[tuple[int, ...]] = []

    def extend(sub: tuple[int, ...], ext: set[int], root: int):
        if len(sub) == 4:
            quads.append(sub)
            return
        ext = set(ext)
        while ext:
            w = ext.pop()
            exclusive = {u for u in adj[w]
                         if u > root and u not in sub
                         and all(u not in adj[x] for x in sub)}
            extend(sub + (w,), ext | exclusive, root)

    for v in range(n):
        extend((v,), {u for u in adj[v] if u > v}, v)
    return quads


def orbit4_counts(g: Graph) -> np.ndarray:
    """Per-node counts over the 11 orbits of connected 4-node graphlets.

    Brute-force enumeration; guarded to ``n <= 128``.
    """
    if g.n > ORBIT_GUARD_N:
        raise MetricsError(f"orbit counting is limited to n <= {ORBIT_GUARD_N}")
    adj = [set(neigh) for neigh in g.neighbors()]
    counts = np.zeros((g.n, ORBIT_COUNT), dtype=np.int64)
    for quad in _connected_quads(adj, g.n):
        degs = [sum(1 for other in quad if other in adj[node]) for node in quad]
        edges = sum(degs) // 2
        orbit_of = _ORBIT_BY_SHAPE[(edges, tuple(sorted(degs)))]
        for node, d in zip(quad, degs):
            counts[node, orbit_of[d]] += 1
    return counts


def mean_orbit_vector(g: Graph) -> np.ndarray:
    """Mean of per-node orbit counts; the per-graph orbit feature."""
    return orbit4_counts(g).mean(axis=0)


def _common_histogram_matrix(hists: Sequence[Histogram]) -> np.ndarray:
    """Stack normalized histograms; unit-width integer binnings are padded to
    a common length, any other edge mismatch is an error."""
    first = hists[0]
    if all(len(h.edges) == len(first.edges) and np.allclose(h.edges, first.edges)
           for h in hists):
        return np.stack([h.normalized() for h in hists])
    for h in hists:
        if not np.array_equal(h.edges, np.arange(len(h.counts) + 1, dtype=float)):
            raise MetricsError("histograms have mismatched bins")
    width = max(len(h.counts) for h in hists)
    rows = []
    for h in hists:
        row = h.normalized()
        rows.append(np.pad(row, (0, width - len(row))))
    return np.stack(rows)


def _gaussian_kernel(dist: np.ndarray, sigma: float) -> np.ndarray:
    return np.exp(-(dist ** 2) / (2.0 * sigma ** 2))


def mmd(set_a: Sequence, set_b: Sequence, config: KernelConfig = KernelConfig()) -> float:
    """Biased squared-MMD estimate between two feature sets.

    Histogram features use a Gaussian kernel over total variation distance of
    the normalized histograms; plain vectors use a Gaussian kernel over
    Euclidean distance.  Mixing the two is an error, as are empty sets.
    """
    if not len(set_a) or not len(set_b):
        raise MetricsError("mmd requires two non-empty feature sets")
    flags = [isinstance(x, Histogram) for x in list(set_a) + list(set_b)]
    if any(flags) and not all(flags):
        raise MetricsError("cannot mix histogram and vector features")
    if all(flags):
        both = _common_histogram_matrix(list(set_a) + list(set_b))
        mat_a, mat_b = both[:len(set_a)], both[len(set_a):]

        def dist(x, y):
            return np.abs(x[:, None, :] - y[None, :, :]).sum(axis=-1) / 2.0
    else:
        mat_a = np.stack([np.asarray(x, dtype=float) for x in set_a])
        mat_b = np.stack([np.asarray(x, dtype=float) for x in set_b])
        if mat_a.shape[1] != mat_b.shape[1]:
            raise MetricsError("feature vectors have mismatched lengths")

        def dist(x, y):
            return np.sqrt(((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1))
    sigma = config.sigma
    value = (_gaussian_kernel(dist(mat_a, mat_a), sigma).mean()
             + _gaussian_kernel(dist(mat_b, mat_b), sigma).mean()
             - 2.0 * _gaussian_kernel(dist(mat_a, mat_b), sigma).mean())
    return max(float(value), 0.0)


METRIC_NAMES = ("deg", "clus", "orbit")


def evaluate_sets(ref: Sequence[Graph], gen: Sequence[Graph],
                  metrics: Sequence[str] = METRIC_NAMES,
                  config: KernelConfig = KernelConfig()) -> dict[str, float]:
    """MMD between two graph sets for each named metric."""
    out: dict[str, float] = {}
    for name in metrics:
        if name == "deg":
            out[name] = mmd([degree_histogram(g) for g in ref],
                            [degree_histogram(g) for g in gen], config)
        elif name == "clus":
            out[name] = mmd([clustering_histogram(g) for g in ref],
                            [clustering_histogram(g) for g in gen], config)
        elif name == "orbit":
            out[name] = mmd([mean_orbit_vector(g) for g in ref],
                            [mean_orbit_vector(g) for g in gen], config)
        else:
            raise MetricsError(f"unknown metric {name!r}")
    return out


def compression_ratio(g: Graph, k: int, ordering: str = "identity",
                      reverse: bool = False) -> float:
    """Total pruned-token attribute count divided by ``n**2``.

    Undefined for graphs whose matrix is all zero (a plain graph without
    edges).
    """
    return sequence_ratio(encode_graph(g, k, ordering=ordering, reverse=reverse))


def sequence_ratio(s: TokenSequence) -> float:
    """:func:`compression_ratio` of the graph that ``s`` encodes."""
    if not s.tokens:
        raise MetricsError("compression ratio is undefined for an empty graph")
    return s.total_values / float(s.original_n * s.original_n)

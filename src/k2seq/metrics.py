"""Graph-distribution statistics and kernel two-sample distances.

Per-graph features are degree histograms, local-clustering-coefficient
histograms (100 uniform bins on [0, 1]), and per-node counts over the 11
orbits of the six connected 4-node graphlets.  Sets of graphs are compared
with a biased squared MMD estimate under a Gaussian kernel over total
variation distance for histograms, or over Euclidean distance for plain
feature vectors.

A graph cannot change, so :func:`degree_histogram`,
:func:`clustering_histogram` and :func:`mean_orbit_vector` compute their
result once per :class:`Graph` instance and keep it on that instance, as
the graph keeps its cached ``edges``: a reference set scored again costs
only its MMD.  Kept results are read-only.  :func:`orbit4_counts` and
:func:`clustering_values`, a row or a value per node, are not kept.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph
from .sequence import TokenSequence, encode_graph

CLUSTERING_BINS = 100

class MetricsError(ValueError):
    """Raised for undefined metric inputs."""


@dataclass(frozen=True)
class KernelConfig:
    sigma: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise MetricsError(f"kernel sigma must be finite and positive, got {self.sigma}")


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


def _kept_per_graph(feature):
    """``feature`` computed on the first call for a graph instance and kept
    in that instance's dict (where the frozen ``Graph`` keeps its cached
    views) under the feature's name; its arrays are made read-only, as
    every later caller shares them."""
    key = f"_{feature.__name__}"

    @functools.wraps(feature)
    def kept(g: Graph):
        cache = vars(g)
        if key not in cache:
            value = feature(g)
            for array in ((value.counts, value.edges) if isinstance(value, Histogram)
                          else (value,)):
                array.flags.writeable = False
            cache[key] = value
        return cache[key]
    return kept


@_kept_per_graph
def degree_histogram(g: Graph) -> Histogram:
    """Counts of node degrees 0..max on unit-width integer bins; kept per
    graph, read-only."""
    counts = np.bincount(g.degree_array())
    return Histogram(counts=counts.astype(np.int64),
                     edges=np.arange(len(counts) + 1, dtype=float))


def _triangles(g: Graph):
    """Edge keys ``u * n + v`` and rows ``u < v``, both sorted; row pointers of
    each node's later neighbours; degrees; triangles ``u < v < w`` as rows."""
    edges = g.edge_array
    keys = edges[:, 0] * g.n + edges[:, 1]
    later = np.searchsorted(edges[:, 0], np.arange(g.n + 1))
    tri = _grow_cliques(edges, later, keys, edges)
    deg = np.bincount(edges.ravel(), minlength=g.n)
    return edges, keys, later, deg, tri


def _grow_cliques(edges, later, keys, cliques):
    """The cliques one node larger: each clique row ``a < ... < w`` with every
    later neighbour ``x`` of ``w`` whose keys ``a * n + x`` are all edge ``keys``."""
    counts = np.diff(later)[cliques[:, -1]]
    pos = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - later[cliques[:, -1] + 1], counts)
    grown = np.column_stack([np.repeat(cliques, counts, axis=0), edges[pos, 1]])
    want = grown[:, :-2] * (len(later) - 1) + grown[:, -1:]
    return grown[(np.append(keys, -1)[np.searchsorted(keys, want)] == want).all(axis=1)]


def clustering_values(g: Graph) -> np.ndarray:
    """Local clustering coefficient per node; 0 for degree below 2."""
    *_, d, tri = _triangles(g)
    return 2.0 * np.bincount(tri.ravel(), minlength=g.n) / np.maximum(d * (d - 1), 1)


@_kept_per_graph
def clustering_histogram(g: Graph) -> Histogram:
    """Local clustering coefficients on 100 uniform bins over [0, 1]; kept
    per graph, read-only."""
    counts, edges = np.histogram(clustering_values(g), bins=CLUSTERING_BINS,
                                 range=(0.0, 1.0))
    return Histogram(counts=counts.astype(np.int64), edges=edges)


def _row_sums(ptr, values):
    """Sums of ``values`` over the row slices ``ptr[i]:ptr[i + 1]``, exact in int64."""
    total = np.r_[0, np.cumsum(values, dtype=np.int64)]
    return total[ptr[1:]] - total[ptr[:-1]]


def orbit4_counts(g: Graph) -> np.ndarray:
    """Per-node counts over the 11 orbits of connected 4-node graphlets.

    Columns 0..10 are the graphlet orbits 4..14: path end / interior, star
    leaf / center, 4-cycle, tailed-triangle tail / pair / attachment, diamond
    degree-2 / degree-3, and the 4-clique.  Solved as in ORCA (Hočevar &
    Demšar, Bioinformatics 2014) from the 4-cliques and ten non-induced
    subgraph counts, with no size limit.
    """
    edges, keys, later, d, tri = _triangles(g)
    t = np.bincount(tri.ravel(), minlength=g.n)
    # Both directions of every edge, sorted by source, and each node's row.
    src, dst = np.divmod(np.sort(np.r_[keys, edges[:, 1] * g.n + edges[:, 0]]), g.n)
    row = np.searchsorted(src, np.arange(g.n + 1))

    def adj(v):
        return _row_sums(row, v[dst])

    # Wedges i - w - j (i != j) as keys i * n + j, one per ordered neighbour
    # pair of each w; a key's multiplicity is the number of common neighbours.
    reps = (d - 1)[src]
    first = np.repeat(np.arange(len(src)), reps)
    second = row[src[first]] + np.arange(len(first)) - np.repeat(np.cumsum(reps) - reps, reps)
    second += second >= first
    pairs, common = np.unique(dst[first] * g.n + dst[second], return_counts=True)
    wedge_sq = _row_sums(np.searchsorted(pairs // g.n, np.arange(g.n + 1)), common * common)
    o14 = np.bincount(_grow_cliques(edges, later, keys, tri).ravel(), minlength=g.n)
    # Each triangle's edges (ab, ac, bc) by index, and common neighbours per edge.
    tri_edges = np.searchsorted(keys, tri[:, [0, 0, 1]] * g.n + tri[:, [1, 2, 2]])
    c = np.bincount(tri_edges.ravel(), minlength=len(keys))

    def per_node(nodes, values):
        return np.bincount(nodes.ravel(), values.ravel(), minlength=g.n).astype(np.int64)

    # Each orbit is a count of non-induced subgraphs minus the larger orbits
    # that also contain that subgraph, from the 4-clique down.
    o13 = per_node(edges, np.c_[c, c] * (c[:, None] - 1) // 2) - 3 * o14
    o12 = per_node(tri, c[tri_edges[:, ::-1]] - 1) - 3 * o14
    o11 = t * (d - 2) - 2 * o13 - 3 * o14
    o10 = per_node(edges, c[:, None] * (d[edges[:, ::-1]] - 2)) - 2 * o12 - 2 * o13 - 6 * o14
    o9 = adj(t) - 2 * t - 2 * o12 - 3 * o14
    o8 = (wedge_sq - adj(d) + d) // 2 - o12 - o13 - 3 * o14
    o7 = d * (d - 1) * (d - 2) // 6 - o11 - o13 - o14
    o6 = adj((d - 1) * (d - 2) // 2) - o9 - o10 - 2 * o12 - o13 - 3 * o14
    o5 = ((d - 1) * adj(d - 1) - 2 * t
          - 2 * o8 - o10 - 2 * o11 - 2 * o12 - 4 * o13 - 6 * o14)
    o4 = (adj(adj(d - 1)) - d * (d - 1) - 2 * t
          - 2 * o8 - 2 * o9 - o10 - 4 * o12 - 2 * o13 - 6 * o14)
    return np.stack([o4, o5, o6, o7, o8, o9, o10, o11, o12, o13, o14], axis=1)


@_kept_per_graph
def mean_orbit_vector(g: Graph) -> np.ndarray:
    """Mean of per-node orbit counts; the per-graph orbit feature, kept per
    graph, read-only."""
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
    if not len(s.diag):
        raise MetricsError("compression ratio is undefined for an empty graph")
    return s.total_values / float(s.original_n * s.original_n)

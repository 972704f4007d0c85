"""Seeded synthetic graph families and a multi-graph dataset file format.

A dataset file is a one-line header ``"# dataset <name> seed <s> count <c>"``
followed by edge-list records separated by single blank lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import Graph, GraphError, ParseError, parse_edge_list, serialize_edge_list


def gen_grid(rows: int, cols: int) -> Graph:
    """Rectangular lattice with ``rows * cols`` nodes in row-major order."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1].ravel(), ids[1:].ravel()], axis=1)
    return Graph.from_arrays(rows * cols, np.concatenate([right, down]))


def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi graph: each pair is an edge independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # One draw per row, u ascending, so a seed keeps its graph; a single
    # draw over all pairs would hold n*(n-1)/2 floats at once.
    heads = [np.flatnonzero(rng.random(n - u - 1) < p) + (u + 1) for u in range(n)]
    tails = np.repeat(np.arange(n), [len(h) for h in heads])
    heads = np.concatenate([np.zeros(0, dtype=np.int64), *heads])
    return Graph.from_arrays(n, np.stack([tails, heads], axis=1))


def gen_community(n: int, p_intra: float = 0.7, inter_frac: float = 0.05,
                  seed: int = 0) -> Graph:
    """Two Erdos-Renyi halves plus a fixed number of cross edges.

    The halves have ``ceil(n/2)`` and ``floor(n/2)`` nodes with intra-community
    edge probability ``p_intra``; ``ceil(inter_frac * n)`` distinct cross pairs
    are then added uniformly at random.  Connectedness is not enforced.
    """
    if n < 2:
        raise ValueError("community graphs need at least 2 nodes")
    if not 0.0 <= p_intra <= 1.0:
        raise ValueError("intra-community probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    half = (n + 1) // 2
    parts = []
    for lo, hi in ((0, half), (half, n)):
        # One draw per pair, u ascending and then v, as a loop over pairs draws.
        u, v = np.triu_indices(hi - lo, 1)
        keep = rng.random(len(u)) < p_intra
        parts.append(np.stack([u[keep], v[keep]], axis=1) + lo)
    want = math.ceil(inter_frac * n)
    width = n - half
    if want > half * width:
        raise ValueError(f"{want} cross edges requested but only {half * width} pairs exist")
    if want:
        # Cross pair i is (i // width, half + i % width), u then v ascending.
        picks = rng.choice(half * width, size=want, replace=False)
        parts.append(np.stack([picks // width, half + picks % width], axis=1))
    return Graph.from_arrays(n, np.concatenate(parts))


def gen_planar(n: int, seed: int) -> Graph:
    """Delaunay triangulation of ``n`` uniform random points in the unit square.

    Degenerate point sets (collinear, or with points dropped from the
    triangulation) are perturbed and retried, so every node appears and the
    result is connected and planar.
    """
    from scipy.spatial import Delaunay, QhullError

    if n < 3:
        raise ValueError("planar graphs need at least 3 points")
    rng = np.random.default_rng(seed)
    points = rng.random((n, 2))
    for _ in range(64):
        try:
            tri = Delaunay(points)
        except QhullError:
            points = points + rng.normal(scale=1e-9, size=points.shape)
            continue
        if tri.coplanar.size:
            points = points + rng.normal(scale=1e-9, size=points.shape)
            continue
        # Each side of each triangle, once: neighbouring triangles share one.
        sides = np.sort(tri.simplices[:, [0, 1, 0, 2, 1, 2]].reshape(-1, 2), axis=1)
        return Graph.from_arrays(n, np.unique(sides, axis=0))
    raise RuntimeError("degenerate point set persisted across retries")


FAMILIES = ("grid", "community", "planar", "er")


@dataclass(frozen=True)
class Dataset:
    name: str
    seed: int
    graphs: tuple[Graph, ...]


def write_dataset(ds: Dataset) -> str:
    header = f"# dataset {ds.name} seed {ds.seed} count {len(ds.graphs)}"
    records = [serialize_edge_list(g) for g in ds.graphs]
    return header + "\n" + "\n".join(records)


def read_dataset(text: str) -> Dataset:
    lines = text.split("\n")
    if not lines or not lines[0].startswith("# dataset "):
        raise GraphError("missing dataset header")
    fields = lines[0].split()
    if len(fields) != 7 or fields[:2] != ["#", "dataset"] or fields[3] != "seed" or fields[5] != "count":
        raise GraphError("dataset header must be '# dataset <name> seed <s> count <c>'")
    try:
        seed, count = int(fields[4]), int(fields[6])
    except ValueError:
        raise GraphError("non-integer field in dataset header") from None
    body = "\n".join(lines[1:])
    records = [r for r in body.split("\n\n") if r.strip()]
    graphs = []
    for idx, record in enumerate(records):
        try:
            graphs.append(parse_edge_list(record))
        except ParseError as exc:
            raise GraphError(f"record {idx + 1}: {exc}") from exc
    if len(graphs) != count:
        raise GraphError(f"header claims {count} graphs, file has {len(graphs)}")
    return Dataset(name=fields[2], seed=seed, graphs=tuple(graphs))

"""Seeded benchmark inputs, built without calling k2seq.

Every graph comes from numpy (and scipy's Delaunay for planar graphs) and is
written in the program's edge-list and dataset text formats.  The program only
ever reads these files, so a change to ``k2seq.generators`` cannot change what
the benchmark measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import Delaunay, QhullError


@dataclass(frozen=True)
class Spec:
    """One benchmark graph: sorted ``(u, v)`` rows with ``u < v``, plus
    optional labels (``edge_labels`` aligned with ``edges``)."""

    family: str
    n: int
    edges: np.ndarray
    node_labels: np.ndarray | None = None
    edge_labels: np.ndarray | None = None
    node_vocab: int = 0
    edge_vocab: int = 0

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def labeled(self) -> bool:
        return self.node_labels is not None

    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, self.edges.tolist()))


def _canonical(pairs: np.ndarray) -> np.ndarray:
    """Rows as ``(min, max)``, deduplicated and sorted lexicographically."""
    if len(pairs) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    pairs = np.sort(np.asarray(pairs, dtype=np.int64), axis=1)
    return np.unique(pairs, axis=0)


def er(rng: np.random.Generator, n: int, p: float) -> Spec:
    u, v = np.triu_indices(n, 1)
    keep = rng.random(len(u)) < p
    return Spec("er", n, _canonical(np.stack([u[keep], v[keep]], axis=1)))


def grid(rows: int, cols: int) -> Spec:
    ids = np.arange(rows * cols).reshape(rows, cols)
    right = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    down = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    return Spec("grid", rows * cols, _canonical(np.concatenate([right, down])))


def planar(rng: np.random.Generator, n: int) -> Spec:
    """Delaunay triangulation of ``n`` uniform points; redrawn until every
    point is a vertex of the triangulation."""
    for _ in range(64):
        points = rng.random((n, 2))
        try:
            tri = Delaunay(points)
        except QhullError:
            continue
        if tri.coplanar.size:
            continue
        s = tri.simplices
        pairs = np.concatenate([s[:, [0, 1]], s[:, [0, 2]], s[:, [1, 2]]])
        return Spec("planar", n, _canonical(pairs))
    raise RuntimeError("no non-degenerate point set in 64 draws")


def community(rng: np.random.Generator, n: int, p_intra: float,
              inter_frac: float) -> Spec:
    """Two ER halves plus ``ceil(inter_frac * n)`` distinct cross pairs."""
    half = (n + 1) // 2
    parts = []
    for lo, size in ((0, half), (half, n - half)):
        u, v = np.triu_indices(size, 1)
        keep = rng.random(len(u)) < p_intra
        parts.append(np.stack([u[keep], v[keep]], axis=1) + lo)
    picks = rng.choice(half * (n - half), size=math.ceil(inter_frac * n), replace=False)
    parts.append(np.stack([picks // (n - half), half + picks % (n - half)], axis=1))
    return Spec("community", n, _canonical(np.concatenate(parts)))


def labeled_er(rng: np.random.Generator, n: int, p: float, node_vocab: int,
               edge_vocab: int) -> Spec:
    base = er(rng, n, p)
    return Spec("labeled", n, base.edges,
                node_labels=rng.integers(node_vocab, size=n),
                edge_labels=rng.integers(edge_vocab, size=base.m),
                node_vocab=node_vocab, edge_vocab=edge_vocab)


def edge_list_text(g: Spec) -> str:
    """The program's canonical edge-list text for ``g``."""
    if not g.labeled:
        lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges.tolist()]
    else:
        lines = [f"{g.n} {g.m} {g.node_vocab} {g.edge_vocab}"]
        lines += [f"n {i} {lab}" for i, lab in enumerate(g.node_labels.tolist())]
        lines += [f"e {u} {v} {lab}" for (u, v), lab
                  in zip(g.edges.tolist(), g.edge_labels.tolist())]
    return "\n".join(lines) + "\n"


def dataset_text(name: str, seed: int, graphs: list[Spec]) -> str:
    header = f"# dataset {name} seed {seed} count {len(graphs)}"
    return header + "\n" + "\n".join(edge_list_text(g) for g in graphs)


# ---------------------------------------------------------------- workloads

ER_DENSITIES = (0.05, 0.15, 0.3)


def _spread(lo: int, hi: int, count: int) -> list[int]:
    """``count`` sizes spread evenly over ``lo..hi``.  Sizes are fixed so
    that the seed varies only the random structure, not the mix of sizes,
    and per-seed totals stay close."""
    return [int(x) for x in np.linspace(lo, hi, count).round()]


def corpus(seed: int, small: bool) -> list[Spec]:
    """The round-trip corpus: 20 cycles (4 when small) of ten graphs.

    Each cycle holds four ER graphs (n in 4..64, densities 0.05, 0.15 and 0.3
    in turn), one grid (sides 2..20), one planar graph (n=64), two
    two-community graphs (n in 12..40) and two labeled ER graphs (n in 4..32,
    p=0.2, 3 node and 2 edge labels).
    """
    rng = np.random.default_rng([seed, 1])
    cycles = 4 if small else 20
    er_n = iter(_spread(4, 64, 4 * cycles))
    rows, cols = _spread(2, 20, cycles), _spread(2, 20, cycles)[::-1]
    comm_n = iter(_spread(12, 40, 2 * cycles))
    lab_n = iter(_spread(4, 32, 2 * cycles))
    out: list[Spec] = []
    for c in range(cycles):
        for i in range(4):
            out.append(er(rng, next(er_n), ER_DENSITIES[(4 * c + i) % 3]))
        out.append(grid(rows[c], cols[(7 * c) % cycles]))
        out.append(planar(rng, 64))
        out += [community(rng, next(comm_n), 0.7, 0.05) for _ in range(2)]
        out += [labeled_er(rng, next(lab_n), 0.2, 3, 2) for _ in range(2)]
    return out


def cli_files(seed: int, small: bool) -> list[tuple[str, Spec]]:
    """Large sparse graphs for the CLI; at K=2 they pad to 512 and 1024."""
    rng = np.random.default_rng([seed, 2])
    if small:
        return [("grid-8x8", grid(8, 8)), ("er-64", er(rng, 64, 8 / 63)),
                ("planar-48", planar(rng, 48)), ("community-32", community(rng, 32, 8 / 15, 0.05))]
    return [("grid-32x32", grid(32, 32)), ("er-1024", er(rng, 1024, 8 / 1023)),
            ("planar-1024", planar(rng, 1024)),
            ("community-512", community(rng, 512, 8 / 255, 0.05))]


def planar_sets(seed: int, small: bool) -> tuple[list[Spec], list[Spec]]:
    """Training and reference sets of planar graphs, n spread over 32..64
    (12..16 when small).

    The training set is the same for every seed, so that every run samples
    from the same trained model, as a deployed model would; the seed draws
    the reference set.  A sampled sequence's length varies about 50% around
    its mean with the sampled tree, and with a model that varied by seed the
    mean length moved by about 10% between seeds.
    """
    lo, hi = (12, 16) if small else (32, 64)
    fixed = np.random.default_rng([0, 3])
    train = [planar(fixed, n) for n in _spread(lo, hi, 6 if small else 48)]
    rng = np.random.default_rng([seed, 3])
    ref = [planar(rng, n) for n in _spread(lo, hi, 4 if small else 8)]
    return train, ref


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="ascii")
    return path

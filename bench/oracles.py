"""Checks computed apart from the program.

Nothing here calls k2seq: stream texts are split by hand, token and value
counts come from the edge list, and graph features come from networkx with a
straight numpy MMD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StreamFields:
    k: int
    padded_n: int
    original_n: int
    featured: bool
    tokens: int
    values: int
    perm: tuple[int, ...] | None


def stream_fields(text: str) -> StreamFields:
    """Header, token and value counts, and ``perm`` of a token-stream text."""
    lines = text.rstrip("\n").split("\n")
    k, padded_n, original_n, featured = (int(f) for f in lines[0].split())
    rest = lines[2:] if featured else lines[1:]
    words = rest[0].split() if rest else []
    if featured:
        values = sum(w.count(",") + 1 for w in words)
    else:
        values = sum(len(w) - 2 for w in words)
    perm = None
    if len(rest) > 1:
        fields = rest[1].split()
        if fields[0] != "perm" or len(rest) > 2:
            raise ValueError("unexpected trailing lines in stream")
        perm = tuple(int(f) for f in fields[1:])
    return StreamFields(k, padded_n, original_n, bool(featured), len(words), values, perm)


def smallest_power(n: int, k: int) -> int:
    """Smallest ``k**d`` with ``d >= 1`` that is at least ``n``."""
    size = k
    while size < n:
        size *= k
    return size


def is_bijection(perm: tuple[int, ...], n: int) -> bool:
    return len(perm) == n and sorted(perm) == list(range(n))


def block_counts(n: int, edges: np.ndarray, perm: tuple[int, ...] | None, k: int,
                 padded_n: int, labeled: bool) -> tuple[int, int]:
    """Token and value counts of the pruned, flattened K^2-tree.

    Each distinct non-empty block on or below the diagonal, at every level
    whose blocks are larger than one cell, is one token; a diagonal block has
    ``k(k+1)/2`` values and any other block ``k*k``.  Labeled graphs also fill
    every diagonal cell with a node label.
    """
    pos = np.arange(n)
    if perm is not None:
        pos[np.asarray(perm, dtype=np.int64)] = np.arange(n)
    a, b = pos[edges[:, 0]], pos[edges[:, 1]]
    rows, cols = np.maximum(a, b), np.minimum(a, b)
    if labeled:
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
    tokens = values = 0
    size = padded_n
    while size > 1 and len(rows):
        side = padded_n // size
        blocks = np.unique((rows // size) * side + cols // size)
        diag = int(np.count_nonzero(blocks // side == blocks % side))
        tokens += len(blocks)
        values += diag * (k * (k + 1) // 2) + (len(blocks) - diag) * k * k
        size //= k
    return tokens, values


def nx_graph(n: int, edges):
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def degree_counts(g) -> np.ndarray:
    import networkx as nx

    return np.asarray(nx.degree_histogram(g), dtype=float)


def clustering_counts(g) -> np.ndarray:
    import networkx as nx

    coef = nx.clustering(g)
    values = np.array([coef[u] for u in range(g.number_of_nodes())])
    return np.histogram(values, bins=100, range=(0.0, 1.0))[0].astype(float)


def clique4_per_node(g) -> np.ndarray:
    """Number of 4-cliques each node lies in."""
    import networkx as nx

    out = np.zeros(g.number_of_nodes(), dtype=np.int64)
    for clique in nx.enumerate_all_cliques(g):
        if len(clique) == 4:
            out[clique] += 1
        elif len(clique) > 4:
            break
    return out


def tv_mmd(set_a: list[np.ndarray], set_b: list[np.ndarray], sigma: float = 1.0) -> float:
    """Biased squared MMD of count vectors under a Gaussian kernel over the
    total-variation distance of the normalized, zero-padded vectors."""
    width = max(len(h) for h in set_a + set_b)

    def normalize(h: np.ndarray) -> np.ndarray:
        row = np.zeros(width)
        total = h.sum()
        if total:
            row[:len(h)] = h / total
        return row

    a = np.stack([normalize(h) for h in set_a])
    b = np.stack([normalize(h) for h in set_b])

    def kernel(x: np.ndarray, y: np.ndarray) -> float:
        tv = np.abs(x[:, None, :] - y[None, :, :]).sum(axis=-1) / 2.0
        return float(np.exp(-tv ** 2 / (2.0 * sigma ** 2)).mean())

    return max(kernel(a, a) + kernel(b, b) - 2.0 * kernel(a, b), 0.0)

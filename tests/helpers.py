"""Shared test utilities: random graph construction and independent oracles.

The oracles here deliberately avoid the library's own algorithms: orbit counts
come from explicit subgraph isomorphism against the six connected 4-node
patterns or from enumerating connected quads, and planarity from a
contraction-based complete-minor search.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, combinations, permutations

import numpy as np
from hypothesis import strategies as st

from k2seq import Graph
from k2seq.generators import gen_community, gen_er, gen_grid, gen_planar
from k2seq.graphs import apply_ordering, invert_permutation, order_nodes
from k2seq.sequence import (DIAGONAL, IncrementalBuilder, SequenceError, Token,
                            TokenSequence, detokenize_build, diagonal_arity,
                            flatten_tokenize, prune)
from k2seq.tree import build_k2tree, rebuild_graph


@st.composite
def graph_strategy(draw, max_n=12, labeled=False):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = frozenset(draw(st.sets(st.sampled_from(pairs))))
    else:
        edges = frozenset()
    if not labeled:
        return Graph(n=n, edges=edges)
    nv = draw(st.integers(1, 4))
    ev = draw(st.integers(1, 3))
    node_labels = {u: draw(st.integers(0, nv - 1)) for u in range(n)}
    edge_labels = {e: draw(st.integers(0, ev - 1)) for e in edges}
    return Graph(n=n, edges=edges, node_labels=node_labels, edge_labels=edge_labels,
                 node_vocab=nv, edge_vocab=ev)


def reference_encode(g: Graph, k: int, ordering: str = "identity",
                     reverse: bool = False) -> TokenSequence:
    """Encode through the full tree: dense build, prune, then breadth-first
    flatten.  The reference the level-wise :func:`encode_graph` must match."""
    perm = None
    if ordering != "identity":
        perm = order_nodes(g, ordering, reverse=reverse)
        g = apply_ordering(g, perm)
    t = build_k2tree(g, k)
    if not t.nodes[t.root].children:
        return TokenSequence(k=k, padded_n=t.padded_n, original_n=t.original_n,
                             featured=t.featured, node_vocab=t.node_vocab,
                             edge_vocab=t.edge_vocab, perm=perm)
    return replace(flatten_tokenize(prune(t)), perm=perm)


def reference_decode(s: TokenSequence) -> Graph:
    """Decode through the pruned tree: replay every token through the
    incremental builder, rebuild the graph from the tree's full-depth leaves,
    then undo the stored ordering.  The reference the array-native
    :func:`decode_graph` must match.  The header is checked first, as
    :func:`decode_graph` checks it."""
    IncrementalBuilder(s.k, s.padded_n, s.original_n, s.featured, s.node_vocab, s.edge_vocab)
    if s.perm is not None and sorted(s.perm) != list(range(s.original_n)):
        raise SequenceError(f"perm is not a permutation of 0..{s.original_n - 1}")
    g = rebuild_graph(detokenize_build(s))
    if s.perm is not None:
        g = apply_ordering(g, invert_permutation(s.perm))
    return g


def reference_write(s: TokenSequence) -> str:
    """The wire text of ``s``, formatted token by token from ``s.tokens``.
    The reference the id-table :func:`write_token_stream` must match."""
    lines = [f"{s.k} {s.padded_n} {s.original_n} {int(s.featured)}"]
    if s.featured:
        lines.append(f"{s.node_vocab} {s.edge_vocab}")
    sep = "," if s.featured else ""
    lines.append(" ".join([f"{t.kind}:{sep.join(map(str, t.values))}" for t in s.tokens]))
    if s.perm is not None:
        lines.append("perm " + " ".join(str(p) for p in s.perm))
    return "\n".join(lines) + "\n"


def reference_token_grid(tokens: tuple[Token, ...],
                         k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-token diagonal flags and child slots, built token by token, or None
    when some token's arity does not match its kind or a value passes int64.
    A diagonal token's values sit in its ``child_orders`` slots ``i*k + j``
    (0-based) and its other slots hold 0.  The reference the id-table gather
    of the array decoder must match."""
    diag = np.fromiter((t.kind == DIAGONAL for t in tokens), dtype=bool, count=len(tokens))
    rows = [t.values for t in tokens]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(tokens))
    kk, arity = k * k, diagonal_arity(k)
    if (lengths != np.where(diag, arity, kk)).any():
        return None
    try:
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    except OverflowError:
        return None
    starts = np.cumsum(lengths) - lengths
    grid = np.zeros((len(tokens), kk), dtype=np.int64)
    off = np.flatnonzero(~diag)
    grid[off] = flat[starts[off, None] + np.arange(kk)]
    on = np.flatnonzero(diag)
    slots = [i * k + j for i, j in np.argwhere(np.tri(k, dtype=bool)).tolist()]
    grid[on[:, None], slots] = flat[starts[on, None] + np.arange(arity)]
    return diag, grid


def random_er(seed: int, n: int, p: float) -> Graph:
    return gen_er(n, p, seed)


def random_labeled_er(seed: int, n: int, p: float,
                      node_vocab: int, edge_vocab: int) -> Graph:
    rng = np.random.default_rng(seed)
    base = gen_er(n, p, seed + 1)
    node_labels = {u: int(rng.integers(node_vocab)) for u in range(n)}
    edge_labels = {e: int(rng.integers(edge_vocab)) for e in base.edges}
    return Graph(n=n, edges=base.edges, node_labels=node_labels,
                 edge_labels=edge_labels, node_vocab=node_vocab,
                 edge_vocab=edge_vocab)


def connected_er(seed: int, n: int, p: float) -> Graph:
    """First connected Erdos-Renyi draw at increasing seeds."""
    for attempt in range(200):
        g = gen_er(n, p, seed + 1000 * attempt)
        if _is_connected(g):
            return g
    raise RuntimeError("no connected draw found")


def _is_connected(g: Graph) -> bool:
    adj = g.neighbors()
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def mixed_family_graphs(seed: int, count: int, max_n: int = 40) -> list[Graph]:
    """Deterministic mix of the four synthetic families."""
    rng = np.random.default_rng(seed)
    graphs = []
    while len(graphs) < count:
        kind = len(graphs) % 4
        sub = int(rng.integers(0, 2 ** 31))
        if kind == 0:
            graphs.append(gen_er(int(rng.integers(4, max_n + 1)), 0.2, sub))
        elif kind == 1:
            graphs.append(gen_grid(int(rng.integers(2, 7)), int(rng.integers(2, 7))))
        elif kind == 2:
            graphs.append(gen_community(int(rng.integers(12, 21)), seed=sub))
        else:
            graphs.append(gen_planar(int(rng.integers(8, 33)), sub))
    return graphs


# The six connected 4-node patterns with a per-node orbit column (0..10).
_QUAD_PATTERNS = (
    (frozenset({(0, 1), (1, 2), (2, 3)}), {0: 0, 1: 1, 2: 1, 3: 0}),
    (frozenset({(0, 1), (0, 2), (0, 3)}), {0: 3, 1: 2, 2: 2, 3: 2}),
    (frozenset({(0, 1), (1, 2), (2, 3), (0, 3)}), {0: 4, 1: 4, 2: 4, 3: 4}),
    (frozenset({(0, 1), (0, 2), (1, 2), (2, 3)}), {0: 6, 1: 6, 2: 7, 3: 5}),
    (frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}), {0: 9, 1: 9, 2: 8, 3: 8}),
    (frozenset({(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}),
     {0: 10, 1: 10, 2: 10, 3: 10}),
)


def orbit4_oracle(g: Graph) -> np.ndarray:
    """Orbit counts by testing every 4-subset against each pattern with every
    bijection; the first match decides (automorphisms agree on orbits)."""
    adj = [set(nb) for nb in g.neighbors()]
    counts = np.zeros((g.n, 11), dtype=np.int64)
    for quad in combinations(range(g.n), 4):
        induced = frozenset(
            (a, b) for a, b in combinations(range(4), 2)
            if quad[b] in adj[quad[a]])
        for pattern, orbit_of in _QUAD_PATTERNS:
            hit = None
            for perm in permutations(range(4)):
                mapped = frozenset((min(perm[a], perm[b]), max(perm[a], perm[b]))
                                   for a, b in induced)
                if mapped == pattern:
                    hit = perm
                    break
            if hit is not None:
                for idx in range(4):
                    counts[quad[idx], orbit_of[hit[idx]]] += 1
                break
    return counts


# Orbit columns by induced edge count and sorted degree sequence of a quad:
# each node's column follows from its degree inside the quad.
_ORBIT_BY_SHAPE = {
    (3, (1, 1, 2, 2)): {1: 0, 2: 1},
    (3, (1, 1, 1, 3)): {1: 2, 3: 3},
    (4, (2, 2, 2, 2)): {2: 4},
    (4, (1, 2, 2, 3)): {1: 5, 2: 6, 3: 7},
    (5, (2, 2, 3, 3)): {2: 8, 3: 9},
    (6, (3, 3, 3, 3)): {3: 10},
}


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


def reference_orbit4(g: Graph) -> np.ndarray:
    """Orbit counts by enumerating every connected induced quad (ESU) and
    reading each node's orbit off the quad's degree sequence.  The reference
    the equation-based :func:`orbit4_counts` must match; unlike
    :func:`orbit4_oracle` it scales to a few hundred sparse nodes."""
    adj = [set(neigh) for neigh in g.neighbors()]
    counts = np.zeros((g.n, 11), dtype=np.int64)
    for quad in _connected_quads(adj, g.n):
        degs = [sum(1 for other in quad if other in adj[node]) for node in quad]
        orbit_of = _ORBIT_BY_SHAPE[(sum(degs) // 2, tuple(sorted(degs)))]
        for node, d in zip(quad, degs):
            counts[node, orbit_of[d]] += 1
    return counts


def _has_k5_subgraph(edges: frozenset[tuple[int, int]]) -> bool:
    nodes = sorted({v for e in edges for v in e})
    eset = set(edges)
    for combo in combinations(nodes, 5):
        if all((min(a, b), max(a, b)) in eset for a, b in combinations(combo, 2)):
            return True
    return False


def _has_k33_subgraph(edges: frozenset[tuple[int, int]]) -> bool:
    nodes = sorted({v for e in edges for v in e})
    eset = set(edges)
    for combo in combinations(nodes, 6):
        for left in combinations(combo, 3):
            right = tuple(v for v in combo if v not in left)
            if all((min(a, b), max(a, b)) in eset for a in left for b in right):
                return True
    return False


def _contract(edges: frozenset[tuple[int, int]], u: int, v: int) -> frozenset:
    out = set()
    for a, b in edges:
        a = u if a == v else a
        b = u if b == v else b
        if a != b:
            out.add((min(a, b), max(a, b)))
    return frozenset(out)


def _has_minor(edges: frozenset[tuple[int, int]], check, min_edges: int,
               memo: dict) -> bool:
    # Any minor model with a multi-vertex branch set survives contracting an
    # edge inside that branch set, so subgraph check plus contractions suffices.
    key = edges
    if key in memo:
        return memo[key]
    result = False
    if len(edges) >= min_edges:
        if check(edges):
            result = True
        else:
            for u, v in edges:
                if _has_minor(_contract(edges, u, v), check, min_edges, memo):
                    result = True
                    break
    memo[key] = result
    return result


def is_planar_by_minors(g: Graph) -> bool:
    """Kuratowski-Wagner planarity for small graphs: no K5 and no K3,3 minor."""
    if g.n > 9:
        raise ValueError("minor-based planarity check is exponential; keep n small")
    edges = frozenset(g.edges)
    if _has_minor(edges, _has_k5_subgraph, 10, {}):
        return False
    if _has_minor(edges, _has_k33_subgraph, 9, {}):
        return False
    return True

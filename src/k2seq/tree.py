"""K^2-ary partition trees over padded adjacency matrices.

A tree node corresponds to a square submatrix of the padded matrix.  Its
attribute is 0 when the submatrix is all zero; otherwise 1 for submatrices
larger than 1x1, or the cell value itself at single cells.  Internal nodes
have exactly ``k*k`` children in row-major ``(i, j)`` order of the ``k x k``
block partition.  A labeled graph is encoded through a modified matrix whose
diagonal holds node-label tokens and whose off-diagonal cells hold edge-label
tokens, in disjoint value ranges (0 means absent).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, GraphError, padded_size


def tree_levels(padded_n: int, k: int) -> int:
    """Depth of the 1x1 cells under a ``padded_n`` root: the L with k**L == padded_n."""
    levels, size = 1, k
    while size < padded_n:
        size *= k
        levels += 1
    return levels


@dataclass
class TreeNode:
    attr: int
    depth: int
    order: tuple[int, int] | None  # 1-based (i, j) among siblings; None for the root
    parent: int | None
    children: tuple[int, ...] = ()


@dataclass
class K2Tree:
    """Arena-backed tree; node 0 is the root.  Treated as immutable after build."""

    k: int
    padded_n: int
    original_n: int
    nodes: list[TreeNode]
    featured: bool = False
    node_vocab: int = 0
    edge_vocab: int = 0
    pruned: bool = False

    @property
    def root(self) -> int:
        return 0

    @property
    def levels(self) -> int:
        """Depth of the 1x1 cells: the d with k**d == padded_n."""
        d = tree_levels(self.padded_n, self.k)
        if self.k ** d != self.padded_n:
            raise GraphError(f"padded size {self.padded_n} is not a power of {self.k}")
        return d

    def path(self, u: int) -> tuple[tuple[int, int], ...]:
        """Root-to-node sibling orders ``((i_1, j_1), ..., (i_L, j_L))``."""
        rev = []
        while u != self.root:
            node = self.nodes[u]
            rev.append(node.order)
            u = node.parent
        return tuple(reversed(rev))

    def is_diagonal(self, u: int) -> bool:
        """Whether the node's submatrix touches the matrix diagonal."""
        while u != self.root:
            node = self.nodes[u]
            i, j = node.order
            if i != j:
                return False
            u = node.parent
        return True


@dataclass(frozen=True)
class TreeStats:
    node_count: int
    attr_count: int
    depth: int
    nonzero_maxdepth_leaves: int


def node_label_token(label: int) -> int:
    return label + 1


def edge_label_token(label: int, node_vocab: int) -> int:
    return node_vocab + 1 + label


def adjacency_matrix(g: Graph, size: int | None = None) -> np.ndarray:
    """Symmetric 0/1 matrix of ``g``, optionally zero-padded to ``size``."""
    size = g.n if size is None else size
    mat = np.zeros((size, size), dtype=np.int32)
    u, v = g.edge_array[:, 0], g.edge_array[:, 1]
    mat[u, v] = mat[v, u] = 1
    return mat


def label_matrix(g: Graph, size: int | None = None) -> np.ndarray:
    """Token matrix of a labeled graph: node tokens on the diagonal, edge
    tokens off it, zero elsewhere and in the padding region."""
    if g.node_label_array is None or g.edge_label_array is None:
        raise GraphError("label matrix requires node and edge labels")
    size = g.n if size is None else size
    mat = np.zeros((size, size), dtype=np.int64)
    nodes = np.arange(g.n)
    mat[nodes, nodes] = node_label_token(g.node_label_array)
    u, v = g.edge_array[:, 0], g.edge_array[:, 1]
    mat[u, v] = mat[v, u] = edge_label_token(g.edge_label_array, g.node_vocab)
    return mat


def _build_nodes(mat: np.ndarray, k: int) -> list[TreeNode]:
    """Breadth-first construction over a padded square matrix."""
    size = mat.shape[0]
    nz = (mat != 0).astype(np.int64)
    summed = np.zeros((size + 1, size + 1), dtype=np.int64)
    summed[1:, 1:] = nz.cumsum(axis=0).cumsum(axis=1)

    def count(r: int, c: int, s: int) -> int:
        return int(summed[r + s, c + s] - summed[r, c + s] - summed[r + s, c] + summed[r, c])

    nodes = [TreeNode(attr=1 if count(0, 0, size) else 0, depth=0, order=None, parent=None)]
    if nodes[0].attr == 0:
        return nodes
    queue: deque[tuple[int, int, int, int]] = deque([(0, 0, 0, size)])
    while queue:
        uid, r, c, s = queue.popleft()
        step = s // k
        child_ids = []
        depth = nodes[uid].depth + 1
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                r2 = r + (i - 1) * step
                c2 = c + (j - 1) * step
                if step == 1:
                    attr = int(mat[r2, c2])
                else:
                    attr = 1 if count(r2, c2, step) else 0
                vid = len(nodes)
                nodes.append(TreeNode(attr=attr, depth=depth, order=(i, j), parent=uid))
                child_ids.append(vid)
                if step > 1 and attr:
                    queue.append((vid, r2, c2, step))
        nodes[uid].children = tuple(child_ids)
    return nodes


def build_k2tree(g: Graph, k: int, featured: bool | None = None) -> K2Tree:
    """Build the partition tree of ``g`` padded to the next power of ``k``.

    ``featured`` selects the labeled (token-matrix) encoding; by default it
    follows whether ``g`` carries labels.  A labeled graph cannot be encoded
    with ``featured=False`` and vice versa.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if featured is None:
        featured = g.labeled
    if featured:
        if g.node_label_array is None or g.edge_label_array is None:
            raise GraphError("featured build requires node and edge labels")
    elif g.labeled:
        raise GraphError("labeled input cannot be encoded with featured=False")

    size = padded_size(g.n, k)
    mat = label_matrix(g, size) if featured else adjacency_matrix(g, size)
    nodes = _build_nodes(mat, k)
    return K2Tree(k=k, padded_n=size, original_n=g.n, nodes=nodes, featured=featured,
                  node_vocab=g.node_vocab, edge_vocab=g.edge_vocab)


def _maxdepth_cells(t: K2Tree) -> list[tuple[int, int, int]]:
    """0-based ``(row, col, attr)`` for every nonzero leaf at full depth."""
    levels = t.levels
    out = []
    for uid, node in enumerate(t.nodes):
        if node.depth == levels and node.attr != 0:
            p = q = 0
            for i, j in t.path(uid):
                p = p * t.k + (i - 1)
                q = q * t.k + (j - 1)
            out.append((p, q, node.attr))
    return out


def rebuild_matrix(t: K2Tree) -> np.ndarray:
    """Padded symmetric matrix recovered from the tree's full-depth leaves.

    Works for both full and pruned trees; for pruned trees the upper triangle
    is filled by mirroring.
    """
    mat = np.zeros((t.padded_n, t.padded_n), dtype=np.int64)
    for r, c, attr in _maxdepth_cells(t):
        if mat[r, c] and mat[r, c] != attr:
            raise GraphError(f"conflicting leaf values at cell ({r}, {c})")
        if mat[c, r] and mat[c, r] != attr:
            raise GraphError(f"conflicting leaf values at cell ({c}, {r})")
        mat[r, c] = attr
        mat[c, r] = attr
    return mat


def rebuild_graph(t: K2Tree) -> Graph:
    """Decode a tree back into a graph, dropping the padding region.

    Raises :class:`GraphError` for nonzero leaves inside the padding region,
    self-loop cells in a plain tree, or featured leaf tokens outside the label
    vocabulary of their cell kind.
    """
    n = t.original_n
    cells = _maxdepth_cells(t)
    for r, c, attr in cells:
        if r >= n or c >= n:
            raise GraphError(f"nonzero leaf at ({r}, {c}) inside the padding region")
        if not t.featured and r == c:
            raise GraphError(f"self-loop cell ({r}, {c}) in a plain tree")
    if not t.featured:
        edges = set()
        for r, c, _ in cells:
            edges.add((min(r, c), max(r, c)))
        return Graph(n=n, edges=frozenset(edges))

    node_labels: dict[int, int] = {}
    edge_labels: dict[tuple[int, int], int] = {}
    nv, ev = t.node_vocab, t.edge_vocab
    for r, c, attr in cells:
        if r == c:
            if not 1 <= attr <= nv:
                raise GraphError(f"leaf token {attr} at diagonal cell ({r}, {c}) outside the node label vocab")
            node_labels[r] = attr - 1
        else:
            if not nv + 1 <= attr <= nv + ev:
                raise GraphError(f"leaf token {attr} at cell ({r}, {c}) outside the edge label vocab")
            edge_labels[(min(r, c), max(r, c))] = attr - nv - 1
    if set(node_labels) != set(range(n)):
        raise GraphError("featured tree does not label every node")
    return Graph(n=n, edges=frozenset(edge_labels), node_labels=node_labels,
                 edge_labels=edge_labels, node_vocab=nv, edge_vocab=ev)


def tree_stats(t: K2Tree) -> TreeStats:
    """Node and attribute counts, actual depth, and nonzero full-depth leaves."""
    levels = t.levels
    depth = max(node.depth for node in t.nodes)
    nonzero = sum(1 for node in t.nodes if node.depth == levels and node.attr != 0)
    return TreeStats(node_count=len(t.nodes), attr_count=len(t.nodes) - 1,
                     depth=depth, nonzero_maxdepth_leaves=nonzero)

"""K^2-ary partition trees over padded adjacency matrices.

A tree node corresponds to a square submatrix of the padded matrix.  Its
attribute is 0 when the submatrix is all zero; otherwise 1 for submatrices
larger than 1x1, or the cell value itself at single cells.  Internal nodes
have exactly ``k*k`` children in row-major ``(i, j)`` order of the ``k x k``
block partition.  A labeled graph is encoded through a modified matrix whose
diagonal holds node-label tokens and whose off-diagonal cells hold edge-label
tokens, in disjoint value ranges (0 means absent).

A :class:`K2Tree` holds its header and its nonzero full-depth cells, and
every other view is derived from them: the tokens are the rows of
:func:`_level_tokens`, which :func:`~k2seq.sequence.encode_graph` also
writes, ``nodes`` is built breadth-first from those rows, and the matrix,
the graph and the counts are read off the cells or the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graphs import Graph, GraphError, padded_size


def tree_levels(padded_n: int, k: int) -> int:
    """Depth of the 1x1 cells under a ``padded_n`` root: the L with k**L == padded_n."""
    levels, size = 1, k
    while size < padded_n:
        size *= k
        levels += 1
    return levels


@lru_cache(maxsize=16)
def child_orders(k: int, diagonal: bool) -> tuple[tuple[int, int], ...]:
    """Sibling orders kept under a node, ascending in rank ``k*(i-1)+j``."""
    if diagonal:
        return tuple((i, j) for i in range(1, k + 1) for j in range(1, i + 1))
    return tuple((i, j) for i in range(1, k + 1) for j in range(1, k + 1))


@dataclass
class TreeNode:
    attr: int
    depth: int
    order: tuple[int, int] | None  # 1-based (i, j) among siblings; None for the root
    parent: int | None
    children: tuple[int, ...] = ()


@dataclass(frozen=True, eq=False)
class K2Tree:
    """The tree of the nonzero full-depth cells ``(rows[i], cols[i])``,
    valued ``values[i]``: int64 arrays, read-only, which the constructor
    sorts by row, then column.  A full tree holds the cells of both
    triangles; a pruned one those with ``row >= col``.  Equality compares
    the header, ``pruned`` and the cells."""

    k: int
    padded_n: int
    original_n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    featured: bool = False
    node_vocab: int = 0
    edge_vocab: int = 0
    pruned: bool = False

    def __post_init__(self):
        rows, cols, values = (np.asarray(a, dtype=np.int64)
                              for a in (self.rows, self.cols, self.values))
        order = np.lexsort((cols, rows))
        for name, array in (("rows", rows), ("cols", cols), ("values", values)):
            array = array.take(order)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

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

    def _tokens(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal flags and child slots of the internal nodes, breadth-first."""
        return _level_tokens(self.rows, self.cols, self.values, self.k, self.levels)

    @cached_property
    def nodes(self) -> list[TreeNode]:
        """The nodes, breadth-first, node 0 the root; built on first read.
        Token ``t`` of :meth:`_tokens` holds the children of the ``t``-th
        internal node: all ``k*k`` slots, or under a diagonal node of a
        pruned tree those of :func:`child_orders`."""
        nodes = [TreeNode(attr=int(len(self.rows) > 0), depth=0, order=None, parent=None)]
        if not len(self.rows):
            return nodes
        k, levels = self.k, self.levels
        internal = [0]  # ids of the internal nodes; grows as the loop reads it
        diag, grid = self._tokens()
        for uid, on_diag, values in zip(internal, diag.tolist(), grid.tolist()):
            depth = nodes[uid].depth + 1
            first = len(nodes)
            for i, j in child_orders(k, self.pruned and on_diag):
                value = values[(i - 1) * k + j - 1]
                if value and depth < levels:
                    internal.append(len(nodes))
                nodes.append(TreeNode(attr=value, depth=depth, order=(i, j), parent=uid))
            nodes[uid].children = tuple(range(first, len(nodes)))
        return nodes

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
        return all(i == j for i, j in self.path(u))

    def _key(self) -> tuple:
        return (self.k, self.padded_n, self.original_n, self.featured, self.node_vocab,
                self.edge_vocab, self.pruned, self.rows.tobytes(), self.cols.tobytes(),
                self.values.tobytes())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()


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


def _lower_cells(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero cells on and below the diagonal:
    ``(v, u)`` for each edge ``u < v``, plus the node-label cells of a labeled
    graph: node tokens on the diagonal, edge tokens below it."""
    edges = g.edge_array
    if not g.labeled:
        return edges[:, 1], edges[:, 0], np.ones(len(edges), dtype=np.int64)
    if g.node_label_array is None or g.edge_label_array is None:
        raise GraphError("featured build requires node and edge labels")
    nodes = np.arange(g.n, dtype=np.int64)
    values = [node_label_token(g.node_label_array),
              edge_label_token(g.edge_label_array, g.node_vocab)]
    return (np.concatenate([nodes, edges[:, 1]]), np.concatenate([nodes, edges[:, 0]]),
            np.concatenate(values))


def _level_tokens(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                  k: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first tokens of the tree of these nonzero cells, one per
    internal node, one level at a time, as per-token diagonal flags and the
    tokens x ``k*k`` grid of child slots that a
    :class:`~k2seq.sequence.TokenSequence` holds.

    Each cell's path from the root is one slot ``i*k + j`` (0-based) per
    depth, ``i`` and ``j`` the base-``k`` digits of its row and column; read
    as a base ``k*k`` key it is ``k * spread(row) + spread(col)``, where
    ``spread`` rewrites a base-``k`` number's digits in base ``k*k``.  The
    sorted keys list the blocks of every depth in breadth-first order.  The
    levels are then read from the deepest up: a key's parent block is
    ``key // k**2`` and its slot the remainder, each run of equal parents
    is one token, and the next pass reads only the distinct parents, so a
    level costs its own blocks, not the cells.  Each token carries the
    row and column of one of its cells, divided by ``k`` per level: the
    block is diagonal when the two are equal.  When the cells are a pruned
    tree's, a diagonal block holds no cell above the diagonal, so a diagonal
    token's slots outside :func:`child_orders` stay 0.
    """
    kk = k * k
    cells = np.stack([rows, cols])
    # spread(x) = x + (k*k - k) * (sum over 1 <= d < levels of
    # (x // k**d) * (k*k)**(d - 1)): a digit a at place e of x is counted
    # in x // k**d for 1 <= d <= e, and those terms sum to
    # a * ((k*k)**e - k**e).  Horner's rule takes the sum with one // per
    # level and no remainder.
    high = np.zeros_like(cells)
    for d in range(levels - 1, 0, -1):
        high *= kk
        high += cells // k ** d
    spread = cells + (kk - k) * high
    keys = spread[0] * k + spread[1]
    order = np.argsort(keys)
    keys, cells, slot_values = keys.take(order), cells.take(order, axis=1), values.take(order)
    diags, grids = [], []
    for _ in range(levels):
        parent = keys // kk
        first = np.empty(len(keys), dtype=bool)
        first[0] = True
        np.not_equal(parent[1:], parent[:-1], out=first[1:])
        token = np.cumsum(first) - 1
        grid = np.zeros((int(token[-1]) + 1, kk), dtype=np.int64)
        grid[token, keys - parent * kk] = slot_values
        at = np.flatnonzero(first)
        keys, cells, slot_values = parent.take(at), cells.take(at, axis=1) // k, 1
        diags.append(cells[0] == cells[1])
        grids.append(grid)
    diags.reverse()
    grids.reverse()
    return np.concatenate(diags), np.concatenate(grids)


def build_k2tree(g: Graph, k: int, featured: bool | None = None) -> K2Tree:
    """Build the partition tree of ``g`` padded to the next power of ``k``:
    the cells of :func:`_lower_cells` and their mirror images.

    ``featured`` selects the labeled (token-matrix) encoding; by default it
    follows whether ``g`` carries labels.  A labeled graph cannot be encoded
    with ``featured=False`` and vice versa.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if featured is not None and featured != g.labeled:
        raise GraphError("featured build requires node and edge labels" if featured
                         else "labeled input cannot be encoded with featured=False")
    rows, cols, values = _lower_cells(g)
    off = rows != cols
    return K2Tree(k=k, padded_n=padded_size(g.n, k), original_n=g.n,
                  rows=np.concatenate([rows, cols[off]]), cols=np.concatenate([cols, rows[off]]),
                  values=np.concatenate([values, values[off]]), featured=g.labeled,
                  node_vocab=g.node_vocab, edge_vocab=g.edge_vocab)


def _symmetric_cells(t: K2Tree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tree's cells and their mirror images, each cell once, sorted by
    row, then column; :class:`GraphError` where a cell and its mirror image
    hold different values."""
    rows, cols = np.concatenate([t.rows, t.cols]), np.concatenate([t.cols, t.rows])
    values = np.concatenate([t.values, t.values])
    order = np.lexsort((values, cols, rows))
    rows, cols, values = rows.take(order), cols.take(order), values.take(order)
    same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    clash = np.flatnonzero(same & (values[1:] != values[:-1]))
    if len(clash):
        raise GraphError(f"conflicting leaf values at cell ({rows[clash[0]]}, {cols[clash[0]]})")
    first = np.ones(len(rows), dtype=bool)
    first[1:] = ~same
    return rows[first], cols[first], values[first]


def rebuild_matrix(t: K2Tree) -> np.ndarray:
    """Padded symmetric matrix recovered from the tree's full-depth leaves.

    Works for both full and pruned trees; for pruned trees the upper triangle
    is filled by mirroring.
    """
    rows, cols, values = _symmetric_cells(t)
    mat = np.zeros((t.padded_n, t.padded_n), dtype=np.int64)
    mat[rows, cols] = values
    return mat


def rebuild_graph(t: K2Tree) -> Graph:
    """Decode a tree back into a graph, dropping the padding region.

    Raises :class:`GraphError` for a cell and its mirror image with
    different values, nonzero leaves inside the padding region, self-loop
    cells in a plain tree, or featured leaf tokens outside the label
    vocabulary of their cell kind.
    """
    n = t.original_n
    rows, cols, values = _symmetric_cells(t)
    lower = rows >= cols
    rows, cols, values = rows[lower], cols[lower], values[lower]
    on_diag = rows == cols
    nv, ev = t.node_vocab, t.edge_vocab
    faults = [(rows >= n, "nonzero leaf at ({r}, {c}) inside the padding region")]
    if not t.featured:
        faults.append((on_diag, "self-loop cell ({r}, {c}) in a plain tree"))
    else:
        faults += [(on_diag & ((values < 1) | (values > nv)),
                    "leaf token {v} at diagonal cell ({r}, {c}) outside the node label vocab"),
                   (~on_diag & ((values < nv + 1) | (values > nv + ev)),
                    "leaf token {v} at cell ({r}, {c}) outside the edge label vocab")]
    for fault, message in faults:
        if fault.any():
            i = int(fault.argmax())
            raise GraphError(message.format(r=rows[i], c=cols[i], v=values[i]))
    if not t.featured:
        return Graph.from_arrays(n, np.stack([cols, rows], axis=1))
    if np.count_nonzero(on_diag) != n:
        raise GraphError("featured tree does not label every node")
    node_labels = np.empty(n, dtype=np.int64)
    node_labels[rows[on_diag]] = values[on_diag] - 1
    off = ~on_diag
    return Graph.from_arrays(n, np.stack([cols[off], rows[off]], axis=1), node_labels,
                             values[off] - nv - 1, nv, ev)


def tree_stats(t: K2Tree) -> TreeStats:
    """Node and attribute counts, actual depth, and nonzero full-depth
    leaves: each internal node (a row of :meth:`K2Tree._tokens`) has ``k*k``
    children, or ``k*(k+1)/2`` when it is diagonal in a pruned tree."""
    levels = t.levels
    if not len(t.rows):
        return TreeStats(node_count=1, attr_count=0, depth=0, nonzero_maxdepth_leaves=0)
    diag, _ = t._tokens()
    kk = t.k * t.k
    attrs = kk * len(diag)
    if t.pruned:
        attrs -= (kk - t.k * (t.k + 1) // 2) * int(np.count_nonzero(diag))
    return TreeStats(node_count=attrs + 1, attr_count=attrs, depth=levels,
                     nonzero_maxdepth_leaves=len(t.rows))

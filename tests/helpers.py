"""Shared test utilities: random graph construction and independent oracles.

The oracles here deliberately avoid the library's own algorithms: orbit counts
come from explicit subgraph isomorphism against the six connected 4-node
patterns or from enumerating connected quads, and planarity from a
contraction-based complete-minor search.
"""

from __future__ import annotations

from collections import deque, namedtuple
from itertools import chain, combinations, permutations

import numpy as np
from hypothesis import strategies as st

from k2seq import Graph
from k2seq.generators import gen_community, gen_er, gen_grid, gen_planar
from k2seq.graphs import (GraphError, ParseError, apply_ordering, invert_permutation,
                          order_nodes, padded_size, permutation_array)
from k2seq.sampling import (GenerationError, MaxLengthExceededError, ZeroMassError, _draw,
                            builder_mask)
from k2seq.sequence import (BOS, DIAGONAL, EOS, OFFDIAGONAL, IncrementalBuilder,
                            InvalidTokenError, Rule, SequenceError, Token, TokenMismatchError,
                            TokenSequence, TrailingTokensError, TruncatedSequenceError, Vocabulary,
                            _check_header, _ints, _level_cells, _level_rules, _parse_token,
                            _perm_entries, _row_error, _trailing_error, _truncated_error,
                            child_orders, diagonal_arity, encode_ids, offdiagonal_arity)
from k2seq.tree import (K2Tree, TreeNode, TreeStats, adjacency_matrix, edge_label_token,
                        node_label_token, rebuild_graph, tree_levels)


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


def reference_nodes(mat: np.ndarray, k: int) -> list[TreeNode]:
    """The nodes of the full tree of a padded square matrix, by a
    breadth-first walk over its blocks with a 2-D prefix sum of its
    nonzeros: the dense build, kept as the oracle of ``K2Tree.nodes``."""
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


def reference_prune(old: list[TreeNode]) -> list[TreeNode]:
    """The nodes of a full tree with every subtree strictly above the
    diagonal dropped, by a breadth-first walk: under a diagonal node only
    children with ``i >= j`` remain.  The oracle of ``prune``."""
    new_nodes = [TreeNode(attr=old[0].attr, depth=0, order=None, parent=None)]
    queue = deque([(0, 0, True)]) if old[0].children else deque()  # (old id, new id, diagonal)
    while queue:
        ouid, nuid, diag = queue.popleft()
        kept = []
        for cid in old[ouid].children:
            child = old[cid]
            i, j = child.order
            if diag and i < j:
                continue
            nid = len(new_nodes)
            new_nodes.append(TreeNode(attr=child.attr, depth=child.depth,
                                      order=child.order, parent=nuid))
            kept.append(nid)
            if child.children:
                queue.append((cid, nid, diag and i == j))
        new_nodes[nuid].children = tuple(kept)
    return new_nodes


def reference_flatten(nodes: list[TreeNode]) -> tuple[Token, ...]:
    """Breadth-first tokens of a pruned tree's nodes, one per internal node:
    the tuple of its children's attributes.  The oracle of
    ``flatten_tokenize``."""
    tokens = []
    queue = deque([(0, True)]) if nodes[0].children else deque()
    while queue:
        uid, diag = queue.popleft()
        node = nodes[uid]
        values = tuple(nodes[cid].attr for cid in node.children)
        tokens.append(Token(kind=DIAGONAL if diag else OFFDIAGONAL, values=values))
        for cid in node.children:
            child = nodes[cid]
            if child.children:
                i, j = child.order
                queue.append((cid, diag and i == j))
    return tuple(tokens)


def reference_path(nodes: list[TreeNode], uid: int) -> tuple[tuple[int, int], ...]:
    """Root-to-node sibling orders, read up the parent links."""
    rev = []
    while uid:
        rev.append(nodes[uid].order)
        uid = nodes[uid].parent
    return tuple(reversed(rev))


def reference_stats(nodes: list[TreeNode], levels: int) -> TreeStats:
    """``tree_stats`` counted node by node."""
    return TreeStats(node_count=len(nodes), attr_count=len(nodes) - 1,
                     depth=max(node.depth for node in nodes),
                     nonzero_maxdepth_leaves=sum(1 for node in nodes
                                                 if node.depth == levels and node.attr != 0))


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


def reference_matrix(g: Graph, k: int) -> np.ndarray:
    """The padded matrix of ``g``: its token matrix when it is labeled."""
    size = padded_size(g.n, k)
    return label_matrix(g, size) if g.labeled else adjacency_matrix(g, size)


def reference_encode(g: Graph, k: int, ordering: str = "identity",
                     reverse: bool = False) -> TokenSequence:
    """Encode through the full tree: dense build, prune, then breadth-first
    flatten, over node lists.  The reference the level-wise
    :func:`encode_graph` must match."""
    perm = None
    if ordering != "identity":
        perm = order_nodes(g, ordering, reverse=reverse)
        g = apply_ordering(g, perm)
    nodes = reference_prune(reference_nodes(reference_matrix(g, k), k))
    return TokenSequence(k=k, padded_n=padded_size(g.n, k), original_n=g.n,
                         featured=g.labeled, node_vocab=g.node_vocab, edge_vocab=g.edge_vocab,
                         tokens=reference_flatten(nodes), perm=perm)


def reference_level_tokens(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                           k: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first tokens of the pruned tree, one level at a time, as
    per-token diagonal flags and the tokens x ``k*k`` grid of child slots:
    the level encoder that divides each key at every level, kept as the
    oracle of ``sequence._level_tokens``.

    Each cell's key is its path from the root in base ``k*k`` digits, digit
    ``d`` being the slot ``i*k + j`` (0-based) of its depth-``d + 1`` block
    among its siblings.  Sorted keys list the blocks of every depth in
    breadth-first order, so at depth ``d`` the distinct key prefixes of
    length ``d`` are that level's tokens and digit ``d`` scatters into their
    child slots.  A diagonal block holds no cell above the diagonal, so a
    diagonal token's slots outside :func:`child_orders` stay 0.
    """
    kk = k * k
    keys = np.zeros(len(rows), dtype=np.int64)
    for d in range(levels):
        scale = k ** (levels - 1 - d)
        keys = keys * kk + (rows // scale % k) * k + cols // scale % k
    order = np.argsort(keys)
    keys, rows, cols, values = keys[order], rows[order], cols[order], values[order]
    diags, grids = [], []
    for d in range(levels):
        prefix = keys // kk ** (levels - d)
        first = np.ones(len(keys), dtype=bool)
        first[1:] = prefix[1:] != prefix[:-1]
        parent = np.cumsum(first) - 1
        slot = keys // kk ** (levels - 1 - d) % kk
        grid = np.zeros((int(parent[-1]) + 1, kk), dtype=np.int64)
        grid[parent, slot] = values if d == levels - 1 else 1
        block = k ** (levels - d)
        diags.append(rows[first] // block == cols[first] // block)
        grids.append(grid)
    return np.concatenate(diags), np.concatenate(grids)


def reference_peeled_level_tokens(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
                                  k: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The level encoder that peels each cell's digits once and then makes
    one pass per level over every cell, top down, kept as the second oracle
    of ``sequence._level_tokens``.

    The peeled slots ``i*k + j`` read as base ``k*k`` keys, sorted, list the
    blocks of every depth in breadth-first order; at depth ``d`` each new
    prefix of ``d`` slots is a token and slot ``d`` scatters into its child
    slots.  A block is diagonal while every slot above it has ``i == j``.
    """
    kk = k * k
    slots, diagonal = [], []
    for _ in range(levels):
        row_q, col_q = rows // k, cols // k
        i, j = rows - row_q * k, cols - col_q * k
        slots.append(i * k + j)
        diagonal.append(i == j)
        rows, cols = row_q, col_q
    slots.reverse()
    diagonal.reverse()
    keys = np.zeros(len(values), dtype=np.int64)
    for slot in slots:
        keys = keys * kk + slot
    order = np.argsort(keys)
    first = np.zeros(len(order), dtype=bool)
    first[0] = True
    same = np.ones(len(order), dtype=bool)
    diags, grids = [], []
    for d in range(levels):
        slot = slots[d].take(order)
        parent = np.cumsum(first) - 1
        grid = np.zeros((int(parent[-1]) + 1, kk), dtype=np.int64)
        grid[parent, slot] = values.take(order) if d == levels - 1 else 1
        diags.append(same[first])
        grids.append(grid)
        first[1:] |= slot[1:] != slot[:-1]
        same &= diagonal[d].take(order)
    return np.concatenate(diags), np.concatenate(grids)


_ZERO: Rule = (True, range(0))
_BIT: Rule = (True, range(1, 2))
_ONE: Rule = (False, range(1, 2))


def reference_element_rules(k: int, original_n: int, featured: bool, node_vocab: int,
                            edge_vocab: int, parent_diag: bool, r0: int, c0: int,
                            block: int) -> tuple[Rule, ...]:
    """Admissible attribute values for each pending child slot, as
    ``(zero_ok, nonzero)``, one sibling group at a time: the slot rules of
    :class:`ReferenceBuilder`, kept as the reference the library's level
    table must match.

    ``(r0, c0, block)`` is the parent's region.  A slot whose sub-block cannot
    hold any nonzero cell of a valid matrix (padding, or a diagonal block with
    fewer than two real ids in a plain tree) admits only 0.  In a featured tree
    a diagonal block inside the real region is forced nonzero because every
    node carries a label; at single cells the slot is restricted to the label
    range of its cell kind.
    """
    step = block // k
    at_cells = step == 1
    rules = []
    for i, j in child_orders(k, parent_diag):
        r = r0 + (i - 1) * step
        c = c0 + (j - 1) * step
        on_diag = parent_diag and i == j
        if r >= original_n or c >= original_n:
            rules.append(_ZERO)
        elif not featured:
            rules.append(_ZERO if on_diag and min(r + step, original_n) - r < 2 else _BIT)
        elif at_cells:
            if on_diag:
                rules.append((False, range(1, node_vocab + 1)))
            else:
                rules.append((True, range(node_vocab + 1, node_vocab + edge_vocab + 1)))
        else:
            rules.append(_ONE if on_diag else _BIT)
    return tuple(rules)


# A pending node: its root-to-node path, diagonal flag and region.  (Not a
# dataclass: bench/workloads.py loads this module by path, with no entry in
# sys.modules, which @dataclass needs.)
_Pending = namedtuple("_Pending", "path diag r0 c0 block")


class ReferenceBuilder:
    """FIFO reconstruction of a pruned tree from tokens, one pending node at
    a time over a queue, with :func:`reference_element_rules` per sibling
    group.  The reference the library's level-table
    :class:`~k2seq.sequence.IncrementalBuilder` and :func:`decode_graph`
    must match: same trees, same paths, same error class and message."""

    def __init__(self, k: int, padded_n: int, original_n: int | None = None,
                 featured: bool = False, node_vocab: int = 0, edge_vocab: int = 0):
        original_n = padded_n if original_n is None else original_n
        _check_header(k, padded_n, original_n, featured, node_vocab, edge_vocab)
        self.k = k
        self.padded_n = padded_n
        self.original_n = original_n
        self.featured = featured
        self.node_vocab = node_vocab
        self.edge_vocab = edge_vocab
        self.queue: deque[_Pending] = deque(
            [_Pending(path=(), diag=True, r0=0, c0=0, block=padded_n)])
        self._tokens: list[Token] = []
        self._cells: list[tuple[int, int, int]] = []  # (row, col, value), as filled
        self._rules: tuple[Rule, ...] | None = None  # the front's, once asked

    @property
    def complete(self) -> bool:
        return not self.queue

    @property
    def steps(self) -> int:
        return len(self._tokens)

    @property
    def next_kind(self) -> str | None:
        if not self.queue:
            return None
        return DIAGONAL if self.queue[0].diag else OFFDIAGONAL

    @property
    def next_path(self) -> tuple[tuple[int, int], ...] | None:
        if not self.queue:
            return None
        return self.queue[0].path

    def next_rules(self) -> tuple[Rule, ...]:
        if not self.queue:
            raise TrailingTokensError("no pending node")
        if self._rules is None:
            front = self.queue[0]
            self._rules = reference_element_rules(
                self.k, self.original_n, self.featured, self.node_vocab, self.edge_vocab,
                front.diag, front.r0, front.c0, front.block)
        return self._rules

    def step(self, token: Token) -> None:
        if not self.queue:
            raise TrailingTokensError(f"token {self.steps + 1}: the tree is already complete")
        front = self.queue[0]
        where = f"token {self.steps + 1} (level {len(front.path) + 1})"
        expected = DIAGONAL if front.diag else OFFDIAGONAL
        if token.kind != expected:
            raise TokenMismatchError(f"{where}: kind {token.kind!r} where {expected!r} is pending")
        arity = diagonal_arity(self.k) if front.diag else offdiagonal_arity(self.k)
        if len(token.values) != arity:
            raise TokenMismatchError(f"{where}: arity {len(token.values)} where {arity} is pending")
        for slot, (value, (zero_ok, nonzero)) in enumerate(zip(token.values, self.next_rules())):
            if value not in nonzero and not (zero_ok and value == 0):
                raise InvalidTokenError(f"{where}: value {value} not allowed at slot {slot}")
        if not any(token.values):
            raise InvalidTokenError(f"{where}: all-zero sibling group under a nonzero node")

        self.queue.popleft()
        self._rules = None
        step = front.block // self.k
        for (i, j), value in zip(child_orders(self.k, front.diag), token.values):
            if step == 1 and value:
                self._cells.append((front.r0 + i - 1, front.c0 + j - 1, value))
            elif value == 1:
                self.queue.append(_Pending(
                    path=front.path + ((i, j),), diag=front.diag and i == j,
                    r0=front.r0 + (i - 1) * step, c0=front.c0 + (j - 1) * step,
                    block=step))
        self._tokens.append(token)

    def tree(self) -> K2Tree:
        if not self.complete:
            raise TruncatedSequenceError(
                f"{len(self.queue)} nodes still pending after {self.steps} tokens")
        rows, cols, values = np.array(self._cells, dtype=np.int64).reshape(-1, 3).T
        return K2Tree(k=self.k, padded_n=self.padded_n, original_n=self.original_n,
                      rows=rows, cols=cols, values=values, featured=self.featured,
                      node_vocab=self.node_vocab, edge_vocab=self.edge_vocab, pruned=True)


def reference_build(s: TokenSequence) -> tuple[K2Tree, list[tuple[tuple[int, int], ...]]]:
    """The pruned tree of ``s`` and each token's root-to-parent path, by
    replaying every token through :class:`ReferenceBuilder`."""
    builder = ReferenceBuilder(s.k, s.padded_n, s.original_n, s.featured,
                               s.node_vocab, s.edge_vocab)
    if not s.tokens:
        none = np.zeros(0, dtype=np.int64)
        return K2Tree(k=s.k, padded_n=s.padded_n, original_n=s.original_n, rows=none,
                      cols=none, values=none, featured=s.featured, node_vocab=s.node_vocab,
                      edge_vocab=s.edge_vocab, pruned=True), []
    paths = []
    for token in s.tokens:
        paths.append(builder.next_path)
        builder.step(token)
    return builder.tree(), paths


def reference_level_cells(s: TokenSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero full-depth cells that the
    tokens of ``s`` encode, by the walk that checks each level's run of
    tokens against the level's whole rule table: the oracle of
    ``sequence._level_cells``, which must return the same arrays or raise
    the same error.  The first bad row is the first token the builder
    refuses; the nonzero slots are the next level's blocks or, at the last
    level, the cells."""
    # A malformed token's row holds -1s, which every rule refuses.
    diag, grid = s.diag, s.grid
    k, kk, total = s.k, s.k * s.k, len(grid)
    levels = tree_levels(s.padded_n, k)
    origins, start = np.zeros((2, 1), dtype=np.int64), 0
    for depth in range(1, levels + 1):
        blocks = origins.shape[1]
        pending, rc, zero_ok, lo, hi = _level_rules(
            origins[:, :total - start], s.padded_n // k ** (depth - 1), k, s.original_n,
            s.featured, s.node_vocab, s.edge_vocab)
        end = start + len(pending)
        run = grid[start:end]
        nonzero = run != 0
        flat = np.flatnonzero(nonzero)
        bad = (diag[start:end] != pending) | (np.bincount(flat // kk, minlength=len(run)) == 0)
        bad |= np.where(nonzero, (run < lo) | (run > hi), ~zero_ok).any(axis=1)
        if bad.any():
            b = int(bad.argmax())
            raise _row_error(s._token(start + b), start + b + 1, depth, bool(pending[b]), k,
                             lambda: (zero_ok[b].tolist(), lo[b].tolist(), hi[b].tolist()))
        if end < start + blocks:
            children = len(flat) if depth < levels else 0
            raise _truncated_error(start + blocks - end + children, total)
        start = end
        origins = rc.reshape(2, -1).take(flat, axis=1)
    if start < total:
        raise _trailing_error(start + 1)
    return origins[0], origins[1], run.ravel()[flat]


def reference_decode(s: TokenSequence) -> Graph:
    """Decode through the pruned tree: replay every token through
    :class:`ReferenceBuilder`, rebuild the graph from the tree's full-depth
    leaves, then undo the stored ordering.  The reference the array-native
    :func:`decode_graph` must match.  The header is checked first, as
    :func:`decode_graph` checks it."""
    ReferenceBuilder(s.k, s.padded_n, s.original_n, s.featured, s.node_vocab, s.edge_vocab)
    if s.perm is not None and sorted(s.perm) != list(range(s.original_n)):
        raise SequenceError(f"perm is not a permutation of 0..{s.original_n - 1}")
    g = rebuild_graph(reference_build(s)[0])
    if s.perm is not None:
        g = apply_ordering(g, invert_permutation(s.perm))
    return g


def reference_checked_decode(s: TokenSequence) -> Graph:
    """:func:`decode_graph` as it was before it trusted its level walk: the
    walk's cells through :meth:`Graph.from_arrays`, which checks and sorts
    them again."""
    _check_header(s.k, s.padded_n, s.original_n, s.featured, s.node_vocab, s.edge_vocab)
    n = s.original_n
    perm = None if s.perm is None else permutation_array(s.perm, n)
    if s.perm is not None and perm is None:
        raise SequenceError(f"perm is not a permutation of 0..{n - 1}")
    s = s._through_first_misfit()
    if not len(s.diag):
        if s.featured:
            raise GraphError("featured tree does not label every node")
        return Graph(n=n)
    rows, cols, values = _level_cells(s)
    if perm is not None:
        rows, cols = perm[rows], perm[cols]
    if not s.featured:
        return Graph.from_arrays(n, np.stack([rows, cols], axis=1))
    on_diag = rows == cols
    if np.count_nonzero(on_diag) != n:
        raise GraphError("featured tree does not label every node")
    node_labels = np.empty(n, dtype=np.int64)
    node_labels[rows[on_diag]] = values[on_diag] - 1
    off = ~on_diag
    return Graph.from_arrays(n, np.stack([rows[off], cols[off]], axis=1), node_labels,
                             values[off] - s.node_vocab - 1, s.node_vocab, s.edge_vocab)


def reference_write(s: TokenSequence) -> str:
    """The wire text of ``s``, formatted token by token from ``s.tokens``.
    The reference the byte pass of :func:`write_token_stream` must match."""
    lines = [f"{s.k} {s.padded_n} {s.original_n} {int(s.featured)}"]
    if s.featured:
        lines.append(f"{s.node_vocab} {s.edge_vocab}")
    sep = "," if s.featured else ""
    lines.append(" ".join([f"{t.kind}:{sep.join(map(str, t.values))}" for t in s.tokens]))
    if s.perm is not None:
        lines.append("perm " + " ".join(str(p) for p in s.perm))
    return "\n".join(lines) + "\n"


def reference_read_token_stream(text: str) -> TokenSequence:
    """The sequence of a wire text, its token line parsed token by token,
    plain or featured, at any ``k`` and whatever its length.  The reference
    the byte scan and the word lookup of :func:`read_token_stream` must
    match, sequence or error."""
    if not text.endswith("\n"):
        raise SequenceError("stream must end with a newline")
    lines = text[:-1].split("\n")
    fields = lines[0].split(" ")
    if len(fields) != 4:
        raise SequenceError("header must be 'K PADDED_N ORIGINAL_N FEATURED'")
    k, padded_n, original_n, featured = _ints(fields, "header field is not a canonical integer")
    if featured not in (0, 1):
        raise SequenceError(f"featured flag must be 0 or 1, got {featured}")
    node_vocab = edge_vocab = 0
    if featured:
        fields = lines[1].split(" ") if len(lines) > 1 else []
        if len(fields) != 2:
            raise SequenceError("label vocab line must be 'NODE_VOCAB EDGE_VOCAB'")
        node_vocab, edge_vocab = _ints(fields, "label vocab size is not a canonical integer")
    if len(lines) == 1 + featured:
        raise SequenceError("stream is missing its token line")
    line, *rest = lines[1 + featured:]
    words = line.split(" ") if line else []
    for number, trailing in enumerate(rest, start=featured + 3):
        if number > featured + 3 or trailing.split(" ", 1)[0] != "perm":
            raise SequenceError(f"unexpected trailing line {number}")
    perm = _perm_entries(rest[0]) if rest else None
    parsed = {word: _parse_token(word, featured) for word in dict.fromkeys(words)}
    return TokenSequence(k=k, padded_n=padded_n, original_n=original_n,
                         featured=bool(featured), node_vocab=node_vocab, edge_vocab=edge_vocab,
                         tokens=tuple([parsed[word] for word in words]), perm=perm)


def reference_ngram_scores(sequences: list[TokenSequence], vocab: Vocabulary, n: int,
                           prefix) -> np.ndarray:
    """Add-one-smoothed order-``n`` scores after ``prefix``, counted from
    scratch: the sequences framed as ``(n-1) * BOS, tokens..., EOS``, the
    ids that followed the last ``n-1`` ids of the BOS-padded prefix, or, if
    none did, every id past the frame's BOS (the unigram), and their
    ``bincount``.  The reference :class:`~k2seq.sampling.NGramModel` must
    match exactly."""
    framed = [[BOS] * (n - 1) + encode_ids(s, vocab) + [EOS] for s in sequences]
    padded = [BOS] * (n - 1) + list(prefix)
    context = padded[len(padded) - (n - 1):]
    followers = [ids[pos] for ids in framed for pos in range(n - 1, len(ids))
                 if ids[pos - (n - 1):pos] == context]
    if not followers:
        followers = [i for ids in framed for i in ids[n - 1:]]
    counts = np.bincount(followers, minlength=vocab.size)
    return (counts + 1) / (counts.sum() + vocab.size)


def reference_mask_for_rules(vocab: Vocabulary, kind: str, rules: tuple[Rule, ...]) -> np.ndarray:
    """Boolean mask over all ids for one pending sibling group, read id by
    id through ``vocab.decode``: the tokens of ``kind`` with one value per
    rule, not all zero, whose every value is 0 where its rule admits 0 or
    in its rule's nonzero range."""
    mask = np.zeros(vocab.size, dtype=bool)
    for token_id in range(vocab.PAD + 1, vocab.size):
        token = vocab.decode(token_id)
        mask[token_id] = (token.kind == kind and len(token.values) == len(rules)
                          and any(token.values)
                          and all(value in nonzero or value == 0 and zero_ok
                                  for value, (zero_ok, nonzero) in zip(token.values, rules)))
    return mask


def reference_sample_sequence(model, config) -> TokenSequence:
    """``sample_sequence`` as it was before it stepped by id: the model gets
    a copy of the prefix at each step, and each drawn id becomes a
    :class:`Token` that the builder checks against its row
    (:func:`_row_error`).  The sequence is made from those tokens.  Greedy
    or drawn, negative, NaN or infinite admissible mass raises
    :class:`GenerationError`."""
    vocab = model.vocab
    if vocab.k != config.k:
        raise ValueError(f"model vocabulary has k={vocab.k}, config has k={config.k}")
    rng = np.random.default_rng(config.seed)
    if config.padded_n is not None:
        padded_n = config.padded_n
        original_n = config.original_n if config.original_n is not None else padded_n
    else:
        padded_n, original_n = config.sizes[rng.integers(len(config.sizes))]
    builder = IncrementalBuilder(config.k, padded_n, original_n, config.featured,
                                 config.node_vocab, config.edge_vocab)
    ids, tokens = [BOS], []
    while not builder.complete:
        if len(ids) > config.max_tokens:
            raise MaxLengthExceededError(f"tree incomplete after {config.max_tokens} tokens")
        mask = builder_mask(builder, vocab)
        scores = np.asarray(model(tuple(ids), builder), dtype=float)
        if scores.shape != (vocab.size,):
            raise GenerationError(
                f"model returned shape {scores.shape}, expected ({vocab.size},)")
        masked = np.where(mask, scores, 0.0)
        total = masked.sum()
        if total <= 0.0:
            raise ZeroMassError("no probability mass on admissible tokens")
        if not np.isfinite(masked).all() or (masked < 0.0).any():
            raise GenerationError("model put negative, NaN or infinite mass on admissible tokens")
        if config.greedy:
            token_id = int(masked.argmax())
        else:
            token_id = _draw(rng, masked, total)
        token = vocab.decode(token_id)
        builder.step(token)
        ids.append(token_id)
        tokens.append(token)
    return TokenSequence(k=config.k, padded_n=padded_n, original_n=original_n,
                         featured=config.featured, node_vocab=config.node_vocab,
                         edge_vocab=config.edge_vocab, tokens=tuple(tokens))


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


def build_from_matrix(mat: np.ndarray, k: int, original_n: int, featured: bool = False,
                      node_vocab: int = 0, edge_vocab: int = 0) -> K2Tree:
    """The full tree of the nonzero cells of a padded square matrix
    (power-of-``k`` side), symmetric or not."""
    if k < 2:
        raise ValueError("k must be >= 2")
    size = mat.shape[0]
    if mat.shape != (size, size) or size != padded_size(size, k):
        raise GraphError("matrix must be square with a power-of-k side of at least k")
    rows, cols = np.nonzero(mat)
    return K2Tree(k=k, padded_n=size, original_n=original_n, rows=rows, cols=cols,
                  values=mat[rows, cols], featured=featured, node_vocab=node_vocab,
                  edge_vocab=edge_vocab)


def bandwidth(g: Graph) -> int:
    """Maximum index distance ``|u - v|`` over edges; 0 for an edgeless graph."""
    return int(np.max(g.edge_array[:, 1] - g.edge_array[:, 0], initial=0))


def random_er(seed: int, n: int, p: float) -> Graph:
    return gen_er(n, p, seed)


def random_labeled_er(seed: int, n: int, p: float,
                      node_vocab: int, edge_vocab: int) -> Graph:
    rng = np.random.default_rng(seed)
    base = gen_er(n, p, seed + 1)
    node_labels = {u: int(rng.integers(node_vocab)) for u in range(n)}
    # Edges draw their labels in the order the set-based Graph iterated
    # them, so that fixed-seed graphs (and the samples trained on them)
    # stay what they were.
    edge_labels = {e: int(rng.integers(edge_vocab)) for e in reference_edge_order(base.edges)}
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


# The set-based Graph of earlier versions, frozen as the reference the
# array-backed Graph and the functions over it must match: a frozenset of
# (u, v) pairs with u < v and label dicts, checked edge by edge.
SetGraph = namedtuple("SetGraph", "n edges node_labels edge_labels node_vocab edge_vocab")


def reference_edge_order(edges: frozenset[tuple[int, int]]) -> list[tuple[int, int]]:
    """The order in which the set-based Graph iterated the edges of a graph
    that the generators built by adding pairs in ascending order: the
    generator's set, copied to a frozenset, re-added one by one into the
    Graph's set, and frozen again."""
    added = set()
    for e in sorted(edges):
        added.add(e)
    norm = set()
    for e in frozenset(added):
        norm.add(e)
    return list(frozenset(norm))


def reference_graph(n, edges=frozenset(), node_labels=None, edge_labels=None,
                    node_vocab=0, edge_vocab=0) -> SetGraph:
    """The set-based Graph's checks and normal form."""
    if n < 1:
        raise GraphError("node count must be positive")
    norm = set()
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint out of range")
        e = (u, v) if u < v else (v, u)
        if e in norm:
            raise GraphError(f"duplicate edge {e}")
        norm.add(e)
    if node_labels is not None:
        if node_vocab < 1:
            raise GraphError("node_vocab must be >= 1 when node labels are present")
        if set(node_labels) != set(range(n)):
            raise GraphError("node labels must cover exactly all nodes")
        for node, lab in node_labels.items():
            if not 0 <= lab < node_vocab:
                raise GraphError(f"node label {lab} at node {node} outside [0, {node_vocab})")
        node_labels = dict(sorted(node_labels.items()))
    elif node_vocab:
        raise GraphError("node_vocab given without node labels")
    if edge_labels is not None:
        if edge_vocab < 1:
            raise GraphError("edge_vocab must be >= 1 when edge labels are present")
        keyed = {}
        for (u, v), lab in edge_labels.items():
            e = (u, v) if u < v else (v, u)
            if e in keyed:
                raise GraphError(f"duplicate edge label for {e}")
            keyed[e] = lab
        if set(keyed) != norm:
            raise GraphError("edge labels must cover exactly all edges")
        for e, lab in keyed.items():
            if not 0 <= lab < edge_vocab:
                raise GraphError(f"edge label {lab} at {e} outside [0, {edge_vocab})")
        edge_labels = dict(sorted(keyed.items()))
    elif edge_vocab:
        raise GraphError("edge_vocab given without edge labels")
    return SetGraph(n, frozenset(norm), node_labels, edge_labels, node_vocab, edge_vocab)


def set_graph(g: Graph) -> SetGraph:
    return reference_graph(g.n, g.edges, g.node_labels, g.edge_labels, g.node_vocab,
                           g.edge_vocab)


def array_graph(sg: SetGraph) -> Graph:
    return Graph(n=sg.n, edges=sg.edges, node_labels=sg.node_labels,
                 edge_labels=sg.edge_labels, node_vocab=sg.node_vocab,
                 edge_vocab=sg.edge_vocab)


def reference_neighbors(sg: SetGraph) -> list[list[int]]:
    adj = [[] for _ in range(sg.n)]
    for u, v in sg.edges:
        adj[u].append(v)
        adj[v].append(u)
    for lst in adj:
        lst.sort()
    return adj


def reference_adjacency(g: Graph, by_degree: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and neighbours from one stable sort of the two edge
    halves, kept as the oracle of ``Graph._adjacency``: node ``u``'s
    neighbours are ``nbrs[ptr[u]:ptr[u + 1]]``, ascending by id, or by
    (degree, id) with ``by_degree``.

    Each node's smaller neighbours come first, ascending as the edge rows
    do, then its larger ones; a stable sort by node keeps that order, and
    within one degree when the key adds the neighbour's degree."""
    lo, hi = g.edge_array[:, 0], g.edge_array[:, 1]
    src, nbrs = np.concatenate([hi, lo]), np.concatenate([lo, hi])
    deg = np.bincount(src, minlength=g.n)
    ptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    key = src * (int(deg.max(initial=0)) + 1) + deg[nbrs] if by_degree else src
    return ptr, nbrs[np.argsort(key, kind="stable")]


def reference_degrees(sg: SetGraph) -> list[int]:
    deg = [0] * sg.n
    for u, v in sg.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _reference_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"{what} is not an integer: {tok!r}") from None


def _reference_endpoints(u: int, v: int, n: int, line: int) -> tuple[int, int]:
    if u == v:
        raise ParseError(line, f"self-loop at node {u}")
    if u > v:
        raise ParseError(line, f"edge endpoints must satisfy u < v, got {u} {v}")
    if v >= n or u < 0:
        raise ParseError(line, f"endpoint out of range in edge ({u}, {v})")
    return (u, v)


def reference_parse(text: str) -> SetGraph:
    """The line-by-line edge-list parser over sets."""
    raw = text.split("\n")
    while raw and raw[-1] == "":
        raw.pop()
    lines = []
    for idx, line in enumerate(raw, start=1):
        if line.strip() == "":
            raise ParseError(idx, "blank line inside record")
        lines.append((idx, line))
    if not lines:
        raise ParseError(1, "empty input")
    head_no, head = lines[0]
    fields = head.split()
    if len(fields) not in (2, 4):
        raise ParseError(head_no, "header must be 'N M' or 'N M L_node L_edge'")
    n = _reference_int(fields[0], head_no, "node count")
    m = _reference_int(fields[1], head_no, "edge count")
    if len(fields) == 4:
        lnode = _reference_int(fields[2], head_no, "node label vocab")
        ledge = _reference_int(fields[3], head_no, "edge label vocab")
    if n < 1:
        raise ParseError(head_no, "node count must be positive")
    if m < 0:
        raise ParseError(head_no, "edge count must be non-negative")
    body = lines[1:]
    edges = set()
    if len(fields) == 2:
        if len(body) != m:
            raise ParseError(head_no + 1 + min(len(body), m),
                             f"expected {m} edge lines, found {len(body)}")
        for line_no, line in body:
            fields = line.split()
            if len(fields) != 2:
                raise ParseError(line_no, "edge line must be 'u v'")
            u = _reference_int(fields[0], line_no, "endpoint")
            v = _reference_int(fields[1], line_no, "endpoint")
            e = _reference_endpoints(u, v, n, line_no)
            if e in edges:
                raise ParseError(line_no, f"duplicate edge {e}")
            edges.add(e)
        return reference_graph(n, frozenset(edges))
    if lnode < 1 or ledge < 1:
        raise ParseError(head_no, "label vocab sizes must be positive")
    if len(body) != n + m:
        raise ParseError(head_no + 1 + min(len(body), n + m),
                         f"expected {n} node lines and {m} edge lines, found {len(body)}")
    node_labels = {}
    for line_no, line in body[:n]:
        fields = line.split()
        if len(fields) != 3 or fields[0] != "n":
            raise ParseError(line_no, "expected node label line 'n <id> <label>'")
        node = _reference_int(fields[1], line_no, "node id")
        lab = _reference_int(fields[2], line_no, "node label")
        if not 0 <= node < n:
            raise ParseError(line_no, f"node id {node} out of range")
        if node in node_labels:
            raise ParseError(line_no, f"duplicate label for node {node}")
        if not 0 <= lab < lnode:
            raise ParseError(line_no, f"node label {lab} outside [0, {lnode})")
        node_labels[node] = lab
    edge_labels = {}
    for line_no, line in body[n:]:
        fields = line.split()
        if len(fields) != 4 or fields[0] != "e":
            raise ParseError(line_no, "expected edge line 'e <u> <v> <label>'")
        u = _reference_int(fields[1], line_no, "endpoint")
        v = _reference_int(fields[2], line_no, "endpoint")
        lab = _reference_int(fields[3], line_no, "edge label")
        e = _reference_endpoints(u, v, n, line_no)
        if e in edges:
            raise ParseError(line_no, f"duplicate edge {e}")
        if not 0 <= lab < ledge:
            raise ParseError(line_no, f"edge label {lab} outside [0, {ledge})")
        edges.add(e)
        edge_labels[e] = lab
    return reference_graph(n, frozenset(edges), node_labels, edge_labels, lnode, ledge)


def _reference_ints(words: list[str]) -> np.ndarray | None:
    """The int64 values ``int`` reads from ``words``, or None."""
    try:
        return np.fromiter(map(int, words), dtype=np.int64, count=len(words))
    except (ValueError, OverflowError):
        return None


def reference_parse_arrays(text: str) -> Graph | None:
    """The word-split array parse that the byte scan replaced: the graph of
    a well-formed text, or None.

    Each line break becomes a ``|`` word, so a text with the expected line
    count has the expected layout exactly when every line-end position holds
    ``|`` and every tag position its tag: the other positions must read as
    integers, which ``|`` does not.  Whitespace is what ``str.split`` takes,
    and the values are what ``int`` reads, as line by line."""
    head, _, body = text.rstrip("\n").partition("\n")
    try:
        header = list(map(int, head.split()))
    except ValueError:
        return None
    if len(header) not in (2, 4):
        return None
    n, m, *vocabs = header
    labeled = bool(vocabs)
    lines = n + m if labeled else m
    if n < 1 or m < 0 or min(vocabs, default=1) < 1:
        return None
    if (body.count("\n") + 1 if body else 0) != lines:
        return None
    words = (body + "\n").replace("\n", " | ").split() if lines else []
    if not labeled:
        if len(words) != 3 * m or words[2::3].count("|") != m:
            return None
        del words[2::3]
        pairs = _reference_ints(words)
        if pairs is None:
            return None
        pairs = pairs.reshape(-1, 2)
        if not (pairs[:, 0] < pairs[:, 1]).all():
            return None
        try:
            return Graph.from_arrays(n, pairs)
        except GraphError:
            return None
    node_words, edge_words = words[:4 * n], words[4 * n:]
    if (len(edge_words) != 5 * m or node_words[0::4].count("n") != n
            or node_words[3::4].count("|") != n or edge_words[0::5].count("e") != m
            or edge_words[4::5].count("|") != m):
        return None
    nodes = _reference_ints(node_words[1::4] + node_words[2::4])
    edges = _reference_ints(edge_words[1::5] + edge_words[2::5] + edge_words[3::5])
    if nodes is None or edges is None:
        return None
    ids, node_labels = nodes[:n], nodes[n:]
    u, v, edge_labels = edges[:m], edges[m:2 * m], edges[2 * m:]
    if not (np.array_equal(np.sort(ids), np.arange(n)) and (u < v).all()):
        return None
    by_node = np.empty(n, dtype=np.int64)
    by_node[ids] = node_labels
    try:
        return Graph.from_arrays(n, np.stack([u, v], axis=1), by_node, edge_labels, *vocabs)
    except GraphError:
        return None


def reference_serialize(sg: SetGraph) -> str:
    if sg.node_labels is None and sg.edge_labels is None:
        out = [f"{sg.n} {len(sg.edges)}"]
        out.extend(f"{u} {v}" for u, v in sorted(sg.edges))
        return "\n".join(out) + "\n"
    if sg.node_labels is None or sg.edge_labels is None:
        raise GraphError("edge-list format requires labels on both nodes and edges, or neither")
    out = [f"{sg.n} {len(sg.edges)} {sg.node_vocab} {sg.edge_vocab}"]
    out.extend(f"n {i} {sg.node_labels[i]}" for i in range(sg.n))
    out.extend(f"e {u} {v} {sg.edge_labels[(u, v)]}" for u, v in sorted(sg.edges))
    return "\n".join(out) + "\n"


def reference_order_nodes(sg: SetGraph, scheme: str, reverse: bool = False) -> tuple[int, ...]:
    """Orderings over adjacency lists, Cuthill-McKee sorting each node's
    neighbours by (degree, id) as it visits them."""
    adj = reference_neighbors(sg)
    deg = [len(a) for a in adj]
    seen, perm = [False] * sg.n, []
    for start in range(sg.n):
        if seen[start]:
            continue
        comp, queue = [], deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if scheme == "bfs":
            perm.extend(comp)
        elif scheme == "dfs":
            order, stack, done = [], [comp[0]], set()
            while stack:
                u = stack.pop()
                if u in done:
                    continue
                done.add(u)
                order.append(u)
                stack.extend(w for w in reversed(adj[u]) if w not in done)
            perm.extend(order)
        else:
            first = min(comp, key=lambda u: (deg[u], u))
            order, visited, queue = [first], {first}, deque([first])
            while queue:
                u = queue.popleft()
                for w in sorted(adj[u], key=lambda x: (deg[x], x)):
                    if w not in visited:
                        visited.add(w)
                        order.append(w)
                        queue.append(w)
            perm.extend(order)
    if reverse:
        perm.reverse()
    return tuple(perm)


def reference_apply_ordering(sg: SetGraph, perm: tuple[int, ...]) -> SetGraph:
    if len(perm) != sg.n or sorted(perm) != list(range(sg.n)):
        raise GraphError(f"permutation is not a bijection on 0..{sg.n - 1}")
    inv = invert_permutation(perm)

    def remap(u, v):
        a, b = inv[u], inv[v]
        return (a, b) if a < b else (b, a)

    node_labels = edge_labels = None
    if sg.node_labels is not None:
        node_labels = {u: sg.node_labels[perm[u]] for u in range(sg.n)}
    if sg.edge_labels is not None:
        edge_labels = {remap(u, v): lab for (u, v), lab in sg.edge_labels.items()}
    return reference_graph(sg.n, frozenset(remap(u, v) for u, v in sg.edges), node_labels,
                           edge_labels, sg.node_vocab, sg.edge_vocab)


def reference_lower_cells(sg: SetGraph) -> list[tuple[int, int, int]]:
    """The sorted nonzero cells ``(row, col, value)`` on and below the
    diagonal, valued as the tree builder values them."""
    if sg.node_labels is None and sg.edge_labels is None:
        return sorted((v, u, 1) for u, v in sg.edges)
    cells = [(u, u, lab + 1) for u, lab in sg.node_labels.items()]
    cells += [(v, u, sg.node_vocab + 1 + lab) for (u, v), lab in sg.edge_labels.items()]
    return sorted(cells)


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

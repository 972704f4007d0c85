"""Sequential form of partition trees: pruning, flattening into tokens,
level-wise reconstruction, token vocabulary, and a line-oriented wire format.

For a symmetric matrix the strictly-above-diagonal part of the tree is
redundant.  Pruning removes every node whose submatrix lies strictly above the
diagonal; a diagonal-touching internal node keeps ``k*(k+1)/2`` children (in
ascending sibling rank) and an off-diagonal one keeps all ``k*k``.  The pruned
tree is flattened breadth-first into one token per internal node: the tuple of
its children's attributes, typed by whether that node touches the diagonal.
Reconstruction fills the pending nodes level by level, in that order, and is
complete when the last level is filled.

:func:`encode_graph` and :func:`flatten_tokenize` make the tokens from
lower-triangle cells with one level pass (:func:`~k2seq.tree._level_tokens`,
the level-wise construction of Brisaboa, Ladra & Navarro, SPIRE 2009), and
:func:`prune` keeps a tree's cells with ``row >= col``.
:func:`decode_graph` is its inverse over arrays: level ``d``'s tokens are
one contiguous run, one per pending block, and their nonzero slots are the
next level's blocks; :func:`detokenize_build` takes its tree's cells from
the same walk (:func:`_level_cells`).  One predicate
(:func:`_child_rules`) says which values a child admits at its origin, and
one row check (:func:`_row_error`) names the first token that breaks it.
The :class:`IncrementalBuilder`, which drives the samplers, reads the
predicate as one rule table per level (:func:`_level_rules`), one token at a
time; the decoder evaluates it once over every nonzero child of the stream
and makes a table row only for the token it refuses, so both reject alike.

Every :class:`TokenSequence` holds its tokens as two arrays: ``diag``,
one bool per token, and ``grid``, one row per token of ``k*k`` int64 child
slots ``i*k + j`` (0-based), a diagonal token's values in its
:func:`child_orders` slots and its other slots 0.  :func:`encode_graph`
reads them off its level grids, :func:`decode_graph` walks them, and
``tokens`` is a view built on first use.  A plain token is written as its
kind, ``:`` and its held slots' bits by one byte pass over the grid, and
read into rows by one byte scan, or one lookup per word on a short line at
``k <= 3``.  With ``2 <= k <= 4`` it is also one :class:`Vocabulary` id,
its kind's base plus its bits read as a binary number, which
:func:`encode_ids` computes from the grid.  One table per ``k``
(:func:`_structural`) holds each id's row; a :class:`Vocabulary`'s id ->
row table is that table followed by its featured tokens' rows, and a mask
compares the rows of the pending block's kind with the block's rule row.

The wire format holds each integer as ``str`` writes it and each plain bit
as ``0`` or ``1``.  The reader refuses any other spelling of a number (a
plus sign, underscores, leading zeros, non-ASCII digits), which ``int``
alone would take.

One header rule, :func:`_check_header`, serves the encoder, the builder and
the decoder: ``padded_n`` is the smallest power of ``k`` holding
``original_n`` nodes, cell paths (``padded_n**2``) and, when featured, cell
values (``node_vocab + edge_vocab``) fit int64.  Encode refuses a graph whose
header breaks it, and decode refuses such a header, so the decoder accepts
exactly the encoder's image and all array work is over int64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import chain
from typing import Callable

import numpy as np

from .graphs import (Graph, GraphError, apply_ordering, canonical_ints, order_nodes,
                     padded_size, permutation_array)
from .tree import K2Tree, _level_tokens, _lower_cells, child_orders, tree_levels

DIAGONAL = "d"
OFFDIAGONAL = "o"

BOS = 0
EOS = 1
PAD = 2
_SPECIALS = 3


class SequenceError(ValueError):
    """Base class for token-sequence errors."""


class TokenMismatchError(SequenceError):
    """Token kind or arity does not match the pending node."""


class InvalidTokenError(SequenceError):
    """Token values are impossible at the pending position."""


class TruncatedSequenceError(SequenceError):
    """Tokens ran out while nodes were still pending."""


class TrailingTokensError(SequenceError):
    """Tokens remain after the tree completed."""


class EmptyGraphError(SequenceError):
    """An all-zero matrix has no token sequence; it is carried as a header-only
    sequence with zero tokens."""


@dataclass(frozen=True)
class Token:
    kind: str  # DIAGONAL or OFFDIAGONAL
    values: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in (DIAGONAL, OFFDIAGONAL):
            raise SequenceError(f"unknown token kind {self.kind!r}")


# Every slot of a malformed token's row: no rule admits it.
_MALFORMED = -1


@dataclass(frozen=True, init=False, eq=False)
class TokenSequence:
    """Flattened pruned tree plus the header needed to decode it.

    ``perm`` optionally records the node ordering (new index -> original id)
    applied before encoding, so decoding can restore original node ids.

    The tokens are two read-only arrays: ``diag``, one bool per token, and
    ``grid``, tokens x ``k*k`` int64 as :func:`_level_tokens` lays it out;
    ``tokens`` is a view with one shared :class:`Token` per distinct row.
    Encode, read and the sampler build a sequence from arrays
    (:meth:`_from_arrays`).  One built with ``tokens=`` keeps that tuple and
    converts it on first use, so :func:`decode_graph` refuses a bad header
    before any per-token work.  A malformed token (an arity not its kind's,
    or a value beyond int64) has a row of -1s and is read off the tuple.
    Equality and hashing read the header, ``perm``, the arrays and the
    malformed tokens; :func:`dataclasses.replace` works on the fields.
    """

    k: int
    padded_n: int
    original_n: int
    featured: bool
    node_vocab: int
    edge_vocab: int
    tokens: tuple[Token, ...]
    perm: tuple[int, ...] | None

    def __init__(self, k: int, padded_n: int, original_n: int, featured: bool = False,
                 node_vocab: int = 0, edge_vocab: int = 0, tokens: tuple[Token, ...] = (),
                 perm: tuple[int, ...] | None = None):
        # Frozen: set the instance dict directly, as the views are cached.
        vars(self).update(k=k, padded_n=padded_n, original_n=original_n, featured=featured,
                          node_vocab=node_vocab, edge_vocab=edge_vocab, tokens=tuple(tokens),
                          perm=perm)

    @classmethod
    def _from_arrays(cls, k: int, padded_n: int, original_n: int, diag: np.ndarray,
                     grid: np.ndarray, featured: bool = False, node_vocab: int = 0,
                     edge_vocab: int = 0, perm: tuple[int, ...] | None = None) -> TokenSequence:
        """The sequence whose tokens are the rows of ``diag`` and ``grid``,
        which it keeps, read-only."""
        diag.flags.writeable = grid.flags.writeable = False
        s = cls.__new__(cls)
        vars(s).update(k=k, padded_n=padded_n, original_n=original_n, featured=featured,
                       node_vocab=node_vocab, edge_vocab=edge_vocab, perm=perm,
                       _arrays=(diag, grid))
        return s

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        diag, grid, _ = _token_grid(self.tokens, self.k)
        diag.flags.writeable = grid.flags.writeable = False
        return diag, grid

    @property
    def diag(self) -> np.ndarray:
        return self._arrays[0]

    @property
    def grid(self) -> np.ndarray:
        return self._arrays[1]

    @cached_property
    def tokens(self) -> tuple[Token, ...]:
        return _row_tokens(self.diag, self.grid, self.k)

    def _token(self, i: int) -> Token:
        """Token ``i``, made from its row alone unless it is malformed."""
        if (self.grid[i] == _MALFORMED).all():
            return self.tokens[i]
        return _row_tokens(self.diag[i:i + 1], self.grid[i:i + 1], self.k)[0]

    def _through_first_misfit(self) -> TokenSequence:
        """This sequence or, if a token's arity is not its kind's, its
        tokens through the first such misfit: the decoder refuses a misfit
        at the latest, so both fail alike, and no ``k*k``-wide row is made
        for the tokens after it.  A misfit token 1 raises its error here,
        before the root's table is made.  A sequence whose arrays exist
        comes back as it is, with nothing left to save."""
        if "_arrays" in vars(self):
            return self
        arity = {DIAGONAL: diagonal_arity(self.k), OFFDIAGONAL: self.k * self.k}
        for i, token in enumerate(self.tokens):
            if len(token.values) != arity[token.kind]:
                break
        else:
            return self
        if i == 0:  # the root is a diagonal block
            raise _row_error(token, 1, 1, True, self.k, tuple)  # a misfit reads no table
        return replace(self, tokens=self.tokens[:i + 1])

    def _malformed(self) -> list[int]:
        """Indices of the rows that hold -1 in every slot: the malformed
        tokens, and any token built by hand with only -1s.  Only the rows
        with -1 in slot 0 are read whole.  A ``k`` with no slots
        (``k*k == 0``) leaves every row empty, so every token is listed."""
        rows = np.flatnonzero((self.grid[:, :1] == _MALFORMED).all(axis=1))
        return rows[(self.grid[rows] == _MALFORMED).all(axis=1)].tolist()

    @property
    def total_values(self) -> int:
        """Total attribute count over all tokens: ``k*(k+1)/2`` per diagonal
        token, ``k*k`` per other one, and its own per malformed one."""
        arity = np.where(self.diag, diagonal_arity(self.k), self.k * self.k)
        total = int(arity.sum())
        for i in self._malformed():
            total += len(self.tokens[i].values) - int(arity[i])
        return total

    def _key(self) -> tuple:
        return (self.k, self.padded_n, self.original_n, self.featured, self.node_vocab,
                self.edge_vocab, self.perm, self.diag.tobytes(), self.grid.tobytes(),
                tuple([self.tokens[i] for i in self._malformed()]))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def diagonal_arity(k: int) -> int:
    return k * (k + 1) // 2


def offdiagonal_arity(k: int) -> int:
    return k * k


@lru_cache(maxsize=16)
def _held_slots(k: int, diagonal: bool) -> tuple[int, ...]:
    """The slots ``i*k + j`` (0-based) of :func:`child_orders`, in order."""
    return tuple((i - 1) * k + (j - 1) for i, j in child_orders(k, diagonal))


_MAX_TABLE_K = 4


@dataclass(frozen=True)
class _Structural:
    """Every structural token of one ``k``, indexed by its :class:`Vocabulary`
    id: the diagonal bit patterns from id 3, then the off-diagonal ones from
    ``off_base``.  Rows 0..2 (BOS, EOS, PAD) hold zeros.

    ``grid`` is ids x ``k*k``: each token's values in their slots ``i*k + j``
    (0-based), a diagonal token's other slots 0, as :func:`_level_tokens` and
    :func:`_token_grid` lay them out.  A :class:`Vocabulary`'s id -> row
    table starts with ``grid``.  ``diag`` is each id's diagonal flag and
    ``by_kind`` the table's rows by kind (:func:`_rows_by_kind`), which
    every vocabulary of ``k`` shares.  Streams read it at ``k <= 3`` only.
    """

    off_base: int
    grid: np.ndarray
    diag: np.ndarray
    by_kind: dict[bool, tuple[np.ndarray, np.ndarray]]


def _rows_by_kind(first_id: int, diag: np.ndarray,
                  grid: np.ndarray) -> dict[bool, tuple[np.ndarray, np.ndarray]]:
    """Per diagonal flag, the ids of the nonzero rows of that kind in the
    id -> row table ``diag``, ``grid`` that starts at id ``first_id``, and
    those rows transposed to ``k*k`` slots x ids, so that each comparison
    of :meth:`Vocabulary._mask_for` runs along contiguous ids."""
    nonzero = grid.any(axis=1)
    out = {}
    for on in (True, False):
        rows = np.flatnonzero(nonzero & (diag == on))
        out[on] = first_id + rows, grid.take(rows, axis=0).T.copy()
        for array in out[on]:
            array.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _structural(k: int) -> _Structural:
    kk = k * k
    off_base = _SPECIALS + (1 << diagonal_arity(k))
    grid = np.zeros((off_base + (1 << kk), kk), dtype=np.int64)
    for diagonal, base in ((True, _SPECIALS), (False, off_base)):
        slots = _held_slots(k, diagonal)
        count, shifts = 1 << len(slots), np.arange(len(slots) - 1, -1, -1)
        grid[base:base + count, slots] = np.arange(count)[:, None] >> shifts & 1
    diag = np.arange(len(grid)) < off_base
    grid.flags.writeable = diag.flags.writeable = False  # every caller shares them
    return _Structural(off_base, grid, diag, _rows_by_kind(0, diag, grid))


def _plain_ids(s: TokenSequence) -> np.ndarray | None:
    """The :class:`Vocabulary` ids of the tokens of a plain sequence with
    ``2 <= k <= 4`` whose every row holds only 0s and 1s, a structural
    token's; None for any other sequence.  An id's offset from its kind's
    base is the bits of its held slots, the first most significant."""
    if s.featured or not 2 <= s.k <= _MAX_TABLE_K or (s.grid & -2).any():
        return None
    arity, held = diagonal_arity(s.k), np.greater_equal(*_slot_digits(s.k))
    shifts = np.stack([np.arange(s.k * s.k - 1, -1, -1), arity - held.cumsum()])  # per kind
    offsets = np.einsum("ij,ij->i", s.grid, (1 << shifts).take(s.diag, axis=0))
    return np.where(s.diag, _SPECIALS, _SPECIALS + (1 << arity)) + offsets


def node_position(path: tuple[tuple[int, int], ...], k: int) -> tuple[int, int]:
    """1-based block position ``(p, q)`` of the node addressed by ``path``.

    ``p = sum_l k**(L-l) * (i_l - 1) + 1`` and symmetrically for ``q``.
    """
    if not path:
        raise ValueError("path must be non-empty")
    length = len(path)
    p = q = 1
    for idx, (i, j) in enumerate(path, start=1):
        if not (1 <= i <= k and 1 <= j <= k):
            raise ValueError(f"path component ({i}, {j}) outside [1, {k}]")
        scale = k ** (length - idx)
        p += scale * (i - 1)
        q += scale * (j - 1)
    return p, q


def prune(t: K2Tree) -> K2Tree:
    """Drop every subtree strictly above the diagonal: keep the cells with
    ``row >= col``.

    A node survives iff its block position satisfies ``p >= q``; under a
    diagonal node only children with ``i >= j`` remain.
    """
    if t.pruned:
        raise ValueError("tree is already pruned")
    keep = t.rows >= t.cols
    return replace(t, rows=t.rows[keep], cols=t.cols[keep], values=t.values[keep], pruned=True)


def flatten_tokenize(t: K2Tree) -> TokenSequence:
    """Breadth-first token sequence of a pruned tree, one token per internal
    node: the rows of :func:`~k2seq.tree._level_tokens` over its cells, as
    :func:`encode_graph` makes them."""
    if not t.pruned:
        raise ValueError("flatten_tokenize expects a pruned tree")
    if not len(t.rows):
        raise EmptyGraphError("all-zero matrix has no token sequence")
    return TokenSequence._from_arrays(t.k, t.padded_n, t.original_n, *t._tokens(), t.featured,
                                      t.node_vocab, t.edge_vocab)


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _check_header(k: int, padded_n: int, original_n: int, featured: bool,
                  node_vocab: int, edge_vocab: int) -> None:
    """Raise :class:`SequenceError` unless :func:`encode_graph` writes this
    header for some graph: ``k >= 2``, ``original_n >= 1``, ``padded_n ==
    padded_size(original_n, k)`` with ``padded_n**2`` (the cell paths) within
    int64, and, when featured, both label vocab sizes at least 1 with
    ``node_vocab + edge_vocab`` (the largest cell value) within int64.

    This caps a graph at 2**31 nodes at K=2 and 3**19 at K=3."""
    if k < 2:
        raise SequenceError("k must be >= 2")
    if original_n < 1:
        raise SequenceError(f"original size {original_n} must be >= 1")
    if padded_n != padded_size(original_n, k):
        raise SequenceError(f"padded size {padded_n} is not the smallest power of {k} "
                            f"holding {original_n} nodes")
    if padded_n ** 2 > _INT64_MAX:
        raise SequenceError(f"padded size {padded_n} gives cell paths beyond int64")
    if featured and (node_vocab < 1 or edge_vocab < 1):
        raise SequenceError(
            f"featured label vocab sizes {node_vocab} {edge_vocab} must both be >= 1")
    if featured and node_vocab + edge_vocab > _INT64_MAX:
        raise SequenceError(f"label vocab sizes {node_vocab} {edge_vocab} "
                            "give cell values beyond int64")


Rule = tuple[bool, range]


@lru_cache(maxsize=16)
def _slot_digits(k: int) -> np.ndarray:
    """Rows ``i`` and ``j``: the 0-based digits of each child slot ``i*k + j``."""
    digits = np.array(np.divmod(np.arange(k * k), k))
    digits.flags.writeable = False  # every caller shares them
    return digits


def _child_rules(r: np.ndarray, c: np.ndarray, last: np.ndarray | bool, original_n: int,
                 featured: bool, node_vocab: int, edge_vocab: int) -> tuple[np.ndarray, ...]:
    """The values each child admits, from its row and column origin ``r``
    and ``c`` and whether it is a cell (``last``, the last level's child),
    all broadcast together: ``(zero_ok, lo, hi)``, 0 if ``zero_ok`` and
    ``lo..hi`` (inclusive, so a range may end at int64's maximum).  The one
    copy of the slot rules, which the builder's tables
    (:func:`_level_rules`) and the decoder (:func:`_level_cells`) read.
    Pending blocks are aligned and on or below the diagonal, so a child is
    on it when ``r == c`` and above it when ``c > r``.

    A child admits only 0 above the diagonal, in the padding (``r >=
    original_n``) and, in a plain tree, on a diagonal block with fewer than
    two real ids.  In a featured tree a diagonal child in the real region is
    nonzero, as every node carries a label, and a cell admits its kind's
    label range.  Any other child admits 0 and 1.  A child that admits only
    0 is written ``zero_ok``, ``lo=1``, ``hi=0`` whatever its position, so
    children with equal rules have equal rows (:func:`_rule_keys`).
    """
    on_diag = r == c
    if not featured:
        # Padding, or a diagonal block whose first id is the last real one;
        # a single diagonal cell holds no edge either.
        zero_only = (c > r) | (r + on_diag >= original_n) | (on_diag & last)
        ones = np.ones(zero_only.shape, dtype=np.int64)
        return ones.astype(bool), ones, np.where(zero_only, 0, 1)
    zero_only = (c > r) | (r >= original_n)
    cell = last & ~zero_only
    lo = np.where(cell & ~on_diag, node_vocab + 1, 1)
    hi = np.where(cell, np.where(on_diag, node_vocab, node_vocab + edge_vocab), 1)
    return ~on_diag | zero_only, lo, np.where(zero_only, 0, hi)


def _level_rules(origins: np.ndarray, block: int, k: int, original_n: int, featured: bool,
                 node_vocab: int, edge_vocab: int) -> tuple[np.ndarray, ...]:
    """The rule table of one level's pending ``block``-sized blocks, whose
    row and column origins are the two rows of ``origins``:
    ``(diag, rc, zero_ok, lo, hi)``.  ``diag`` flags the blocks on the
    diagonal; ``rc`` stacks each child's row and column origin ``(r, c)`` as
    two blocks x ``k*k`` arrays over the child slots ``i*k + j`` (0-based),
    and the rest are such arrays of :func:`_child_rules`.  The builder reads
    a level's rows off it; the decoder makes one only for the block it
    refuses, to name the refused value."""
    step = block // k
    r, c = rc = origins[:, :, None] + _slot_digits(k)[:, None, :] * step
    return (origins[0] == origins[1], rc,
            *_child_rules(r, c, step == 1, original_n, featured, node_vocab, edge_vocab))


def _row_rules(zero_ok: list[bool], lo: list[int], hi: list[int], diag: bool,
               k: int) -> tuple[Rule, ...]:
    """A block's rules, ``(zero_ok, nonzero range)`` per slot its token holds."""
    return tuple([(zero_ok[s], range(lo[s], hi[s] + 1)) for s in _held_slots(k, diag)])


def _rule_keys(diag: np.ndarray, zero_ok: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> list[bytes]:
    """One key per block of a level's rule table (:func:`_level_rules`):
    the bytes of its diagonal flag and its ``zero_ok``, ``lo`` and ``hi``
    rows.  The table writes each rule one way, so two blocks get equal keys
    exactly when their kinds and :func:`_row_rules` are equal: a diagonal
    block's slots above the diagonal admit only 0 at any origin, so they add
    nothing to tell keys apart."""
    rows = np.concatenate([diag[:, None], zero_ok, lo, hi], axis=1, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def _row_error(token: Token, number: int, depth: int, diag: bool, k: int,
               row: Callable[[], tuple[list, list, list]]) -> SequenceError | None:
    """Why token ``number`` (1-based) cannot fill a pending block of level
    ``depth`` with diagonal flag ``diag``, whose ``zero_ok``, ``lo`` and
    ``hi`` rows of the level's table ``row()`` gives, or None when it can:
    each slot the token holds (:func:`_held_slots`) admits 0 if ``zero_ok``
    and ``lo..hi``.  Kind and arity come first, then values, then the
    all-zero group: the order in which the builder meets them.  ``row`` is
    called only for a token of the block's kind and arity, so a malformed
    token is refused before any ``k*k``-wide rule table is made."""
    expected, values = DIAGONAL if diag else OFFDIAGONAL, token.values
    arity = diagonal_arity(k) if diag else k * k
    if token.kind != expected:
        cls, why = TokenMismatchError, f"kind {token.kind!r} where {expected!r} is pending"
    elif len(values) != arity:
        cls, why = TokenMismatchError, f"arity {len(values)} where {arity} is pending"
    else:
        cls, why = InvalidTokenError, "all-zero sibling group under a nonzero node"
        zero_ok, lo, hi = row()
        for slot, (held, value) in enumerate(zip(_held_slots(k, diag), values)):
            if not (lo[held] <= value <= hi[held] or value == 0 and zero_ok[held]):
                why = f"value {value} not allowed at slot {slot}"
                break
        else:
            if any(values):
                return None
    return cls(f"token {number} (level {depth}): {why}")


def _trailing_error(number: int) -> TrailingTokensError:
    return TrailingTokensError(f"token {number}: the tree is already complete")


def _truncated_error(pending: int, steps: int) -> TruncatedSequenceError:
    return TruncatedSequenceError(f"{pending} nodes still pending after {steps} tokens")


class IncrementalBuilder:
    """Breadth-first reconstruction of a pruned tree, one token at a time.

    The builder holds the current level's pending blocks, its rule table
    (:func:`_level_rules`, made when first needed) and a cursor on its next
    pending block.  Each step checks one token against that block's row
    (:func:`_row_error`), or one id against that block's mask, and moves
    the cursor; when a level is full, the nonzero slots of its tokens give
    the next level's blocks, as in :func:`decode_graph`.  The tree is
    complete when the last level is full.  The builder keeps a step count and the current level's
    accepted values, not its tokens; :meth:`tree` takes the last level's
    nonzero cells.  A step that raises leaves the builder as it was.
    """

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
        self._levels = tree_levels(padded_n, k)
        self._steps = 0
        self._enter(1, np.zeros((2, 1), dtype=np.int64))  # the root

    def _enter(self, depth: int, origins: np.ndarray) -> None:
        self._depth = depth
        self._origins = origins
        self._diag = (origins[0] == origins[1]).tolist()
        self._rules: list[np.ndarray] | None = None  # made by _level_table
        self._keys: list[bytes] | None = None  # made by _mask_key
        self._cursor = 0
        self._values: list[tuple[int, ...]] = []  # of the level's accepted tokens

    @property
    def complete(self) -> bool:
        # Past the last level's last block; tested inline below, per sampled token.
        return self._cursor == len(self._diag)

    @property
    def steps(self) -> int:
        """Tokens accepted so far."""
        return self._steps

    @property
    def next_kind(self) -> str | None:
        if self._cursor == len(self._diag):
            return None
        return DIAGONAL if self._diag[self._cursor] else OFFDIAGONAL

    @property
    def next_path(self) -> tuple[tuple[int, int], ...] | None:
        """The pending block's root-to-block path: the base-``k`` digits of
        its origin, most significant first."""
        if self._cursor == len(self._diag):
            return None
        k, (r0, c0) = self.k, self._origins[:, self._cursor].tolist()
        sizes = [self.padded_n // k ** d for d in range(1, self._depth)]
        return tuple([(r0 // size % k + 1, c0 // size % k + 1) for size in sizes])

    def _level_table(self) -> list[np.ndarray]:
        """The level's ``zero_ok``, ``lo`` and ``hi`` rows, blocks x
        ``k*k``, made the first time a block's rules are asked for, with the
        child origins ``_rc``: a builder whose first token is malformed
        never makes the ``k*k``-wide root table."""
        if self._rules is None:
            _, self._rc, *self._rules = _level_rules(
                self._origins, self.padded_n // self.k ** (self._depth - 1), self.k,
                self.original_n, self.featured, self.node_vocab, self.edge_vocab)
        return self._rules

    def _block_row(self) -> list[list]:
        """The pending block's ``zero_ok``, ``lo`` and ``hi`` rows, as lists."""
        return [rows[self._cursor].tolist() for rows in self._level_table()]

    def _mask_key(self) -> bytes:
        """The pending block's rule signature (:func:`_rule_keys`), by which
        the sampler keeps its masks; the level's keys are made the first
        time one is asked for, so a replay that only steps never makes
        them."""
        if self._keys is None:
            self._keys = _rule_keys(np.array(self._diag), *self._level_table())
        return self._keys[self._cursor]

    def next_rules(self) -> tuple[Rule, ...]:
        """Admissible values per slot of the pending block, read off the
        level's table."""
        if self._cursor == len(self._diag):
            raise _trailing_error(self.steps + 1)
        return _row_rules(*self._block_row(), self._diag[self._cursor], self.k)

    def step(self, token: Token | int, vocab: Vocabulary | None = None) -> None:
        """Check one token against the pending block's row of the level's
        table and move on; raises a :class:`SequenceError` subclass on
        misuse.

        ``step(token_id, vocab)`` takes the token by its id in ``vocab``
        and checks it with one lookup in the mask of the pending block's
        rule signature (:meth:`Vocabulary._mask_for`), which admits
        exactly the tokens :func:`_row_error` passes; a refused id raises
        the error its :class:`Token` would."""
        if self._cursor == len(self._diag):
            raise _trailing_error(self._steps + 1)
        if vocab is None:
            error = _row_error(token, self._steps + 1, self._depth, self._diag[self._cursor],
                               self.k, self._block_row)
            if error is not None:
                raise error
            values = token.values
        elif 0 <= token < vocab.size and vocab._mask_for(self)[token]:
            values = vocab._values(token)
        else:
            raise _row_error(vocab.decode(token), self._steps + 1, self._depth,
                             self._diag[self._cursor], self.k, self._block_row)
        self._steps += 1
        self._values.append(values)
        self._cursor += 1
        if self._cursor < len(self._diag) or self._depth == self._levels:
            return
        self._enter(self._depth + 1,
                    self._rc.reshape(2, -1).take(np.flatnonzero(self._level_values()), axis=1))

    def _level_values(self) -> np.ndarray:
        """The full level's accepted values, laid out as its table: a
        diagonal token holds no slot above the diagonal."""
        r, c = self._rc
        values = np.zeros(r.shape, dtype=np.int64)
        values[c <= r] = np.fromiter(chain.from_iterable(self._values), dtype=np.int64)
        return values

    def tree(self) -> K2Tree:
        """The pruned tree of the accepted tokens: the nonzero children of
        the last level's blocks are its cells."""
        if not self.complete:
            pending = len(self._diag) - self._cursor
            if self._depth < self._levels:
                pending += sum(v != 0 for values in self._values for v in values)
            raise _truncated_error(pending, self._steps)
        values = self._level_values()
        (r, c), cells = self._rc, values != 0
        return K2Tree(self.k, self.padded_n, self.original_n, r[cells], c[cells], values[cells],
                      self.featured, self.node_vocab, self.edge_vocab, pruned=True)


def detokenize_build(s: TokenSequence) -> K2Tree:
    """Rebuild the pruned tree from a token sequence; inverse of flatten_tokenize.

    Its cells are those of the decoder's own walk (:func:`_level_cells`), so
    a stream is refused as :func:`decode_graph` refuses it, in memory
    bounded by the tokens, and the ``perm`` line is not read.  A header-only
    sequence (zero tokens) denotes the all-zero matrix and yields a
    root-leaf tree; its header is checked like any other.
    """
    _check_header(s.k, s.padded_n, s.original_n, s.featured, s.node_vocab, s.edge_vocab)
    s = s._through_first_misfit()
    cells = _level_cells(s) if len(s.diag) else (np.zeros(0, dtype=np.int64),) * 3
    return K2Tree(s.k, s.padded_n, s.original_n, *cells, s.featured, s.node_vocab,
                  s.edge_vocab, pruned=True)


def position_paths(s: TokenSequence) -> list[tuple[tuple[int, int], ...]]:
    """Per-token root-to-parent paths in unpruned ``(i, j)`` coordinates:
    the paths of the internal nodes of :func:`detokenize_build`'s tree,
    breadth-first.

    The first token expands the root, so its path is empty.  The sequence is
    validated as a side effect.
    """
    t = detokenize_build(s)
    return [t.path(uid) for uid, node in enumerate(t.nodes) if node.children]


# Masks a vocabulary keeps, the oldest dropped first.  A sampler meets few
# rule signatures (6 at K=2 and 10 at K=3 on planar graphs), and one K=4
# mask is 66,563 bytes.
_MASK_CACHE_SIZE = 32


class Vocabulary:
    """Token ids for one ``k``: 0..2 are BOS/EOS/PAD, then all diagonal bit
    patterns, then all off-diagonal bit patterns, then any registered featured
    (label-valued) tokens.

    Bit patterns are read as binary numbers with the first element (lowest
    sibling rank) most significant.  Diagonal and off-diagonal tokens with the
    same bits get distinct ids.  Featured tokens whose values happen to be all
    binary coincide with structural tokens and share their ids.

    ``_diag`` and ``_grid`` are one table of every id's row, laid out as a
    :class:`TokenSequence` lays out its tokens: first the structural table
    of ``k`` (:func:`_structural`), whose ids 0..2 are zero rows and which
    a vocabulary with no featured tokens uses as it is,
    then the featured tokens' rows as :func:`_token_grid` makes them, so a
    token whose arity is not its kind's is a row of -1s.
    ``_by_kind`` keeps, per diagonal flag, two parts of the table
    (:func:`_rows_by_kind`): the structural one, built once per ``k`` and
    shared, and the featured tokens' one.  A mask compares their rows with
    the pending block's ``zero_ok``, ``lo`` and ``hi`` row over all ``k*k``
    slots (:meth:`_mask_for`): a diagonal row's unheld slots hold 0, which
    their rules admit, and no rule admits a negative value or a -1 row.
    ``_masks`` keeps the masks by the rule signature of that row
    (:func:`_rule_keys`).

    ``_held`` keeps each id's values, as its :class:`Token` holds them,
    when the id is first asked for (``k=4`` has 66,563 ids; a sampler
    meets few): :meth:`IncrementalBuilder.step` takes an id's values from
    it and :meth:`decode` makes the id's :class:`Token` from them.
    """

    BOS = BOS
    EOS = EOS
    PAD = PAD

    def __init__(self, k: int, featured_tokens: tuple[Token, ...] = ()):
        if k < 2:
            raise ValueError("k must be >= 2")
        if k > _MAX_TABLE_K:
            # The off-diagonal rows alone would number 2**(k*k).
            raise ValueError(f"k={k} has 2**{k * k} off-diagonal tokens; "
                             "vocabularies support k <= 4")
        self.k = k
        self.diag_arity = diagonal_arity(k)
        self.off_arity = offdiagonal_arity(k)
        table = _structural(k)
        self._off_base, self._ext_base = table.off_base, len(table.grid)
        ext = sorted({t for t in featured_tokens if not self._is_structural(t)},
                     key=lambda t: (t.kind, t.values))
        arity = {DIAGONAL: self.diag_arity, OFFDIAGONAL: self.off_arity}
        if big := [t for t in ext if len(t.values) == arity[t.kind] and min(t.values) >= 0
                   and max(t.values) > _INT64_MAX]:
            raise SequenceError(f"token {big[0]} has a value beyond int64")
        self.featured_tokens = tuple(ext)
        self._ext_ids = {t: self._ext_base + i for i, t in enumerate(ext)}
        diag, grid, _ = _token_grid(self.featured_tokens, k)
        self._diag, self._grid = table.diag, table.grid
        if len(grid):
            self._diag = np.concatenate([table.diag, diag])
            self._grid = np.concatenate([table.grid, grid])
        featured = _rows_by_kind(self._ext_base, diag, grid)
        self._by_kind = {on: (table.by_kind[on], featured[on]) for on in (True, False)}
        self._held: dict[int, tuple[int, ...]] = {}
        self._masks: dict[bytes, np.ndarray] = {}

    def _is_structural(self, token: Token) -> bool:
        arity = self.diag_arity if token.kind == DIAGONAL else self.off_arity
        return len(token.values) == arity and all(v in (0, 1) for v in token.values)

    @property
    def core_size(self) -> int:
        """Number of structural tokens: 2**(k*k) + 2**(k*(k+1)/2)."""
        return (1 << self.off_arity) + (1 << self.diag_arity)

    @property
    def size(self) -> int:
        """Total id count including the three reserved ids and featured tokens."""
        return len(self._grid)

    def encode(self, token: Token) -> int:
        if self._is_structural(token):
            value = 0
            for v in token.values:
                value = (value << 1) | v
            return (_SPECIALS if token.kind == DIAGONAL else self._off_base) + value
        try:
            return self._ext_ids[token]
        except KeyError:
            raise SequenceError(f"token {token} is not in the vocabulary") from None

    def decode(self, token_id: int) -> Token:
        if self._ext_base <= token_id < self.size:
            return self.featured_tokens[token_id - self._ext_base]
        return Token(DIAGONAL if token_id < self._off_base else OFFDIAGONAL,
                     self._values(token_id))

    def _values(self, token_id: int) -> tuple[int, ...]:
        """The values of the token with this id, kept in ``_held``."""
        values = self._held.get(token_id)
        if values is None:
            if not _SPECIALS <= token_id < self.size:
                raise SequenceError(f"id {token_id} is reserved or out of range")
            if token_id >= self._ext_base:
                values = self.featured_tokens[token_id - self._ext_base].values
            else:
                slots = _held_slots(self.k, token_id < self._off_base)
                values = tuple(self._grid[token_id, slots].tolist())
            self._held[token_id] = values
        return values

    def _mask_for(self, builder: IncrementalBuilder) -> np.ndarray:
        """The read-only mask of an incomplete builder's pending block, kept
        in ``_masks`` by its rule signature
        (:meth:`IncrementalBuilder._mask_key`).  Blocks with equal kinds and
        rules share a signature, so a mask is built only on a miss, by
        comparing the rows of the block's kind with its rule row; past
        ``_MASK_CACHE_SIZE`` masks the oldest is dropped."""
        key = builder._mask_key()
        mask = self._masks.get(key)
        if mask is None:
            if len(self._masks) >= _MASK_CACHE_SIZE:
                del self._masks[next(iter(self._masks))]
            zero_ok, lo, hi = (rule[builder._cursor, :, None] for rule in builder._level_table())
            mask = self._masks[key] = np.zeros(self.size, dtype=bool)
            for ids, rows in self._by_kind[builder._diag[builder._cursor]]:  # rows: slots x ids
                mask[ids[((rows <= hi) & ((rows >= lo) | (rows == 0) & zero_ok)).all(axis=0)]] = True
            mask.flags.writeable = False
        return mask

    def _rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal flags and grid rows of the tokens with these ids."""
        return self._diag[ids], self._grid[ids]

    @classmethod
    def from_corpus(cls, k: int, sequences: list[TokenSequence]) -> "Vocabulary":
        """Structural tokens plus every label-valued token seen in the corpus."""
        seen: set[Token] = set()
        for s in sequences:
            if s.k != k:
                raise SequenceError(f"sequence with k={s.k} in a k={k} corpus")
            if _plain_ids(s) is None:  # else every token is a structural one
                seen.update(s.tokens)
        return cls(k, tuple(seen))


def encode_ids(s: TokenSequence, vocab: Vocabulary) -> list[int]:
    ids = _plain_ids(s) if vocab.k == s.k else None
    if ids is not None:
        return ids.tolist()
    return [vocab.encode(t) for t in s.tokens]


def _token_line(diag: np.ndarray, grid: np.ndarray, k: int) -> str:
    """The token line of plain rows of 0s and 1s, the one spelling of a plain
    word, by one ``uint8`` pass: per token its kind, ``:``, the bits of its
    held slots (a diagonal row's others masked out) and a space but the last."""
    i, j = _slot_digits(k)
    chars = np.empty((len(grid), k * k + 3), dtype=np.uint8)
    chars[:, 0] = np.where(diag, ord(DIAGONAL), ord(OFFDIAGONAL))
    chars[:, 1], chars[:, -1] = ord(":"), ord(" ")
    np.add(grid, ord("0"), out=chars[:, 2:-1], casting="unsafe")
    keep = np.ones((2, k * k + 3), dtype=bool)  # per diagonal flag
    keep[1, 2:-1] = i >= j
    return chars[keep.take(diag, axis=0)].tobytes()[:-1].decode("ascii")


def write_token_stream(s: TokenSequence) -> str:
    """Line-oriented text form.

    Line 1: ``K PADDED_N ORIGINAL_N FEATURED``.  Line 2 (featured only): node
    and edge label vocab sizes.  Next line: space-separated tokens,
    ``d:``/``o:`` prefixed, values comma-separated for featured streams and
    concatenated bits otherwise; empty for a header-only sequence.  An optional
    trailing ``perm`` line records the node ordering applied before encoding.
    Plain rows of 0s and 1s at ``k >= 2`` are written by :func:`_token_line`;
    featured or ``tokens=`` ones token by token, making no ``k*k``-wide row.
    """
    lines = [f"{s.k} {s.padded_n} {s.original_n} {int(s.featured)}"]
    if s.featured:
        lines.append(f"{s.node_vocab} {s.edge_vocab}")
    if not s.featured and s.k >= 2 and "_arrays" in vars(s) and not (s.grid & -2).any():
        lines.append(_token_line(s.diag, s.grid, s.k))
    else:
        sep = "," if s.featured else ""
        lines.append(" ".join([f"{t.kind}:{sep.join(map(str, t.values))}" for t in s.tokens]))
    if s.perm is not None:
        lines.append("perm " + " ".join(str(p) for p in s.perm))
    return "\n".join(lines) + "\n"


def _ints(fields: list[str], error: str) -> tuple[int, ...]:
    """The integers ``fields`` hold, each written as ``str`` writes it;
    :class:`SequenceError` with message ``error`` for any other field.
    ``int`` alone also takes a plus sign, underscores, leading zeros and
    non-ASCII digits, which no stream the encoder writes holds."""
    try:
        values = tuple(map(int, fields))
    except ValueError:
        raise SequenceError(error) from None
    if list(map(str, values)) != fields:
        raise SequenceError(error)
    return values


def _perm_entries(line: str) -> tuple[int, ...]:
    """The entries of a ``perm`` line, as Python ints: read by one byte
    scan (:func:`canonical_ints`) when written as the writer writes them,
    else by :func:`_ints`, which names the fault."""
    if line == "perm":
        return ()
    values = canonical_ints(line[5:])
    if values is None:
        return _ints(line[5:].split(" "), "perm entry is not a canonical integer")
    return tuple(values.tolist())


# Line length, in bytes, below which a plain line at K=2 or K=3 is read by one
# lookup per word (:func:`_looked_up_rows`), not one byte scan
# (:func:`_scanned_rows`), which costs ~40 us more per line and less per word:
# they cross near 4 KiB at K=2 and 7 KiB at K=3.  K >= 4 always scans.
_SCAN_MIN_BYTES = {2: 4096, 3: 8192}


@lru_cache(maxsize=None)
def _word_ids(k: int) -> dict[str, int]:
    """Each structural token's word at ``k <= 3``, as :func:`_token_line`
    spells it, mapped to its :class:`Vocabulary` id."""
    table = _structural(k)
    words = _token_line(table.diag[_SPECIALS:], table.grid[_SPECIALS:], k).split(" ")
    return {word: i for i, word in enumerate(words, start=_SPECIALS)}


def _looked_up_rows(line: str, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The diagonal flags and grid rows of a plain token line's words, one
    lookup per word; None if a word is not a structural token's of ``k``."""
    words = line.split(" ") if line else []
    try:
        ids = np.fromiter(map(_word_ids(k).__getitem__, words), dtype=np.intp, count=len(words))
    except KeyError:
        return None
    table = _structural(k)
    return table.diag[ids], table.grid[ids]


def _scanned_rows(line: str, k: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The diagonal flags and grid rows of a plain token line's words, read
    by one scan of its ASCII bytes; None for any line whose words are not
    all structural tokens of this ``k``, separated by single spaces.

    Words run between spaces, so an empty one (a leading, trailing or
    doubled space) has length 0.  A word of length ``arity + 2`` must be
    ``d:`` and one of ``k*k + 2`` must be ``o:``; with two such bytes per
    word and no others outside spaces, ``0`` and ``1``, every byte past a
    word's ``:`` is a bit.  Only then is anything ``k*k`` wide made: one
    gather of each slot's byte, ``1`` or not (a diagonal word's unheld
    slots read its ``:``)."""
    if not line.isascii():
        return None
    raw = line.encode("ascii")
    data = np.frombuffer(raw, dtype=np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(data == ord(" ")) + 1))
    kk, arity = k * k, diagonal_arity(k)
    lengths = np.diff(starts, append=len(raw) + 1) - 1
    diag = lengths == arity + 2
    if (not (diag | (lengths == kk + 2)).all()
            or (data.take(starts) != np.where(diag, ord(DIAGONAL), ord(OFFDIAGONAL))).any()
            or (data.take(starts + 1) != ord(":")).any()
            or len(raw.translate(None, b" 01")) != 2 * len(starts)):
        return None
    held = np.greater_equal(*_slot_digits(k))
    offsets = np.stack([np.arange(2, kk + 2), np.where(held, held.cumsum() + 1, 1)])  # by kind
    ones = data.take(offsets.take(diag, axis=0) + starts[:, None]) == ord("1")
    return diag, ones.astype(np.int64)


def read_token_stream(text: str) -> TokenSequence:
    """Inverse of :func:`write_token_stream`, accepting only what it writes:
    lines that each end in ``\n``, nothing after the last, fields separated
    by single spaces, integers written as ``str`` writes them and plain bits
    ``0`` or ``1``.  Lines are split at each space, so a doubled, leading or
    trailing space leaves an empty field, which no field admits.

    A plain line at ``k >= 2`` of structural words only is read into rows by
    one byte scan from ``_SCAN_MIN_BYTES[k]`` bytes on (0 past ``k = 3``),
    else one lookup per word.  Any other is parsed token by token, which
    names the fault."""
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
    for number, trailing in enumerate(rest, start=featured + 3):
        if number > featured + 3 or trailing.split(" ", 1)[0] != "perm":
            raise SequenceError(f"unexpected trailing line {number}")
    perm = _perm_entries(rest[0]) if rest else None
    if not featured and k >= 2:
        read = _scanned_rows if len(line) >= _SCAN_MIN_BYTES.get(k, 0) else _looked_up_rows
        rows = read(line, k)
        if rows is not None:
            return TokenSequence._from_arrays(k, padded_n, original_n, *rows, perm=perm)
    words = line.split(" ") if line else []
    # Words repeat: each distinct one is parsed once, in stream order, and
    # its Token is shared by every occurrence.
    parsed = {word: _parse_token(word, featured) for word in dict.fromkeys(words)}
    return TokenSequence(k=k, padded_n=padded_n, original_n=original_n,
                         featured=bool(featured), node_vocab=node_vocab, edge_vocab=edge_vocab,
                         tokens=tuple([parsed[word] for word in words]), perm=perm)


def _parse_token(word: str, featured: bool) -> Token:
    if len(word) < 2 or word[1] != ":" or word[0] not in (DIAGONAL, OFFDIAGONAL):
        raise SequenceError(f"malformed token {word!r}")
    body = word[2:]
    values = _ints(body.split(",") if featured else list(body), f"malformed token {word!r}")
    if not values:
        raise SequenceError(f"malformed token {word!r}")
    if not featured and any(v not in (0, 1) for v in values):
        raise SequenceError(f"non-binary value in plain token {word!r}")
    return Token(kind=word[0], values=values)


def full_tree_attrs(s: TokenSequence) -> int:
    """Attribute count of the unpruned tree of the matrix ``s`` encodes.

    Every internal node of the full tree is a kept one or the mirror image of
    a kept off-diagonal one, and each has ``k*k`` children.
    """
    return s.k * s.k * (2 * len(s.diag) - int(np.count_nonzero(s.diag)))


def _row_tokens(diag: np.ndarray, grid: np.ndarray, k: int) -> tuple[Token, ...]:
    """The tokens of the rows of ``diag`` and ``grid``, laid out as
    :func:`_level_tokens` lays them out."""
    diag_slots = _held_slots(k, True)
    tokens = []
    # Rows repeat: each distinct one becomes one Token, shared by every
    # occurrence, so a stream holds few objects however long it is.
    made: dict[tuple[bool, tuple[int, ...]], Token] = {}
    for bits, on_diag in zip(grid.tolist(), diag.tolist()):
        held = tuple([bits[s] for s in diag_slots]) if on_diag else tuple(bits)
        token = made.get((on_diag, held))
        if token is None:
            token = made[on_diag, held] = Token(DIAGONAL if on_diag else OFFDIAGONAL, held)
        tokens.append(token)
    return tuple(tokens)


def encode_graph(g: Graph, k: int, ordering: str = "identity",
                 reverse: bool = False) -> TokenSequence:
    """Full encode pipeline: order, then encode level by level from the
    lower-triangle cells (:func:`_level_tokens`).

    Produces the tokens of ``flatten_tokenize(prune(build_k2tree(g, k)))``
    from the lower-triangle cells alone, with no tree.  Past the ordering
    it makes one division per level over the cells, for their path keys,
    and one sort; each level's tokens then cost only that level's blocks,
    and memory is O(cells + tokens * k*k).  The all-zero case (a plain
    graph with no edges) becomes a header-only sequence.  The header must
    pass :func:`_check_header`, edges or not: a graph whose cell paths or
    label vocab sizes do not fit int64 raises :class:`SequenceError` before
    any per-node work.  With a
    non-identity ordering the permutation is stored on the sequence so
    :func:`decode_graph` can restore original node ids.  The sequence
    keeps the level grids as its arrays.
    """
    padded_n = padded_size(g.n, k)
    _check_header(k, padded_n, g.n, g.labeled, g.node_vocab, g.edge_vocab)
    perm = None
    if ordering != "identity":
        perm = order_nodes(g, ordering, reverse=reverse)
        g = apply_ordering(g, perm)
    rows, cols, values = _lower_cells(g)
    diag, grid = np.zeros(0, dtype=bool), np.zeros((0, k * k), dtype=np.int64)
    if len(rows):
        diag, grid = _level_tokens(rows, cols, values, k, tree_levels(padded_n, k))
    return TokenSequence._from_arrays(k, padded_n, g.n, diag, grid, g.labeled, g.node_vocab,
                                      g.edge_vocab, perm)


def _token_grid(tokens: tuple[Token, ...],
                k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-token diagonal flags, child slots and malformed flags.

    The grid has one row per token and ``k*k`` columns, the slots
    ``i*k + j`` (0-based) in row-major order; a diagonal token's values sit
    in its :func:`child_orders` slots and its other slots hold 0.  A token
    whose arity does not match its kind, or that holds a value beyond int64,
    is malformed: its row holds -1 in every slot, and no rule admits it.
    A diagonal token's arity is its count of held slots, ``k*(k+1)/2`` for
    ``k >= 0``; a negative ``k``, which only a read header holds, has none,
    so every diagonal token that holds a value is malformed there.
    """
    diag = np.fromiter((t.kind == DIAGONAL for t in tokens), dtype=bool, count=len(tokens))
    rows = [t.values for t in tokens]
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(tokens))
    held = _held_slots(k, True)
    kk, arity = k * k, len(held)
    expected = np.where(diag, arity, kk)
    malformed = lengths != expected
    try:
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(lengths.sum()))
    except OverflowError:
        malformed |= [any(not _INT64_MIN <= v <= _INT64_MAX for v in values) for values in rows]
    if malformed.any():
        rows = [(0,) * size if bad else values
                for values, bad, size in zip(rows, malformed.tolist(), expected.tolist())]
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(expected.sum()))
    starts = np.cumsum(expected) - expected
    grid = np.zeros((len(tokens), kk), dtype=np.int64)
    off = np.flatnonzero(~diag)
    grid[off] = flat[starts[off, None] + np.arange(kk)]
    on = np.flatnonzero(diag)
    grid[on[:, None], held] = flat[starts[on, None] + np.arange(arity)]
    grid[malformed] = _MALFORMED
    return diag, grid, malformed


def _level_cells(s: TokenSequence) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero full-depth cells that the
    tokens of ``s`` encode, all lower-triangle.

    Breadth-first, the child of the ``f``-th nonzero slot (0-based, over
    the whole stream) is token ``f + 1`` or, past the last level's tokens,
    a cell, so one pass over the grid's nonzero slots gives every level's
    token range, and each level's child origins are one gather: the
    parent's origin plus the slot's digits times the child block size.
    The rules (:func:`_child_rules`) are then checked once, over every
    nonzero child and, in a featured tree, the diagonal slots of diagonal
    blocks, the only slots where a 0 can be refused.  A token's checks read
    only the tokens before it, so the first bad token is the first the
    builder refuses, whatever follows it; :func:`_row_error` names it from
    its block's row of :func:`_level_rules`.  Memory is bounded by the
    nonzero slots of the tokens, never by the blocks a cut stream leaves
    pending."""
    diag, grid = s.diag, s.grid
    k, kk, size, total, n = s.k, s.k * s.k, s.padded_n, len(grid), s.original_n
    levels = tree_levels(size, k)
    # A malformed token's row holds -1s: nonzero, and every rule refuses them.
    flat = np.flatnonzero(grid != 0)
    owner = flat // kk
    # A cell or block origin (r, c) is the key r * size + c; a slot's
    # offset from its block's origin is its digits' key times the step.
    i, j = _slot_digits(k)
    offsets = (i * size + j).take(flat - owner * kk)
    # Column p: token p's block origin, then, from the last level's end, the cells.
    keys = np.zeros(len(flat) + 1, dtype=np.int64)
    end, a, ends, pending, cells = 1, 0, [], 0, len(flat) + 1
    for depth in range(1, levels + 1):
        if depth == levels:
            cells = end
        stop = min(end, total)
        b = int(owner.searchsorted(stop))  # nonzero slots before token ``stop``
        np.add(keys.take(owner[a:b]), offsets[a:b] * (size // k ** depth),
               out=keys[a + 1:b + 1])
        ends.append(stop)
        if stop < end:  # the stream ends inside this level
            pending = end - stop + (b - a if depth < levels else 0)
            break
        end, a = b + 1, b
    r = keys[:b + 1] // size
    c = keys[:b + 1] - r * size
    on_diag = r[:stop] == c[:stop]
    values = grid.reshape(-1).take(flat[:b])
    last = np.zeros(b, dtype=bool)
    last[cells - 1:] = True
    _, lo, hi = _child_rules(r[1:], c[1:], last, n, s.featured, s.node_vocab, s.edge_vocab)
    # The first bad token of each check: a kind other than its block's or
    # no nonzero slot; a nonzero value refused; in a featured tree, a 0 refused.
    empty = np.bincount(owner[:b], minlength=stop) == 0
    refused = (values < lo) | (values > hi)
    bad = [np.flatnonzero((on_diag != diag[:stop]) | empty)[:1],
           owner[np.flatnonzero(refused)[:1]]]
    if s.featured:
        on = np.flatnonzero(diag[:stop])
        step = size // k ** (np.searchsorted(ends, on, side="right") + 1)
        rd = r[on][:, None] + np.arange(k) * step[:, None]
        zero_ok = _child_rules(rd, rd, step[:, None] == 1, n, True, s.node_vocab, s.edge_vocab)[0]
        missing = (grid[on[:, None], np.arange(0, kk, k + 1)] == 0) & ~zero_ok
        bad.append(on[np.flatnonzero(missing)[:1] // k])
    bad = [int(first[0]) for first in bad if len(first)]
    if bad:
        t = min(bad)
        depth = int(np.searchsorted(ends, t, side="right")) + 1
        _, _, zero_ok, lo, hi = _level_rules(np.array([[r[t]], [c[t]]]),
                                             size // k ** (depth - 1), k, n, s.featured,
                                             s.node_vocab, s.edge_vocab)
        raise _row_error(s._token(t), t + 1, depth, bool(on_diag[t]), k,
                         lambda: (zero_ok[0].tolist(), lo[0].tolist(), hi[0].tolist()))
    if pending:
        raise _truncated_error(pending, total)
    if cells < total:
        raise _trailing_error(cells + 1)
    return r[cells:], c[cells:], values[cells - 1:]


def decode_graph(s: TokenSequence) -> Graph:
    """Inverse of :func:`encode_graph`, undoing any stored node ordering.

    Decodes over arrays (:func:`_level_cells`: one gather per level, then
    one check of the slot rules over the whole stream), with no tree, no
    builder and no rule table, and raises the builder's error for a stream
    it rejects; the stored ``perm`` relabels the cells by indexing, and the
    graph is built from them with one sort (:meth:`Graph._from_cells`), as
    the walk has already proved them distinct, in range and, in a plain
    tree, off the diagonal.  A header that :func:`_check_header` refuses is
    refused before any token, so every accepted stream is one
    :func:`encode_graph` writes.  Memory is bounded by the token count and
    ``perm``, never by ``padded_n`` or ``original_n``: a header-only stream
    decodes to an edgeless graph without per-node work.  A token whose
    arity is not its kind's costs no ``k*k``-wide row for the tokens after
    it (:meth:`TokenSequence._through_first_misfit`).
    """
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
        return Graph._from_cells(n, rows, cols)
    on_diag = rows == cols
    if np.count_nonzero(on_diag) != n:
        raise GraphError("featured tree does not label every node")
    node_labels = np.empty(n, dtype=np.int64)
    node_labels[rows[on_diag]] = values[on_diag] - 1
    off = ~on_diag
    return Graph._from_cells(n, rows[off], cols[off], node_labels,
                             values[off] - s.node_vocab - 1, s.node_vocab, s.edge_vocab)

"""Undirected graphs with optional categorical labels, edge-list text I/O,
node-ordering schemes, and padding arithmetic.

A :class:`Graph` is ``n`` plus one sorted ``(m, 2)`` int64 array of its
edges, with label arrays aligned to nodes and edges.  Parsing, reordering,
serializing and the codec read and build these arrays directly; the
frozenset and dict forms are views built on first use.

Two text formats are supported.  Plain: a header line ``"N M"`` followed by
``M`` lines ``"u v"`` with ``0 <= u < v < N``.  Labeled: a header line
``"N M L_node L_edge"`` followed by ``N`` lines ``"n <id> <label>"`` and then
``M`` lines ``"e <u> <v> <label>"``.  Node ids are 0-based decimals, one record
per LF-terminated line.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

Edge = tuple[int, int]
Permutation = tuple[int, ...]

ORDERING_SCHEMES = ("bfs", "dfs", "cm")

_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max
# The largest n whose edge keys ``u * n + v`` fit int64.
_MAX_KEYED_N = 3_037_000_499


class GraphError(ValueError):
    """Raised for structurally invalid graph data."""


class ParseError(GraphError):
    """Raised when edge-list text is malformed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _index(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise GraphError(f"{what} must be an integer, got {value!r}") from None


def _int64(values, what: str) -> np.ndarray:
    """``values`` (numbers, pairs of them, or an array) as an int64 array.
    Each must be an integer in the sense of :func:`operator.index`, so numpy
    integers pass and a float, even ``1.0``, is refused, not truncated."""
    try:
        array = np.array(values)
    except ValueError:
        raise GraphError("edges must be (u, v) pairs") from None
    kind = array.dtype.kind
    if kind in "bi" or (kind == "u" and (not array.size or array.max() <= _INT64_MAX)):
        return array.astype(np.int64, copy=False)
    # Not held as machine integers: check each value.
    ints = [_index(x, what) for x in array.ravel().tolist()]
    if any(not _INT64_MIN <= x <= _INT64_MAX for x in ints):
        raise GraphError(f"{what} beyond int64")
    return np.array(ints, dtype=np.int64).reshape(array.shape)


def _pairs(array: np.ndarray) -> np.ndarray:
    if array.size == 0:
        return array.reshape(0, 2)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GraphError("edges must be (u, v) pairs")
    return array


def _first(mask: np.ndarray) -> int | None:
    """Index of the first True in ``mask``, or None."""
    return int(mask.argmax()) if np.count_nonzero(mask) else None


def _sort_rows(n: int, lo: np.ndarray, hi: np.ndarray,
               in_range: bool) -> tuple[np.ndarray, int | None]:
    """The order that sorts the rows ``(lo, hi)`` lexicographically, and the
    sorted position of the first row equal to the next one (None when all
    differ).  ``in_range`` says that every value lies in ``[0, n)``."""
    if in_range and n <= _MAX_KEYED_N:
        keys = lo * n + hi
        order = np.argsort(keys)
        keys = keys.take(order)
        return order, _first(keys[1:] == keys[:-1])
    order = np.lexsort((hi, lo))
    lo, hi = lo.take(order), hi.take(order)
    return order, _first((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1]))


def _read_only(array: np.ndarray | None) -> np.ndarray | None:
    if array is not None:
        array.flags.writeable = False
    return array


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Graph:
    """Simple undirected graph, optionally with dense categorical labels.

    The graph is ``n`` plus ``edge_array``, a read-only ``(m, 2)`` int64
    array holding each edge once as ``(u, v)`` with ``u < v``, rows in
    lexicographic order.  ``node_label_array`` (one label per node) and
    ``edge_label_array`` (aligned with ``edge_array``) are read-only int64
    arrays, or None for an unlabeled kind.

    The constructor takes edges as any iterable of pairs in either
    orientation and labels as mappings; :meth:`from_arrays` takes arrays.
    Both refuse values that are not integers (:func:`operator.index`), a
    self-loop, an endpoint outside ``[0, n)``, a duplicate edge, labels that
    miss a node or an edge, and label ids outside ``[0, vocab)``.

    ``edges`` (a frozenset of pairs), ``node_labels`` and ``edge_labels``
    (dicts in sorted key order) are views of the arrays, built on first use.
    With ``n`` and the vocab sizes they are this dataclass's fields, so
    :func:`dataclasses.replace` builds a changed copy.  Graphs are equal, and
    hash alike, when ``n``, the arrays and the vocab sizes are.
    """

    n: int
    edges: frozenset[Edge]
    node_labels: dict[int, int] | None
    edge_labels: dict[Edge, int] | None
    node_vocab: int
    edge_vocab: int

    def __init__(self, n: int, edges: Iterable[Edge] = frozenset(),
                 node_labels: Mapping[int, int] | None = None,
                 edge_labels: Mapping[Edge, int] | None = None,
                 node_vocab: int = 0, edge_vocab: int = 0):
        n = _index(n, "node count")
        by_node = label_keys = labels = None
        if node_labels is not None:
            nodes = _int64(list(node_labels), "node id")
            values = _int64(list(node_labels.values()), "node label")
            # Labels that miss a node are left empty, which the check refuses.
            by_node = np.zeros(0, dtype=np.int64)
            if len(nodes) == n and np.array_equal(np.sort(nodes), np.arange(n)):
                by_node = np.empty(n, dtype=np.int64)
                by_node[nodes] = values
        if edge_labels is not None:
            label_keys = _int64(list(edge_labels), "edge endpoint")
            labels = _int64(list(edge_labels.values()), "edge label")
        self._store(n, _int64(list(edges), "edge endpoint"), by_node, label_keys, labels,
                    node_vocab, edge_vocab)

    @classmethod
    def from_arrays(cls, n: int, edges: np.ndarray, node_labels: np.ndarray | None = None,
                    edge_labels: np.ndarray | None = None, node_vocab: int = 0,
                    edge_vocab: int = 0) -> Graph:
        """The graph whose edges are the rows of an ``(m, 2)`` integer array,
        in any order and orientation, with node labels indexed by node and
        edge labels aligned with ``edges``; checked as the constructor
        checks."""
        pairs = _int64(edges, "edge endpoint")
        g = cls.__new__(cls)
        g._store(_index(n, "node count"), pairs,
                 None if node_labels is None else _int64(node_labels, "node label"),
                 None if edge_labels is None else pairs,
                 None if edge_labels is None else _int64(edge_labels, "edge label"),
                 node_vocab, edge_vocab)
        return g

    @classmethod
    def _from_cells(cls, n: int, a: np.ndarray, b: np.ndarray,
                    node_labels: np.ndarray | None = None, edge_labels: np.ndarray | None = None,
                    node_vocab: int = 0, edge_vocab: int = 0) -> Graph:
        """The graph of the edges ``(a[i], b[i])`` (int64, either
        orientation) with ``edge_labels[i]``, sorted once and not checked.
        The caller has proved what :meth:`from_arrays` checks: endpoints
        distinct and in ``[0, n)``, no edge twice, labels in their vocabs
        and on every node, and ``n * n`` within int64.  The decoder's level
        walk proves it for each stream it accepts, and :func:`apply_ordering`
        for each permutation of a checked graph (``n * n`` fits int64 for
        any ``n`` whose permutation a Python sequence holds)."""
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        order = np.argsort(lo * n + hi)
        edges = np.empty((len(lo), 2), dtype=np.int64)
        edges[:, 0], edges[:, 1] = lo.take(order), hi.take(order)
        g = cls.__new__(cls)
        vars(g).update(n=operator.index(n), edge_array=_read_only(edges),
                       node_label_array=_read_only(node_labels),
                       edge_label_array=_read_only(None if edge_labels is None
                                                   else edge_labels.take(order)),
                       node_vocab=operator.index(node_vocab),
                       edge_vocab=operator.index(edge_vocab))
        return g

    def _store(self, n: int, pairs: np.ndarray, node_labels: np.ndarray | None,
               label_keys: np.ndarray | None, edge_labels: np.ndarray | None,
               node_vocab: int, edge_vocab: int) -> None:
        """Check and store: ``node_labels`` by node, ``edge_labels[i]`` the
        label of the edge ``label_keys[i]`` (either orientation)."""
        node_vocab, edge_vocab = _index(node_vocab, "node_vocab"), _index(edge_vocab, "edge_vocab")
        if n < 1:
            raise GraphError("node count must be positive")
        pairs = _pairs(pairs)
        u, v = pairs[:, 0], pairs[:, 1]
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        if len(lo) and (lo.min() < 0 or hi.max() >= n or np.count_nonzero(lo == hi)):
            if (i := _first(u == v)) is not None:
                raise GraphError(f"self-loop at node {u[i]}")
            i = _first((lo < 0) | (hi >= n))
            raise GraphError(f"edge ({u[i]}, {v[i]}) has an endpoint out of range")
        order, repeat = _sort_rows(n, lo, hi, True)
        edges = np.empty((len(lo), 2), dtype=np.int64)
        edges[:, 0], edges[:, 1] = lo, hi
        edges = edges.take(order, axis=0)
        lo, hi = edges[:, 0], edges[:, 1]
        if repeat is not None:
            raise GraphError(f"duplicate edge ({lo[repeat]}, {hi[repeat]})")

        if node_labels is not None:
            if node_vocab < 1:
                raise GraphError("node_vocab must be >= 1 when node labels are present")
            if node_labels.shape != (n,):
                raise GraphError("node labels must cover exactly all nodes")
            if (i := _first((node_labels < 0) | (node_labels >= node_vocab))) is not None:
                raise GraphError(f"node label {node_labels[i]} at node {i} "
                                 f"outside [0, {node_vocab})")
        elif node_vocab:
            raise GraphError("node_vocab given without node labels")

        if edge_labels is not None:
            if edge_vocab < 1:
                raise GraphError("edge_vocab must be >= 1 when edge labels are present")
            label_keys = _pairs(label_keys)
            if edge_labels.shape != (len(label_keys),):
                raise GraphError("edge labels must cover exactly all edges")
            klo = np.minimum(label_keys[:, 0], label_keys[:, 1])
            khi = np.maximum(label_keys[:, 0], label_keys[:, 1])
            in_range = not len(klo) or (klo.min() >= 0 and khi.max() < n)
            order, repeat = _sort_rows(n, klo, khi, in_range)
            klo, khi, edge_labels = klo.take(order), khi.take(order), edge_labels.take(order)
            if repeat is not None:
                raise GraphError(f"duplicate edge label for ({klo[repeat]}, {khi[repeat]})")
            if not (np.array_equal(klo, lo) and np.array_equal(khi, hi)):
                raise GraphError("edge labels must cover exactly all edges")
            if (i := _first((edge_labels < 0) | (edge_labels >= edge_vocab))) is not None:
                raise GraphError(f"edge label {edge_labels[i]} at ({lo[i]}, {hi[i]}) "
                                 f"outside [0, {edge_vocab})")
        elif edge_vocab:
            raise GraphError("edge_vocab given without edge labels")

        # Frozen: set the instance dict directly, as the views are cached.
        vars(self).update(n=n, edge_array=_read_only(edges),
                          node_label_array=_read_only(node_labels),
                          edge_label_array=_read_only(edge_labels),
                          node_vocab=node_vocab, edge_vocab=edge_vocab)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(map(tuple, self.edge_array.tolist()))

    @cached_property
    def node_labels(self) -> dict[int, int] | None:
        if self.node_label_array is None:
            return None
        return dict(enumerate(self.node_label_array.tolist()))

    @cached_property
    def edge_labels(self) -> dict[Edge, int] | None:
        if self.edge_label_array is None:
            return None
        return dict(zip(map(tuple, self.edge_array.tolist()), self.edge_label_array.tolist()))

    def _key(self) -> tuple:
        return (self.n, self.node_vocab, self.edge_vocab) + tuple(
            None if a is None else a.tobytes()
            for a in (self.edge_array, self.node_label_array, self.edge_label_array))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"{type(self).__name__}(n={self.n!r}, edges={self.edges!r}, "
                f"node_labels={self.node_labels!r}, edge_labels={self.edge_labels!r}, "
                f"node_vocab={self.node_vocab!r}, edge_vocab={self.edge_vocab!r})")

    @property
    def labeled(self) -> bool:
        return self.node_label_array is not None or self.edge_label_array is not None

    @property
    def m(self) -> int:
        return len(self.edge_array)

    def degree_array(self) -> np.ndarray:
        return np.bincount(self.edge_array.ravel(), minlength=self.n)

    def _adjacency(self, by_degree: bool = False) -> tuple[np.ndarray, np.ndarray,
                                                          np.ndarray | None]:
        """Row pointers, neighbours and, with ``by_degree``, the nodes by
        (degree, id): node ``u``'s neighbours are ``nbrs[ptr[u]:ptr[u + 1]]``,
        ascending by id, or by (degree, id) with ``by_degree``."""
        n, lo, hi = self.n, self.edge_array[:, 0], self.edge_array[:, 1]
        src, nbrs = np.concatenate([hi, lo]), np.concatenate([lo, hi])
        deg = np.bincount(src, minlength=n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        by_rank, rank = None, nbrs
        if by_degree:
            by_rank = np.argsort(deg, kind="stable")
            place = np.empty(n, dtype=np.int64)
            place[by_rank] = np.arange(n)
            rank = place.take(nbrs)
        # One key per half-edge, all distinct, so one unstable sort; they
        # stay below n**2, within int64 for any n a node list fits.
        return ptr, nbrs.take(np.argsort(src * n + rank)), by_rank

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending."""
        ptr, nbrs, _ = self._adjacency()
        return _split(ptr, nbrs)

    def degrees(self) -> list[int]:
        return self.degree_array().tolist()


def _split(ptr: np.ndarray, values: np.ndarray) -> list[list[int]]:
    """The row slices ``values[ptr[i]:ptr[i + 1]]`` as lists."""
    flat, bounds = values.tolist(), ptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


def _parse_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"{what} is not an integer: {tok!r}") from None


def parse_edge_list(text: str) -> Graph:
    """Parse plain or labeled edge-list text into a :class:`Graph`.

    An ASCII text of tags and numbers of at most 18 digits is read by one
    byte scan (:func:`_scan_edge_list`); any other text, or one the scan
    refuses, is read line by line, which names the first offending line."""
    g = _scan_edge_list(text)
    return _parse_lines(text) if g is None else g


# The bytes ``str.split()`` splits on in ASCII text, but for ``\n``.
_SPACES = b"\t\x0b\x0c\r\x1c\x1d\x1e\x1f "
_DIGITS = b"0123456789"
# 10**18 - 1 < 2**63: a number of at most this many digits fits int64.
_MAX_DIGITS = 18
_POWERS = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


def _fields(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end offsets of the runs of False in ``gaps``."""
    bounds = np.flatnonzero(np.diff(gaps, prepend=True, append=True))
    return bounds[0::2], bounds[1::2]


def _field_values(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The decimal values of the digit fields ``data[starts[i]:ends[i]]``,
    or None if one is longer than 18 digits.  The byte before each field
    is a separator, or the field starts the data.

    The values are summed one digit column at a time from the right, a
    column's offsets clamped to the byte before the field; separators, and
    offset -1, read as ``0``.  A field that is not all digits gets a
    meaningless value."""
    width = int((ends - starts).max(initial=0))
    if width > _MAX_DIGITS:
        return None
    held = np.empty(len(data) + 1, dtype=np.uint8)
    np.maximum(data, ord("0"), out=held[:-1])
    held[-1] = ord("0")
    offsets, before = ends - 1, starts - 1
    values = held.take(offsets).astype(np.int64)
    for column in range(1, width):
        offsets -= 1
        values += held.take(np.maximum(offsets, before)) * _POWERS[column]
    return values - ord("0") * int(_POWERS[:width].sum())


def _breaks_fit(breaks: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                first: int, step: int) -> bool:
    """Whether line break ``i`` lies between fields ``first + i * step - 1``
    and ``first + i * step``, for every ``i``."""
    stop = first + step * len(breaks)
    return bool((breaks >= ends[first - 1:stop - 1:step]).all()
                and (breaks < starts[first:stop:step]).all())


def _scan_edge_list(text: str) -> Graph | None:
    """The graph of a well-formed ASCII text whose fields are all tags or
    numbers of at most 18 digits, read as one byte array; None for any other
    text, which the line reader then reads.

    Fields are the runs of bytes that are not ASCII whitespace, as
    ``str.split`` takes them, and the values those ``int`` reads.  The
    header's field count gives the layout, and with it where each line break
    must fall: a text with as many breaks as lines, each in its gap, has the
    layout exactly.  Tags are the only bytes that are neither whitespace nor
    digits; in a labeled text they must be ``n`` then ``e``, one per record,
    each a field of its own at the start of its line."""
    body = text.rstrip("\n")
    if not body or not body.isascii():
        return None
    raw = body.encode("ascii")
    data = np.frombuffer(raw, dtype=np.uint8)
    starts, ends = _fields(data <= ord(" "))
    breaks = np.flatnonzero(data == ord("\n"))
    values = _field_values(data, starts, ends)
    if values is None:
        return None
    head = int(starts.searchsorted(breaks[0])) if len(breaks) else len(starts)
    tags = raw.translate(None, _SPACES + b"\n" + _DIGITS)
    if head == 2:
        n, m = values[:2].tolist()
        if (n < 1 or tags or len(starts) != 2 + 2 * m or len(breaks) != m
                or not _breaks_fit(breaks, starts, ends, 2, 2)):
            return None
        pairs = values[2:].reshape(m, 2)
        if not (pairs[:, 0] < pairs[:, 1]).all():
            return None
        try:
            return Graph.from_arrays(n, pairs)
        except GraphError:
            return None
    if head != 4:
        return None
    n, m, *vocabs = values[:4].tolist()
    edges_at = 4 + 3 * n
    if (n < 1 or min(vocabs) < 1 or len(starts) != edges_at + 4 * m
            or len(breaks) != n + m or not _breaks_fit(breaks[:n], starts, ends, 4, 3)
            or not _breaks_fit(breaks[n:], starts, ends, edges_at, 4)
            or tags != b"n" * n + b"e" * m):
        return None
    at = np.flatnonzero(data > ord("9"))
    if not (np.array_equal(at, np.concatenate([starts[4:edges_at:3], starts[edges_at::4]]))
            and (data.take(at + 1) <= ord(" ")).all()):
        return None
    nodes = values[4:edges_at].reshape(n, 3)
    edges = values[edges_at:].reshape(m, 4)
    ids, u, v = nodes[:, 1], edges[:, 1], edges[:, 2]
    if not (np.array_equal(np.sort(ids), np.arange(n)) and (u < v).all()):
        return None
    by_node = np.empty(n, dtype=np.int64)
    by_node[ids] = nodes[:, 2]
    try:
        return Graph.from_arrays(n, edges[:, 1:3], by_node, edges[:, 3], *vocabs)
    except GraphError:
        return None


def canonical_ints(line: str) -> np.ndarray | None:
    """The int64 values of a line of numbers written as ``str`` writes
    non-negative ints, with no sign or leading zero and at most 18 digits,
    separated by single spaces; None for any other line."""
    if not line.isascii():
        return None
    raw = line.encode("ascii")
    data = np.frombuffer(raw, dtype=np.uint8)
    starts, ends = _fields(data == ord(" "))
    if (raw.translate(None, b" " + _DIGITS) or len(starts) != raw.count(b" ") + 1
            or ((data.take(starts) == ord("0")) & (ends - starts > 1)).any()):
        return None
    return _field_values(data, starts, ends)


def _parse_lines(text: str) -> Graph:
    """Read a text line by line: the graph, or the :class:`ParseError` of
    its first offending line.  A graph needs its ids and labels in int64,
    so a value beyond it is refused even where a node count or vocab size
    beyond int64 would admit it."""
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
    n = _parse_int(fields[0], head_no, "node count")
    m = _parse_int(fields[1], head_no, "edge count")
    labeled = len(fields) == 4
    if labeled:
        lnode = _parse_int(fields[2], head_no, "node label vocab")
        ledge = _parse_int(fields[3], head_no, "edge label vocab")
    if n < 1:
        raise ParseError(head_no, "node count must be positive")
    if m < 0:
        raise ParseError(head_no, "edge count must be non-negative")
    body, node_lines = lines[1:], n if labeled else 0
    if labeled:
        if lnode < 1 or ledge < 1:
            raise ParseError(head_no, "label vocab sizes must be positive")
        if len(body) != n + m:
            raise ParseError(head_no + 1 + min(len(body), n + m),
                             f"expected {n} node lines and {m} edge lines, found {len(body)}")
    elif len(body) != m:
        raise ParseError(head_no + 1 + min(len(body), m), f"expected {m} edge lines, found {len(body)}")
    node_labels: dict[int, int] = {}
    for line_no, line in body[:node_lines]:
        fields = line.split()
        if len(fields) != 3 or fields[0] != "n":
            raise ParseError(line_no, "expected node label line 'n <id> <label>'")
        node = _parse_int(fields[1], line_no, "node id")
        lab = _parse_int(fields[2], line_no, "node label")
        if not 0 <= node < n:
            raise ParseError(line_no, f"node id {node} out of range")
        if node in node_labels:
            raise ParseError(line_no, f"duplicate label for node {node}")
        if not 0 <= lab < lnode:
            raise ParseError(line_no, f"node label {lab} outside [0, {lnode})")
        if lab > _INT64_MAX:
            raise ParseError(line_no, "value beyond int64")
        node_labels[node] = lab
    edge_labels: dict[Edge, int] = {}
    for line_no, line in body[node_lines:]:
        fields = line.split()
        if labeled and (len(fields) != 4 or fields[0] != "e"):
            raise ParseError(line_no, "expected edge line 'e <u> <v> <label>'")
        if not labeled and len(fields) != 2:
            raise ParseError(line_no, "edge line must be 'u v'")
        fields = fields[labeled:]
        u = _parse_int(fields[0], line_no, "endpoint")
        v = _parse_int(fields[1], line_no, "endpoint")
        lab = _parse_int(fields[2], line_no, "edge label") if labeled else 0
        if u == v:
            raise ParseError(line_no, f"self-loop at node {u}")
        if u > v:
            raise ParseError(line_no, f"edge endpoints must satisfy u < v, got {u} {v}")
        if v >= n or u < 0:
            raise ParseError(line_no, f"endpoint out of range in edge ({u}, {v})")
        if (u, v) in edge_labels:
            raise ParseError(line_no, f"duplicate edge {(u, v)}")
        if labeled and not 0 <= lab < ledge:
            raise ParseError(line_no, f"edge label {lab} outside [0, {ledge})")
        if max(v, lab) > _INT64_MAX:
            raise ParseError(line_no, "value beyond int64")
        edge_labels[(u, v)] = lab
    if not labeled:
        return Graph(n, edge_labels)
    return Graph(n, edge_labels, node_labels, edge_labels, lnode, ledge)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, LF-terminated lines.

    Labeled graphs need labels on both nodes and edges; a graph labeled on only
    one of the two cannot be expressed in this format.
    """
    edges = g.edge_array
    if not g.labeled:
        return f"{g.n} {g.m}\n" + "%d %d\n" * g.m % tuple(edges.ravel().tolist())
    if g.node_label_array is None or g.edge_label_array is None:
        raise GraphError("edge-list format requires labels on both nodes and edges, or neither")
    nodes = np.stack([np.arange(g.n), g.node_label_array], axis=1)
    rows = np.concatenate([edges, g.edge_label_array[:, None]], axis=1)
    return (f"{g.n} {g.m} {g.node_vocab} {g.edge_vocab}\n"
            + "n %d %d\n" * g.n % tuple(nodes.ravel().tolist())
            + "e %d %d %d\n" * g.m % tuple(rows.ravel().tolist()))


def order_nodes(g: Graph, scheme: str, reverse: bool = False) -> Permutation:
    """Node permutation (new index -> original id) under an ordering scheme.

    Each scheme walks one connected component at a time, visiting each
    node's neighbours in a fixed order, and lists the components by their
    smallest node id.  ``bfs`` (breadth-first) and ``dfs`` (depth-first)
    start each component at its smallest id and visit neighbours by
    ascending id.  ``cm`` is the classic Cuthill-McKee ordering: a
    breadth-first walk that visits neighbours by (degree, id).  It tries
    start nodes by (degree, id), so the first node tried in a component,
    its start, is its minimum-degree node with the smallest id.
    ``reverse=True`` reverses the final permutation.
    """
    if scheme not in ORDERING_SCHEMES:
        raise ValueError(f"unknown ordering scheme {scheme!r}")
    ptr, nbrs, by_degree = g._adjacency(by_degree=scheme == "cm")
    adj, seen = _split(ptr, nbrs), [False] * g.n
    starts = range(g.n) if by_degree is None else by_degree.tolist()
    walk = _dfs_order if scheme == "dfs" else _breadth_first
    walks = [walk(start, adj, seen) for start in starts if not seen[start]]
    if scheme == "cm":
        walks.sort(key=min)
    perm = [u for order in walks for u in order]
    if reverse:
        perm.reverse()
    return tuple(perm)


def _dfs_order(start: int, adj: list[list[int]], seen: list[bool]) -> list[int]:
    """Depth-first order from ``start``, each node's neighbours in the order
    of ``adj``; marks them in ``seen``."""
    order = []
    stack = [start]
    while stack:
        u = stack.pop()
        if seen[u]:
            continue
        seen[u] = True
        order.append(u)
        for w in reversed(adj[u]):
            if not seen[w]:
                stack.append(w)
    return order


def _breadth_first(start: int, adj: list[list[int]], seen: list[bool]) -> list[int]:
    """Breadth-first order from ``start``, each node's unseen neighbours in
    the order of ``adj``; marks them in ``seen``."""
    order = [start]
    seen[start] = True
    for u in order:  # the list grows as it is read: a FIFO queue
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                order.append(w)
    return order


def invert_permutation(perm: Permutation) -> Permutation:
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    return tuple(inv)


def permutation_array(perm, n: int) -> np.ndarray | None:
    """``perm`` as an int64 array if it is a permutation of ``0..n-1``, else None."""
    array = np.array(perm)
    if (array.shape != (n,) or array.dtype.kind not in "iu"
            or not np.array_equal(np.sort(array), np.arange(n))):
        return None
    return array.astype(np.int64, copy=False)


def apply_ordering(g: Graph, perm: Permutation) -> Graph:
    """Relabel ``g`` so that new node ``u`` is original node ``perm[u]``.

    An edge ``(u, v)`` is present in the result iff ``(perm[u], perm[v])`` is an
    edge of ``g``.  Labels follow their nodes and edges.  The edges map
    through the inverse permutation and are sorted once, with no second
    check (:meth:`Graph._from_cells`): a permutation of a checked graph's
    edges is still distinct, in range and free of self-loops.
    """
    array = permutation_array(perm, g.n)
    if array is None:
        raise GraphError(f"permutation is not a bijection on 0..{g.n - 1}")
    inv = np.empty(g.n, dtype=np.int64)
    inv[array] = np.arange(g.n)
    node_labels = None if g.node_label_array is None else g.node_label_array[array]
    return Graph._from_cells(g.n, inv.take(g.edge_array[:, 0]), inv.take(g.edge_array[:, 1]),
                             node_labels, g.edge_label_array, g.node_vocab, g.edge_vocab)


def padded_size(n: int, k: int) -> int:
    """Smallest power ``k**d`` with ``d >= 1`` that is >= ``n``."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < 1:
        raise ValueError("n must be positive")
    size = k
    while size < n:
        size *= k
    return size

"""Undirected graphs with optional categorical labels, edge-list text I/O,
node-ordering schemes, and padding arithmetic.

Two text formats are supported.  Plain: a header line ``"N M"`` followed by
``M`` lines ``"u v"`` with ``0 <= u < v < N``.  Labeled: a header line
``"N M L_node L_edge"`` followed by ``N`` lines ``"n <id> <label>"`` and then
``M`` lines ``"e <u> <v> <label>"``.  Node ids are 0-based decimals, one record
per LF-terminated line.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

Edge = tuple[int, int]
Permutation = tuple[int, ...]

ORDERING_SCHEMES = ("bfs", "dfs", "cm")


class GraphError(ValueError):
    """Raised for structurally invalid graph data."""


class ParseError(GraphError):
    """Raised when edge-list text is malformed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, optionally with dense categorical labels.

    Each edge appears exactly once as ``(u, v)`` with ``u < v``; self-loops are
    rejected.  When present, ``node_labels`` must cover every node and
    ``edge_labels`` every edge, with label ids in ``[0, vocab)``.
    """

    n: int
    edges: frozenset[Edge] = frozenset()
    node_labels: Mapping[int, int] | None = None
    edge_labels: Mapping[Edge, int] | None = None
    node_vocab: int = 0
    edge_vocab: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise GraphError("node count must be positive")
        norm: set[Edge] = set()
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u}, {v}) has an endpoint out of range")
            e = (u, v) if u < v else (v, u)
            if e in norm:
                raise GraphError(f"duplicate edge {e}")
            norm.add(e)
        object.__setattr__(self, "edges", frozenset(norm))

        if self.node_labels is not None:
            if self.node_vocab < 1:
                raise GraphError("node_vocab must be >= 1 when node labels are present")
            if set(self.node_labels) != set(range(self.n)):
                raise GraphError("node labels must cover exactly all nodes")
            for node, lab in self.node_labels.items():
                if not 0 <= lab < self.node_vocab:
                    raise GraphError(f"node label {lab} at node {node} outside [0, {self.node_vocab})")
            object.__setattr__(self, "node_labels", dict(sorted(self.node_labels.items())))
        elif self.node_vocab:
            raise GraphError("node_vocab given without node labels")

        if self.edge_labels is not None:
            if self.edge_vocab < 1:
                raise GraphError("edge_vocab must be >= 1 when edge labels are present")
            keyed = {}
            for (u, v), lab in self.edge_labels.items():
                e = (u, v) if u < v else (v, u)
                if e in keyed:
                    raise GraphError(f"duplicate edge label for {e}")
                keyed[e] = lab
            if set(keyed) != self.edges:
                raise GraphError("edge labels must cover exactly all edges")
            for e, lab in keyed.items():
                if not 0 <= lab < self.edge_vocab:
                    raise GraphError(f"edge label {lab} at {e} outside [0, {self.edge_vocab})")
            object.__setattr__(self, "edge_labels", dict(sorted(keyed.items())))
        elif self.edge_vocab:
            raise GraphError("edge_vocab given without edge labels")

    @property
    def labeled(self) -> bool:
        return self.node_labels is not None or self.edge_labels is not None

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self) -> list[list[int]]:
        """Adjacency lists, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for lst in adj:
            lst.sort()
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def _parse_int(tok: str, line: int, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"{what} is not an integer: {tok!r}") from None


def _data_lines(text: str) -> list[tuple[int, str]]:
    """Non-empty lines with 1-based numbers; trailing blank lines are ignored."""
    raw = text.split("\n")
    while raw and raw[-1] == "":
        raw.pop()
    out = []
    for idx, line in enumerate(raw, start=1):
        if line.strip() == "":
            raise ParseError(idx, "blank line inside record")
        out.append((idx, line))
    return out


def parse_edge_list(text: str) -> Graph:
    """Parse plain or labeled edge-list text into a :class:`Graph`."""
    lines = _data_lines(text)
    if not lines:
        raise ParseError(1, "empty input")
    head_no, head = lines[0]
    fields = head.split()
    if len(fields) == 2:
        n = _parse_int(fields[0], head_no, "node count")
        m = _parse_int(fields[1], head_no, "edge count")
        return _parse_plain(n, m, lines[1:], head_no)
    if len(fields) == 4:
        n = _parse_int(fields[0], head_no, "node count")
        m = _parse_int(fields[1], head_no, "edge count")
        lnode = _parse_int(fields[2], head_no, "node label vocab")
        ledge = _parse_int(fields[3], head_no, "edge label vocab")
        return _parse_labeled(n, m, lnode, ledge, lines[1:], head_no)
    raise ParseError(head_no, "header must be 'N M' or 'N M L_node L_edge'")


def _check_endpoints(u: int, v: int, n: int, line: int) -> Edge:
    if u == v:
        raise ParseError(line, f"self-loop at node {u}")
    if u > v:
        raise ParseError(line, f"edge endpoints must satisfy u < v, got {u} {v}")
    if v >= n or u < 0:
        raise ParseError(line, f"endpoint out of range in edge ({u}, {v})")
    return (u, v)


def _parse_plain(n: int, m: int, body: list[tuple[int, str]], head_no: int) -> Graph:
    if n < 1:
        raise ParseError(head_no, "node count must be positive")
    if m < 0:
        raise ParseError(head_no, "edge count must be non-negative")
    if len(body) != m:
        raise ParseError(head_no + 1 + min(len(body), m), f"expected {m} edge lines, found {len(body)}")
    edges: set[Edge] = set()
    for line_no, line in body:
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(line_no, "edge line must be 'u v'")
        u = _parse_int(fields[0], line_no, "endpoint")
        v = _parse_int(fields[1], line_no, "endpoint")
        e = _check_endpoints(u, v, n, line_no)
        if e in edges:
            raise ParseError(line_no, f"duplicate edge {e}")
        edges.add(e)
    return Graph(n=n, edges=frozenset(edges))


def _parse_labeled(n: int, m: int, lnode: int, ledge: int,
                   body: list[tuple[int, str]], head_no: int) -> Graph:
    if n < 1:
        raise ParseError(head_no, "node count must be positive")
    if m < 0:
        raise ParseError(head_no, "edge count must be non-negative")
    if lnode < 1 or ledge < 1:
        raise ParseError(head_no, "label vocab sizes must be positive")
    if len(body) != n + m:
        raise ParseError(head_no + 1 + min(len(body), n + m),
                         f"expected {n} node lines and {m} edge lines, found {len(body)}")
    node_labels: dict[int, int] = {}
    for line_no, line in body[:n]:
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
        node_labels[node] = lab
    edges: set[Edge] = set()
    edge_labels: dict[Edge, int] = {}
    for line_no, line in body[n:]:
        fields = line.split()
        if len(fields) != 4 or fields[0] != "e":
            raise ParseError(line_no, "expected edge line 'e <u> <v> <label>'")
        u = _parse_int(fields[1], line_no, "endpoint")
        v = _parse_int(fields[2], line_no, "endpoint")
        lab = _parse_int(fields[3], line_no, "edge label")
        e = _check_endpoints(u, v, n, line_no)
        if e in edges:
            raise ParseError(line_no, f"duplicate edge {e}")
        if not 0 <= lab < ledge:
            raise ParseError(line_no, f"edge label {lab} outside [0, {ledge})")
        edges.add(e)
        edge_labels[e] = lab
    return Graph(n=n, edges=frozenset(edges), node_labels=node_labels,
                 edge_labels=edge_labels, node_vocab=lnode, edge_vocab=ledge)


def serialize_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, LF-terminated lines.

    Labeled graphs need labels on both nodes and edges; a graph labeled on only
    one of the two cannot be expressed in this format.
    """
    if not g.labeled:
        out = [f"{g.n} {g.m}"]
        out.extend(f"{u} {v}" for u, v in sorted(g.edges))
        return "\n".join(out) + "\n"
    if g.node_labels is None or g.edge_labels is None:
        raise GraphError("edge-list format requires labels on both nodes and edges, or neither")
    out = [f"{g.n} {g.m} {g.node_vocab} {g.edge_vocab}"]
    out.extend(f"n {i} {g.node_labels[i]}" for i in range(g.n))
    out.extend(f"e {u} {v} {g.edge_labels[(u, v)]}" for u, v in sorted(g.edges))
    return "\n".join(out) + "\n"


def _components(g: Graph, adj: list[list[int]]) -> list[list[int]]:
    """Connected components, ordered by smallest contained node id.  Each
    lists its nodes breadth-first from that id, visiting the ascending
    adjacency lists in order: the ``bfs`` ordering of the component."""
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(comp)
    return comps


def order_nodes(g: Graph, scheme: str, reverse: bool = False) -> Permutation:
    """Node permutation (new index -> original id) under an ordering scheme.

    ``bfs`` and ``dfs`` start each component at its smallest node id and visit
    neighbors in ascending id order.  ``cm`` is the classic Cuthill-McKee
    ordering: each component starts at its minimum-degree node (ties broken by
    smallest id) and neighbors are visited in increasing-degree order (same tie
    break).  Components are processed in ascending order of their smallest node
    id.  ``reverse=True`` reverses the final permutation.
    """
    if scheme not in ORDERING_SCHEMES:
        raise ValueError(f"unknown ordering scheme {scheme!r}")
    adj = g.neighbors()
    deg = [len(a) for a in adj]
    perm: list[int] = []
    for comp in _components(g, adj):
        if scheme == "cm":
            perm.extend(_cuthill_mckee(comp, adj, deg))
        elif scheme == "bfs":
            perm.extend(comp)
        else:
            perm.extend(_dfs_order(comp[0], adj))
    if reverse:
        perm.reverse()
    return tuple(perm)


def _dfs_order(start: int, adj: list[list[int]]) -> list[int]:
    order = []
    seen = set()
    stack = [start]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        order.append(u)
        for w in reversed(adj[u]):
            if w not in seen:
                stack.append(w)
    return order


def _cuthill_mckee(comp: list[int], adj: list[list[int]], deg: list[int]) -> list[int]:
    start = min(comp, key=lambda u: (deg[u], u))
    order = [start]
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in sorted(adj[u], key=lambda x: (deg[x], x)):
            if w not in seen:
                seen.add(w)
                order.append(w)
                queue.append(w)
    return order


def invert_permutation(perm: Permutation) -> Permutation:
    inv = [0] * len(perm)
    for new, old in enumerate(perm):
        inv[old] = new
    return tuple(inv)


def apply_ordering(g: Graph, perm: Permutation) -> Graph:
    """Relabel ``g`` so that new node ``u`` is original node ``perm[u]``.

    An edge ``(u, v)`` is present in the result iff ``(perm[u], perm[v])`` is an
    edge of ``g``.  Labels follow their nodes and edges.
    """
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise GraphError(f"permutation is not a bijection on 0..{g.n - 1}")
    inv = invert_permutation(perm)

    def remap(u: int, v: int) -> Edge:
        a, b = inv[u], inv[v]
        return (a, b) if a < b else (b, a)

    edges = frozenset(remap(u, v) for u, v in g.edges)
    node_labels = None
    if g.node_labels is not None:
        node_labels = {u: g.node_labels[perm[u]] for u in range(g.n)}
    edge_labels = None
    if g.edge_labels is not None:
        edge_labels = {remap(u, v): lab for (u, v), lab in g.edge_labels.items()}
    return Graph(n=g.n, edges=edges, node_labels=node_labels, edge_labels=edge_labels,
                 node_vocab=g.node_vocab, edge_vocab=g.edge_vocab)


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


def bandwidth(g: Graph) -> int:
    """Maximum index distance ``|u - v|`` over edges; 0 for an edgeless graph."""
    return max((v - u for u, v in g.edges), default=0)

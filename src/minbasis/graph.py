"""Weighted undirected multigraphs with stable edge indexing.

Edges carry non-negative integer weights and are identified by their
position in construction order; parallel edges are legal and stay
distinguishable, self-loops are rejected.  Path and cycle weights are
compared with an exact tie-breaking key so that between any two vertices
exactly one path is shortest: conceptually edge ``i`` picks up an
infinitesimal weight bonus proportional to ``2**i``, which in practice
means comparing ``(weight sum, edge bit set)`` pairs with the bit set
read as an integer.  Distinct edge sets therefore never compare equal,
and everything downstream is deterministic.

Shortest paths have one representation: the (weight, edge bit set) keys
of ``shortest_path_keys``, the one Dijkstra loop.  The tie mask of v is
the edge set of the unique shortest root -> v path, so no parent
pointers are kept; ``apsp`` holds one row of keys per root.  The loop
settles one distance level (weight sum) at a time.  Its heap holds the
distinct pending levels and never a tie mask: a predecessor across a
positive-weight edge sits on a lower level, so a level's ties are final
when it is popped, except through zero-weight edges, whose targets are
settled in tie order inside the level.  Each vertex is processed at
most twice, and a run costs O(m log n).

Every basis engine starts from one ``eliminate``, which writes the
boundaries in the spanning forest's non-tree coordinates (a graph has
none, a complex its triangles'); its ``earliest`` scan keeps the
weight-sorted cycles whose classes are independent.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import InternalInvariantError, ParseError
from .gf2 import Gf2Vector, SpanTracker, bit_indices, bit_mask

#: Largest accepted edge weight.  Sums never overflow (Python integers are
#: unbounded); the cap just keeps inputs inside a sane 64-bit range.
MAX_WEIGHT = 2**63 - 1


class Edge(NamedTuple):
    u: int
    v: int
    w: int


@dataclass(frozen=True, order=True)
class PerturbedWeight:
    """Exact tie-broken weight of an edge set: (weight sum, edge bit set)."""

    base: int
    tie: int


class Graph:
    """Undirected multigraph on vertices ``0..n-1`` with indexed edges."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        es: list[Edge] = []
        adj: list = [()] * n  # a list from a vertex's first edge; the rest share ()
        for u, v, w in edges:
            idx = len(es)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {idx}: endpoint out of range")
            if u == v:
                raise ValueError(f"edge {idx}: self-loops are not allowed")
            if not 0 <= w <= MAX_WEIGHT:
                raise ValueError(f"edge {idx}: weight must be in [0, 2^63-1]")
            es.append(Edge(u, v, w))
            a = adj[u]
            if a:
                a.append(idx)
            else:
                adj[u] = [idx]
            a = adj[v]
            if a:
                a.append(idx)
            else:
                adj[v] = [idx]
        self.edges: tuple[Edge, ...] = tuple(es)
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def incident(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def other_end(self, edge_index: int, v: int) -> int:
        e = self.edges[edge_index]
        if v == e.u:
            return e.v
        if v == e.v:
            return e.u
        raise ValueError(f"vertex {v} not an endpoint of edge {edge_index}")

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True, slots=True)
class Cycle:
    """An even-degree edge set with its weight, held as one edge bit mask.

    Members of the cycle space in general; elementary exactly when every
    touched vertex has degree 2 and the edges are connected.  ``mask``
    has bit i set for edge i of a graph with ``length`` edges and
    ``base`` is the weight sum of those edges; the tie-broken weight is
    ``(base, mask)``.  ``cycle_from_mask`` builds one and checks the
    degrees; the constructor trusts its arguments.
    """

    mask: int
    base: int
    length: int

    @property
    def edge_set(self) -> Gf2Vector:
        return Gf2Vector(self.length, self.mask)

    @property
    def weight(self) -> PerturbedWeight:
        return PerturbedWeight(self.base, self.mask)

    def edge_indices(self) -> tuple[int, ...]:
        return tuple(bit_indices(self.mask))

    def edge_count(self) -> int:
        return self.mask.bit_count()


def cycle_from_mask(g: Graph, mask: int) -> Cycle:
    """Build a Cycle from an edge bit mask, checking even degrees."""
    if mask < 0 or mask >> g.m:
        raise ValueError("edge mask out of range")
    degree: dict[int, int] = {}
    base = 0
    for i in bit_indices(mask):
        e = g.edges[i]
        base += e.w
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    for v, d in degree.items():
        if d & 1:
            raise ValueError(f"vertex {v} has odd degree; not a cycle-space member")
    return Cycle(mask, base, g.m)


Adjacency = list[list[tuple[int, int, int]]]


def weighted_adjacency(n: int, edges: Iterable[tuple[int, int, int]]) -> Adjacency:
    """Per-vertex ``(neighbor, weight, edge bit)`` tuples in edge order; bit i is edge i."""
    adj: Adjacency = [[] for _ in range(n)]
    bit = 1
    for u, v, w in edges:
        adj[u].append((v, w, bit))
        adj[v].append((u, w, bit))
        bit <<= 1
    return adj


def shortest_path_keys(
    adj: Adjacency, root: int, limit: Optional[int] = None
) -> tuple[list[Optional[int]], list[int]]:
    """Tie-broken shortest-path keys from ``root``: the one Dijkstra loop.

    Returns lists ``base`` and ``tie``: ``tie[v]`` is the edge bit set of
    the unique shortest root -> v path under the (weight, edge bit set)
    order and ``base[v]`` its weight.  Unreachable vertices get base None
    and tie 0.

    The loop settles one distance level at a time.  The heap ``levels``
    holds the distinct pending bases and ``at`` maps each to a plain list
    of the vertices that a positive-weight edge queued there, once per
    vertex and level; tie masks stay in ``tie``.  Every predecessor
    across a positive-weight edge has a smaller base and was settled at
    an earlier level, so when a level is popped the ties of its list are
    final up to zero-weight edges, and the list is walked in any order.
    The target of a zero-weight edge stays on the current level and goes
    to the ``(tie, vertex)`` heap ``zero``, which is drained in tie order,
    one vertex at a time, after the list and before the next level.  A
    vertex is thus processed at most twice, once from its list and once
    from ``zero`` at its final tie, and a run costs O(m log n).

    With a ``limit`` the run stops before it pops a level above it.  The
    ``zero`` heap is always drained before the next pop, so the keys of
    every vertex whose base is at most ``limit`` are then exact, and no
    vertex of a larger base has been processed; the keys of the others are
    partial.
    """
    base: list[Optional[int]] = [None] * len(adj)
    tie = [0] * len(adj)
    base[root] = 0
    levels = [0]
    at = {0: [root]}
    zero: list[tuple[int, int]] = []
    pop, push = heapq.heappop, heapq.heappush
    while levels or zero:
        if zero:
            t, v = pop(zero)
            if tie[v] != t:
                continue  # stale: v was pushed again at a lower tie
            walk = (v,)
        else:
            b = pop(levels)
            if limit is not None and b > limit:
                break
            walk = at.pop(b)
        for v in walk:
            if base[v] != b:
                continue  # moved to a lower level since it was queued here
            t = tie[v]
            for u, w, bit in adj[v]:
                c = b + w
                bu = base[u]
                if bu is None or c < bu:
                    base[u] = c
                    tie[u] = ct = t | bit
                    if not w:
                        push(zero, (ct, u))
                    elif (q := at.get(c)) is None:
                        at[c] = [u]
                        push(levels, c)
                    else:
                        q.append(u)
                elif c == bu and t | bit < tie[u]:
                    tie[u] = ct = t | bit
                    if not w:
                        push(zero, (ct, u))
    return base, tie


@dataclass
class AllPairs:
    """The kernel's keys from every root.

    ``table[r][v]`` is the (weight, edge bit set) key of the unique
    shortest r -> v path, whose tie mask is that path's edge set, or None
    when v is unreachable from r.
    """

    graph: Graph
    table: list[list[Optional[PerturbedWeight]]]

    @property
    def trees(self) -> list[list[Optional[PerturbedWeight]]]:
        """The table's rows, one per root, as ``horton_candidates`` reads them."""
        return self.table


def apsp(g: Graph) -> AllPairs:
    """All-pairs shortest paths: one kernel run per root over one adjacency."""
    adj = weighted_adjacency(g.n, g.edges)
    table = [
        [None if b is None else PerturbedWeight(b, t) for b, t in zip(*shortest_path_keys(adj, r))]
        for r in range(g.n)
    ]
    return AllPairs(g, table)


def component_count(g: Graph) -> int:
    """Number of connected components: n minus the spanning forest's size."""
    return g.n - len(spanning_forest(g)[0])


def cyclomatic_number(g: Graph) -> int:
    """Dimension of the cycle space: m - n + (number of components)."""
    return g.m - g.n + component_count(g)


def find(parent: dict[int, int], x: int, potential: Optional[dict[int, int]] = None) -> int:
    """Root of ``x`` in a union-find forest held as a parent dict, halving
    the path on the way; a vertex not yet in ``parent`` becomes a root.

    ``potential``, when given, holds an XOR label for every vertex in the
    forest: that of the step to its parent, 0 at a root.  Halving keeps
    the labels exact, and ``x`` is then hung right below its root, so on
    return ``potential[x]`` is the XOR of the labels on its path to it.
    """
    parent.setdefault(x, x)
    start, label = x, 0
    while (up := parent[x]) != x:
        if potential is not None:
            potential[x] ^= potential[up]  # x now skips up
            label ^= potential[x]
        parent[x] = x = parent[up]
    if potential is not None:
        parent[start] = x
        potential[start] = label
    return x


def spanning_forest(g: Graph) -> tuple[list[int], list[int]]:
    """Split edge indices into (tree, non-tree) by index-order union-find."""
    parent: dict[int, int] = {}  # only vertices on some edge
    tree: list[int] = []
    nontree: list[int] = []
    for idx, e in enumerate(g.edges):
        ru, rv = find(parent, e.u), find(parent, e.v)
        if ru == rv:
            nontree.append(idx)
        else:
            parent[max(ru, rv)] = min(ru, rv)
            tree.append(idx)
    return tree, nontree


@dataclass
class Elimination:
    """A graph's cycle space modulo boundaries, in non-tree coordinates.

    A cycle is fixed by its ``nontree`` edges (mask ``cut``).  ``tracker``
    holds the kept boundaries, cut, and ``kept`` their indices; ``rank`` is
    the dimension left, nu for a graph and beta1 for a complex.  A cycle's
    class is its ``remainder``, and its edges' ``annotation`` XOR to it
    (Busaryev, Cabello, Chen, Dey and Wang, SWAT 2012): 0 on tree edges
    and, with no boundaries, a non-tree edge's own bit.  No reader changes
    an elimination.
    """

    nontree: list[int]
    cut: int
    tracker: SpanTracker
    kept: tuple[int, ...]
    rank: int
    annotation: list[int]

    def remainder(self, mask: int) -> int:
        """The class of ``mask``: 0 exactly when it is boundaries plus tree edges."""
        return self.tracker.remainder(mask & self.cut)

    def earliest(self, cycles: Callable[[], Iterable[Cycle]]) -> list[Cycle]:
        """The first ``rank`` cycles of ``cycles()`` whose classes are
        independent: on a weight-sorted list, a minimum basis.  The scan
        feeds each cycle's non-tree edges to a copy of ``tracker``, which
        starts from the kept boundaries, so a cycle is kept exactly when it
        is independent of them and of the cycles kept before it, that is
        when its class is independent of theirs.  ``cycles`` is not called
        when the rank is 0."""
        chosen: list[Cycle] = []
        if self.rank:
            add, cut = self.tracker.copy().add, self.cut
            for c in cycles():
                if add(c.mask & cut):
                    chosen.append(c)
                    if len(chosen) == self.rank:
                        break
        if len(chosen) != self.rank:
            raise InternalInvariantError(
                f"cycles span rank {len(chosen)} < {self.rank} modulo {len(self.kept)} boundaries"
            )
        return chosen


def eliminate(g: Graph, boundaries: Iterable[int] = ()) -> Elimination:
    """Eliminate the edge masks ``boundaries`` (none for a graph, the
    triangles' for a complex) in the non-tree coordinates of the spanning
    forest; the ranks and kept boundaries are those in edge coordinates."""
    nontree = spanning_forest(g)[1]
    cut = bit_mask(nontree)
    tracker = SpanTracker()
    kept = tuple(t for t, bits in enumerate(boundaries) if tracker.add(bits & cut))
    annotation = [0] * g.m
    for e in nontree:
        annotation[e] = tracker.remainder(1 << e)
    return Elimination(nontree, cut, tracker, kept, len(nontree) - len(kept), annotation)


def _forest_parents(g: Graph, nontree: list[int]) -> tuple[list[int], list[int]]:
    """Per-vertex parent edge and depth in the forest of the edges not in
    ``nontree``, rooted at each component's lowest vertex; a root's
    parent edge is -1."""
    off_tree = set(nontree)
    parent = [-1] * g.n
    depth = [0] * g.n
    seen = [False] * g.n
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for e_idx in g.incident(v):
                if e_idx in off_tree:
                    continue
                u = g.other_end(e_idx, v)
                if not seen[u]:
                    seen[u] = True
                    parent[u] = e_idx
                    depth[u] = depth[v] + 1
                    stack.append(u)
    return parent, depth


def fundamental_cycles(g: Graph) -> list[Cycle]:
    """One cycle per non-tree edge of the index-order spanning forest.

    The cycle of non-tree edge e is e plus the forest path between its
    endpoints; together they form a basis of the cycle space.  The path
    is walked up from both endpoints to their meeting point, which keeps
    memory linear in the graph size.
    """
    nontree = spanning_forest(g)[1]
    parent, depth = _forest_parents(g, nontree)
    out = []
    for e_idx in nontree:
        e = g.edges[e_idx]
        u, v, path = e.u, e.v, [e_idx]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            path.append(parent[u])
            u = g.other_end(parent[u], u)
        out.append(cycle_from_mask(g, bit_mask(path)))
    return out


# ---------------------------------------------------------------------------
# Text format: `graph <n> <m>` header, then `e <u> <v> <w>` lines.

def parse_ints(fields: list[str]) -> list[int]:
    """The integer fields of one whitespace-split line of the text formats.

    Each field must be ASCII ``[+-]?[0-9]+``.  Bare ``int`` also reads
    ``1_0`` as 10 and accepts Arabic-Indic or fullwidth digits; on ASCII
    fields without ``_`` or whitespace it accepts exactly that pattern,
    and checking the line once is cheaper than a regular expression per
    field.
    """
    text = "".join(fields)
    if not text.isascii() or "_" in text:
        raise ValueError(f"non-integer field in {fields!r}")
    return list(map(int, fields))


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """The 1-based line number and whitespace-split fields of each line of
    the text formats that is neither blank nor a ``#`` comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and fields[0][0] != "#":
            yield lineno, fields


def parse_graph(text: str) -> Graph:
    """Parse the graph text format; errors carry 1-based line numbers."""
    n = None
    m_declared = None
    edges: list[tuple[int, int, int]] = []
    for lineno, fields in records(text):
        if n is None:
            if fields[0] != "graph" or len(fields) != 3:
                raise ParseError(f"line {lineno}: expected header 'graph <n> <m>'")
            try:
                n, m_declared = parse_ints(fields[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header field") from None
            if n < 0 or m_declared < 0:
                raise ParseError(f"line {lineno}: negative count in header")
            continue
        if fields[0] != "e" or len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 'e <u> <v> <w>'")
        try:
            u, v, w = parse_ints(fields[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer edge field") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: endpoint out of range [0, {n})")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop not allowed")
        if not 0 <= w <= MAX_WEIGHT:
            raise ParseError(f"line {lineno}: weight out of range")
        edges.append((u, v, w))
        if len(edges) > m_declared:
            raise ParseError(f"line {lineno}: more than {m_declared} edges declared")
    if n is None:
        raise ParseError("line 1: missing 'graph <n> <m>' header")
    if len(edges) != m_declared:
        raise ParseError(f"expected {m_declared} edges, found {len(edges)}")
    return Graph(n, edges)


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def format_graph(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"graph {g.n} {g.m}")
    for e in g.edges:
        lines.append(f"e {e.u} {e.v} {e.w}")
    return "\n".join(lines) + "\n"


def save_graph(g: Graph, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, comment))

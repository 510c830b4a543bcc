"""Enumeration of tight (isometric) cycles under the tie-broken metric.

A simple cycle is tight when, for every pair of its vertices, one of the
two cycle arcs is the shortest path between them.  Because the
tie-broken metric makes shortest paths unique, every tight cycle arises
as a Horton candidate ``C(v, e) = path(v,x) + edge(x,y) + path(y,v)``
for some vertex v and edge e = (x,y).

Tightness is decided by multiplicity (Amaldi, Iuliano and Rizzi,
*Efficient deterministic algorithms for finding a minimum cycle basis in
undirected graphs*, IPCO 2010): with unique shortest paths, a candidate
is tight exactly when every one of its vertices generates it.  A root
generates a given edge set at most once (two joining edges would make
the tree contain a cycle), so the enumerator counts how often each edge
set occurs and keeps those whose count equals their vertex count, which
for a simple cycle is its edge count.  Roots run in increasing vertex
order, so a cycle is first generated by its lowest vertex; only that
root inserts it into the count table, and later roots increment a mask
already there.  A mask its lowest vertex did not generate cannot be
tight, so dropping it loses nothing, and the table holds about one
distinct candidate in six.  Candidates come straight from the
shortest-path kernel's tie masks: the tie mask of x is the edge set of
the root -> x path, and the two paths of a candidate meet only at the
root exactly when their edge masks are disjoint.  One root's masks are
held at a time, never the all-pairs table.  ``is_tight`` is an
independent checker from the all-pairs table: a cycle is tight exactly
when every pairwise shortest path between its vertices lies on it.

Every cycle lies inside one biconnected block (Horton, *A polynomial-time
algorithm to find the shortest cycle basis of a graph*, SIAM J. Comput.
1987), so an iterative Tarjan lowpoint pass finds the blocks with at
least two edges and the kernel runs only from their vertices and only
inside them; forests, pendant trees and bridges cost O(n + m).  Each
block's adjacency is built with its vertices and edges relabeled in
increasing original order.  The tie-break compares edge bit sets as
integers and a monotone relabeling keeps every such comparison, so the
shortest paths, candidates and multiplicities are those of the whole
graph: a simple shortest path between two block vertices never leaves
the block, and a candidate whose joining edge lies in a block without
its root has both paths through the same cut vertex, so the simple-cycle
test rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import AllPairs, Cycle, Graph, PerturbedWeight
from .graph import shortest_path_keys, weighted_adjacency


@dataclass
class TightCycleSet:
    """All tight cycles, strictly sorted by weight."""

    cycles: list[Cycle]
    total_length: int  # sum of edge counts


def _count_candidates(
    edges: Iterable[tuple[int, int, int]], ties: Iterable[list[int]]
) -> dict[int, int]:
    """Horton candidate masks mapped to the number of roots generating them,
    for every mask that its lowest vertex generates.

    ``ties`` yields the tie lists of roots 0, 1, 2, ... in order, ``tie[x]``
    being the edge set of the root -> x path.  A candidate path(v,x) +
    (x,y) + path(y,v) is kept only when the two paths are edge-disjoint
    and the joining edge lies on neither; each such edge set is a simple
    cycle, because paths that met at a vertex other than the root would
    share the path up to it.

    Only a cycle's own vertices generate it, so its lowest vertex is the
    first root to do so.  ``done`` is the union of the edges incident to
    the roots already run; a path's edges touch exactly its vertices, so
    ``tie[x] & done`` is nonzero exactly when the root -> x path passes an
    earlier root.  A candidate whose two paths pass no earlier root has
    the current root as its lowest vertex and is stored with count 1; any
    other candidate only increments a mask already present.  A mask
    missing at that point was not generated by its lowest vertex, so it
    cannot be tight, and leaving it out keeps the table to the masks that
    can reach ``count == edge count``.  No tie list is kept after it is
    counted, so a generator holds memory to about one tree at a time.
    """
    edges = [(x, y, 1 << i) for i, (x, y, _) in enumerate(edges)]
    incident: dict[int, int] = {}
    for x, y, bit in edges:
        incident[x] = incident.get(x, 0) | bit
        incident[y] = incident.get(y, 0) | bit
    counts: dict[int, int] = {}
    get = counts.get
    done = 0
    for root, tie in enumerate(ties):
        late = [t & done for t in tie]  # nonzero: the path passes an earlier root
        for x, y, bit in edges:
            tx, ty = tie[x], tie[y]
            if tx & ty:
                continue
            path = tx | ty
            if path & bit:
                continue
            mask = path | bit
            if late[x] or late[y]:
                c = get(mask)
                if c is not None:
                    counts[mask] = c + 1
            else:
                counts[mask] = 1
        done |= incident.get(root, 0)
    return counts


def _sorted_cycles(m: int, keys: Iterable[tuple[int, int]]) -> list[Cycle]:
    """Cycles of (weight, simple edge set) pairs, sorted by (base, mask)."""
    return [Cycle(mask, base, m) for base, mask in sorted(keys)]


def horton_candidates(g: Graph, rows: Iterable[list[Optional[PerturbedWeight]]]) -> list[Cycle]:
    """Every distinct candidate path(v,x) + (x,y) + path(y,v), sorted by weight.

    ``rows`` are key rows such as ``apsp(g).table``, one per root v:
    ``row[x]`` keys the v -> x path by (weight, edge set), so a candidate
    weighs ``row[x].base + row[y].base + w`` without decoding its mask.
    An edge leaving v's component has both endpoints unreachable (None).
    """
    edges = [(e.u, e.v, e.w, 1 << i) for i, e in enumerate(g.edges)]
    weights: dict[int, int] = {}
    for row in rows:
        for x, y, w, bit in edges:
            dx, dy = row[x], row[y]
            if dx is None or dx.tie & dy.tie:
                continue
            path = dx.tie | dy.tie
            if not path & bit:
                weights[path | bit] = dx.base + dy.base + w
    return _sorted_cycles(g.m, ((base, mask) for mask, base in weights.items()))


def _cycle_vertices(g: Graph, cycle: Cycle) -> list[int]:
    """Vertices of an elementary cycle.

    Raises ValueError when the edge set is not a single closed loop of
    degree-2 vertices.
    """
    if not cycle.mask:
        raise ValueError("empty cycle has no walk")
    incident: dict[int, list[int]] = {}
    for e_idx in cycle.edge_indices():
        for x in g.edges[e_idx][:2]:
            incident.setdefault(x, []).append(e_idx)
    for v, inc in incident.items():
        if len(inc) != 2:
            raise ValueError(f"vertex {v} has degree {len(inc)}; cycle not elementary")
    start = min(incident)
    edge = incident[start][0]
    v = g.other_end(edge, start)
    steps = 1
    while v != start:
        a, b = incident[v]
        edge = b if a == edge else a
        v = g.other_end(edge, v)
        steps += 1
    if steps != len(incident):
        raise ValueError("edge set is disconnected; cycle not elementary")
    return list(incident)


def is_tight(cycle: Cycle, pairs: AllPairs) -> bool:
    """Check that one arc of the cycle realizes every pairwise distance.

    Shortest paths are unique in the tie-broken order, and a simple path
    between two vertices of an elementary cycle that uses only cycle
    edges is one of its two arcs.  So one arc realizes the a-b distance
    exactly when the unique shortest a-b path lies on the cycle: that arc
    is then the shortest path and the lighter arc, and otherwise neither
    arc is.  The test is ``tie & ~mask == 0`` per pair of vertices.
    """
    verts = _cycle_vertices(pairs.graph, cycle)
    outside = ~cycle.mask
    table = pairs.table
    for i, a in enumerate(verts):
        row = table[a]
        for b in verts[i + 1:]:
            if row[b].tie & outside:
                return False
    return True


def _cyclic_blocks(g: Graph) -> list[list[int]]:
    """Sorted edge indices of each biconnected block with at least two edges.

    Iterative Tarjan lowpoint search in O(n + m).  A DFS step skips the
    edge it arrived by, not the vertex it came from, so a parallel edge
    back to the parent counts as a back edge and parallel pairs form a
    block.  Edges are pushed on a stack as they are explored; when a
    child's lowpoint does not reach above its parent, the edges down to
    the tree edge into that child are one block.
    """
    edges = g.edges
    disc = [0] * g.n  # discovery time, 0 = unvisited
    low = [0] * g.n
    clock = 0
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    for start in range(g.n):
        if disc[start]:
            continue
        clock += 1
        disc[start] = low[start] = clock
        # frames: (vertex, index of the tree edge into it, incident-edge iterator)
        stack = [(start, -1, iter(g.incident(start)))]
        while stack:
            v, in_edge, rest = stack[-1]
            for e_idx in rest:
                if e_idx == in_edge:
                    continue
                e = edges[e_idx]
                u = e.v if v == e.u else e.u
                if not disc[u]:
                    edge_stack.append(e_idx)
                    clock += 1
                    disc[u] = low[u] = clock
                    stack.append((u, e_idx, iter(g.incident(u))))
                    break
                if disc[u] < disc[v]:  # back edge to an ancestor
                    edge_stack.append(e_idx)
                    if disc[u] < low[v]:
                        low[v] = disc[u]
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                if low[v] < low[p]:
                    low[p] = low[v]
                if low[v] >= disc[p]:
                    block = []
                    while True:
                        f = edge_stack.pop()
                        block.append(f)
                        if f == in_edge:
                            break
                    if len(block) >= 2:
                        block.sort()
                        blocks.append(block)
    return blocks


def enumerate_tight_cycles(g: Graph, pairs: AllPairs | None = None) -> TightCycleSet:
    """All tight cycles of the graph, sorted by tie-broken weight.

    Works one biconnected block at a time: for each block with at least
    two edges it builds the block's adjacency with vertices and edges
    relabeled in increasing order, runs the shortest-path kernel from
    each block vertex in increasing order (each tie list dropped once
    counted), inserts each candidate into the count table at its lowest
    vertex only, and keeps the candidates generated by all their
    vertices.  One pass over each kept mask's bits sums its weight and
    maps it back to the original edge indices.  The tie mask of x
    is the edge set of the root -> x path, so path disjointness is
    tested on edge masks.  The merged list is sorted by (weight, edge
    bit set), so the root order that decides insertion does not show in
    the output.  ``pairs`` is accepted for existing callers and ignored.
    """
    keys: list[tuple[int, int]] = []
    for block in _cyclic_blocks(g):
        verts = sorted({x for e_idx in block for x in g.edges[e_idx][:2]})
        local = {v: i for i, v in enumerate(verts)}
        edges = [(local[e.u], local[e.v], e.w) for e in (g.edges[i] for i in block)]
        adj = weighted_adjacency(len(verts), edges)
        ties = (shortest_path_keys(adj, r)[1] for r in range(len(verts)))
        for mask, times in _count_candidates(edges, ties).items():
            if times != mask.bit_count():
                continue
            base = lifted = 0
            while mask:
                low = mask & -mask
                i = low.bit_length() - 1
                base += edges[i][2]
                lifted |= 1 << block[i]
                mask ^= low
            keys.append((base, lifted))
    return TightCycleSet(_sorted_cycles(g.m, keys), sum(mask.bit_count() for _, mask in keys))

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
for a simple cycle is its edge count.  Candidates come straight from the
shortest-path kernel's tie masks: the tie mask of x is the edge set of
the root -> x path, and the two paths of a candidate meet only at the
root exactly when their edge masks are disjoint.  One root's masks are
held at a time, never the all-pairs table.  ``is_tight`` keeps the
pairwise definition as an independent checker.

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
    """Horton candidate masks mapped to the number of roots generating them.

    ``ties`` yields one root's tie list at a time, ``tie[x]`` being the
    edge set of the root -> x path.  A candidate path(v,x) + (x,y) +
    path(y,v) is kept only when the two paths are edge-disjoint and the
    joining edge lies on neither; each such edge set is a simple cycle,
    because paths that met at a vertex other than the root would share
    the path up to it.  No tie list is kept after it is counted, so a
    generator holds memory to about one tree at a time.
    """
    edges = [(x, y, 1 << i) for i, (x, y, _) in enumerate(edges)]
    counts: dict[int, int] = {}
    get = counts.get
    for tie in ties:
        for x, y, bit in edges:
            tx, ty = tie[x], tie[y]
            if tx & ty:
                continue
            path = tx | ty
            if path & bit:
                continue
            mask = path | bit
            counts[mask] = get(mask, 0) + 1
    return counts


def _sorted_cycles(g: Graph, masks: Iterable[int]) -> list[Cycle]:
    """Cycles of simple edge sets, sorted by tie-broken weight (base, mask)."""
    return [
        Cycle(mask, base, g.m, mask.bit_count())
        for base, mask in sorted((g.mask_weight(mask), mask) for mask in masks)
    ]


def horton_candidates(g: Graph, rows: Iterable[list[Optional[PerturbedWeight]]]) -> list[Cycle]:
    """Every distinct candidate path(v,x) + (x,y) + path(y,v), sorted by weight.

    ``rows`` are key rows such as ``apsp(g).table``, one per root v: the
    tie of ``row[x]`` is the edge set of the v -> x path.  Unreachable
    vertices get tie -1, which meets every mask, so the simple-path test
    rejects the edges among them.
    """
    ties = ([-1 if d is None else d.tie for d in row] for row in rows)
    return _sorted_cycles(g, _count_candidates(g.edges, ties))


def _cycle_walk(g: Graph, cycle: Cycle) -> tuple[list[int], list[int]]:
    """Closed walk (vertices, edges) of an elementary cycle.

    Returns vertices v_0..v_{k-1} and edges e_0..e_{k-1} with e_i joining
    v_i and v_{i+1 mod k}.  Raises ValueError when the edge set is not a
    single closed loop of degree-2 vertices.
    """
    incident: dict[int, list[int]] = {}
    rest = cycle.mask
    count = 0
    while rest:
        low = rest & -rest
        e_idx = low.bit_length() - 1
        e = g.edges[e_idx]
        incident.setdefault(e.u, []).append(e_idx)
        incident.setdefault(e.v, []).append(e_idx)
        count += 1
        rest ^= low
    if count == 0:
        raise ValueError("empty cycle has no walk")
    for v, inc in incident.items():
        if len(inc) != 2:
            raise ValueError(f"vertex {v} has degree {len(inc)}; cycle not elementary")
    start = min(incident)
    verts = [start]
    edges = [incident[start][0]]
    v = g.other_end(edges[0], start)
    while v != start:
        verts.append(v)
        a, b = incident[v]
        nxt = b if a == edges[-1] else a
        edges.append(nxt)
        v = g.other_end(nxt, v)
    if len(edges) != count:
        raise ValueError("edge set is disconnected; cycle not elementary")
    return verts, edges


def is_tight(cycle: Cycle, pairs: AllPairs) -> bool:
    """Check that one arc of the cycle realizes every pairwise distance.

    Comparisons are exact in the tie-broken order, so an arc matches the
    distance only when it is, edge for edge, the unique shortest path.
    """
    g = pairs.graph
    verts, edges = _cycle_walk(g, cycle)
    k = len(edges)
    # prefix[i] = weight/mask of the arc v_0..v_i (first i edges)
    pre_b = [0] * (k + 1)
    pre_m = [0] * (k + 1)
    for i, e_idx in enumerate(edges):
        pre_b[i + 1] = pre_b[i] + g.edges[e_idx].w
        pre_m[i + 1] = pre_m[i] | (1 << e_idx)
    total_b, total_m = pre_b[k], cycle.mask
    table = pairs.table
    for i in range(k):
        row = table[verts[i]]
        for j in range(i + 1, k):
            d = row[verts[j]]
            arc_b = pre_b[j] - pre_b[i]
            arc_m = pre_m[j] ^ pre_m[i]
            other_b = total_b - arc_b
            other_m = total_m ^ arc_m
            if (arc_b, arc_m) <= (other_b, other_m):
                best_b, best_m = arc_b, arc_m
            else:
                best_b, best_m = other_b, other_m
            if best_b != d.base or best_m != d.tie:
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


def _lift(mask: int, block: list[int]) -> int:
    """Map a block-local edge mask back to original edge indices."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << block[low.bit_length() - 1]
        mask ^= low
    return out


def enumerate_tight_cycles(g: Graph, pairs: AllPairs | None = None) -> TightCycleSet:
    """All tight cycles of the graph, sorted by tie-broken weight.

    Works one biconnected block at a time: for each block with at least
    two edges it builds the block's adjacency with vertices and edges
    relabeled in increasing order, runs the shortest-path kernel from
    each block vertex (each tie list dropped once counted), keeps the
    candidates generated by all their vertices, and maps them back to
    the original edge indices.  The tie mask of x is the edge set of the
    root -> x path, so path disjointness is tested on edge masks.  The
    merged list is sorted by (weight, edge bit set).  ``pairs`` is
    accepted for existing callers and ignored.
    """
    masks: list[int] = []
    for block in _cyclic_blocks(g):
        verts = sorted({x for e_idx in block for x in g.edges[e_idx][:2]})
        local = {v: i for i, v in enumerate(verts)}
        edges = [(local[e.u], local[e.v], e.w) for e in (g.edges[i] for i in block)]
        adj = weighted_adjacency(len(verts), edges)
        ties = (shortest_path_keys(adj, r)[1] for r in range(len(verts)))
        counts = _count_candidates(edges, ties)
        masks += [_lift(mask, block) for mask, times in counts.items() if times == mask.bit_count()]
    return TightCycleSet(_sorted_cycles(g, masks), sum(mask.bit_count() for mask in masks))

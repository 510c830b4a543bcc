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
set occurs at the roots of a set Z, run in increasing order, and keeps
those generated by every root on them.  A simple cycle passes a vertex
through two of its edges, so the roots on a mask number half of
|mask & E1| + 2 |mask & E2|, E1 and E2 being the edges with one and with
two endpoints in Z; a mask is kept when twice its count equals that sum.
A cycle is first generated by its lowest root; only that root, where
``path & done`` is 0 (``done`` being every edge incident to an earlier
root), inserts it, and later roots increment a mask already there.  A
mask its lowest root does not generate is never stored, and no tight
cycle is such a mask.  Candidates come straight from the shortest-path
kernel's tie masks: the tie mask of x is the edge set of the root -> x
path, and the two paths of a candidate meet only at the root exactly
when their edge masks are disjoint.  One root's masks are held at a
time, never the all-pairs table.  ``is_tight`` is an independent checker
from the all-pairs table: a cycle is tight exactly when every pairwise
shortest path between its vertices lies on it.  ``apsp`` builds that
table over every edge, with no pre-test, so the checker shares none of
the enumerator's edge removals.

With every vertex a root, E2 is every edge, the test is count == edge
count, and the kept masks are exactly the tight cycles:
``basis_cycles(g)`` with no annotation lists them, and so
``enumerate_tight_cycles`` and ``tight-cycles`` do.  With fewer
roots every tight cycle that passes a root is still kept, and a few
cycles that are not tight may be kept too.  Given the edge annotations
of ``graph.eliminate``, a cycle's class being the XOR of its edges'
(Busaryev, Cabello, Chen, Dey and Wang, *Annotating simplices with a
homology basis and its applications*, SWAT 2012; Dey, Li and Wang,
LATIN 2018), ``basis_cycles``, the list every basis engine reads, takes
its roots from them on the adjacency the 2-hop pre-test (below) builds
of the edges it does not flag.
One greedy grows F = V - Z in each block over those edges with a
union-find that carries XOR potentials and makes a vertex a root only
when it would close a cycle of nonzero class inside F, so every such
cycle of unflagged edges passes a root.  A graph is a complex with no
triangles: under its annotations, unit vectors on the non-tree edges,
every cycle has a nonzero class, so Z is a feedback vertex set of the
unflagged edges, and with the cycles of the flagged edges, emitted on
their own (below), the MCB engines' list holds every tight cycle.
Mehlhorn and Michail restrict
Horton's candidates to a feedback vertex set in the same way (*Minimum
cycle bases: faster and simpler*, ACM TALG 2009).  That is enough for
the engines.  Under the (base, mask) order cycle weights are distinct,
and a cycle that is not tight splits at a shortcut into two strictly
lighter cycles, so the tight cycles lighter than a cycle C span every
cycle lighter than C.  Hence, for any weight-sorted list of cycles that
holds every tight cycle:

* a scan in weight order keeps a cycle exactly when the lighter cycles
  do not span it, which does not depend on the list; so ``earliest``
  keeps the same cycles in the same order, and never a cycle that is
  not tight;
* the lightest of all cycles odd against a support vector is tight,
  since one of the two lighter halves of a cycle that is not would be
  odd as well; so it is the list's lightest odd cycle, and ``depina``
  and ``kavitha`` make the same picks and end with the same certificate.

``mhb_tight`` reads the annotations of the elimination of its triangle
boundaries, so its Z meets only the cycles of unflagged edges that are
not null-homologous.  The scan in weight order keeps a listed cycle
exactly when its class is independent of the classes of the lighter
listed cycles.  The lighter tight cycles span the classes of all lighter
cycles; those of class 0 add nothing, and the others are listed, either
emitted for their flagged edge or passing a root and kept by count.  So the
lighter listed cycles span the classes of all lighter cycles, and the
scan keeps the members of the minimum homology basis, in the same order
as from the tight list: each is tight and not null-homologous, so it is
listed.

An edge xy is non-geodesic when it is not itself the shortest x-y path
P(x, y).  Such edges leave both the kernel and the counting scan:

(a) A sub-path of a shortest path is shortest in the tie-broken order
    (it is an ordinary metric with weight ``w + eps * 2**i`` on edge i),
    so xy lies on no shortest path and deleting it changes no key.
(b) In a tight cycle one of the two x-y arcs is P(x, y); the arc {xy} is
    not, so any tight cycle through xy is P(x, y) + xy.  That cycle is
    tight, since every pair of its vertices is joined by a sub-path of
    P(x, y).  The enumerator emits it once, as ``tie[y] | bit`` at the
    root of x, the lowest endpoint in Z, or from a run bounded at the
    weight of xy (below).
(c) Every vertex of P(x, y) + xy generates it with xy as the joining
    edge.  Once xy leaves the scan, a count an earlier root started for
    that mask misses root x, so it is never kept twice.
(d) A tight cycle made only of geodesic edges is generated by each of
    its vertices through shortest paths and a geodesic joining edge, so
    it keeps its exact multiplicity.

A cheap pre-test flags the edges that a parallel edge or a two-edge path
beats.  It runs once per block, before the roots are chosen, and builds
the block's only adjacency from its rows of lightest edges, less the
flagged ones; the root greedy and the kernel both read it, so the
flagged edges never enter the greedy, the kernel or the scan.  Every edge with an
endpoint in Z has its geodesy tested once, at the root of its lowest
endpoint x in Z: by (a) that root's ``tie[y]`` is P(x, y), so xy is
geodesic exactly when ``tie[y]`` is xy alone.  An edge that passes there
is P(x, y), so a test at y could never fail.  A flagged edge xy with no
endpoint in Z takes P(x, y) from one kernel run from x that stops before
the first level above w: P(x, y) beats xy, so it weighs at most w, and
its key is exact by then.  The flagged edges at one x share a run,
bounded by the heaviest of them, and x is outside Z, so a block makes at
most n kernel runs.  An unflagged edge with no endpoint in Z is never
tested and stays in the kernel and the scan: by (a) it changes no key,
and by (c) every root on P(x, y) + xy generates that cycle, which is
then kept by count.

Roots chosen on the unflagged edges are enough.  A tight cycle is either
P(x, y) + xy for a non-geodesic edge xy, or a cycle of geodesic edges,
which are never flagged.  A flagged edge's cycle is emitted at its root
endpoint or from its bounded run.  An unflagged non-geodesic edge's
P(x, y) is made of geodesic edges, so its cycle is one of unflagged
edges, like a cycle of geodesic edges: if its class is nonzero it passes
a root, and it is emitted by the test at its lowest endpoint in Z or
kept by count.

Every cycle lies inside one biconnected block (Horton, *A polynomial-time
algorithm to find the shortest cycle basis of a graph*, SIAM J. Comput.
1987), so an iterative Tarjan lowpoint pass finds the blocks with at
least two edges and the kernel runs only inside them; forests, pendant
trees and bridges cost O(n + m).  A block with as many edges as vertices
is one cycle, which is its only tight cycle, and chooses no roots and
runs no kernel.  Each block is described with its vertices and edges
relabeled in increasing original order.  The
tie-break compares edge bit sets as integers and a monotone relabeling
keeps every such comparison, so the shortest paths, candidates and
multiplicities are those of the whole graph: a simple shortest path
between two block vertices never leaves the block, and a candidate whose
joining edge lies in a block without its root has both paths through the
same cut vertex, so the simple-cycle test rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .gf2 import bit_indices, bit_mask
from .graph import AllPairs, Cycle, Graph, PerturbedWeight
from .graph import Adjacency, find, shortest_path_keys


@dataclass
class TightCycleSet:
    """All tight cycles, strictly sorted by weight."""

    cycles: list[Cycle]

    @property
    def total_length(self) -> int:
        return sum(c.edge_count() for c in self.cycles)


def _block_adjacency(n: int, edges: Iterable[tuple[int, int, int]]) -> tuple[int, Adjacency]:
    """(flagged, adj) of one block: the 2-hop pre-test's flags and the
    block's only adjacency, its rows holding the edges it does not flag.

    Edge i = (x, y, w) is flagged when a parallel edge is lighter in the
    (weight, edge bit set) order, or when some z has lightest edges
    (x, z, w1, b1) and (z, y, w2, b2) with ``(w1 + w2, b1 | b2)`` below
    ``(w, 1 << i)``.  Either way the edge is not the shortest x-y path,
    so every flagged edge is non-geodesic.  ``adj[x]`` holds a
    ``(y, w, bit)`` row for each unflagged edge xy, read from the per-vertex
    dicts of lightest edges that the test builds; every parallel edge but
    the lightest is flagged, so no row names a neighbour twice.
    """
    lightest: list[dict[int, tuple[int, int]]] = [{} for _ in range(n)]
    flagged = 0
    bit = 1
    for x, y, w in edges:
        old = lightest[x].get(y)
        if old is None or w < old[0]:
            lightest[x][y] = lightest[y][x] = (w, bit)
            if old is not None:
                flagged |= old[1]
        else:
            flagged |= bit
        bit <<= 1
    for x, near in enumerate(lightest):
        for y, (w, bit) in near.items():
            if y < x:
                continue
            far = lightest[y]
            for z, (w1, b1) in near.items():
                if w1 > w:
                    continue  # the detour outweighs the edge
                t = far.get(z)
                if t is not None and (w1 + t[0] < w or w1 + t[0] == w and b1 | t[1] < bit):
                    flagged |= bit
                    break
    adj = [[(y, w, bit) for y, (w, bit) in near.items() if not flagged & bit] for near in lightest]
    return flagged, adj


def _feedback_vertex_set(adj: Adjacency, classes: list[int]) -> list[int]:
    """Sorted roots of one block: the vertices left out of an induced subgraph F.

    ``adj`` is the block's adjacency on vertices 0..n-1, rows ``(y, w,
    bit)`` with bit i for edge i, and ``classes[i]`` is the class of edge
    i.  F grows over the vertices in increasing degree in ``adj``, ties
    broken by label, and a union-find over F carries XOR potentials, the
    class of a vertex's path in F to its tree's root.  A vertex becomes a
    root when two of its edges reach one tree at different potentials,
    closing a cycle of nonzero class inside F, so every such cycle passes a
    root.  Neither test depends on the order of a row, so the roots do
    not either.  Under a graph's annotations every cycle has a nonzero
    class, and the graph of ``adj`` less the roots is a forest.
    """
    parent: dict[int, int] = {}  # the union-find over the trees of F; its keys are F
    potential: dict[int, int] = {}
    roots: list[int] = []
    for v in sorted(range(len(adj)), key=lambda v: len(adj[v])):
        reach: dict[int, int] = {}  # tree of F -> v's potential below its root
        for u, _, bit in adj[v]:
            if u in parent:
                t = find(parent, u, potential)
                p = potential[u] ^ classes[bit.bit_length() - 1]
                if reach.get(t, p) != p:
                    roots.append(v)
                    break
                reach[t] = p
        else:
            parent[v] = v
            for t in reach:
                parent[t] = v
            potential[v] = 0
            potential.update(reach)
    return sorted(roots)


def _block_tight_masks(
    edges: list[tuple[int, int, int]], detours: int, adj: Adjacency, roots: list[int]
) -> list[tuple[int, int]]:
    """(weight, edge mask) keys of one block's cycles counted from ``roots``:
    the tight cycle of every edge in ``detours``, every tight cycle of the
    other edges that passes a root, and possibly a few cycles that are not
    tight.

    ``edges`` are the block's (x, y, weight) on vertices 0..n-1, bit i
    being edge i, and ``detours`` and ``adj`` are what ``_block_adjacency``
    returns for them: the flagged edges and the adjacency of the others,
    which the kernel reads and which nothing else builds.  ``roots`` are
    increasing vertices Z.  With every vertex a root the masks are exactly
    the block's tight cycles.  The block is not one cycle; ``basis_cycles``
    emits such a block whole.

    The kernel runs from each root in increasing order, ``tie[x]``
    being the edge set of the root -> x path.  A candidate path(v,x) +
    (x,y) + path(y,v) is counted only when the two paths are edge-disjoint
    and the joining edge lies on neither; each such edge set is a simple
    cycle, because paths that met at a vertex other than the root would
    share the path up to it.  ``done`` is the edges tested at the roots
    already run, each root adding its ``owned`` after its scan; an edge
    incident to an earlier root was tested at its lowest endpoint in Z,
    earlier still, so these are the edges incident to earlier roots.  A
    path's edges touch exactly its vertices, so ``path & done`` (``path``
    = ``tie[x] | tie[y]``) is nonzero when either path passes an earlier
    root.  A candidate whose two paths pass none has the current root as
    its lowest root and is stored with count 1; any other candidate only
    increments a mask already present.  A tight cycle is generated once by
    each of its vertices, so the count of a tight cycle is the number of
    roots on it.  A simple cycle passes a vertex through two of its edges,
    so that number is half of |mask & E1| + 2 |mask & E2|, E1 and E2 being
    the edges with one and with two endpoints in Z, and a mask is kept when
    twice its count equals that sum.  With every vertex a root, E2 is every
    edge and the test is count == edge count.  A cycle that every root on
    it generates but that is not tight may be kept too.  No tie list is
    kept after it is counted.

    Each weight comes from the kernel's keys and is computed once.  A
    counted mask weighs ``base[x] + base[y] + w`` at the root that inserts
    it; that weight is appended to ``weights`` at the insertion.  A mask
    is inserted into ``counts`` once and later only incremented, so the
    dict's insertion order never changes and ``weights`` runs parallel to
    ``counts.items()``.

    The flagged edges never enter the kernel's adjacency or ``live``, the
    scan's edges keyed by bit in edge order.  An unflagged edge's bit in
    ``live`` and ``tested_at`` is the int object its adjacency rows hold,
    so no bit of the scan is held twice.  Each edge with an endpoint in Z
    is tested once, flagged or not, at its lowest endpoint x in Z (the
    module docstring says why once is enough): when ``tie[y] != bit`` it is
    non-geodesic and its one tight cycle ``tie[y] | bit``, of weight
    ``base[y] + w``, is emitted.  An unflagged edge that fails leaves the
    kernel and the scan by one pop from ``live`` and one removal from each
    endpoint's row, after the root greedy has read them; a flagged edge's
    pop finds nothing.  An unflagged
    edge with no endpoint in Z is never tested: it stays in the kernel and
    the scan, where it changes no key and its one tight cycle, if
    non-geodesic, is kept by count.

    The flagged edges with no endpoint in Z are grouped by x, their higher
    endpoint, before the roots run.  For each x one kernel run from x,
    bounded by the group's heaviest edge, gives each edge xy its P(x, y):
    P(x, y) beats xy, so it weighs at most w and its key is exact.
    """
    n = len(adj)
    is_root = [False] * n
    for r in roots:
        is_root[r] = True
    bits = [0] * len(edges)  # the rows' own bit objects, 0 for a flagged edge
    for row in adj:
        for _, _, bit in row:
            bits[bit.bit_length() - 1] = bit
    live: dict[int, tuple[int, int, int, int]] = {}
    tested_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    uncovered: dict[int, list[tuple[int, int, int]]] = {}  # flagged, no endpoint in Z
    ends = [0, 0, 0]  # ends[k]: the edges with k endpoints in Z
    for i, (x, y, w) in enumerate(edges):
        bit = bits[i] or 1 << i
        if y < x:
            x, y = y, x
        if not is_root[x]:
            x, y = y, x  # x is the lowest endpoint in Z, if either is in Z
        k = is_root[x] + is_root[y]
        ends[k] |= bit
        if k:
            tested_at[x].append((y, w, bit))
        if not detours & bit:
            live[bit] = (x, y, w, bit)
        elif not k:
            uncovered.setdefault(x, []).append((y, w, bit))
    del bits  # the scan holds the bits it needs; this list is 8 bytes an edge
    kept: list[tuple[int, int]] = []
    for x, group in uncovered.items():
        base, tie = shortest_path_keys(adj, x, max(w for _, w, _ in group))
        kept += [(base[y] + w, tie[y] | bit) for y, w, bit in group]
    counts: dict[int, int] = {}
    weights: list[int] = []
    get = counts.get
    done = 0
    for root in roots:
        base, tie = shortest_path_keys(adj, root)
        owned = 0
        for y, w, bit in tested_at[root]:
            owned |= bit
            if tie[y] != bit:
                kept.append((base[y] + w, tie[y] | bit))
                if live.pop(bit, None):
                    adj[root].remove((y, w, bit))
                    adj[y].remove((root, w, bit))
        for x, y, w, bit in live.values():
            tx, ty = tie[x], tie[y]
            if tx & ty:
                continue
            path = tx | ty
            if path & bit:
                continue
            mask = path | bit
            if path & done:  # the path passes an earlier root
                c = get(mask)
                if c is not None:
                    counts[mask] = c + 1
            else:
                counts[mask] = 1
                weights.append(base[x] + base[y] + w)
        done |= owned
    e1, e2 = ends[1], ends[2]
    kept += [
        (weight, mask) for weight, (mask, times) in zip(weights, counts.items())
        if 2 * times == (mask & e1).bit_count() + 2 * (mask & e2).bit_count()
    ]
    return kept


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

    Iterative Tarjan lowpoint search in O(n + m), started only from edge
    endpoints.  A DFS step skips the edge it arrived by, not the vertex it
    came from, so a parallel edge back to the parent counts as a back edge
    and parallel pairs form a block.  Edges are pushed on a stack as they
    are explored, and each DFS frame records where its tree edge sits on
    that stack; when a child's lowpoint does not reach above its parent,
    the edges from the tree edge into that child to the top of the stack
    are one block, cut off with one slice.
    """
    edges = g.edges
    disc = [0] * g.n  # discovery time, 0 = unvisited
    low = [0] * g.n
    clock = 0
    edge_stack: list[int] = []
    blocks: list[list[int]] = []
    for start, _, _ in edges:
        if disc[start]:
            continue
        clock += 1
        disc[start] = low[start] = clock
        # frames: (vertex, index of the tree edge into it, that edge's place
        # on edge_stack, incident-edge iterator)
        stack = [(start, -1, 0, iter(g.incident(start)))]
        while stack:
            v, in_edge, at, rest = stack[-1]
            for e_idx in rest:
                if e_idx == in_edge:
                    continue
                e = edges[e_idx]
                u = e.v if v == e.u else e.u
                if not disc[u]:
                    edge_stack.append(e_idx)
                    clock += 1
                    disc[u] = low[u] = clock
                    stack.append((u, e_idx, len(edge_stack) - 1, iter(g.incident(u))))
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
                    block = sorted(edge_stack[at:])
                    del edge_stack[at:]
                    if len(block) >= 2:
                        blocks.append(block)
    return blocks


def _local_blocks(g: Graph) -> Iterator[tuple[list[int], int, list[tuple[int, int, int]]]]:
    """Each cyclic block as (sorted edge indices, vertex count, edges): the
    block's vertices and edges relabeled in increasing original order."""
    for block in _cyclic_blocks(g):
        verts = sorted({x for e_idx in block for x in g.edges[e_idx][:2]})
        local = {v: i for i, v in enumerate(verts)}
        edges = [(local[e.u], local[e.v], e.w) for e in (g.edges[i] for i in block)]
        yield block, len(verts), edges


def basis_cycles(g: Graph, annotation: Optional[list[int]] = None) -> list[Cycle]:
    """Simple cycles sorted by tie-broken weight: the list the basis engines read.

    Each cyclic block is described once: ``_block_adjacency`` flags the
    edges the 2-hop pre-test beats and builds the adjacency of the others,
    which both the root greedy and the kernel read.  With ``annotation``
    None every block vertex is a root and the list is exactly the tight
    cycles.  Otherwise ``annotation`` gives the classes of an elimination
    of ``g`` and each block is counted from the roots of
    ``_feedback_vertex_set`` on that adjacency.  The list then holds the
    tight cycle of every flagged edge, every tight cycle of nonzero class
    (with no boundaries, every tight cycle) and possibly a few more, so it
    is a plain list and not a ``TightCycleSet``.  The module docstring says
    why the engines pick the same cycles, with the same certificate, from
    it as from the tight list.

    A block with as many edges as vertices is one cycle, its only tight
    cycle, and is emitted whole, weighing the sum of its edges, with no
    pre-test, roots or kernel run.  Each cycle keeps the weight its block's
    key carries.  A block's masks are lifted to the original edge indices
    only when the block is not edges 0..k-1, for which the relabeling is
    the identity, so a graph that is one block with every edge lifts
    nothing.  The merged list is sorted by (weight, edge bit set), so the
    root order that decides insertion and detection does not show in the
    output.
    """
    keys: list[tuple[int, int]] = []
    for block, n, edges in _local_blocks(g):
        if len(edges) == n:
            found = [(sum(w for _, _, w in edges), (1 << n) - 1)]
        else:
            detours, adj = _block_adjacency(n, edges)
            if annotation is None:
                roots = list(range(n))
            else:
                roots = _feedback_vertex_set(adj, [annotation[e] for e in block])
            found = _block_tight_masks(edges, detours, adj, roots)
            del adj  # the merge below does not hold the last block's rows
        if block[-1] != len(block) - 1:  # the sorted block is not edges 0..k-1
            found = [(w, bit_mask([block[i] for i in bit_indices(mask)])) for w, mask in found]
        keys += found
    return _sorted_cycles(g.m, keys)


def enumerate_tight_cycles(g: Graph, pairs: AllPairs | None = None) -> TightCycleSet:
    """All tight cycles of the graph, sorted by tie-broken weight:
    ``basis_cycles`` with every block vertex a root.

    In a block that is not one cycle the shortest-path kernel runs from
    each vertex in increasing order; each candidate is inserted into the
    count table at its lowest vertex only, and the candidates generated by
    all their vertices are kept.  A non-geodesic edge xy, one that is not
    itself the shortest x-y path P(x, y), is dropped from the kernel and
    the scan and emits P(x, y) + xy once: (a) it lies on no shortest path,
    so no key changes; (b) P(x, y) + xy is its only tight cycle; (c) that
    cycle is never also kept by count, since xy, its joining edge at every
    vertex, has left the scan; (d) cycles of geodesic edges keep their
    exact counts.  ``pairs`` is accepted for existing callers and ignored:
    ``apsp`` builds it over every edge for ``is_tight``, which thus shares
    no pre-test with this enumerator.
    """
    return TightCycleSet(basis_cycles(g))

import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings

import helpers
from minbasis.fixtures import (
    c5,
    cycle_graph,
    k4,
    k23,
    path_graph,
    petersen,
    random_connected_graph,
    random_graph_nm,
)
from minbasis import gf2
from minbasis.gf2 import Gf2Matrix, rank
from minbasis.graph import (
    MAX_WEIGHT,
    Graph,
    apsp,
    cycle_from_mask,
    cyclomatic_number,
    eliminate,
    fundamental_cycles,
    shortest_path_keys,
    weighted_adjacency,
)
from minbasis.oracle import all_cycle_vectors, brute_tight_cycles
from minbasis.tight import (
    _block_adjacency,
    _cyclic_blocks,
    _feedback_vertex_set,
    _local_blocks,
    basis_cycles,
    enumerate_tight_cycles,
    horton_candidates,
    is_tight,
)

from test_graph import multigraphs, seeded_multigraphs, small_graphs


def canonical(tcs):
    return {c.mask for c in tcs.cycles}


def test_candidates_triangle():
    g = cycle_graph(3)
    cands = horton_candidates(g, apsp(g).trees)
    assert len(cands) == 1
    assert cands[0].edge_count() == 3


def test_candidates_tree_empty():
    g = path_graph(5)
    assert horton_candidates(g, apsp(g).trees) == []


def test_candidates_k4_include_all_triangles():
    g = k4()
    cands = horton_candidates(g, apsp(g).trees)
    masks = {c.mask for c in cands}
    triangles = 0
    for a in range(4):
        for b in range(a + 1, 4):
            for c_v in range(b + 1, 4):
                idx = [
                    next(
                        i
                        for i, e in enumerate(g.edges)
                        if {e.u, e.v} == {x, y}
                    )
                    for x, y in ((a, b), (a, c_v), (b, c_v))
                ]
                mask = sum(1 << i for i in idx)
                if mask in masks:
                    triangles += 1
    assert triangles == 4


def test_candidates_are_sorted_and_simple():
    g = petersen()
    cands = horton_candidates(g, apsp(g).trees)
    keys = [(c.weight.base, c.weight.tie) for c in cands]
    assert keys == sorted(keys)
    for c in cands:
        vertices = {x for i in c.edge_indices() for x in g.edges[i][:2]}
        assert len(vertices) == c.edge_count()


def _candidates_from_rows(g, rows):
    """Sorted (base, mask) of every distinct candidate, read off the key rows."""
    found = set()
    for row in rows:
        for i, e in enumerate(g.edges):
            dx, dy = row[e.u], row[e.v]
            if dx is None or dy is None or dx.tie & dy.tie or (dx.tie | dy.tie) >> i & 1:
                continue
            found.add((dx.base + dy.base + e.w, dx.tie | dy.tie | 1 << i))
    return sorted(found)


def test_candidates_match_key_rows():
    graphs = [*seeded_multigraphs(2011, 60), random_graph_nm(random.Random(1), 30, 90)]
    for g in graphs:
        rows = apsp(g).table
        got = [(c.base, c.mask) for c in horton_candidates(g, rows)]
        assert got == _candidates_from_rows(g, rows)


def test_candidate_and_tight_weights_match_their_edge_sets():
    # Candidates are weighed from the row keys and tight cycles while their
    # masks are lifted; both must equal the edge weights summed off the mask.
    rng = random.Random(2014)
    graphs = [*seeded_multigraphs(2014, 60), *(_glued_graph(rng) for _ in range(60))]
    for g in graphs:
        cycles = [*horton_candidates(g, apsp(g).table), *enumerate_tight_cycles(g).cycles]
        for c in cycles:
            assert c.base == cycle_from_mask(g, c.mask).base


def test_is_tight_triangle_in_k4():
    g = k4()
    pairs = apsp(g)
    tri = cycle_from_mask(
        g, sum(1 << i for i, e in enumerate(g.edges) if {e.u, e.v} <= {0, 1, 2})
    )
    assert is_tight(tri, pairs)


def test_is_tight_rejects_four_cycle_in_k4():
    g = k4()
    pairs = apsp(g)
    quad = cycle_from_mask(
        g,
        sum(
            1 << i
            for i, e in enumerate(g.edges)
            if {e.u, e.v} in ({0, 1}, {1, 2}, {2, 3}, {0, 3})
        ),
    )
    assert not is_tight(quad, pairs)


def test_is_tight_c5_whole_cycle():
    g = c5()
    pairs = apsp(g)
    whole = cycle_from_mask(g, 0b11111)
    assert is_tight(whole, pairs)


def test_is_tight_requires_elementary_cycle():
    from minbasis.fixtures import two_triangles

    g = two_triangles()
    both = cycle_from_mask(g, 0b111111)
    with pytest.raises(ValueError):
        is_tight(both, apsp(g))
    figure_eight = Graph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1), (0, 4, 1)])
    for mask in (0b111111, 0):  # vertex 0 of degree 4; no edge at all
        with pytest.raises(ValueError):
            is_tight(cycle_from_mask(figure_eight, mask), apsp(figure_eight))


def _is_elementary(g, mask):
    """Whether a nonzero edge set is one closed loop: every vertex it touches
    has degree 2 and a flood fill along its edges reaches them all."""
    ends = [g.edges[i][:2] for i in range(g.m) if mask >> i & 1]
    degree = {}
    for u, v in ends:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if set(degree.values()) != {2}:
        return False
    reached = {ends[0][0]}
    grown = True
    while grown:
        grown = False
        for u, v in ends:
            if (u in reached) != (v in reached):
                reached |= {u, v}
                grown = True
    return reached == set(degree)


def test_is_tight_matches_pairwise_definition_on_every_cycle():
    # brute_tight_cycles compares both arcs of each elementary cycle with
    # the exhaustive minimum over all simple paths, pair by pair.
    graphs = [
        g for g in seeded_multigraphs(2013, 120) if g.n <= 12 and cyclomatic_number(g) <= 16
    ]
    assert len(graphs) >= 30
    checked = 0
    for g in graphs:
        pairs = apsp(g)
        tight = canonical(brute_tight_cycles(g))
        for c in all_cycle_vectors(g):
            if _is_elementary(g, c.mask):
                assert is_tight(c, pairs) == (c.mask in tight)
                checked += 1
            else:
                with pytest.raises(ValueError):
                    is_tight(c, pairs)
    assert checked >= 500


def _path_vertices(g, mask, root):
    """The root plus the endpoints of the edges in ``mask``."""
    return {root} | {x for i in range(g.m) if mask >> i & 1 for x in g.edges[i][:2]}


def test_disjoint_tie_masks_iff_root_paths_meet_only_at_root():
    for g in seeded_multigraphs(2010, 60):
        adj = weighted_adjacency(g.n, g.edges)
        for root in range(g.n):
            base, tie = shortest_path_keys(adj, root)
            for e in g.edges:
                if base[e.u] is None:
                    continue
                shared = _path_vertices(g, tie[e.u], root) & _path_vertices(g, tie[e.v], root)
                assert (tie[e.u] & tie[e.v] == 0) == (shared == {root})


def test_enumerate_c5():
    tcs = enumerate_tight_cycles(c5())
    assert len(tcs.cycles) == 1
    assert tcs.total_length == 5


def test_enumerate_k4_exactly_the_triangles():
    tcs = enumerate_tight_cycles(k4())
    assert len(tcs.cycles) == 4
    assert all(c.edge_count() == 3 for c in tcs.cycles)
    assert tcs.total_length == 12


def test_enumerate_tree_empty():
    tcs = enumerate_tight_cycles(path_graph(6))
    assert tcs.cycles == [] and tcs.total_length == 0


@pytest.mark.parametrize(
    "make",
    [lambda: path_graph(50), lambda: Graph(3000), lambda: Graph(10**6)],
    ids=["path50", "edgeless3000", "edgeless1000000"],
)
def test_enumerate_forest_runs_no_dijkstra(monkeypatch, make):
    """A vertex on no edge allocates nothing of its own: at 10**6 vertices
    the peak is the graph's incidence tuple and the block search's two
    per-vertex lists, about 23 MiB."""
    def no_kernel(adj, root, limit=None):
        raise AssertionError("shortest-path tree built for a forest")

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", no_kernel)
    tracemalloc.start()
    try:
        g = make()
        nu = cyclomatic_number(g)
        tcs = enumerate_tight_cycles(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nu == 0 and tcs.cycles == [] and tcs.total_length == 0
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_basis_cycles_memory_on_unit_k60():
    """Unit K60 has 34,220 tight triangles, each held as a 1,770-bit mask,
    so the list is the Theta(n^5) part of the peak: 10.4 MiB on Python
    3.11, and 15.4 MiB when the one block also holds a lifted copy of it.
    The bound leaves 15% for other Python versions' object sizes; it
    bounds memory only, never time."""
    n = 60
    g = Graph(n, [(u, v, 1) for v in range(n) for u in range(v)])
    annotation = eliminate(g).annotation
    tracemalloc.start()
    try:
        cycles = basis_cycles(g, annotation)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cycles) == n * (n - 1) * (n - 2) // 6
    assert peak < 12 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_enumerate_petersen():
    g = petersen()
    tcs = enumerate_tight_cycles(g)
    assert all(c.edge_count() == 5 for c in tcs.cycles)
    assert tcs.total_length <= g.n * cyclomatic_number(g) == 60
    assert canonical(tcs) == canonical(brute_tight_cycles(g))


def test_enumerate_k23_breaks_ties():
    # K_{2,3} has three 4-cycles of equal weight; under the tie-broken
    # metric only the two containing the winning middle path are tight.
    g = k23()
    tcs = enumerate_tight_cycles(g)
    assert len(tcs.cycles) == 2
    assert canonical(tcs) == canonical(brute_tight_cycles(g))
    assert tcs.total_length <= g.n * cyclomatic_number(g)


def test_strictly_sorted_by_weight():
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng)
        tcs = enumerate_tight_cycles(g)
        keys = [(c.weight.base, c.weight.tie) for c in tcs.cycles]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=7, max_extra=4))
def test_completeness_matches_exhaustive_oracle(g):
    got = canonical(enumerate_tight_cycles(g))
    want = canonical(brute_tight_cycles(g))
    assert got == want


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_total_length_bound_and_rank(g):
    tcs = enumerate_tight_cycles(g)
    nu = cyclomatic_number(g)
    assert tcs.total_length <= g.n * nu
    if tcs.cycles:
        m = Gf2Matrix(g.m, [c.edge_set for c in tcs.cycles])
        assert rank(m) == nu
    else:
        assert nu == 0


def _hostile_graph(rng):
    """n = 30..60 with parallel edges, zero weights and weights at MAX_WEIGHT;
    about one in three drops a tree edge and so is disconnected."""
    n = rng.randint(30, 60)
    palette = rng.choice([(0, 1, 2), (0, 1, MAX_WEIGHT - 1, MAX_WEIGHT), (0, MAX_WEIGHT)])
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    if rng.randrange(3) == 0:
        edges.pop(rng.randrange(len(edges)))
    for _ in range(rng.randint(n // 3, n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    edges += rng.sample(edges, rng.randint(1, 8))  # parallel copies
    rng.shuffle(edges)
    return Graph(n, [(u, v, rng.choice(palette)) for u, v in edges])


def _glued_graph(rng):
    """Up to nine cyclic blocks (rings of 2..6 vertices, a 2-ring being a
    parallel pair, plus chords) glued at cut vertices, hung off bridges or
    started as new components, with pendant tree vertices; vertex labels
    and edge order are shuffled so the blocks interleave in index order."""
    palette = rng.choice([(0, 1, 2), (0, 1, MAX_WEIGHT - 1, MAX_WEIGHT), (0, MAX_WEIGHT), (1,)])
    n = 1
    edges = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if kind < 0.2:
            at = n  # new component
            n += 1
        elif kind < 0.5:
            at = n  # hangs off a bridge
            edges.append((rng.randrange(n), n))
            n += 1
        else:
            at = rng.randrange(n)  # glued at a cut vertex
        k = rng.randint(2, 6)
        ring = [at, *range(n, n + k - 1)]
        n += k - 1
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)] if k > 2 else [tuple(ring)] * 2
        for _ in range(rng.randint(0, 2)):
            edges.append(tuple(rng.sample(ring, 2)))
    for _ in range(rng.randint(0, 8)):  # pendant tree vertices
        edges.append((rng.randrange(n), n))
        n += 1
    label = list(range(n))
    rng.shuffle(label)
    rng.shuffle(edges)
    return Graph(n, [(label[u], label[v], rng.choice(palette)) for u, v in edges])


def _relabeled(g, rng):
    label = list(range(g.n))
    rng.shuffle(label)
    return Graph(g.n, [(label[e.u], label[e.v], e.w) for e in g.edges])


def _dense_graphs(seed, count):
    """Connected simple graphs on 16..24 vertices holding up to every pair,
    weights 1..8: most of their edges are non-geodesic."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(16, 24)
        yield random_graph_nm(rng, n, rng.randint(n - 1, n * (n - 1) // 2))


def _filtered_tight(g, pairs):
    """The tight list by definition: every Horton candidate ``is_tight`` keeps."""
    return [c for c in horton_candidates(g, pairs.table) if is_tight(c, pairs)]


def test_non_geodesic_edge_lies_in_exactly_one_tight_cycle():
    # An edge xy that is not itself the shortest x-y path P lies in exactly
    # one tight cycle, P + xy; every edge the 2-hop pre-test flags is one.
    graphs = [*_dense_graphs(2015, 25), *seeded_multigraphs(2015, 150)]
    non_geodesic = flagged = 0
    for g in graphs:
        pairs = apsp(g)
        tight = [c.mask for c in enumerate_tight_cycles(g).cycles]
        detours, _ = _block_adjacency(g.n, g.edges)
        for i, e in enumerate(g.edges):
            bit = 1 << i
            tie = pairs.table[e.u][e.v].tie
            if tie == bit:
                assert not detours & bit
                continue
            non_geodesic += 1
            flagged += bool(detours & bit)
            assert [mask for mask in tight if mask & bit] == [tie | bit]
    assert non_geodesic > flagged > 0  # both detection paths are exercised


def test_detour_of_three_edges_is_emitted_once(monkeypatch):
    # Only the unit path 0-1-2-3 beats the edge (0, 3) of weight 10, so the
    # 2-hop pre-test misses it and root 0 must catch it after its kernel run;
    # it then leaves the kernel runs of the later roots.
    seen = []

    def recording_kernel(adj, root, limit=None):
        seen.append(any(bit == 0b1000 for row in adj for _, _, bit in row))
        return shortest_path_keys(adj, root, limit)

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", recording_kernel)
    g = Graph(5, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10), (0, 4, 1), (1, 4, 1)])
    assert _block_adjacency(g.n, g.edges)[0] == 0
    enumerate_tight_cycles(g)
    assert seen == [True, False, False, False, False]
    detour_cycle = 0b1111
    rng = random.Random(2016)
    for h in (g, _relabeled(g, rng), _relabeled(g, rng)):
        pairs = apsp(h)
        got = enumerate_tight_cycles(h)
        assert [c.mask for c in got.cycles].count(detour_cycle) == 1
        assert [(c.base, c.mask) for c in got.cycles] == [
            (c.base, c.mask) for c in _filtered_tight(h, pairs)
        ]


def test_enumerate_invariant_under_vertex_relabeling():
    # Roots run in vertex order and each candidate is inserted at its lowest
    # vertex, so a relabeling changes which root inserts each cycle and which
    # root detects each non-geodesic edge; the tight list must still be the
    # pairwise filter's on the original labels.
    rng = random.Random(2012)
    graphs = [
        *seeded_multigraphs(2012, 80),
        *(_glued_graph(rng) for _ in range(60)),
        *_dense_graphs(2012, 12),
    ]
    for g in graphs:
        pairs = apsp(g)
        filtered = _filtered_tight(g, pairs)
        want = [(c.base, c.mask) for c in filtered]
        for h in (g, _relabeled(g, rng), _relabeled(g, rng)):
            got = enumerate_tight_cycles(h)
            assert [(c.base, c.mask) for c in got.cycles] == want
            assert got.total_length == sum(c.edge_count() for c in filtered)


def test_multiplicity_matches_pairwise_filter_past_oracle_budget():
    rng = random.Random(2010)
    graphs = [_hostile_graph(rng) for _ in range(40)] + [_glued_graph(rng) for _ in range(200)]
    for g in graphs:
        pairs = apsp(g)
        streamed = enumerate_tight_cycles(g)
        from_pairs = enumerate_tight_cycles(g, pairs)
        filtered = [c for c in horton_candidates(g, pairs.trees) if is_tight(c, pairs)]
        want = [(c.weight.base, c.mask) for c in filtered]
        assert [(c.weight.base, c.mask) for c in streamed.cycles] == want
        assert [(c.weight.base, c.mask) for c in from_pairs.cycles] == want
        assert streamed.total_length == from_pairs.total_length == sum(
            c.edge_count() for c in filtered
        )


def test_enumerate_runs_dijkstra_only_inside_cyclic_blocks(monkeypatch):
    calls = []

    def counting_kernel(adj, root, limit=None):
        calls.append(len(adj))
        return shortest_path_keys(adj, root, limit)

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", counting_kernel)
    path = path_graph(50)
    k4_tail = [(u, v, 1) for u in range(49, 53) for v in range(u + 1, 53)]
    # unit K4 at the end: every edge geodesic; vertices 0-2 and 56-59 lie
    # on no edge and join no block
    g = Graph(60, [(u + 3, v + 3, w) for u, v, w in [*path.edges, *k4_tail]])
    tcs = enumerate_tight_cycles(g)
    triangles = [(49, 50, 52), (49, 51, 53), (50, 51, 54), (52, 53, 54)]
    assert sorted(c.edge_indices() for c in tcs.cycles) == triangles
    assert calls == [4, 4, 4, 4]


def test_two_hop_detours_never_reach_the_kernel(monkeypatch):
    seen = []

    def recording_kernel(adj, root, limit=None):
        seen.append({bit for row in adj for _, _, bit in row})
        return shortest_path_keys(adj, root, limit)

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", recording_kernel)
    # a unit square with two diagonals that its 2-edge sides beat
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1), (0, 2, 5), (1, 3, 2)])
    assert _block_adjacency(g.n, g.edges)[0] == 0b110000
    tcs = enumerate_tight_cycles(g)
    assert [c.edge_indices() for c in tcs.cycles] == [(0, 1, 2, 3), (1, 2, 5), (0, 1, 4)]
    assert seen == [{1, 2, 4, 8}] * 4


@pytest.mark.parametrize(
    "palette", [(0,), (0, 1), tuple(range(1, 9)), (0, MAX_WEIGHT)], ids=["0", "01", "1-8", "0-max"]
)
def test_block_adjacency_holds_the_unflagged_edges(palette):
    """Each unflagged edge is one row in each endpoint's list, no flagged
    edge is in any, no row names a neighbour twice, and the kernel gives the
    same keys on these rows as on every edge."""
    rng = random.Random(2033)
    parallel = 0
    for _ in range(40):
        n = rng.randint(2, 14)
        ends = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 3 * n))]
        edges = [(u, v, rng.choice(palette)) for u, v in ends]
        edges += rng.sample(edges, rng.randint(0, min(4, len(edges))))  # parallel copies
        parallel += len({frozenset(e[:2]) for e in edges}) < len(edges)
        flagged, adj = _block_adjacency(n, edges)
        want = [[] for _ in range(n)]
        for i, (x, y, w) in enumerate(edges):
            if not flagged >> i & 1:
                want[x].append((y, w, 1 << i))
                want[y].append((x, w, 1 << i))
        assert [sorted(row) for row in adj] == [sorted(row) for row in want]
        assert all(len({y for y, _, _ in row}) == len(row) for row in adj)
        every_edge = weighted_adjacency(n, edges)
        assert all(
            shortest_path_keys(adj, r) == shortest_path_keys(every_edge, r) for r in range(n)
        )
    assert parallel > 20


def test_cyclic_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    graphs = []
    for _ in range(300):
        n = rng.randint(2, 30)
        graphs.append(random_graph_nm(rng, n, rng.randint(n - 1, min(2 * n, n * (n - 1) // 2))))
    # a forest, and three triangles, a square and a bridge joined at cut vertices 2, 3, 6 and 8
    graphs.append(Graph(12, [(0, 1, 1), (1, 2, 1), (3, 4, 2), (4, 5, 1), (4, 6, 3), (8, 9, 1)]))
    graphs.append(Graph(11, [
        (0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 1), (5, 6, 1),
        (3, 6, 1), (6, 7, 1), (7, 8, 1), (6, 8, 1), (8, 10, 4), (2, 9, 1), (9, 3, 1),
    ]))
    for g in graphs:
        index = {(min(e.u, e.v), max(e.u, e.v)): i for i, e in enumerate(g.edges)}
        nxg = nx.Graph()
        nxg.add_edges_from(index)
        expected = sorted(
            sorted(index[min(u, v), max(u, v)] for u, v in comp)
            for comp in nx.biconnected_component_edges(nxg)
            if len(comp) >= 2
        )
        assert sorted(_cyclic_blocks(g)) == expected


def test_enumerate_one_cycle_blocks_run_no_kernel(monkeypatch):
    def no_kernel(adj, root, limit=None):
        raise AssertionError("shortest-path tree built for a block that is one cycle")

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", no_kernel)
    path = path_graph(50)
    triangle = [(48, 50, 1), (49, 50, 1)]
    ring = [(10, 51, 2), (51, 52, 3), (52, 53, 1), (53, 54, 4), (54, 10, 5)]
    g = Graph(55, [*path.edges, *triangle, *ring])
    tcs = enumerate_tight_cycles(g)
    assert [(c.base, c.edge_indices()) for c in tcs.cycles] == [
        (3, (48, 49, 50)),
        (15, (51, 52, 53, 54, 55)),
    ]
    assert tcs.total_length == 8
    # a 20,000-edge ring is one such block; its mask is built in one pass
    n = 20_000
    tcs = enumerate_tight_cycles(Graph(n, [(i, (i + 1) % n, 1) for i in range(n)]))
    assert [(c.base, c.mask) for c in tcs.cycles] == [(n, (1 << n) - 1)]


def test_enumerate_long_path_has_no_recursion_limit():
    n = 100_000
    g = Graph(n, [*path_graph(n).edges, (n - 3, n - 1, 1)])
    tcs = enumerate_tight_cycles(g)
    assert [c.edge_indices() for c in tcs.cycles] == [(n - 3, n - 2, n - 1)]


def _is_simple_cycle(g, c):
    """Whether ``c`` is one simple cycle of ``g`` weighing ``c.base``: less one
    edge, its edges form one simple path between that edge's endpoints."""
    first, *rest = c.edge_indices()
    e = g.edges[first]
    path = helpers.simple_path(g.edges, c.mask ^ 1 << first, e.u)
    return path is not None and path[-1] == e.v and c.base == e.w + sum(g.edges[i].w for i in rest)


def _block_roots(g):
    """(n, edges, roots) of each cyclic block, the roots of the greedy on
    every edge under the annotation of the graph's elimination."""
    annotation = eliminate(g).annotation
    return [
        (n, edges, _feedback_vertex_set(weighted_adjacency(n, edges), [annotation[i] for i in block]))
        for block, n, edges in _local_blocks(g)
    ]


def _basis_runs(g, annotation):
    """(n, edges, classes, detours, roots, bounded) of each cyclic block that
    is not one cycle, as ``basis_cycles`` counts it under ``annotation``:
    ``classes`` are the block's edge annotations, ``detours`` the edges the
    2-hop pre-test flags, ``roots`` the greedy's on the adjacency of the
    other edges that the pre-test returns, and
    ``bounded`` maps the higher endpoint of each flagged edge with no
    endpoint in the roots to the heaviest such edge there, the limit of
    its one bounded kernel run."""
    out = []
    for block, n, edges in _local_blocks(g):
        if len(edges) == n:
            continue
        classes = [annotation[i] for i in block]
        detours, adj = _block_adjacency(n, edges)
        roots = _feedback_vertex_set(adj, classes)
        bounded = {}
        for i, (x, y, w) in enumerate(edges):
            if detours >> i & 1 and x not in roots and y not in roots:
                bounded[max(x, y)] = max(w, bounded.get(max(x, y), w))
        out.append((n, edges, classes, detours, roots, bounded))
    return out


def _recorded_runs(g, annotation):
    """``basis_cycles(g, annotation)`` and the (source, limit) of each of its
    kernel runs, the limit None on a full run."""
    runs = []

    def recording_kernel(adj, root, limit=None):
        runs.append((root, limit))
        return shortest_path_keys(adj, root, limit)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("minbasis.tight.shortest_path_keys", recording_kernel)
        return basis_cycles(g, annotation), runs


def _check_basis_cycles(g, elim=None):
    """Each block is counted under the annotations of ``elim``, by default
    the graph's own, from the roots Z of the greedy on the edges the 2-hop
    pre-test does not flag; it runs the kernel fully from Z and once,
    bounded, for the flagged edges at each vertex outside Z.  The list must
    hold every tight cycle of nonzero class (under the graph's own
    annotations, every tight cycle) and nothing but distinct simple cycles,
    and every cycle of G - Z less the flagged edges must have class 0
    (under the graph's own annotations, it is a forest).  Returns the
    number of bounded runs."""
    elim = elim or eliminate(g)
    rooted, runs = _recorded_runs(g, elim.annotation)
    keys = [(c.base, c.mask) for c in rooted]
    assert keys == sorted(set(keys))
    assert all(_is_simple_cycle(g, c) for c in rooted)
    listed = enumerate_tight_cycles(g).cycles
    # both lists take their weights from the kernel's keys, never off the mask
    assert all(c.base == cycle_from_mask(g, c.mask).base for c in [*rooted, *listed])
    assert {c.mask for c in listed if elim.remainder(c.mask)} <= {c.mask for c in rooted}
    blocks = _basis_runs(g, elim.annotation)
    want = [(r, None) for *_, roots, _ in blocks for r in roots]
    want += [run for *_, bounded in blocks for run in bounded.items()]
    assert Counter(runs) == Counter(want)
    for n, edges, classes, detours, roots, bounded in blocks:
        assert roots == sorted(set(roots)) and set(roots) <= set(range(n))
        assert not set(bounded) & set(roots)
        inside = [
            i for i, (x, y, _) in enumerate(edges)
            if x not in roots and y not in roots and not detours >> i & 1
        ]
        for c in fundamental_cycles(Graph(n, [edges[i] for i in inside])):
            a = 0
            for j in c.edge_indices():
                a ^= classes[inside[j]]
            assert not a, "a cycle of nonzero class avoids the roots"
    return sum(len(bounded) for *_, bounded in blocks)


@settings(max_examples=80, deadline=None)
@given(multigraphs())
def test_basis_cycles_hold_every_tight_cycle(g):
    _check_basis_cycles(g)


def _seeded_graphs():
    rng = random.Random(2021)
    return [
        *seeded_multigraphs(2021, 150),
        *(_glued_graph(rng) for _ in range(60)),
        *_dense_graphs(2021, 8),
    ]


def test_basis_cycles_hold_every_tight_cycle_on_seeded_graphs():
    # flagged edges with no root endpoint get their cycles from bounded runs
    assert sum(_check_basis_cycles(g) for g in _seeded_graphs()) > 0


def test_feedback_roots_match_the_recorded_lists():
    # under a graph's annotation every cycle has a nonzero class, so the
    # greedy keeps the roots of the plain forest greedy: the repr of every
    # block's roots on the seeded graphs (676 blocks), recorded before the
    # union-find carried potentials
    roots = [[r for _, _, r in _block_roots(g)] for g in _seeded_graphs()]
    text = repr(roots)
    assert text.startswith("[[[5, 9, 11]], [[3, 4], [1], [1]], [[1]], [[1], [2], [0], [1]], ")
    assert sum(map(len, roots)) == 676
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "49a1f66246d8ebc277341682e21ac43f20b74ecb599149c58c5a7e499ca0cd86"
    )


def test_only_blocks_off_edges_0_to_k_decode_their_masks(monkeypatch):
    # a block that is edges 0..k-1 keeps its local masks and the kernel's
    # weights as they are; only other blocks are lifted, one decode a mask
    calls = []

    def counting(real):
        def wrapper(x):
            calls.append(x)
            return real(x)

        return wrapper

    monkeypatch.setattr("minbasis.tight.bit_indices", counting(gf2.bit_indices))
    monkeypatch.setattr("minbasis.tight.bit_mask", counting(gf2.bit_mask))

    def decodes(g):
        calls.clear()
        basis_cycles(g, eliminate(g).annotation)
        enumerate_tight_cycles(g)
        return len(calls)

    # K4 is one block, and after it a pendant tree that no block holds
    pendant = Graph(8, [*k4().edges, (3, 4, 1), (4, 5, 2), (5, 6, 1), (4, 7, 3)])
    rng = random.Random(29)
    k9 = Graph(9, [(u, v, rng.randint(1, 8)) for v in range(9) for u in range(v)])
    assert [decodes(g) for g in (k4(), k23(), petersen(), k9, pendant)] == [0] * 5
    assert decodes(_glued_graph(random.Random(29))) > 0


def test_basis_cycles_run_the_kernel_from_the_roots_only(monkeypatch):
    runs = []

    def recording_kernel(adj, root, limit=None):
        runs.append(root)
        return shortest_path_keys(adj, root, limit)

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", recording_kernel)
    # K4: vertices 0 and 1 make the forest, and 2 and 3 each close a cycle in it
    g = k4()
    rooted = basis_cycles(g, eliminate(g).annotation)
    assert {c.mask for c in rooted} == canonical(enumerate_tight_cycles(g))
    assert runs == [2, 3, 0, 1, 2, 3]


def test_bounded_run_settles_the_level_of_its_limit():
    # The edge (2, 0) of weight 2 ties its detour 2-1-0 (weights 2 and 0) on
    # weight and loses on the bit set, so the pre-test flags it.  The other
    # edges form the square 2-1-0-3, whose greedy makes 3 its only root, so
    # the flagged edge has no root endpoint: its cycle comes from one run
    # from 2 bounded at 2, which reaches 0 only through the zero-weight edge
    # inside level 2, so that level must be settled before the run stops.
    g = Graph(4, [(2, 1, 2), (1, 0, 0), (2, 0, 2), (0, 3, 3), (3, 2, 3)])
    assert _block_adjacency(g.n, g.edges)[0] == 0b100
    rooted, runs = _recorded_runs(g, eliminate(g).annotation)
    assert runs == [(2, 2), (3, None)]
    assert [(c.base, c.mask) for c in rooted] == [(4, 0b111), (8, 0b11011)]
    assert [(c.base, c.mask) for c in rooted] == [
        (c.base, c.mask) for c in _filtered_tight(g, apsp(g))
    ]
    assert _check_basis_cycles(g) == 1


def test_one_pre_test_per_block(monkeypatch):
    # each block that is not one cycle runs the 2-hop pre-test, which builds
    # its one adjacency, once, before its roots are chosen, for both lists;
    # a block that is one cycle none
    calls = []

    def counting(n, edges):
        calls.append(n)
        return _block_adjacency(n, edges)

    monkeypatch.setattr("minbasis.tight._block_adjacency", counting)
    rng = random.Random(32)
    for g in (_glued_graph(rng) for _ in range(20)):
        blocks = [n for _, n, edges in _local_blocks(g) if len(edges) != n]
        calls.clear()
        basis_cycles(g, eliminate(g).annotation)
        assert calls == blocks
        calls.clear()
        enumerate_tight_cycles(g)
        assert calls == blocks

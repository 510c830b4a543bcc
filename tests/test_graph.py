import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from minbasis.errors import ParseError
from minbasis.fixtures import path_graph, random_graph_nm
from minbasis.graph import (
    MAX_WEIGHT,
    Graph,
    PerturbedWeight,
    apsp,
    component_count,
    cycle_from_mask,
    cyclomatic_number,
    eliminate,
    format_graph,
    fundamental_cycles,
    parse_graph,
    shortest_path_keys,
    spanning_forest,
    weighted_adjacency,
)


@st.composite
def small_graphs(draw, max_n=7, max_extra=5, max_w=5):
    n = draw(st.integers(2, max_n))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(0, v - 1))
        edges.append((u, v, draw(st.integers(0, max_w))))
    extra = draw(st.integers(0, max_extra))
    for _ in range(extra):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.append((min(u, v), max(u, v), draw(st.integers(0, max_w))))
    return Graph(n, edges)


@st.composite
def multigraphs(draw, max_n=12):
    """Multigraphs on 2..max_n vertices, often disconnected, with parallel
    edges and weights from a palette holding 0 and MAX_WEIGHT."""
    n = draw(st.integers(2, max_n))
    palettes = [(0, 1, 2), (0, 1, MAX_WEIGHT - 1, MAX_WEIGHT), (0, MAX_WEIGHT), (0,)]
    palette = draw(st.sampled_from(palettes))
    ends = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), st.sampled_from(palette))
    edges = [(u, (u + d) % n, w) for u, d, w in draw(st.lists(ends, max_size=3 * n))]
    copies = draw(st.lists(st.sampled_from(edges), max_size=4)) if edges else []
    return Graph(n, edges + [(u, v, draw(st.sampled_from(palette))) for u, v, _ in copies])


def seeded_multigraphs(seed, count):
    """Multigraphs on 2..24 vertices split into up to four components, with
    parallel edges and weights drawn from palettes holding 0 and MAX_WEIGHT."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 24)
        palette = rng.choice([(0, 1, 2), (0, 1, MAX_WEIGHT - 1, MAX_WEIGHT), (0, MAX_WEIGHT), (0,)])
        label = list(range(n))
        rng.shuffle(label)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        edges = []
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            comp = label[lo:hi]
            edges += [(comp[rng.randrange(i)], comp[i]) for i in range(1, len(comp))]
            if len(comp) > 1:
                edges += [tuple(rng.sample(comp, 2)) for _ in range(rng.randint(0, len(comp)))]
        edges += rng.sample(edges, rng.randint(0, min(4, len(edges))))  # parallel copies
        rng.shuffle(edges)
        yield Graph(n, [(u, v, rng.choice(palette)) for u, v in edges])


def test_graph_validation():
    for n, edges, message in (
        (-1, [], "vertex count must be non-negative"),
        (3, [(0, 1, 1), (0, 0, 1)], "edge 1: self-loops are not allowed"),
        (3, [(0, 3, 1)], "edge 0: endpoint out of range"),
        (3, [(-1, 2, 1)], "edge 0: endpoint out of range"),
        (3, [(0, 1, -1)], "edge 0: weight must be in [0, 2^63-1]"),
        (3, [(0, 1, MAX_WEIGHT + 1)], "edge 0: weight must be in [0, 2^63-1]"),
    ):
        with pytest.raises(ValueError) as exc:
            Graph(n, edges)
        assert str(exc.value) == message
    g = Graph(3, [(0, 1, 2), (0, 1, 5)])  # parallel edges allowed
    assert g.m == 2
    assert g.incident(0) == (0, 1)


def test_other_end_rejects_a_vertex_off_the_edge():
    with pytest.raises(ValueError) as exc:
        path_graph(3).other_end(0, 2)
    assert str(exc.value) == "vertex 2 not an endpoint of edge 0"


def test_perturbed_weight_order():
    a = PerturbedWeight(2, 0b011)
    b = PerturbedWeight(2, 0b100)
    assert a < b  # equal base, lower-indexed edge set wins
    assert PerturbedWeight(1, 0b1000) < a


def _keys(row):
    return [None if d is None else (d.base, d.tie) for d in row]


def test_dijkstra_path_graph():
    g = Graph(3, [(0, 1, 1), (1, 2, 1)])
    assert apsp(g).table[0][2] == PerturbedWeight(2, 0b11)


def test_dijkstra_four_cycle_tie_break():
    # Unit 4-cycle 0-1-2-3-0; from root 0 the antipodal vertex 2 ties on
    # weight and the lower-indexed edge set {0, 1} must win.
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    row = apsp(g).table[0]
    assert row[2] == PerturbedWeight(2, 0b0011)
    assert row[1] == PerturbedWeight(1, 0b0001)
    assert row[3] == PerturbedWeight(1, 0b1000)


def test_dijkstra_unreachable():
    g = Graph(4, [(0, 1, 1)])
    assert apsp(g).table[0] == [PerturbedWeight(0, 0), PerturbedWeight(1, 0b1), None, None]
    assert shortest_path_keys(weighted_adjacency(g.n, g.edges), 0) == ([0, 1, None, None], [0, 1, 0, 0])


@settings(max_examples=50, deadline=None)
@given(small_graphs())
def test_dijkstra_base_matches_bellman_ford(g):
    raw = [(e.u, e.v, e.w) for e in g.edges]
    table = apsp(g).table
    for root in range(g.n):
        assert _keys(table[root]) == helpers.keyed_bellman_ford(g.n, raw, root)


def test_dijkstra_trees_exact_on_multigraphs():
    for g in seeded_multigraphs(1987, 60):
        raw = [tuple(e) for e in g.edges]
        adj = weighted_adjacency(g.n, g.edges)
        pairs = apsp(g)
        assert pairs.trees is pairs.table
        for root in range(g.n):
            want = helpers.keyed_bellman_ford(g.n, raw, root)
            assert _keys(pairs.table[root]) == want
            base, tie = shortest_path_keys(adj, root)
            assert [None if b is None else (b, t) for b, t in zip(base, tie)] == want
            for v, key in enumerate(want):
                if key is not None:
                    path = helpers.simple_path(raw, key[1], root)
                    assert path is not None and path[-1] == v
                    assert len(path) == key[1].bit_count() + 1


class CountingAdjacency(list):
    """An adjacency that counts its ``adj[v]`` reads and keeps each v read."""

    reads = 0

    def __init__(self, rows):
        super().__init__(rows)
        self.read: set[int] = set()

    def __getitem__(self, v):
        self.reads += 1
        self.read.add(v)
        return super().__getitem__(v)


@pytest.mark.parametrize("weights", [(0, 0), (0, 1)])
@pytest.mark.parametrize("n, m", [(30, 90), (200, 1000)])
def test_dijkstra_processes_each_vertex_at_most_twice(n, m, weights):
    """Zero-weight edges keep their targets on one level, where they are
    settled in tie order, so a run reads at most 2n adjacency lists;
    re-queueing improved targets first-in first-out gives the same keys
    from O(n·m) reads."""
    for seed in (1, 2):
        g = random_graph_nm(random.Random(seed), n, m, weights=weights)
        raw = [tuple(e) for e in g.edges]
        adj = CountingAdjacency(weighted_adjacency(n, g.edges))
        for root in range(n):
            adj.reads = 0
            base, tie = shortest_path_keys(adj, root)
            assert adj.reads <= 2 * n
            if root % (n // 10) == 0:
                want = helpers.keyed_bellman_ford(n, raw, root)
                assert [None if b is None else (b, t) for b, t in zip(base, tie)] == want


@pytest.mark.parametrize(
    "palette", [(0,), (0, 1), tuple(range(1, 9)), (0, MAX_WEIGHT)], ids=["0", "01", "1-8", "0-max"]
)
def test_bounded_run_is_exact_up_to_its_limit(palette):
    """A run with a ``limit`` gives the unbounded run's keys on every vertex
    whose base is at most ``limit``, and reads no adjacency row of a vertex
    whose base is above it."""
    rng = random.Random(2032)
    for _ in range(25):
        n = rng.randint(2, 14)
        ends = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 3 * n))]
        edges = [(u, v, rng.choice(palette)) for u, v in ends]
        edges += rng.sample(edges, rng.randint(0, min(4, len(edges))))  # parallel copies
        adj = CountingAdjacency(weighted_adjacency(n, edges))
        for root in range(n):
            want_base, want_tie = shortest_path_keys(adj, root)
            for limit in {0, *(b for b in want_base if b is not None)}:
                adj.read.clear()
                base, tie = shortest_path_keys(adj, root, limit)
                within = {v for v, b in enumerate(want_base) if b is not None and b <= limit}
                assert all((base[v], tie[v]) == (want_base[v], want_tie[v]) for v in within)
                assert adj.read <= within


def test_apsp_triangle_and_star():
    tri = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    table = apsp(tri).table
    for u in range(3):
        for v in range(3):
            assert table[u][v].base == (0 if u == v else 1)
    star = Graph(4, [(0, 1, 1), (0, 2, 1), (0, 3, 1)])
    table = apsp(star).table
    assert table[1][2].base == table[2][3].base == 2
    assert table[0][3].base == 1


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_apsp_symmetric_and_matches_floyd_warshall(g):
    raw = [(e.u, e.v, e.w) for e in g.edges]
    pairs = apsp(g)
    fw = helpers.floyd_warshall(g.n, raw)
    for u in range(g.n):
        for v in range(g.n):
            assert pairs.table[u][v] == pairs.table[v][u]
            if fw[u][v] is None:
                assert pairs.table[u][v] is None
            else:
                assert pairs.table[u][v].base == fw[u][v]


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_n=6, max_extra=4))
def test_perturbed_shortest_paths_are_unique_minima(g):
    raw = [(e.u, e.v, e.w) for e in g.edges]
    pairs = apsp(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            paths = helpers.all_simple_paths(g.n, raw, u, v)
            if not paths:
                assert pairs.table[u][v] is None
                continue
            keys = sorted(helpers.path_key(raw, p) for p in paths)
            assert keys[0] == (pairs.table[u][v].base, pairs.table[u][v].tie)
            # distinct paths have distinct keys, so the minimum is unique
            if len(keys) > 1:
                assert keys[0] != keys[1]


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_n=6))
def test_tie_break_consistent_between_roots(g):
    table = apsp(g).table
    for u in range(g.n):
        for v in range(g.n):
            if table[u][v] is not None:
                assert table[u][v].tie == table[v][u].tie


def test_unit_weight_distances_match_bfs_depth():
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 5, 1), (5, 4, 1)])
    row = apsp(g).table[0]
    from collections import deque

    depth = {0: 0}
    dq = deque([0])
    while dq:
        v = dq.popleft()
        for e_idx in g.incident(v):
            o = g.other_end(e_idx, v)
            if o not in depth:
                depth[o] = depth[v] + 1
                dq.append(o)
    for v, d in depth.items():
        assert row[v].base == d


def test_cyclomatic_number():
    tree = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert cyclomatic_number(tree) == 0
    tri2 = Graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])
    assert cyclomatic_number(tri2) == 2
    assert component_count(tri2) == 2


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_cyclomatic_matches_connected_formula(g):
    assert cyclomatic_number(g) == g.m - g.n + component_count(g)


def test_spanning_forest_and_fundamental_cycles():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (0, 3, 1)])
    tree, nontree = spanning_forest(g)
    assert len(tree) == 3 and len(nontree) == 2
    cycles = fundamental_cycles(g)
    assert len(cycles) == len(nontree)
    for c, e_idx in zip(cycles, nontree):
        assert c.mask >> e_idx & 1


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_fundamental_cycles_are_independent_even_subgraphs(g):
    cycles = fundamental_cycles(g)
    assert len(cycles) == cyclomatic_number(g)
    from minbasis.gf2 import Gf2Matrix, rank

    if cycles:
        m = Gf2Matrix(g.m, [c.edge_set for c in cycles])
        assert rank(m) == len(cycles)


def test_fundamental_cycle_is_its_edge_plus_the_forest_path():
    """The only even subgraph made of one non-tree edge and forest edges is
    that edge plus the forest path between its endpoints."""
    for g in seeded_multigraphs(2012, 200):
        nontree = spanning_forest(g)[1]
        off_tree = sum(1 << e for e in nontree)
        cycles = fundamental_cycles(g)
        assert len(cycles) == len(nontree)
        for c, e_idx in zip(cycles, nontree):
            assert c.mask & off_tree == 1 << e_idx
            assert cycle_from_mask(g, c.mask) == c


def test_a_graph_eliminates_to_unit_annotations():
    """A graph is a complex with no triangles: its elimination keeps no
    boundary, leaves rank nu, and gives each non-tree edge its own bit as
    its class and every tree edge 0."""
    for g in seeded_multigraphs(2023, 200):
        nontree = spanning_forest(g)[1]
        elim = eliminate(g)
        assert elim.nontree == nontree and elim.cut == sum(1 << e for e in nontree)
        assert elim.kept == () and elim.rank == cyclomatic_number(g)
        assert elim.annotation == [1 << e & elim.cut for e in range(g.m)]


def test_fundamental_cycles_memory_stays_linear_on_a_long_path():
    """A 20,000-vertex path closed by one chord: no vertex may keep an
    edge mask of its whole root path, which would take about 25 MiB."""
    n = 20_000
    g = Graph(n, [(i, i + 1, 1) for i in range(n - 1)] + [(0, n - 1, 1)])
    tracemalloc.start()
    try:
        cycles = fundamental_cycles(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.mask for c in cycles] == [(1 << n) - 1]
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_cycle_from_mask_rejects_odd_degree():
    g = Graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(ValueError):
        cycle_from_mask(g, 0b011)
    c = cycle_from_mask(g, 0b111)
    assert c.weight == PerturbedWeight(3, 0b111)
    with pytest.raises(ValueError, match="edge mask out of range"):
        cycle_from_mask(g, 0b1111)
    # a 40,000-edge ring decodes to every edge index with the right weight
    n = 40_000
    ring = Graph(n, [(i, (i + 1) % n, i % 3) for i in range(n)])
    c = cycle_from_mask(ring, (1 << n) - 1)
    assert c.base == sum(i % 3 for i in range(n)) and c.edge_indices() == tuple(range(n))


def test_parse_round_trip_and_errors():
    g = Graph(3, [(0, 1, 2), (1, 2, 3)])
    text = format_graph(g, comment="demo")
    g2 = parse_graph(text)
    assert g2.n == 3 and [tuple(e) for e in g2.edges] == [(0, 1, 2), (1, 2, 3)]

    # every message parse_graph raises, word for word
    for text, message in (
        ("nonsense 1 2\n", "line 1: expected header 'graph <n> <m>'"),
        ("\n# c\ngraph 2\n", "line 3: expected header 'graph <n> <m>'"),
        ("graph x 1\n", "line 1: non-integer header field"),
        ("graph 2 -1\n", "line 1: negative count in header"),
        ("graph 2 1\nf 0 1 1\n", "line 2: expected 'e <u> <v> <w>'"),
        ("graph 2 1\ne 0 1\n", "line 2: expected 'e <u> <v> <w>'"),
        ("graph 2 1\ne 0 x 1\n", "line 2: non-integer edge field"),
        ("graph 2 1\ne 0 2 1\n", "line 2: endpoint out of range [0, 2)"),
        ("graph 2 1\ne -1 1 1\n", "line 2: endpoint out of range [0, 2)"),
        ("graph 2 1\ne 1 1 1\n", "line 2: self-loop not allowed"),
        ("graph 2 1\n# fine\ne 0 1 -2\n", "line 3: weight out of range"),
        (f"graph 2 1\ne 0 1 {MAX_WEIGHT + 1}\n", "line 2: weight out of range"),
        ("graph 2 1\ne 0 1 1\ne 1 0 1\n", "line 3: more than 1 edges declared"),
        ("# only comments\n", "line 1: missing 'graph <n> <m>' header"),
        ("graph 2 1\n", "expected 1 edges, found 0"),
    ):
        with pytest.raises(ParseError) as exc:
            parse_graph(text)
        assert str(exc.value) == message


# int() alone reads each of these: an underscore separator, Arabic-Indic
# three, fullwidth three, Devanagari one.
NON_ASCII_INTS = ("1_0", "\u0663", "\uff13", "\u0967")


@pytest.mark.parametrize("field", NON_ASCII_INTS)
def test_parse_rejects_non_ascii_integer_fields(field):
    with pytest.raises(ParseError, match="line 1: non-integer header field"):
        parse_graph(f"graph {field} 0\n")
    with pytest.raises(ParseError, match="line 1: non-integer header field"):
        parse_graph(f"graph 3 {field}\n")
    for edge in (f"{field} 1 1", f"0 {field} 1", f"0 1 {field}"):
        with pytest.raises(ParseError, match="line 2: non-integer edge field"):
            parse_graph(f"graph 20 1\ne {edge}\n")


def test_parse_accepts_signed_ascii_integers_and_non_ascii_comments():
    g = parse_graph("# gr\u00e4ph \u0663\ngraph +3 +1\ne 0 +2 007\n")
    assert g.n == 3 and [tuple(e) for e in g.edges] == [(0, 2, 7)]

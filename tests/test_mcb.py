import random

import pytest
from hypothesis import given, settings

import helpers
from minbasis.errors import InfeasibleSupportError, InternalInvariantError
from minbasis.fixtures import (
    c5,
    k4,
    path_graph,
    petersen,
    random_connected_graph,
    random_graph_nm,
    two_triangles,
)
from minbasis.gf2 import Gf2Matrix, Gf2Vector, inner_product, rank
from minbasis.graph import Graph, apsp, cyclomatic_number, spanning_forest
from minbasis.mcb import _kavitha_update, mcb_depina, mcb_earliest, mcb_kavitha
from minbasis.oracle import brute_mcb
from minbasis.tight import TightCycleSet, enumerate_tight_cycles, is_tight

from test_graph import multigraphs, seeded_multigraphs, small_graphs

ALL_ENGINES = [mcb_earliest, mcb_depina, mcb_kavitha]


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_tree_gives_empty_basis(engine):
    report = engine(path_graph(5))
    assert report.cycles == [] and report.total_weight == 0


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_k4_weight_nine(engine):
    report = engine(k4())
    assert report.total_weight == 9
    assert report.weight_multiset() == (3, 3, 3)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_petersen_six_five_cycles(engine):
    report = engine(petersen())
    assert report.total_weight == 30
    assert report.weight_multiset() == (5,) * 6


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_disconnected_graph(engine):
    report = engine(two_triangles())
    assert report.total_weight == 6
    assert len(report.cycles) == 2


def test_single_cycle_graph_all_engines():
    for engine in ALL_ENGINES:
        report = engine(c5())
        assert report.total_weight == 5
        assert len(report.cycles) == 1


def test_min_weight_odd_cycle_examples():
    g = c5()
    tcs = enumerate_tight_cycles(g)
    tree_edges, _ = spanning_forest(g)
    s = Gf2Vector(g.m, 1 << tree_edges[0])
    assert helpers.min_weight_odd_cycle(tcs, s).edge_count() == 5
    with pytest.raises(ValueError):
        helpers.min_weight_odd_cycle(tcs, Gf2Vector(g.m, 0))


def test_min_weight_odd_cycle_matches_linear_scan_oracle():
    rng = random.Random(21)
    for _ in range(15):
        g = random_connected_graph(rng, max_n=8, max_extra=5)
        tcs = enumerate_tight_cycles(g)
        if not tcs.cycles:
            continue
        for _ in range(5):
            s_bits = rng.randrange(1, 1 << g.m)
            s = Gf2Vector(g.m, s_bits)
            want = None
            for c in sorted(tcs.cycles, key=lambda c: c.weight):
                if (c.mask & s_bits).bit_count() & 1:
                    want = c
                    break
            assert helpers.min_weight_odd_cycle(tcs, s) is want


def test_min_weight_odd_cycle_infeasible_support():
    # triangle plus a pendant bridge; no cycle touches the bridge edge
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)])
    tcs = enumerate_tight_cycles(g)
    s = Gf2Vector(g.m, 1 << 3)
    assert helpers.min_weight_odd_cycle(tcs, s) is None


@pytest.mark.parametrize("engine", [mcb_depina, mcb_kavitha])
def test_support_engines_reject_a_tight_set_that_does_not_span(engine):
    """A support vector whose parity row is empty has no odd tight cycle.

    The triangle and the square share vertex 2, so their two cycles are
    the whole tight list and each one alone spans too little.
    """
    g = Graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (2, 5, 1)])
    tcs = enumerate_tight_cycles(g)
    assert [c.edge_count() for c in tcs.cycles] == [3, 4]
    for kept in ([tcs.cycles[0]], [tcs.cycles[1]], []):
        subset = TightCycleSet(kept)
        with pytest.raises(InfeasibleSupportError):
            engine(g, subset)


def certificate_holds(report, m):
    cert = report.certificate
    assert cert is not None and len(cert) == len(report.cycles)
    for i, s in enumerate(cert):
        assert s.length == m
        assert inner_product(report.cycles[i].edge_set, s) == 1
        for j in range(i):
            assert inner_product(report.cycles[j].edge_set, s) == 0


@pytest.mark.parametrize("engine", [mcb_depina, mcb_kavitha])
def test_certificate_conditions_on_fixtures(engine):
    for g in (k4(), petersen(), two_triangles(), c5()):
        report = engine(g)
        certificate_holds(report, g.m)


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_engines_agree_and_match_oracle(g):
    reports = [engine(g) for engine in ALL_ENGINES]
    oracle_report = brute_mcb(g)
    for r in reports:
        assert r.total_weight == oracle_report.total_weight
        assert r.weight_multiset() == oracle_report.weight_multiset()
    # distinct tie-broken weights make the minimum basis unique as a set
    mask_sets = {frozenset(c.mask for c in r.cycles) for r in reports}
    assert len(mask_sets) == 1


@settings(max_examples=20, deadline=None)
@given(small_graphs())
def test_certificates_on_random_graphs(g):
    for engine in (mcb_depina, mcb_kavitha):
        certificate_holds(engine(g), g.m)


@settings(max_examples=20, deadline=None)
@given(small_graphs())
def test_basis_invariants(g):
    nu = cyclomatic_number(g)
    pairs = apsp(g)
    tight_masks = {c.mask for c in enumerate_tight_cycles(g, pairs).cycles}
    for engine in ALL_ENGINES:
        report = engine(g)
        assert len(report.cycles) == nu
        assert report.total_weight == sum(c.weight.base for c in report.cycles)
        if nu:
            matrix = Gf2Matrix(g.m, [c.edge_set for c in report.cycles])
            assert rank(matrix) == nu
        for c in report.cycles:
            assert c.mask in tight_masks
            assert is_tight(c, pairs)


def test_engines_accept_precomputed_tight_set():
    g = petersen()
    tcs = enumerate_tight_cycles(g)
    for engine in ALL_ENGINES:
        assert engine(g, tcs).total_weight == 30


def test_depina_and_kavitha_pick_the_same_cycles_in_order():
    """Both engines pick with the same support vector at every step.

    At step i the support vector lies in e_i + span(e_0..e_{i-1}) over the
    non-tree edges and is orthogonal to the i cycles picked before; these
    conditions fix it, so the picks and the final vectors coincide.
    """
    for g in seeded_multigraphs(2004, 200):
        tcs = enumerate_tight_cycles(g)
        dp, kv = mcb_depina(g, tcs), mcb_kavitha(g, tcs)
        assert [c.mask for c in dp.cycles] == [c.mask for c in kv.cycles]
        assert [s.bits for s in dp.certificate] == [s.bits for s in kv.certificate]
        certificate_holds(dp, g.m)


@pytest.mark.parametrize(
    "seed, m", [(1, 600), (2, 600), (3, 1600)], ids=["1", "2", "3"]
)
def test_support_engines_agree_with_earliest_on_dense_graphs(seed, m):
    """nu = 537 and nu = 1537 on 64 vertices, far past the oracle budget.

    At m = 600 kavitha's top blocks hold about 270 vectors, so its block
    step runs on wide parity rows.  m = 1600 is the benchmark's dense
    shape, where depina reads its column index over about 1500 rows.  The
    engines' certificates are equal, so certifying depina's certifies
    both; at nu = 1537 that is about 1.2 million inner products.
    """
    g = random_graph_nm(random.Random(seed), 64, m)
    tcs = enumerate_tight_cycles(g)
    dp, kv = mcb_depina(g, tcs), mcb_kavitha(g, tcs)
    assert len(dp.cycles) == cyclomatic_number(g) == m - 63
    assert [c.mask for c in dp.cycles] == [c.mask for c in kv.cycles]
    assert [s.bits for s in dp.certificate] == [s.bits for s in kv.certificate]
    assert {c.mask for c in dp.cycles} == {c.mask for c in mcb_earliest(g, tcs).cycles}
    certificate_holds(dp, g.m)


@pytest.mark.parametrize("engine", [mcb_depina, mcb_kavitha])
def test_every_pick_is_the_lightest_odd_tight_cycle(engine):
    """Step i picks the lightest tight cycle odd against its support vector.

    Later steps change only the vectors after i, so the certificate holds
    the vector each step picked with.  The engines pick by the lowest bit
    of a parity row; ``helpers.min_weight_odd_cycle`` scans the tight list with
    one popcount per cycle, so it checks them independently.  The dense
    graphs (nu = 91) are past the brute-force oracle's budget.
    """
    dense = (random_graph_nm(random.Random(seed), 30, 120) for seed in range(5))
    for g in (*seeded_multigraphs(2005, 100), *dense):
        tcs = enumerate_tight_cycles(g)
        report = engine(g, tcs)
        for i, s in enumerate(report.certificate):
            assert helpers.min_weight_odd_cycle(tcs, s) is report.cycles[i]


def test_kavitha_block_step_rejects_a_pick_off_the_diagonal():
    """Picking a cycle its own support vector is even against leaves the
    block's column without its diagonal bit; substitution could never
    clear a row from that bit, so the block step must refuse."""
    support = [0b01, 0b10]
    parity = [0b01, 0b10]  # vector i is odd against tight cycle i only
    with pytest.raises(InternalInvariantError, match="block inner-product matrix is singular"):
        _kavitha_update(support, parity, lambda i: 1)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engines_reject_tight_set_of_another_graph(engine):
    tcs = enumerate_tight_cycles(k4())
    wider = Graph(4, [*((e.u, e.v, e.w) for e in k4().edges), (0, 1, 5)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        engine(wider, tcs)


@pytest.mark.parametrize("engine", ALL_ENGINES)
def test_engines_reject_a_tight_set_out_of_weight_order(engine):
    # the engines read the list in order: read reversed, this one would
    # give a basis of weight 76 against the oracle's 69
    rng = random.Random(3)
    random_connected_graph(rng, 6, 10, 8)
    g = random_connected_graph(rng, 6, 10, 8)
    assert (g.n, g.m, brute_mcb(g).total_weight) == (7, 10, 69)
    cycles = enumerate_tight_cycles(g).cycles
    assert engine(g, TightCycleSet(cycles)).total_weight == 69
    for listed in (cycles[::-1], cycles[:1] + cycles):  # reversed; a repeat
        with pytest.raises(ValueError, match="not strictly sorted"):
            engine(g, TightCycleSet(listed))


def test_parallel_edge_graph():
    g = Graph(2, [(0, 1, 2), (0, 1, 3), (0, 1, 7)])
    oracle_report = brute_mcb(g)
    for engine in ALL_ENGINES:
        report = engine(g)
        assert report.total_weight == oracle_report.total_weight == 2 + 3 + 2 + 7


def test_disconnected_random_graphs_match_oracle():
    rng = random.Random(31)
    for _ in range(10):
        parts = []
        offset = 0
        n_parts = rng.randint(2, 3)
        for _ in range(n_parts):
            g = random_connected_graph(rng, min_n=3, max_n=5, max_extra=3)
            parts.append((g, offset))
            offset += g.n
        edges = [
            (e.u + off, e.v + off, e.w) for g, off in parts for e in g.edges
        ]
        union = Graph(offset + 1, edges)  # plus one isolated vertex
        want = brute_mcb(union)
        for engine in ALL_ENGINES:
            report = engine(union)
            assert report.total_weight == want.total_weight
            assert report.weight_multiset() == want.weight_multiset()


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_engines_report_the_same_on_basis_cycles_and_the_tight_list(g):
    # by default the engines read basis_cycles, the cycles counted from a
    # feedback vertex set, which hold every tight cycle and maybe a few more
    tight = enumerate_tight_cycles(g)
    for engine in ALL_ENGINES:
        assert engine(g) == engine(g, tight)


@pytest.mark.parametrize("seed, n, m", [(0, 30, 75), (1, 25, 80), (2, 40, 85)])
def test_earliest_weights_match_networkx(seed, n, m):
    # an independent reference on simple graphs past the oracle's budget
    # (nu = 46..56): a tight cycle the enumerator dropped would show here
    nx = pytest.importorskip("networkx")
    g = random_graph_nm(random.Random(seed), n, m)
    G = nx.Graph()
    G.add_weighted_edges_from(g.edges)
    assert G.number_of_edges() == g.m
    weights = []
    for cycle in nx.minimum_cycle_basis(G, weight="weight"):
        # on these positive weights networkx lists each cycle's vertices in
        # order around it; a pair out of order would raise KeyError here
        weights.append(sum(G[a][b]["weight"] for a, b in zip(cycle, cycle[1:] + cycle[:1])))
    assert mcb_earliest(g).weight_multiset() == tuple(sorted(weights))

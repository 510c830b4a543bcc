import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from minbasis.fixtures import (
    annulus,
    filled_triangle,
    hollow_triangle,
    mobius_strip,
    random_complex,
    torus_seven,
)
from minbasis.gf2 import Gf2Matrix, rank
from minbasis.graph import (
    Cycle,
    Edge,
    Graph,
    apsp,
    cycle_from_mask,
    eliminate,
    fundamental_cycles,
    shortest_path_keys,
    weighted_adjacency,
)
from minbasis.mcb import ENGINES, BasisReport, mcb_earliest
from minbasis.mhb import homologous, mhb_tight, mhb_via_mcb
from minbasis.oracle import brute_mhb
from minbasis.simplicial import (
    SimplicialComplex,
    boundary_matrix,
    homology_profile,
    skeleton,
)
from minbasis.tight import _feedback_vertex_set, _local_blocks, enumerate_tight_cycles, is_tight

from test_graph import seeded_multigraphs
from test_tight import _basis_runs, _check_basis_cycles

ALL_FIXTURES = [
    hollow_triangle,
    filled_triangle,
    mobius_strip,
    torus_seven,
    annulus,
]


def test_no_triangles_equals_mcb():
    k = hollow_triangle()
    report = mhb_tight(k)
    basis = mcb_earliest(skeleton(k))
    assert report.total_weight == basis.total_weight == 3
    assert {c.mask for c in report.cycles} == {c.mask for c in basis.cycles}
    via = mhb_via_mcb(k)
    assert via.total_weight == 3
    assert via.boundary_profile == ()
    # a graph is a complex with no triangles: one elimination and one scan
    # give its minimum cycle basis, cycle for cycle and in the same order
    # (seeded multigraphs less their parallel edges, as a complex has none)
    for g in seeded_multigraphs(2023, 150):
        first = {}
        for e in g.edges:
            first.setdefault(frozenset(e[:2]), e)
        k = SimplicialComplex(g.n, tuple(first.values()), ())
        assert replace(mhb_tight(k), engine="earliest") == mcb_earliest(skeleton(k))


def _filled_grid_disk(side: int) -> SimplicialComplex:
    """A side x side vertex grid, every square split into two triangles."""
    edges, triangles = [], []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side:
                edges.append(Edge(v, v + 1, 1))
            if i + 1 < side:
                edges.append(Edge(v, v + side, 1))
            if i + 1 < side and j + 1 < side:
                edges.append(Edge(v, v + side + 1, 1))
                triangles += [(v, v + 1, v + side + 1), (v, v + side, v + side + 1)]
    return SimplicialComplex(side * side, tuple(edges), tuple(triangles))


def test_filled_triangle_empty_basis(monkeypatch):
    for engine in (mhb_tight, mhb_via_mcb):
        report = engine(filled_triangle())
        assert report.cycles == [] and report.total_weight == 0
        assert report.boundary_profile == (0,)

    # beta1 = 0 is known from the boundary rank, so no engine runs the kernel
    def no_kernel(adj, root, limit=None):
        raise AssertionError("shortest-path kernel run for a complex with beta1 = 0")

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", no_kernel)
    disk = _filled_grid_disk(15)
    assert disk.n2 == 392 and homology_profile(disk).beta1 == 0
    for report in (mhb_tight(disk), mhb_via_mcb(disk), mhb_via_mcb(disk, "kavitha")):
        assert report.cycles == [] and report.total_weight == 0
        assert report.boundary_profile == tuple(range(392))


def test_torus_two_triangles_weight_six():
    for engine in (mhb_tight, mhb_via_mcb):
        report = engine(torus_seven())
        assert len(report.cycles) == 2
        assert report.total_weight == 6
        assert report.weight_multiset() == (3, 3)
        assert len(report.boundary_profile) == 13


def test_mobius_weight_three():
    for engine in (mhb_tight, mhb_via_mcb):
        report = engine(mobius_strip())
        assert report.total_weight == 3
        assert len(report.cycles) == 1


def test_annulus_weight_three():
    for engine in (mhb_tight, mhb_via_mcb):
        assert engine(annulus()).total_weight == 3


def test_invalid_complex_rejected():
    with pytest.raises(ValueError, match="missing edge"):
        SimplicialComplex(3, (Edge(0, 1, 1),), ((0, 1, 2),))
    with pytest.raises(ValueError):
        mhb_via_mcb(hollow_triangle(), mcb_engine="nonsense")


def test_engine_agreement_on_random_complexes():
    rng = random.Random(17)
    for _ in range(25):
        k = random_complex(rng)
        a = mhb_tight(k)
        b = mhb_via_mcb(k)
        oracle_report = brute_mhb(k)
        assert a.total_weight == b.total_weight == oracle_report.total_weight
        assert (
            a.weight_multiset()
            == b.weight_multiset()
            == oracle_report.weight_multiset()
        )
        assert len(a.cycles) == homology_profile(k).beta1
        # the MCB is unique under the tie-broken order, and each tight cycle
        # the tight scan keeps lies in it, so both scans keep the same cycles
        chosen = [c.mask for c in a.cycles]
        assert all([c.mask for c in mhb_via_mcb(k, e).cycles] == chosen for e in ENGINES)


def test_via_mcb_cycles_come_from_the_mcb_and_tight_set():
    rng = random.Random(23)
    complexes = [torus_seven(), mobius_strip(), annulus()]
    complexes += [random_complex(rng) for _ in range(10)]
    for k in complexes:
        g = skeleton(k)
        pairs = apsp(g)
        tight_masks = {c.mask for c in enumerate_tight_cycles(g, pairs).cycles}
        mcb_masks = {c.mask for c in mcb_earliest(g).cycles}
        via = mhb_via_mcb(k)
        for c in via.cycles:
            assert c.mask in mcb_masks
        for mask in mcb_masks:
            assert mask in tight_masks
        for c in mhb_tight(k).cycles:
            assert c.mask in tight_masks
            assert is_tight(c, pairs)


def test_weight_matching_against_oracle_elementwise():
    rng = random.Random(29)
    for _ in range(15):
        k = random_complex(rng)
        got = mhb_tight(k).weight_multiset()
        want = brute_mhb(k).weight_multiset()
        assert got == want


def test_independence_modulo_boundaries():
    for build in ALL_FIXTURES:
        k = build()
        report = mhb_tight(k)
        d2 = boundary_matrix(k, 2)
        combined = Gf2Matrix(
            k.m, list(d2.columns) + [c.edge_set for c in report.cycles]
        )
        assert rank(combined) - rank(d2) == len(report.cycles)


def test_boundary_profile_is_earliest_boundary_basis():
    k = torus_seven()
    report = mhb_tight(k)
    d2 = boundary_matrix(k, 2)
    from minbasis.gf2 import column_rank_profile

    assert report.boundary_profile == column_rank_profile(d2).indices


def test_triangle_permutation_leaves_homology_basis_alone():
    # the split between boundary and cycle columns matters, the internal
    # order of the boundary block does not
    k = torus_seven()
    base = mhb_tight(k)
    rng = random.Random(5)
    tris = list(k.triangles)
    for _ in range(5):
        rng.shuffle(tris)
        shuffled = SimplicialComplex(k.n, k.edges, tuple(tris))
        report = mhb_tight(shuffled)
        assert report.total_weight == base.total_weight
        assert {c.mask for c in report.cycles} == {c.mask for c in base.cycles}


def test_homologous_examples():
    k = hollow_triangle()
    g = skeleton(k)
    tri = cycle_from_mask(g, 0b111)
    empty = cycle_from_mask(g, 0)
    assert homologous(k, tri, tri)
    assert not homologous(k, tri, empty)

    filled = filled_triangle()
    g2 = skeleton(filled)
    tri2 = cycle_from_mask(g2, 0b111)
    empty2 = cycle_from_mask(g2, 0)
    assert homologous(filled, tri2, empty2)


def test_homologous_rejects_non_cycles():
    k = filled_triangle()
    g = skeleton(k)
    z = cycle_from_mask(g, 0b111)
    bad = cycle_from_mask(g, 0)
    object.__setattr__(bad, "mask", 0b001)  # single edge: odd degrees
    with pytest.raises(ValueError, match="odd degree"):
        homologous(k, z, bad)
    with pytest.raises(ValueError, match="z2: edge mask out of range"):
        homologous(k, z, Cycle(0b1111, 3, k.m))
    with pytest.raises(ValueError) as exc:
        homologous(hollow_triangle(), Cycle(0b111, 3, 4), z)
    assert str(exc.value) == "z1: edge-vector length 4 != 3"


def test_mhb_of_disconnected_complex():
    # hollow triangle plus a separate filled triangle plus isolated vertex
    k = SimplicialComplex(
        7,
        (
            Edge(0, 1, 2), Edge(1, 2, 2), Edge(0, 2, 2),
            Edge(3, 4, 1), Edge(4, 5, 1), Edge(3, 5, 1),
        ),
        ((3, 4, 5),),
    )
    for engine in (mhb_tight, mhb_via_mcb):
        report = engine(k)
        assert report.total_weight == 6
        assert len(report.cycles) == 1
    assert brute_mhb(k).total_weight == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_mhb_tight_on_basis_cycles_matches_the_tight_profile(seed):
    _check_reports(random_complex(random.Random(seed), 3, 12))


def _check_reports(k):
    # mhb_tight scans basis_cycles, counted from the homology roots; its
    # report must be the rank profile over the full tight list, and via-mcb's
    g = skeleton(k)
    report = mhb_tight(k)
    elim = eliminate(g, k.boundaries)
    tight = elim.earliest(lambda: enumerate_tight_cycles(g).cycles)
    assert report == BasisReport("tight", tight, boundary_profile=elim.kept)
    assert report == replace(mhb_via_mcb(k), engine="tight")


def _holed_torus(rng, side, keep, weights=(1, 9)):
    """Triangulated side x side torus grid, each triangle kept with
    probability ``keep``, weights drawn from the range ``weights``, edges
    in shuffled order."""
    vid = lambda i, j: (i % side) * side + j % side
    edges, triangles = [], []
    for i in range(side):
        for j in range(side):
            a, right, down, diag = vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)
            edges += [Edge(a, b, rng.randint(*weights)) for b in (right, down, diag)]
            triangles += [t for t in ((a, right, diag), (a, down, diag)) if rng.random() < keep]
    rng.shuffle(edges)
    return SimplicialComplex(side * side, tuple(edges), tuple(triangles))


def _union(rng, parts, isolated):
    """Disjoint union of complexes, with ``isolated`` vertices on no edge
    and the vertex labels shuffled."""
    n = sum(k.n for k in parts) + isolated
    label = list(range(n))
    rng.shuffle(label)
    edges, triangles, at = [], [], 0
    for k in parts:
        edges += [Edge(label[at + e.u], label[at + e.v], e.w) for e in k.edges]
        triangles += [tuple(label[at + x] for x in t) for t in k.triangles]
        at += k.n
    return SimplicialComplex(n, tuple(edges), tuple(triangles))


def _seeded_complexes(seed):
    rng = random.Random(seed)
    yield from (_holed_torus(rng, rng.randint(3, 5), rng.choice([0.5, 0.8, 0.95])) for _ in range(6))
    yield from (_filled_grid_disk(side) for side in (2, 3, 5))
    for _ in range(6):
        parts = [random_complex(rng, 3, 9) for _ in range(rng.randint(2, 3))]
        yield _union(rng, parts, rng.randint(0, 3))
    yield _union(rng, [_holed_torus(rng, 3, 0.9), _filled_grid_disk(3), torus_seven()], 2)


def _boundary_reducer(k):
    """Whether an edge mask lies in the span of the boundary columns, by an
    elimination on the lowest set bit in edge coordinates."""
    pivots = {}

    def reduce(bits):
        while bits:
            row = pivots.get(bits & -bits)
            if row is None:
                return bits
            bits ^= row
        return 0

    for col in boundary_matrix(k, 2).columns:
        rest = reduce(col.bits)
        if rest:
            pivots[rest & -rest] = rest
    return lambda bits: not reduce(bits)


def _class(annotation, mask):
    """The XOR of the annotations of the edges in ``mask``."""
    a = 0
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            a ^= annotation[i]
    return a


def _check_annotations(k):
    """The annotations and ``homologous`` against an elimination of their
    own: a cycle's class is 0 exactly when it is a sum of boundaries, two
    cycles are homologous exactly when their sum is, the annotations are
    remainders (inside ``cut``, with no pivot bit) of rank beta1, and
    every cycle inside F = V - Z has class 0."""
    g = skeleton(k)
    elim = eliminate(g, k.boundaries)
    annotation = elim.annotation
    beta1 = homology_profile(k).beta1
    assert beta1 == elim.rank == len(elim.nontree) - len(elim.kept)
    assert all(a & elim.cut == a == elim.tracker.remainder(a) for a in annotation)
    assert helpers.dense_rank([[a >> j & 1 for j in range(k.m)] for a in annotation]) == beta1
    in_span = _boundary_reducer(k)
    rng = random.Random(k.m)
    basis = [c.mask for c in fundamental_cycles(g)] + [c.bits for c in boundary_matrix(k, 2).columns]
    cycles = list(basis)
    for _ in range(3 * len(basis)):
        z = 0
        for b in basis:
            if rng.random() < 0.3:
                z ^= b
        cycles.append(z)
    for z in cycles:
        assert (_class(annotation, z) == 0) == in_span(z)
    for z1, z2 in zip(cycles, rng.sample(cycles, len(cycles))):
        assert homologous(k, cycle_from_mask(g, z1), cycle_from_mask(g, z2)) == in_span(z1 ^ z2)
    for block, n, edges in _local_blocks(g):
        local = [annotation[i] for i in block]
        roots = _feedback_vertex_set(weighted_adjacency(n, edges), local)
        assert roots == sorted(set(roots)) and set(roots) <= set(range(n))
        inside = [i for i, (x, y, _) in enumerate(edges) if x not in roots and y not in roots]
        within_f = Graph(n, [edges[i] for i in inside])
        for c in fundamental_cycles(within_f):
            assert not _class([local[i] for i in inside], c.mask)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_annotations_on_random_complexes(seed):
    _check_annotations(random_complex(random.Random(seed), 3, 12))


def test_annotations_on_seeded_complexes():
    complexes = list(_seeded_complexes(2012))
    assert any(homology_profile(k).beta1 == 0 and k.n2 for k in complexes)
    assert any(homology_profile(k).beta0 > 2 for k in complexes)
    for k in complexes:
        _check_annotations(k)
        _check_reports(k)


def test_mhb_tight_runs_the_kernel_from_the_homology_roots_only(monkeypatch):
    # one block, so the kernel runs fully once per homology root, chosen on
    # the edges the 2-hop pre-test does not flag, and once, bounded by the
    # heaviest of them, from the higher endpoint of the flagged edges with
    # no root endpoint; the feedback vertex set the MCB engines count from
    # is larger, and larger again when chosen on every edge
    k = _holed_torus(random.Random(0), 6, 0.9)
    g = skeleton(k)
    (block, n, edges), = _local_blocks(g)
    homology = eliminate(g, k.boundaries).annotation
    (*_, detours, homology_roots, bounded), = _basis_runs(g, homology)
    unit = eliminate(g).annotation
    (*_, unit_roots, _), = _basis_runs(g, unit)
    runs = []

    def recording_kernel(adj, root, limit=None):
        runs.append((root, limit))
        return shortest_path_keys(adj, root, limit)

    monkeypatch.setattr("minbasis.tight.shortest_path_keys", recording_kernel)
    report = mhb_tight(k)
    full = [root for root, limit in runs if limit is None]
    assert full == homology_roots
    assert sorted(run for run in runs if run[1] is not None) == sorted(bounded.items())
    assert bounded and detours
    every_edge_roots = _feedback_vertex_set(weighted_adjacency(n, edges), [unit[i] for i in block])
    assert len(full) < len(unit_roots) < len(every_edge_roots)
    assert len(report.cycles) == homology_profile(k).beta1 > 0


def test_no_reader_changes_an_elimination():
    """Scans and ``homologous`` read an elimination and leave it as it was:
    a second earliest scan keeps the same cycles, and ``homologous``
    answers the same after ``mhb_tight`` as before."""
    for g in seeded_multigraphs(7, 20):
        elim = eliminate(g)
        listed = lambda: enumerate_tight_cycles(g).cycles
        assert elim.earliest(listed) == elim.earliest(listed)
    for k in _seeded_complexes(31):
        g = skeleton(k)
        elim = eliminate(g, k.boundaries)
        listed = lambda: enumerate_tight_cycles(g).cycles
        basis = elim.earliest(listed)
        assert elim.earliest(listed) == basis
        empty = cycle_from_mask(g, 0)
        before = [homologous(k, z, empty) for z in basis]
        assert mhb_tight(k).cycles == basis
        assert [homologous(k, z, empty) for z in basis] == before == [False] * len(basis)


def test_a_complex_eliminates_once_on_first_use(monkeypatch):
    """Building a complex runs no elimination; every reader then shares
    one, and ``homologous`` still matches an elimination of its own."""
    calls = []

    def counting(g, boundaries=()):
        calls.append(g)
        return eliminate(g, boundaries)

    monkeypatch.setattr("minbasis.simplicial.eliminate", counting)
    k = _holed_torus(random.Random(47), 5, 0.8)
    assert calls == []
    g = skeleton(k)
    in_span = _boundary_reducer(k)
    rng = random.Random(5)
    masks = [c.mask for c in fundamental_cycles(g)] + list(k.boundaries)
    pairs = [(rng.choice(masks) ^ rng.choice(masks), rng.choice(masks)) for _ in range(60)]
    cycles = [(cycle_from_mask(g, a), cycle_from_mask(g, b)) for a, b in pairs]
    answers = [homologous(k, z1, z2) for z1, z2 in cycles]
    assert answers == [in_span(a ^ b) for a, b in pairs] and any(answers) and not all(answers)
    mhb_tight(k), mhb_via_mcb(k), homology_profile(k)
    assert [homologous(k, z1, z2) for z1, z2 in cycles] == answers
    assert len(calls) == 1


def test_mhb_past_the_oracle_budget():
    # holed tori of side 6-15 with weights 1-8 and {0, 1}, and random
    # complexes: both MHB engines give the earliest scan over the full tight
    # list, and basis_cycles lists every tight cycle under the graph's
    # annotations and every tight cycle of nonzero class under the
    # complex's, flagged edges with no root endpoint included
    rng = random.Random(2032)
    complexes = [
        *(_holed_torus(rng, side, 0.9, w) for side in (6, 9, 15) for w in ((1, 8), (0, 1))),
        *(random_complex(rng, 8, 24) for _ in range(20)),
    ]
    bounded = [0, 0]
    for k in complexes:
        _check_reports(k)
        g = skeleton(k)
        bounded[0] += _check_basis_cycles(g)
        bounded[1] += _check_basis_cycles(g, eliminate(g, k.boundaries))
    assert min(bounded) > 0

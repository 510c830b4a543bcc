import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minbasis.fixtures import (
    annulus,
    filled_triangle,
    hollow_triangle,
    mobius_strip,
    random_complex,
    torus_seven,
)
from minbasis.gf2 import Gf2Matrix, rank
from minbasis.graph import Cycle, Edge, apsp, cycle_from_mask
from minbasis.mcb import ENGINES, mcb_earliest
from minbasis.mhb import _profile_basis, homologous, mhb_tight, mhb_via_mcb
from minbasis.oracle import brute_mhb
from minbasis.simplicial import (
    SimplicialComplex,
    boundary_matrix,
    homology_profile,
    skeleton,
)
from minbasis.tight import enumerate_tight_cycles, is_tight

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
    def no_kernel(adj, root):
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
    # mhb_tight scans basis_cycles, counted from a feedback vertex set; its
    # report must be the rank profile over the full tight list
    k = random_complex(random.Random(seed), 3, 12)
    g = skeleton(k)
    assert mhb_tight(k) == _profile_basis(k, g, lambda: enumerate_tight_cycles(g).cycles, "tight")

import random

import pytest

from minbasis.errors import ParseError
from minbasis.fixtures import (
    annulus,
    filled_triangle,
    hollow_triangle,
    mobius_strip,
    random_complex,
    torus_seven,
)
from minbasis.gf2 import bit_indices
from minbasis.graph import MAX_WEIGHT, Edge, cycle_from_mask
from minbasis.simplicial import (
    SimplicialComplex,
    boundary_matrix,
    format_complex,
    homology_profile,
    parse_complex,
    skeleton,
)
from minbasis.graph import cyclomatic_number


def test_constructor_canonicalizes_and_validates():
    k = SimplicialComplex(3, (Edge(1, 0, 2), Edge(2, 1, 1), Edge(0, 2, 1)), ((2, 0, 1),))
    assert k.edges[0] == Edge(0, 1, 2)
    assert k.triangles[0] == (0, 1, 2)
    triangle = (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1))
    # the messages of Graph's checks, and of triangles on a vertex out of
    # range or on one vertex twice, which no edge can join
    for n, edges, tris, message in (
        (-1, (), (), "vertex count must be non-negative"),
        (3, (Edge(0, 3, 1),), (), "edge 0: endpoint out of range"),
        (3, (Edge(1, 1, 1),), (), "edge 0: self-loops are not allowed"),
        (3, (Edge(0, 1, -1),), (), "edge 0: weight must be in [0, 2^63-1]"),
        (
            3,
            triangle,
            ((0, 1, 3),),
            "invalid complex: triangle (0, 1, 3) is missing edge (0, 3); "
            "triangle (0, 1, 3) is missing edge (1, 3)",
        ),
        (3, triangle, ((0, 1, 1),), "invalid complex: triangle (0, 1, 1) is missing edge (1, 1)"),
    ):
        with pytest.raises(ValueError) as exc:
            SimplicialComplex(n, edges, tris)
        assert str(exc.value) == message


def test_construction_rejects_invalid_complexes():
    filled_triangle()  # a closed complex constructs
    triangle = (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1))
    for edges, tris, message in (
        (triangle[:2], ((0, 1, 2),), "triangle (0, 1, 2) is missing edge (0, 2)"),
        ((Edge(0, 1, 1), Edge(0, 1, 4)), (), "duplicate edge (0, 1)"),
        (triangle, ((0, 1, 2), (2, 1, 0)), "duplicate triangle (0, 1, 2)"),
        # every violation, joined in order: duplicate edges first, then
        # per triangle its duplication and its missing edges
        (
            (Edge(1, 2, 1), Edge(0, 1, 1), Edge(2, 1, 3)),
            ((2, 1, 0), (0, 1, 2)),
            "duplicate edge (1, 2); triangle (0, 1, 2) is missing edge (0, 2); "
            "duplicate triangle (0, 1, 2); triangle (0, 1, 2) is missing edge (0, 2)",
        ),
    ):
        with pytest.raises(ValueError) as exc:
            SimplicialComplex(3, edges, tris)
        assert str(exc.value) == "invalid complex: " + message


def test_boundary_matrix_filled_triangle():
    d2 = boundary_matrix(filled_triangle(), 2)
    assert d2.nrows == 3 and d2.ncols == 1
    assert d2.columns[0].bits == 0b111
    for p in (1, 3):
        with pytest.raises(ValueError, match=f"p must be 2, got {p}"):
            boundary_matrix(filled_triangle(), p)


def test_boundary_matrix_no_triangles():
    d2 = boundary_matrix(hollow_triangle(), 2)
    assert d2.nrows == 3 and d2.ncols == 0


def test_boundary_composition_is_zero():
    rng = random.Random(7)
    complexes = [filled_triangle(), mobius_strip(), torus_seven(), annulus()]
    complexes += [random_complex(rng) for _ in range(10)]
    for k in complexes:
        if k.n2 == 0:
            continue
        g = skeleton(k)
        d2 = boundary_matrix(k, 2)
        assert d2.nrows == k.m and d2.ncols == k.n2
        for t, col in zip(k.triangles, d2.columns):
            # d1 of the column is zero: cycle_from_mask rejects odd degrees
            assert cycle_from_mask(g, col.bits).edge_count() == 3
            assert {x for i in bit_indices(col.bits) for x in g.edges[i][:2]} == set(t)


def test_homology_profiles():
    assert homology_profile(hollow_triangle()).beta1 == 1
    assert homology_profile(filled_triangle()).beta1 == 0
    torus = homology_profile(torus_seven())
    assert torus == type(torus)(beta0=1, beta1=2, boundary_rank=13, cycle_rank=15)
    assert homology_profile(mobius_strip()).beta1 == 1
    assert homology_profile(annulus()).beta1 == 1


def test_profile_on_disconnected_complex():
    k = SimplicialComplex(
        7,
        (
            Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1),
            Edge(3, 4, 1), Edge(4, 5, 1), Edge(3, 5, 1),
        ),
        ((0, 1, 2),),
    )
    profile = homology_profile(k)
    # vertex 6 is isolated: three components
    assert profile.beta0 == 3
    assert profile.cycle_rank == 6 - 7 + 3 == 2
    assert profile.beta1 == 1


def test_beta1_invariant_under_input_reordering():
    rng = random.Random(3)
    for _ in range(10):
        k = random_complex(rng)
        base = homology_profile(k).beta1
        edges = list(k.edges)
        tris = list(k.triangles)
        rng.shuffle(edges)
        rng.shuffle(tris)
        shuffled = SimplicialComplex(k.n, tuple(edges), tuple(tris))
        assert homology_profile(shuffled).beta1 == base


def test_skeleton_shares_indices_and_rank():
    k = torus_seven()
    g = skeleton(k)
    assert g.m == k.m
    assert g.n == 7 and g.m == 21
    assert cyclomatic_number(g) == homology_profile(k).cycle_rank
    for e_g, e_k in zip(g.edges, k.edges):
        assert (e_g.u, e_g.v, e_g.w) == (e_k.u, e_k.v, e_k.w)


def test_skeleton_of_graph_like_complex_is_identity():
    k = hollow_triangle()
    g = skeleton(k)
    assert homology_profile(k).beta1 == cyclomatic_number(g)


def test_parse_round_trip():
    k = annulus()
    text = format_complex(k, comment="annulus")
    k2 = parse_complex(text)
    assert k2 == k


def test_parse_errors_with_line_numbers():
    # every message parse_complex raises, word for word
    for text, message in (
        ("graph 3 3\n", "line 1: expected header 'complex <n>'"),
        ("\ncomplex\n", "line 2: expected header 'complex <n>'"),
        ("complex x\n", "line 1: non-integer vertex count"),
        ("complex -1\n", "line 1: negative vertex count"),
        ("complex 3\ne 0 1 1\n", "line 2: expected 's <dim> ...'"),
        ("complex 3\ns\n", "line 2: expected 's <dim> ...'"),
        ("complex 3\ns 1 0 x 1\n", "line 2: non-integer field"),
        ("complex 3\ns 1 0 1\n", "line 2: expected 's 1 <u> <v> <w>'"),
        ("complex 3\ns 1 0 3 1\n", "line 2: vertex out of range [0, 3)"),
        ("complex 3\ns 1 -1 0 1\n", "line 2: vertex out of range [0, 3)"),
        ("complex 3\ns 1 0 0 1\n", "line 2: degenerate edge"),
        ("complex 3\ns 1 0 1 -1\n", "line 2: weight out of range"),
        (f"complex 3\ns 1 0 1 {MAX_WEIGHT + 1}\n", "line 2: weight out of range"),
        ("complex 3\ns 1 0 1 1\ns 2 0 1\n", "line 3: expected 's 2 <a> <b> <c>'"),
        ("complex 3\ns 2 0 1 3\n", "line 2: vertex out of range [0, 3)"),
        ("complex 3\ns 2 -1 0 1\n", "line 2: vertex out of range [0, 3)"),
        ("complex 3\ns 2 0 1 1\n", "line 2: degenerate triangle"),
        ("complex 3\ns 2 2 0 2\n", "line 2: degenerate triangle"),
        ("complex 4\ns 3 0 1 2 3\n", "line 2: simplex dimension 3 not supported (only 1 and 2)"),
        ("complex 4\ns 0 1\n", "line 2: simplex dimension 0 not supported (only 1 and 2)"),
        ("# only comments\n", "line 1: missing 'complex <n>' header"),
    ):
        for auto_close in (False, True):
            with pytest.raises(ParseError) as exc:
                parse_complex(text, auto_close=auto_close)
            assert str(exc.value) == message


@pytest.mark.parametrize("field", ("1_0", "\u0663", "\uff13", "\u0967"))
def test_parse_rejects_non_ascii_integer_fields(field):
    with pytest.raises(ParseError, match="line 1: non-integer vertex count"):
        parse_complex(f"complex {field}\n")
    for simplex in (f"{field} 0 1 1", f"1 {field} 1 1", f"1 0 1 {field}", f"2 0 1 {field}"):
        with pytest.raises(ParseError, match="line 2: non-integer field"):
            parse_complex(f"complex 20\ns {simplex}\n")


def test_auto_close_inserts_missing_edges():
    text = "complex 3\ns 1 0 1 5\ns 2 0 1 2\n"
    with pytest.raises(ValueError) as exc:
        parse_complex(text)
    assert str(exc.value) == (
        "invalid complex: triangle (0, 1, 2) is missing edge (0, 2); "
        "triangle (0, 1, 2) is missing edge (1, 2)"
    )
    k = parse_complex(text, auto_close=True)
    assert k.m == 3
    # inserted edges keep the explicit edge first and get weight 1
    assert k.edges[0] == Edge(0, 1, 5)
    assert {(e.u, e.v, e.w) for e in k.edges[1:]} == {(0, 2, 1), (1, 2, 1)}
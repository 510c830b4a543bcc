import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from minbasis.gf2 import (
    Gf2Matrix,
    Gf2Vector,
    SpanTracker,
    column_rank_profile,
    in_span,
    inner_product,
    rank,
)


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(0, max_cols))
    bits = draw(
        st.lists(st.integers(0, (1 << nrows) - 1), min_size=ncols, max_size=ncols)
    )
    return Gf2Matrix.from_bit_columns(nrows, bits)


def test_vector_canonical_padding():
    Gf2Vector(3, 0b101)
    with pytest.raises(ValueError):
        Gf2Vector(3, 0b1000)
    with pytest.raises(ValueError):
        Gf2Vector(2, -1)


IDENTITY3 = Gf2Matrix.from_bit_columns(3, [0b001, 0b010, 0b100])


def test_vector_round_trips():
    v = Gf2Vector(6, 0b101001)
    assert v.indices() == (0, 3, 5)
    assert Gf2Vector(6, sum(1 << i for i in v.indices())) == v
    assert Gf2Vector(6, 0).indices() == ()


def test_rank_identity():
    assert rank(IDENTITY3) == 3


def test_rank_zero_matrix():
    assert rank(Gf2Matrix.from_bit_columns(4, [0, 0, 0])) == 0


def test_rank_dependent_columns():
    # columns e1, e1, e2, e1+e2 over two rows
    m = Gf2Matrix.from_bit_columns(2, [0b01, 0b01, 0b10, 0b11])
    assert rank(m) == 2


def test_profile_identity():
    assert column_rank_profile(IDENTITY3).indices == (0, 1, 2)


def test_profile_duplicate_and_sum_columns():
    m = Gf2Matrix.from_bit_columns(2, [0b01, 0b01, 0b10, 0b11])
    assert column_rank_profile(m).indices == (0, 2)


def test_profile_matches_greedy_oracle_on_random_matrices():
    rng = random.Random(12)
    for _ in range(30):
        nrows, ncols = 12, 20
        bits = [rng.randrange(1 << nrows) for _ in range(ncols)]
        m = Gf2Matrix.from_bit_columns(nrows, bits)
        assert column_rank_profile(m).indices == helpers.greedy_profile(helpers.rows(m))


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=6, max_cols=8))
def test_profile_is_exhaustive_lex_minimum(m):
    got = column_rank_profile(m).indices
    assert got == helpers.exhaustive_lex_min_profile(helpers.rows(m))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_equals_transpose_rank(m):
    # column i of the transpose is row i of m
    rows = [sum(b << j for j, b in enumerate(row)) for row in helpers.rows(m)]
    transpose = Gf2Matrix.from_bit_columns(m.ncols, rows)
    assert rank(m) == rank(transpose) == len(column_rank_profile(m))


def test_in_span_examples():
    c = in_span(IDENTITY3, Gf2Vector(3, 0b010))
    assert c is not None and c.bits == 0b010
    single = Gf2Matrix.from_bit_columns(2, [0b01])
    assert in_span(single, Gf2Vector(2, 0b10)) is None
    # basis {e1, e1+e2}: e2 = first + second
    m = Gf2Matrix.from_bit_columns(2, [0b01, 0b11])
    c = in_span(m, Gf2Vector(2, 0b10))
    assert c is not None and c.bits == 0b11


def test_in_span_dimension_error():
    with pytest.raises(ValueError):
        in_span(IDENTITY3, Gf2Vector(2, 0b01))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_every_column_in_span_of_earliest_basis(m):
    basis = Gf2Matrix(m.nrows, [m.columns[j] for j in column_rank_profile(m).indices])
    for col in m.columns:
        coeff = in_span(basis, col)
        assert coeff is not None
        assert coeff.length == basis.ncols
        acc = 0
        for j in coeff.indices():
            acc ^= basis.columns[j].bits
        assert acc == col.bits


@settings(max_examples=80, deadline=None)
@given(matrices(max_rows=7, max_cols=7))
def test_span_tracker_solve_gives_inverse(m):
    """Solving each unit vector over the columns gives a right inverse."""
    tracker = SpanTracker(track_coefficients=True)
    for col in m.columns:
        tracker.add(col.bits)
    combos = [tracker.solve(1 << i) for i in range(m.nrows)]
    if rank(m) < m.nrows:
        assert None in combos  # some unit vector lies outside the column span
        return
    right = helpers.rows(Gf2Matrix.from_bit_columns(m.ncols, combos))
    ident = [[int(i == j) for j in range(m.nrows)] for i in range(m.nrows)]
    assert helpers.dense_product(helpers.rows(m), right) == ident
    if m.nrows == m.ncols:
        assert helpers.dense_product(right, helpers.rows(m)) == ident


def test_inner_product_examples():
    assert inner_product(Gf2Vector(3, 0b101), Gf2Vector(3, 0b111)) == 0
    assert inner_product(Gf2Vector(3, 0b101), Gf2Vector(3, 0b100)) == 1
    with pytest.raises(ValueError):
        inner_product(Gf2Vector(3, 0b1), Gf2Vector(2, 0b1))


def test_span_tracker_solve_matches_inputs():
    tracker = SpanTracker(track_coefficients=True)
    vecs = [0b011, 0b110, 0b101]  # third = first + second
    keeps = [tracker.add(v) for v in vecs]
    assert keeps == [True, True, False]
    combo = tracker.solve(0b101)
    acc = 0
    for i in range(3):
        if (combo >> i) & 1:
            acc ^= vecs[i]
    assert acc == 0b101
    assert tracker.solve(0b111) is None  # outside span{011, 110}
    assert tracker.rank == 2

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from minbasis import gf2
from minbasis.gf2 import (
    Gf2Matrix,
    Gf2Vector,
    SpanTracker,
    bit_indices,
    bit_mask,
    column_rank_profile,
    inner_product,
    rank,
    transpose,
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
    assert bit_indices(v.bits) == [0, 3, 5]
    assert Gf2Vector(6, sum(1 << i for i in bit_indices(v.bits))) == v
    # both decoder branches: peeling up to the threshold, one scan above it
    rng = random.Random(16)
    cases = [0, 1, 1 << 99_999]
    for k in (gf2._PEEL_MAX - 1, gf2._PEEL_MAX, gf2._PEEL_MAX + 1):
        cases += [(1 << k) - 1, sum(1 << i for i in rng.sample(range(3000), k))]
    cases.append(rng.getrandbits(40_000) | 1 << 39_999)
    for bits in cases:
        assert bit_indices(bits) == [i for i in range(bits.bit_length()) if bits >> i & 1]
        assert bit_mask(bit_indices(bits)) == bits
    assert bit_mask([]) == 0
    # byte boundaries, out of order, in both builder branches
    edge_bits = [16, 7, 15, 8]
    assert bit_mask(edge_bits) == 1 << 7 | 1 << 8 | 1 << 15 | 1 << 16
    many = edge_bits + list(range(1000, 1000 + gf2._PEEL_MAX))
    rng.shuffle(many)
    assert bit_mask(many) == bit_mask(edge_bits) | (1 << gf2._PEEL_MAX) - 1 << 1000


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


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_every_column_in_span_of_earliest_basis(m):
    profile = column_rank_profile(m).indices
    tracker = SpanTracker()
    for j in profile:
        assert tracker.add(m.columns[j].bits)
    assert tracker.rank == len(profile)
    for col in m.columns:
        assert not tracker.add(col.bits)  # already in the span of the profile
    assert tracker.rank == len(profile) == helpers.dense_rank(helpers.rows(m))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_transpose_swaps_rows_and_columns(m):
    rows = [c.bits for c in m.columns]  # rows of width nrows
    cols = transpose(rows, m.nrows)
    assert len(cols) == m.nrows
    assert all(
        cols[j] >> i & 1 == rows[i] >> j & 1 for i in range(len(rows)) for j in range(m.nrows)
    )
    assert transpose(cols, len(rows)) == rows


def test_inner_product_examples():
    assert inner_product(Gf2Vector(3, 0b101), Gf2Vector(3, 0b111)) == 0
    assert inner_product(Gf2Vector(3, 0b101), Gf2Vector(3, 0b100)) == 1
    with pytest.raises(ValueError):
        inner_product(Gf2Vector(3, 0b1), Gf2Vector(2, 0b1))


def test_span_tracker_keeps_independent_vectors():
    tracker = SpanTracker()
    vecs = [0b011, 0b110, 0b101]  # third = first + second
    assert [tracker.add(v) for v in vecs] == [True, True, False]
    assert tracker.rank == 2
    assert tracker.add(0b111)  # outside span{011, 110}
    assert not tracker.add(0)
    assert tracker.rank == 3


@settings(max_examples=60, deadline=None)
@given(matrices(), st.randoms(use_true_random=False))
def test_remainder_is_linear_with_the_span_as_kernel(m, rng):
    # coordinates are a sparse increasing subset of bit positions, as the
    # non-tree edges are of the edge space
    coords = sorted(rng.sample(range(3 * m.nrows + 1), m.nrows))
    spread = [sum(1 << coords[i] for i in bit_indices(c.bits)) for c in m.columns]
    tracker = SpanTracker()
    pivots = 0  # a kept vector's pivot is the top bit of its remainder before it
    for v in spread:
        top = 1 << tracker.remainder(v).bit_length() >> 1
        assert tracker.add(v) == bool(top)
        pivots |= top
    assert pivots.bit_count() == tracker.rank
    for v in spread:
        assert tracker.remainder(v) == 0
    units = [tracker.remainder(1 << c) for c in coords]
    assert all(not r & pivots for r in units)
    # the remainders of the units span nrows - rank dimensions: the kernel is the span
    dense = [[r >> j & 1 for j in range(3 * m.nrows + 1)] for r in units]
    assert helpers.dense_rank(dense) == m.nrows - tracker.rank
    vectors = [sum(1 << c for c in coords if rng.random() < 0.5) for _ in range(8)]
    for v in vectors:
        r = tracker.remainder(v)
        assert not r & pivots
        in_span = helpers.dense_rank(helpers.rows(m)) == helpers.dense_rank(
            [row + [v >> coords[i] & 1] for i, row in enumerate(helpers.rows(m))]
        )
        assert (r == 0) == in_span
    for u, v in zip(vectors, vectors[1:]):
        assert tracker.remainder(u ^ v) == tracker.remainder(u) ^ tracker.remainder(v)


def test_copy_is_fed_apart_from_its_original():
    tracker = SpanTracker()
    tracker.add(0b0110)
    tracker.add(0b1010)
    probes = [1 << c for c in range(5)]
    before = [tracker.remainder(v) for v in probes]
    twin = tracker.copy()
    # the copy starts from the same rows and takes its own adds
    assert [twin.add(v) for v in (0b1100, 0b0011, 0b10000)] == [False, True, True]
    assert twin.rank == 4 and twin.remainder(0b0011) == twin.remainder(0b10000) == 0
    assert tracker.rank == 2 and [tracker.remainder(v) for v in probes] == before
    assert tracker.add(0b0001)
    assert twin.rank == 4 and twin.remainder(0b0001)


def test_remainder_examples():
    tracker = SpanTracker()
    tracker.add(0b0110)  # pivot 2
    tracker.add(0b1010)  # pivot 3
    # coordinates 2 and 3 reduce to the free coordinate 1
    assert [tracker.remainder(1 << c) for c in (1, 2, 3)] == [0b10, 0b10, 0b10]
    assert tracker.remainder(0b1100) == 0 and tracker.remainder(0b0001) == 0b0001
    assert SpanTracker().remainder(0b10001) == 0b10001
    # a free top bit does not stop the reduction below it
    tracker = SpanTracker()
    tracker.add(0b010)
    assert tracker.remainder(0b110) == 0b100

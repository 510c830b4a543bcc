"""Exact linear algebra over GF(2) on bit-packed columns.

A vector is a single Python integer carrying one bit per coordinate, so
vector addition is a word-wide XOR and an inner product is a popcount.
Python integers are unbounded, which makes the packing width-independent.
``bit_indices`` and ``bit_mask`` convert a vector to its set-bit positions
and back, and ``transpose`` turns row vectors into column vectors.
Matrices are ordered sequences of column vectors; the order matters
because column rank profiles are defined over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence

_PEEL_MAX = 256


def bit_indices(bits: int) -> list[int]:
    """Positions of the set bits of ``bits`` (non-negative), ascending.

    Peeling a bit copies the rest of the integer; a scan of the reversed
    binary string reads it once.  Masks with more than ``_PEEL_MAX`` set
    bits are scanned, so decoding is linear in the mask's length.
    """
    out = []
    if bits.bit_count() > _PEEL_MAX:
        text = bin(bits)[:1:-1]  # text[i] is bit i
        i = text.find("1")
        while i >= 0:
            out.append(i)
            i = text.find("1", i + 1)
        return out
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    out.reverse()
    return out


def bit_mask(indices: Collection[int]) -> int:
    """The vector with the bits at ``indices`` set: ``bit_indices``' inverse.

    Indices may come in any order and may repeat.  Setting one bit copies
    the integer, so more than ``_PEEL_MAX`` indices are set in a byte
    buffer that is read once, and building is linear in the mask's length.
    """
    if len(indices) <= _PEEL_MAX:
        bits = 0
        for i in indices:
            bits |= 1 << i
        return bits
    buf = bytearray((max(indices) >> 3) + 1)
    for i in indices:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """The ``width`` columns of the bit matrix ``rows``: bit i of column j
    is bit j of row i.  Every row must be below ``1 << width``."""
    cols = [0] * width
    bit = 1
    for row in rows:
        for j in bit_indices(row):
            cols[j] |= bit
        bit <<= 1
    return cols


@dataclass
class Gf2Vector:
    """Bit-packed GF(2) vector; bit ``i`` of ``bits`` is coordinate ``i``.

    Bits at positions >= ``length`` must be zero (canonical padding).
    """

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits beyond `length` must be zero")


def inner_product(u: Gf2Vector, v: Gf2Vector) -> int:
    """Parity of the overlap of two vectors (0 or 1)."""
    if u.length != v.length:
        raise ValueError(f"dimension mismatch: {u.length} != {v.length}")
    return (u.bits & v.bits).bit_count() & 1


@dataclass
class Gf2Matrix:
    """Column-major GF(2) matrix: an ordered list of length-``nrows`` columns."""

    nrows: int
    columns: list[Gf2Vector] = field(default_factory=list)

    def __post_init__(self):
        if self.nrows < 0:
            raise ValueError("nrows must be non-negative")
        for c in self.columns:
            if c.length != self.nrows:
                raise ValueError(f"column length {c.length} != nrows {self.nrows}")

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @classmethod
    def from_bit_columns(cls, nrows: int, bit_columns: Iterable[int]) -> "Gf2Matrix":
        return cls(nrows, [Gf2Vector(nrows, b) for b in bit_columns])


@dataclass(frozen=True)
class RankProfile:
    """Strictly increasing indices of the earliest independent columns."""

    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


class SpanTracker:
    """Online Gaussian elimination over bit-packed vectors.

    Vectors are fed one at a time; each is kept when it is independent
    of the vectors kept so far, so a vector it does not keep lies in
    their span.
    """

    def __init__(self):
        self._rows: dict[int, int] = {}  # pivot bit -> reduced vector
        self._pivots = 0  # the mask of the kept rows' top bits

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, bits: int) -> bool:
        """Feed the next vector; True when it was independent and kept."""
        while bits:
            top = bits.bit_length() - 1
            row = self._rows.get(top)
            if row is None:
                self._rows[top] = bits
                self._pivots |= 1 << top
                return True
            bits ^= row
        return False

    def copy(self) -> "SpanTracker":
        """A tracker holding the same rows; adds to either leave the other
        as it was."""
        twin = SpanTracker()
        twin._rows = dict(self._rows)
        twin._pivots = self._pivots
        return twin

    def remainder(self, bits: int) -> int:
        """``bits`` less the row of each pivot it holds, highest first: the
        one member of ``bits`` plus the span with no pivot bit (a nonzero
        member of the span has a pivot as its top bit), so it is linear in
        ``bits`` and 0 exactly on the span."""
        rows, pivots = self._rows, self._pivots
        while hit := bits & pivots:
            bits ^= rows[hit.bit_length() - 1]
        return bits


def column_rank_profile(m: Gf2Matrix) -> RankProfile:
    """Lexicographically smallest index set of independent spanning columns.

    Scans columns left to right, keeping each column that is independent
    of the ones already kept; for a matroid this greedy order is exactly
    the lexicographically smallest basis of column indices.
    """
    tracker = SpanTracker()
    kept = [j for j, col in enumerate(m.columns) if tracker.add(col.bits)]
    return RankProfile(tuple(kept))


def rank(m: Gf2Matrix) -> int:
    """Dimension of the column span."""
    return len(column_rank_profile(m))


"""Exact linear algebra over GF(2) on bit-packed columns.

A vector is a single Python integer carrying one bit per coordinate, so
vector addition is a word-wide XOR and an inner product is a popcount.
Python integers are unbounded, which makes the packing width-independent.
Matrices are ordered sequences of column vectors; the order matters
because column rank profiles are defined over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional


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

    def indices(self) -> tuple[int, ...]:
        """Positions of the set bits, ascending."""
        out = []
        b = self.bits
        while b:
            low = b & -b
            out.append(low.bit_length() - 1)
            b ^= low
        return tuple(out)


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

    Vectors are fed one at a time; each is kept when independent of the
    vectors kept so far.  With ``track_coefficients`` every reduced pivot
    column remembers which input vectors it combines, so later vectors
    can be expressed over the inputs via :meth:`solve`.
    """

    def __init__(self, track_coefficients: bool = False):
        self._rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (reduced, combo)
        self._track = track_coefficients
        self._added = 0

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, bits: int) -> bool:
        """Feed the next vector; True when it was independent and kept."""
        combo = (1 << self._added) if self._track else 0
        self._added += 1
        while bits:
            top = bits.bit_length() - 1
            row = self._rows.get(top)
            if row is None:
                self._rows[top] = (bits, combo)
                return True
            bits ^= row[0]
            combo ^= row[1]
        return False

    def solve(self, bits: int) -> Optional[int]:
        """Combination of the fed vectors equal to ``bits``, or None."""
        if not self._track:
            raise ValueError("tracker built without coefficient tracking")
        combo = 0
        while bits:
            row = self._rows.get(bits.bit_length() - 1)
            if row is None:
                return None
            bits ^= row[0]
            combo ^= row[1]
        return combo


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


def in_span(basis: Gf2Matrix, v: Gf2Vector) -> Optional[Gf2Vector]:
    """Coefficients c with basis @ c == v, or None when v is outside the span.

    ``basis`` may contain dependent columns; any valid coefficient vector
    is returned.
    """
    if v.length != basis.nrows:
        raise ValueError(f"dimension mismatch: {v.length} != {basis.nrows}")
    tracker = SpanTracker(track_coefficients=True)
    for col in basis.columns:
        tracker.add(col.bits)
    combo = tracker.solve(v.bits)
    if combo is None:
        return None
    return Gf2Vector(basis.ncols, combo)

"""Minimum cycle basis engines.

Three interchangeable engines, all exact and deterministic:

* ``earliest``  - keep the first independent cycles of the weight-sorted
  tight list (the earliest basis of the tight-cycle matrix).
* ``depina``    - maintain support vectors; repeatedly take the lightest
  tight cycle with odd inner product against the current support vector
  and re-orthogonalize the rest one by one.
* ``kavitha``   - same invariants as ``depina`` but the support vectors
  are re-orthogonalized in bulk by a divide-and-conquer block update.

``depina`` and ``kavitha`` share one core: the setup, the lightest-odd
pick and the report with its certificate; each supplies only its update.
Support vectors are edge-space bit masks.  The i-th starts as the unit
vector on the i-th non-tree edge of a fixed spanning forest and is only
ever combined with earlier ones, so every support vector is zero on tree
edges.  That unit vector is never orthogonal to its edge's fundamental
cycle, so a qualifying cycle always exists, and the final vectors are
the certificate as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InfeasibleSupportError, InternalInvariantError
from .gf2 import Gf2Vector, SpanTracker
from .graph import Cycle, Graph, cyclomatic_number, spanning_forest
from .tight import TightCycleSet, enumerate_tight_cycles


@dataclass
class BasisReport:
    """An ordered cycle basis with its weight and optional certificate.

    ``certificate`` holds the final support vectors (full edge length,
    supported on non-tree edges) for the engines that maintain them.
    """

    engine: str
    cycles: list[Cycle]
    total_weight: int
    certificate: Optional[list[Gf2Vector]] = None

    def weight_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(c.base for c in self.cycles))


def _lightest_odd(cycles: list[Cycle], s: int) -> Cycle:
    for c in cycles:
        if (c.mask & s).bit_count() & 1:
            return c
    raise InfeasibleSupportError(
        "no tight cycle has odd inner product with the support vector"
    )


def min_weight_odd_cycle(tcs: TightCycleSet, s: Gf2Vector) -> Cycle:
    """Lightest tight cycle with odd inner product against ``s``.

    ``s`` must be a nonzero vector over edge coordinates.  For any
    nonzero support vector arising in the engines below a qualifying
    cycle exists because the tight cycles span the cycle space; failure
    to find one therefore signals a broken invariant, not bad input.
    """
    if s.is_zero():
        raise ValueError("support vector must be nonzero")
    _check_lengths(tcs, s.length)
    return _lightest_odd(tcs.cycles, s.bits)


def _check_lengths(tcs: TightCycleSet, m: int) -> None:
    for c in tcs.cycles:
        if c.length != m:
            raise ValueError(f"dimension mismatch: {c.length} != {m}")


def _tight_set(g: Graph, tight: TightCycleSet | None) -> TightCycleSet:
    if tight is None:
        return enumerate_tight_cycles(g)
    _check_lengths(tight, g.m)
    return tight


def earliest_cycles(tracker: SpanTracker, cycles: list[Cycle], rank: int) -> list[Cycle]:
    """Feed ``cycles`` to ``tracker`` in order and return those that raise
    its rank, stopping once the rank reaches ``rank``."""
    chosen: list[Cycle] = []
    for c in cycles:
        if tracker.rank == rank:
            break
        if tracker.add(c.mask):
            chosen.append(c)
    return chosen


def mcb_earliest(g: Graph, tight: TightCycleSet | None = None) -> BasisReport:
    """Earliest basis of the weight-sorted tight-cycle matrix.

    Because the columns are sorted by weight and independence is matroid
    independence, the first spanning independent set is a minimum basis.
    """
    nu = cyclomatic_number(g)
    chosen = earliest_cycles(SpanTracker(), _tight_set(g, tight).cycles, nu)
    if len(chosen) != nu:
        raise InternalInvariantError(
            f"tight cycles span rank {len(chosen)} < cyclomatic number {nu}"
        )
    return BasisReport("earliest", chosen, sum(c.base for c in chosen))


Update = Callable[[list[int], Callable[[int], int]], None]


def _support_basis(
    engine: str, g: Graph, tight: TightCycleSet | None, update: Update
) -> BasisReport:
    """The support-vector core shared by ``depina`` and ``kavitha``.

    ``update(support, pick)`` must call ``pick(i)`` for i = 0, 1, ... in
    order, each time with ``support[i]`` orthogonal to the cycles picked
    before; ``pick`` returns the chosen cycle's mask.
    """
    tcs = _tight_set(g, tight)
    support = [1 << e for e in spanning_forest(g)[1]]
    cycles: list[Cycle] = []

    def pick(i: int) -> int:
        c = _lightest_odd(tcs.cycles, support[i])
        cycles.append(c)
        return c.mask

    update(support, pick)
    if len(cycles) != len(support):
        raise InternalInvariantError(
            f"picked {len(cycles)} cycles for {len(support)} support vectors"
        )
    certificate = [Gf2Vector(g.m, s) for s in support]
    return BasisReport(engine, cycles, sum(c.base for c in cycles), certificate)


def _depina_update(support: list[int], pick: Callable[[int], int]) -> None:
    # enumerate reads support[i] on reaching it, after the earlier steps' updates
    for i, s in enumerate(support):
        mask = pick(i)
        for j in range(i + 1, len(support)):
            if (mask & support[j]).bit_count() & 1:
                support[j] ^= s


def mcb_depina(g: Graph, tight: TightCycleSet | None = None) -> BasisReport:
    """Support-vector engine with one-by-one re-orthogonalization.

    Invariants maintained: after step i every remaining support vector is
    orthogonal to the cycles chosen so far, and the cycle chosen at step
    i has odd inner product with its own support vector.
    """
    return _support_basis("depina", g, tight, _depina_update)


def _kavitha_update(support: list[int], pick: Callable[[int], int]) -> None:
    chosen = [0] * len(support)

    def inner(rows: list[int], s: int) -> int:
        """Bit r is the inner product of cycle mask ``rows[r]`` with ``s``."""
        bits = 0
        for r, mask in enumerate(rows):
            if (mask & s).bit_count() & 1:
                bits |= 1 << r
        return bits

    def solve(lo: int, u: int) -> None:
        if lo == u:
            chosen[lo] = pick(lo)
            return
        q = (lo + u) // 2
        solve(lo, q)
        rows = chosen[lo : q + 1]
        a = SpanTracker(track_coefficients=True)
        for j in range(lo, q + 1):
            a.add(inner(rows, support[j]))
        for j in range(q + 1, u + 1):
            w = a.solve(inner(rows, support[j]))
            if w is None:
                raise InternalInvariantError("block inner-product matrix is singular")
            while w:
                low = w & -w
                support[j] ^= support[lo + low.bit_length() - 1]
                w ^= low
        solve(q + 1, u)

    if support:
        solve(0, len(support) - 1)


def mcb_kavitha(g: Graph, tight: TightCycleSet | None = None) -> BasisReport:
    """Support-vector engine with divide-and-conquer bulk updates.

    After solving the left half [lo, q], the right-half support vectors
    are made orthogonal to the chosen cycles in one block step: with
    A = C^T [S_lo..S_q] and B = C^T [S_{q+1}..S_u], adding the left
    vectors combined by W = A^-1 B zeroes all the inner products at
    once.  A is unitriangular by the invariants, so it is invertible;
    W comes column by column from one elimination of A's columns, and a
    column it cannot solve means a broken invariant and surfaces as an
    error.
    """
    return _support_basis("kavitha", g, tight, _kavitha_update)


ENGINES: dict[str, Callable[..., BasisReport]] = {
    "earliest": mcb_earliest,
    "depina": mcb_depina,
    "kavitha": mcb_kavitha,
}

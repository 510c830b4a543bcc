"""Minimum cycle basis engines.

Three interchangeable engines, all exact and deterministic, start from
one ``graph.eliminate`` of the graph, with no boundaries (a graph is a
complex with no triangles), and read one weight-sorted cycle list.  By
default it is ``tight.basis_cycles`` counted with the elimination's
annotations, under which every cycle has a nonzero class, so from a
feedback vertex set of each block: it holds every tight cycle and
possibly a few more, and the ``tight`` module docstring shows that any
such list gives the same picks in the same order, and the same
certificate, as the tight list itself.  A caller may pass the tight
list instead; out of strict (base, mask) order it raises ``ValueError``.

* ``earliest``  - keep the first independent cycles of the list (the
  earliest basis of the cycle matrix): the elimination's earliest scan,
  which the MHB engines run modulo their triangle boundaries.
* ``depina``    - maintain support vectors; repeatedly take the lightest
  cycle of the list with odd inner product against the current support
  vector and re-orthogonalize the later vectors odd against it, found
  through a column index of the parity rows.
* ``kavitha``   - same invariants as ``depina`` but the support vectors
  are re-orthogonalized in bulk by a divide-and-conquer block update,
  which solves its unitriangular block by substitution.

``depina`` and ``kavitha`` share one core: the setup, the pick and the
report with its certificate; each supplies only its update.
Support vectors are edge-space bit masks.  The i-th starts as the unit
vector on the i-th non-tree edge of the elimination, the edge annotated
``1 << i``, and is only ever combined with earlier ones, so every
support vector is zero on tree edges.  That unit vector is never
orthogonal to its edge's fundamental cycle, so a qualifying cycle always
exists, and the final vectors are the certificate as they stand.

Each support vector S_i carries a parity row P_i: bit j of P_i is the
inner product of the j-th cycle of the list with S_i.  The rows start
as "the listed cycles containing non-tree edge i": one
``gf2.transpose`` of the listed masks gives such a per-edge row for
every edge, and the non-tree edges' rows are kept.  Every ``S_j ^= S_k``
goes with ``P_j ^= P_k``.  The lightest listed cycle odd against S_i is
then the lowest set bit of P_i, and an inner product is one bit of a
row, so the engines take no popcount over edge masks.
``depina`` also keeps the rows' transpose, one column per listed cycle,
so each step reads the vectors it must change off one column and no
step scans every later row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InfeasibleSupportError, InternalInvariantError
from .gf2 import Gf2Vector, bit_indices, bit_mask, transpose
from .graph import Cycle, Graph, eliminate
from .tight import TightCycleSet, basis_cycles


_NO_ODD_CYCLE = "no tight cycle has odd inner product with the support vector"


@dataclass
class BasisReport:
    """An ordered minimum basis of cycles, from an MCB, MHB or oracle engine.

    ``certificate`` holds the final support vectors (full edge length,
    supported on non-tree edges) for the engines that maintain them.
    ``boundary_profile`` holds the triangle indices of the earliest
    boundary basis for the homology engines; a graph has no triangles.
    """

    engine: str
    cycles: list[Cycle]
    certificate: Optional[list[Gf2Vector]] = None
    boundary_profile: tuple[int, ...] = ()

    @property
    def total_weight(self) -> int:
        return sum(c.base for c in self.cycles)

    def weight_multiset(self) -> tuple[int, ...]:
        return tuple(sorted(c.base for c in self.cycles))


def _tight_set(g: Graph, tight: TightCycleSet | None, annotation: list[int]) -> list[Cycle]:
    """``tight.cycles``, checked against ``g`` and for strictly increasing
    (base, mask), or ``basis_cycles`` counted with ``annotation``."""
    if tight is None:
        return basis_cycles(g, annotation)
    last = (-1, 0)  # below every key: weights are non-negative
    for c in tight.cycles:
        if c.length != g.m:
            raise ValueError(f"dimension mismatch: {c.length} != {g.m}")
        if (c.base, c.mask) <= last:
            raise ValueError("tight cycles are not strictly sorted by (base, mask)")
        last = c.base, c.mask
    return tight.cycles


def mcb_earliest(g: Graph, tight: TightCycleSet | None = None) -> BasisReport:
    """Earliest basis of the weight-sorted cycle matrix of ``basis_cycles``,
    or of ``tight`` when given: the scan of the graph's elimination, which
    has no boundaries.

    Because the columns are sorted by weight and independence is matroid
    independence, the first spanning independent set is a minimum basis.
    """
    elim = eliminate(g)
    cycles = elim.earliest(lambda: _tight_set(g, tight, elim.annotation))
    return BasisReport("earliest", cycles)


Update = Callable[[list[int], list[int], Callable[[int], int]], None]


def _support_basis(
    engine: str, g: Graph, tight: TightCycleSet | None, update: Update
) -> BasisReport:
    """The support-vector core shared by ``depina`` and ``kavitha``.

    ``update(support, parity, pick)`` must call ``pick(i)`` for i = 0,
    1, ... in order, each time with ``support[i]`` orthogonal to the
    cycles picked before, and must pair every ``support[j] ^=
    support[k]`` with ``parity[j] ^= parity[k]``.  ``pick`` returns the
    chosen cycle's position in the cycle list.  Only ``support`` is read
    after ``update`` returns, so ``update`` may release ``parity[i]``
    once ``pick(i)`` has read it.
    """
    elim = eliminate(g)
    listed = _tight_set(g, tight, elim.annotation)
    nontree = elim.nontree
    support = [1 << e for e in nontree]
    holds = transpose([c.mask for c in listed], g.m)  # the listed cycles holding each edge
    parity = [holds[e] for e in nontree]
    del holds  # so that the rows the update releases are freed
    cycles: list[Cycle] = []

    def pick(i: int) -> int:
        row = parity[i]
        if not row:
            raise InfeasibleSupportError(_NO_ODD_CYCLE)
        j = (row & -row).bit_length() - 1
        cycles.append(listed[j])
        return j

    update(support, parity, pick)
    if len(cycles) != len(support):
        raise InternalInvariantError(
            f"picked {len(cycles)} cycles for {len(support)} support vectors"
        )
    certificate = [Gf2Vector(g.m, s) for s in support]
    return BasisReport(engine, cycles, certificate)


def _depina_update(
    support: list[int], parity: list[int], pick: Callable[[int], int]
) -> None:
    # col[p] has bit j set when parity[j] holds listed cycle p; it stays
    # exact for the rows after the current step, which are all it is read for
    col = transpose(parity, max((row.bit_length() for row in parity), default=0))
    for i in range(len(support)):
        p = pick(i)
        s, row = support[i], parity[i]
        rows = col[p] >> (i + 1) << (i + 1)  # the later rows odd against the pick
        if rows:
            for q in bit_indices(row):
                col[q] ^= rows
            for j in bit_indices(rows):
                support[j] ^= s
                parity[j] ^= row
        col[p] = parity[i] = 0  # no later step reads either


def mcb_depina(g: Graph, tight: TightCycleSet | None = None) -> BasisReport:
    """Support-vector engine with one-by-one re-orthogonalization.

    Invariants maintained: after step i every remaining support vector is
    orthogonal to the cycles chosen so far, and the cycle chosen at step
    i has odd inner product with its own support vector.

    Step i changes only the later S_j odd against its pick C_i.  Those j
    are the bits above i of C_i's column in a column index of the parity
    rows (bit j of column p set when P_j holds listed cycle p), so no step
    scans every later row.  Adding P_i to a row flips that row's bit in
    the column of every cycle P_i holds, and the index follows.  A
    picked column and a spent row are never read again and are released.
    """
    return _support_basis("depina", g, tight, _depina_update)


def _kavitha_update(
    support: list[int], parity: list[int], pick: Callable[[int], int]
) -> None:
    chosen = [0] * len(support)  # list position picked at each step

    def solve(lo: int, u: int) -> None:
        if lo == u:
            chosen[lo] = pick(lo)
            return
        q = (lo + u) // 2
        solve(lo, q)
        # block row r of vector j is bit chosen[lo + r] of parity[j]
        place = {chosen[lo + r]: 1 << r for r in range(q + 1 - lo)}
        sel = bit_mask(place)

        def block_row(j: int) -> int:
            row = 0
            for p in bit_indices(parity[j] & sel):
                row |= place[p]
            return row

        # column c has bit c set and no lower bit, so clearing a row from
        # its lowest set bit up solves the block by substitution
        cols = [block_row(j) for j in range(lo, q + 1)]
        for j in range(q + 1, u + 1):
            row = block_row(j)
            while row:
                low = row & -row
                c = low.bit_length() - 1
                if not cols[c] & low:
                    raise InternalInvariantError("block inner-product matrix is singular")
                row ^= cols[c]
                support[j] ^= support[lo + c]
                parity[j] ^= parity[lo + c]
        solve(q + 1, u)

    if support:
        solve(0, len(support) - 1)


def mcb_kavitha(g: Graph, tight: TightCycleSet | None = None) -> BasisReport:
    """Support-vector engine with divide-and-conquer bulk updates.

    After solving the left half [lo, q], the right-half support vectors
    are made orthogonal to the chosen cycles in one block step: with
    A = C^T [S_lo..S_q] and B = C^T [S_{q+1}..S_u], adding the left
    vectors combined by W = A^-1 B zeroes all the inner products at
    once.  Row r of a vector's column is one bit of its parity row,
    gathered through a selector of the left half's picks, so the block
    takes no popcount.  A is unitriangular by the invariants: S_{lo+c} is
    odd against its own pick and orthogonal to the earlier ones, so
    column c of A has bit c set and no lower bit.  Each column of W
    therefore comes by substitution, clearing B's column from its lowest
    set bit up; a missing diagonal bit means a broken invariant and
    surfaces as an error.
    """
    return _support_basis("kavitha", g, tight, _kavitha_update)


ENGINES: dict[str, Callable[..., BasisReport]] = {
    "earliest": mcb_earliest,
    "depina": mcb_depina,
    "kavitha": mcb_kavitha,
}

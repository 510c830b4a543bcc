"""Minimum homology basis engines for 1-homology with Z2 coefficients.

Both engines reduce the problem to a column rank profile: one
``graph.eliminate`` of the skeleton takes the triangle boundaries, and
its earliest scan, the one the MCB engines run with no boundaries, reads
a weight-sorted list of cycles and keeps those whose homology class,
their remainder after the boundaries, is independent of the classes
kept so far.  The kept cycles are independent modulo boundaries and,
because the scan order is by weight, form a minimum-weight homology
basis.  The engines differ only in the cycle list they scan:
``tight.basis_cycles`` counted with the elimination's annotations, from
the homology roots of each block, which every cycle that is not
null-homologous passes, or a minimum cycle basis.  Every member of the
basis is tight and not null-homologous, so it is on the first list, and
the scan keeps the same cycles from it as from the tight list (the
``tight`` module docstring says why).
"""

from __future__ import annotations

from .graph import Cycle, Graph, cycle_from_mask
from .mcb import ENGINES, BasisReport
from .simplicial import SimplicialComplex, skeleton
from .tight import basis_cycles


def mhb_tight(k: SimplicialComplex) -> BasisReport:
    """Earliest basis, modulo the triangle boundaries, of ``basis_cycles``
    counted from the homology roots of each block."""
    g, elim = skeleton(k), k.elimination
    cycles = elim.earliest(lambda: basis_cycles(g, elim.annotation))
    return BasisReport("tight", cycles, boundary_profile=elim.kept)


def mhb_via_mcb(k: SimplicialComplex, mcb_engine: str = "earliest") -> BasisReport:
    """Earliest basis, modulo the triangle boundaries, of a minimum cycle basis."""
    try:
        engine = ENGINES[mcb_engine]
    except KeyError:
        raise ValueError(f"unknown mcb engine {mcb_engine!r}") from None
    g, elim = skeleton(k), k.elimination
    by_weight = lambda: sorted(engine(g).cycles, key=lambda c: (c.base, c.mask))
    return BasisReport("via_mcb", elim.earliest(by_weight), boundary_profile=elim.kept)


def _check_cycle(g: Graph, z: Cycle, name: str) -> None:
    """Raise ``ValueError`` prefixed with ``name`` unless ``z`` is a cycle of ``g``."""
    if z.length != g.m:
        raise ValueError(f"{name}: edge-vector length {z.length} != {g.m}")
    try:
        cycle_from_mask(g, z.mask)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def homologous(k: SimplicialComplex, z1: Cycle, z2: Cycle) -> bool:
    """Whether two cycles differ by a sum of triangle boundaries: whether
    their sum has remainder 0 after the boundaries the elimination kept."""
    g = skeleton(k)
    _check_cycle(g, z1, "z1")
    _check_cycle(g, z2, "z2")
    return not k.elimination.remainder(z1.mask ^ z2.mask)

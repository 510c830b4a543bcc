"""Minimum homology basis engines for 1-homology with Z2 coefficients.

Both engines reduce the problem to a column rank profile: seed the
elimination with the triangle boundary columns, then scan a weight-sorted
list of cycles and keep those that grow the rank.  The kept cycles are
independent modulo boundaries and, because the scan order is by weight,
form a minimum-weight homology basis.  The engines differ only in the
cycle list they scan: ``tight.basis_cycles``, which holds every tight cycle
and gives the same kept cycles as the tight list (the ``tight`` module
docstring says why), or a minimum cycle basis.
"""

from __future__ import annotations

from typing import Callable

from .errors import InternalInvariantError
from .graph import Cycle, Graph, cycle_from_mask, cyclomatic_number
from .mcb import ENGINES, BasisReport, earliest_cycles
from .simplicial import SimplicialComplex, _boundary_elimination, skeleton
from .tight import basis_cycles


def _profile_basis(
    k: SimplicialComplex, g: Graph, cycle_columns: Callable[[], list[Cycle]], engine: str
) -> BasisReport:
    """Rank profile of the boundary columns, then of ``cycle_columns()``.

    ``g`` is the 1-skeleton; the scan stops once the rank reaches its
    cycle rank, and the kept cycles must number cycle rank minus boundary
    rank, that is beta1.  When beta1 is 0 the basis is empty and
    ``cycle_columns`` is never called, so no cycle list is built.
    """
    cycle_rank = cyclomatic_number(g)
    tracker, boundary_sel = _boundary_elimination(k)
    beta1 = cycle_rank - len(boundary_sel)
    chosen = earliest_cycles(tracker, cycle_columns(), cycle_rank) if beta1 else []
    if len(chosen) != beta1:
        raise InternalInvariantError(
            f"rank profile split selected {len(chosen)} cycle columns; expected "
            f"{beta1} (cycle rank {cycle_rank} - boundary rank {len(boundary_sel)})"
        )
    return BasisReport(engine, chosen, boundary_profile=tuple(boundary_sel))


def mhb_tight(k: SimplicialComplex) -> BasisReport:
    """Rank profile of the boundary columns followed by ``basis_cycles``:
    every tight cycle, counted from a feedback vertex set of each block."""
    g = skeleton(k)
    return _profile_basis(k, g, lambda: basis_cycles(g).cycles, "tight")


def mhb_via_mcb(k: SimplicialComplex, mcb_engine: str = "earliest") -> BasisReport:
    """Rank profile of the boundary columns followed by a minimum cycle basis."""
    try:
        engine = ENGINES[mcb_engine]
    except KeyError:
        raise ValueError(f"unknown mcb engine {mcb_engine!r}") from None
    g = skeleton(k)
    by_weight = lambda: sorted(engine(g).cycles, key=lambda c: (c.base, c.mask))
    return _profile_basis(k, g, by_weight, "via_mcb")


def _check_cycle(g: Graph, z: Cycle, name: str) -> None:
    """Raise ``ValueError`` prefixed with ``name`` unless ``z`` is a cycle of ``g``."""
    if z.length != g.m:
        raise ValueError(f"{name}: edge-vector length {z.length} != {g.m}")
    try:
        cycle_from_mask(g, z.mask)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def homologous(k: SimplicialComplex, z1: Cycle, z2: Cycle) -> bool:
    """Whether two cycles differ by a sum of triangle boundaries."""
    g = skeleton(k)
    _check_cycle(g, z1, "z1")
    _check_cycle(g, z2, "z2")
    return not _boundary_elimination(k)[0].add(z1.mask ^ z2.mask)

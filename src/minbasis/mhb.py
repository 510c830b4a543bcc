"""Minimum homology basis engines for 1-homology with Z2 coefficients.

Both engines reduce the problem to a column rank profile: seed the
elimination with the triangle boundary columns, then scan a weight-sorted
list of cycles and keep those that grow the rank, that is those whose
homology class (read from the edge annotations of the boundary
elimination) is independent of the classes kept so far.  The kept cycles
are independent modulo boundaries and, because the scan order is by
weight, form a minimum-weight homology basis.  The engines differ only in
the cycle list they scan: ``tight.basis_cycles`` counted from the
homology roots of each block, which every cycle that is not
null-homologous passes, or a minimum cycle basis.  Every member of the
basis is tight and not null-homologous, so it is on the first list, and
the scan keeps the same cycles from it as from the tight list (the
``tight`` module docstring says why).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .errors import InternalInvariantError
from .gf2 import SpanTracker
from .graph import Cycle, Graph, cycle_from_mask
from .mcb import ENGINES, BasisReport
from .simplicial import SimplicialComplex, _boundary_elimination, homology_class, skeleton
from .tight import basis_cycles


def _profile_basis(
    k: SimplicialComplex, cycle_columns: Callable[[list[int]], Iterable[Cycle]], engine: str
) -> BasisReport:
    """Rank profile of the boundary columns, then of ``cycle_columns(annotation)``.

    A cycle is kept when its homology class is independent of the classes
    kept so far; the scan stops at beta1 kept cycles, cycle rank minus
    boundary rank, and must reach it.  When beta1 is 0 the basis is empty and
    ``cycle_columns`` is never called, so no cycle list is built.
    """
    annotation, boundary_sel, cycle_rank = _boundary_elimination(k)
    beta1 = cycle_rank - len(boundary_sel)
    tracker = SpanTracker()
    chosen: list[Cycle] = []
    if beta1:
        for c in cycle_columns(annotation):
            if tracker.add(homology_class(annotation, c.mask)):
                chosen.append(c)
                if len(chosen) == beta1:
                    break
    if len(chosen) != beta1:
        raise InternalInvariantError(
            f"rank profile split selected {len(chosen)} cycle columns; expected "
            f"{beta1} (cycle rank {cycle_rank} - boundary rank {len(boundary_sel)})"
        )
    return BasisReport(engine, chosen, boundary_profile=tuple(boundary_sel))


def mhb_tight(k: SimplicialComplex) -> BasisReport:
    """Rank profile of the boundary columns followed by ``basis_cycles``
    counted from the homology roots of each block."""
    g = skeleton(k)
    return _profile_basis(k, lambda annotation: basis_cycles(g, annotation).cycles, "tight")


def mhb_via_mcb(k: SimplicialComplex, mcb_engine: str = "earliest") -> BasisReport:
    """Rank profile of the boundary columns followed by a minimum cycle basis."""
    try:
        engine = ENGINES[mcb_engine]
    except KeyError:
        raise ValueError(f"unknown mcb engine {mcb_engine!r}") from None
    g = skeleton(k)
    by_weight = lambda annotation: sorted(engine(g).cycles, key=lambda c: (c.base, c.mask))
    return _profile_basis(k, by_weight, "via_mcb")


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
    their homology classes, read from the edge annotations, are equal."""
    g = skeleton(k)
    _check_cycle(g, z1, "z1")
    _check_cycle(g, z2, "z2")
    return not homology_class(_boundary_elimination(k)[0], z1.mask ^ z2.mask)

"""Brute-force reference implementations for small instances.

Everything here prefers exhaustive enumeration over cleverness so the
results can serve as an independent check of the production engines:
cycle vectors come from all combinations of fundamental cycles, shortest
paths from enumerating every simple path, tightness from the raw
pairwise definition, and both bases from one weight-sorted greedy whose
tracker takes a complex's boundaries first, so beta1 is its own count,
not the production elimination's.  The budgets ``MAX_CYCLE_RANK`` and
``MAX_VERTICES`` refuse instances that would blow up instead of hanging.
"""

from __future__ import annotations

from .errors import BudgetExceededError, InternalInvariantError
from .gf2 import SpanTracker, bit_mask
from .graph import Cycle, Graph, cycle_from_mask, cyclomatic_number, fundamental_cycles
from .mcb import BasisReport
from .simplicial import SimplicialComplex, skeleton
from .tight import TightCycleSet

ORACLE_VERSION = 1

MAX_CYCLE_RANK = 16  # all 2^nu - 1 cycle vectors are listed
MAX_VERTICES = 12  # every simple path and cycle is walked


def _check_rank_budget(g: Graph) -> int:
    nu = cyclomatic_number(g)
    if nu > MAX_CYCLE_RANK:
        raise BudgetExceededError(f"cycle rank {nu} exceeds oracle budget {MAX_CYCLE_RANK}")
    return nu


def all_cycle_vectors(g: Graph) -> list[Cycle]:
    """Every nonzero cycle-space vector (2^nu - 1 of them)."""
    nu = _check_rank_budget(g)
    fund = [c.mask for c in fundamental_cycles(g)]
    masks = [0] * (1 << nu)
    out: list[Cycle] = []
    for k in range(1, 1 << nu):
        low = k & -k
        masks[k] = masks[k ^ low] ^ fund[low.bit_length() - 1]
        out.append(cycle_from_mask(g, masks[k]))
    return out


def _greedy(g: Graph, boundaries: tuple[int, ...]) -> BasisReport:
    """Greedy minimum basis modulo the cycles ``boundaries``: one tracker
    takes them in order, keeping the ``boundary_profile``, then every cycle
    vector by weight, keeping nu minus their rank."""
    nu = _check_rank_budget(g)
    vectors = sorted(all_cycle_vectors(g), key=lambda c: c.weight)
    tracker = SpanTracker()
    kept = tuple(t for t, bits in enumerate(boundaries) if tracker.add(bits))
    chosen = [c for c in vectors if tracker.add(c.mask)]
    if len(chosen) != nu - len(kept):
        raise InternalInvariantError(f"greedy kept {len(chosen)} cycles, not {nu} - {len(kept)}")
    return BasisReport("oracle", chosen, boundary_profile=kept)


def brute_mcb(g: Graph) -> BasisReport:
    """Greedy minimum basis over the full cycle space, sorted by weight."""
    return _greedy(g, ())


def brute_mhb(k: SimplicialComplex) -> BasisReport:
    """Greedy minimum basis modulo the triangle boundaries over the full
    cycle space; beta1 is the number of cycles it keeps."""
    return _greedy(skeleton(k), k.boundaries)


def _elementary_cycles(g: Graph) -> list[tuple[list[int], list[int]]]:
    """All elementary cycles as (vertex walk, edge walk) pairs.

    Each cycle is produced exactly once: the walk starts at its smallest
    vertex and the first edge index is smaller than the last, which also
    covers two-edge cycles made of parallel edges.
    """
    if g.n > MAX_VERTICES:
        raise BudgetExceededError(f"{g.n} vertices exceed oracle budget {MAX_VERTICES}")
    out: list[tuple[list[int], list[int]]] = []

    def extend(start: int, v: int, visited: int, verts: list[int], walk: list[int]):
        for e_idx in g.incident(v):
            o = g.other_end(e_idx, v)
            if o == start:
                if walk and e_idx > walk[0]:
                    out.append((verts.copy(), walk + [e_idx]))
                continue
            if o < start or (visited >> o) & 1:
                continue
            verts.append(o)
            walk.append(e_idx)
            extend(start, o, visited | (1 << o), verts, walk)
            verts.pop()
            walk.pop()

    for s in range(g.n):
        extend(s, s, 1 << s, [s], [])
    return out


def _min_path_table(g: Graph) -> list[list[tuple[int, int] | None]]:
    """Pairwise minimum (weight, edge mask) keys over all simple paths."""
    table: list[list[tuple[int, int] | None]] = [[None] * g.n for _ in range(g.n)]
    for s in range(g.n):
        best = table[s]
        best[s] = (0, 0)

        def walk(v: int, visited: int, base: int, emask: int):
            for e_idx in g.incident(v):
                o = g.other_end(e_idx, v)
                if (visited >> o) & 1:
                    continue
                key = (base + g.edges[e_idx].w, emask | (1 << e_idx))
                if best[o] is None or key < best[o]:
                    best[o] = key
                walk(o, visited | (1 << o), key[0], key[1])

        walk(s, 1 << s, 0, 0)
    return table


def brute_tight_cycles(g: Graph) -> TightCycleSet:
    """Exhaustive enumeration filtered by the pairwise tightness definition."""
    _check_rank_budget(g)
    walks = _elementary_cycles(g)
    table = _min_path_table(g)
    tight: list[Cycle] = []
    for verts, walk in walks:
        k = len(walk)
        total_b = sum(g.edges[e].w for e in walk)
        total_m = bit_mask(walk)
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                arc_b = sum(g.edges[e].w for e in walk[i:j])
                arc_m = bit_mask(walk[i:j])
                one = (arc_b, arc_m)
                two = (total_b - arc_b, total_m ^ arc_m)
                if min(one, two) != table[verts[i]][verts[j]]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            tight.append(cycle_from_mask(g, total_m))
    tight.sort(key=lambda c: c.weight)
    return TightCycleSet(tight)

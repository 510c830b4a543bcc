"""Simplicial complexes of dimension <= 2 with weighted edges.

Simplices are canonical sorted vertex tuples.  Only edges carry weights;
triangles contribute boundaries.  Only triangles matter for 1-dimensional
homology, so dimension-3-or-higher input is rejected outright rather than
silently dropped: the file would describe a different complex from the
one analysed.  A complex is valid by construction, so nothing downstream
checks it again.

A complex's homology is computed by ``graph.eliminate`` on its skeleton
with the triangle boundaries, the masks kept in ``boundaries``; a graph
is the case with no triangles.  That one elimination, built on first use
and kept as ``elimination``, serves ``homology_profile`` (``betti``),
both MHB engines and ``mhb.homologous``: a cycle's homology class is its
remainder after the kept boundaries, the XOR of its edges' annotations
(Busaryev, Cabello, Chen, Dey and Wang, SWAT 2012).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError
from .gf2 import Gf2Matrix
from .graph import MAX_WEIGHT, Edge, Elimination, Graph, eliminate, parse_ints, records


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertices ``0..n-1``, indexed weighted edges, and triangles.

    Construction builds the 1-skeleton once, and ``Graph`` checks the
    vertex count and the edges.  A triangle's one rule is that its edges
    exist (``Graph`` takes no edge out of range or on one vertex twice).
    Duplicate simplices and missing triangle edges raise one
    ``ValueError("invalid complex: ...")`` naming each in input order,
    duplicate edges first; the same pass keeps each triangle's boundary as
    an edge mask, in triangle order, in ``boundaries``.
    """

    n: int
    edges: tuple[Edge, ...]
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        g = Graph(self.n, [(min(u, v), max(u, v), w) for u, v, w in self.edges])
        violations = []
        ids: dict[tuple[int, int], int] = {}
        for idx, e in enumerate(g.edges):
            if (e.u, e.v) in ids:
                violations.append(f"duplicate edge ({e.u}, {e.v})")
            else:
                ids[e.u, e.v] = idx
        canon_tris = []
        masks = []
        seen_t: set[tuple[int, int, int]] = set()
        for t in self.triangles:
            a, b, c = t = tuple(sorted(t))
            if t in seen_t:
                violations.append(f"duplicate triangle ({a}, {b}, {c})")
            seen_t.add(t)
            canon_tris.append(t)
            bits = 0
            for u, v in ((a, b), (a, c), (b, c)):
                e_idx = ids.get((u, v))
                if e_idx is None:
                    violations.append(f"triangle ({a}, {b}, {c}) is missing edge ({u}, {v})")
                else:
                    bits |= 1 << e_idx
            masks.append(bits)
        if violations:
            raise ValueError("invalid complex: " + "; ".join(violations))
        object.__setattr__(self, "edges", g.edges)
        object.__setattr__(self, "triangles", tuple(canon_tris))
        # derived state, outside the dataclass fields so eq and repr ignore it
        object.__setattr__(self, "_skeleton", g)
        object.__setattr__(self, "boundaries", tuple(masks))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def n2(self) -> int:
        return len(self.triangles)

    @cached_property
    def elimination(self) -> Elimination:
        """The skeleton's elimination of the boundaries, built on first use."""
        return eliminate(self._skeleton, self.boundaries)


@dataclass(frozen=True)
class HomologyProfile:
    """Component count, first Betti number and the ranks behind them."""

    beta0: int
    beta1: int
    boundary_rank: int  # rank of the triangle boundary matrix
    cycle_rank: int  # dimension of the cycle space of the 1-skeleton


def skeleton(k: SimplicialComplex) -> Graph:
    """The 1-skeleton built at construction, sharing edge indices and weights."""
    return k._skeleton


def boundary_matrix(k: SimplicialComplex, p: int) -> Gf2Matrix:
    """The triangle boundary: edges x triangles, column t the three edges of triangle t.

    The columns are the masks built at construction.  ``p`` names the
    dimension of the simplices; 2 is the only one, and any other p raises
    ``ValueError``.
    """
    if p != 2:
        raise ValueError(f"p must be 2, got {p}")
    return Gf2Matrix.from_bit_columns(k.m, k.boundaries)


def homology_profile(k: SimplicialComplex) -> HomologyProfile:
    """Betti numbers from the ranks of the skeleton's elimination."""
    elim = k.elimination
    cycle_rank = len(elim.nontree)
    return HomologyProfile(k.n - k.m + cycle_rank, elim.rank, len(elim.kept), cycle_rank)


# ---------------------------------------------------------------------------
# Text format: `complex <n>` header, `s 1 <u> <v> <w>` and `s 2 <a> <b> <c>`
# lines.  Edge index = order of appearance; with auto_close the missing
# edges of listed triangles are appended with weight 1, in first-reference
# order, after all explicit edges.

def parse_complex(text: str, auto_close: bool = False) -> SimplicialComplex:
    """Parse the complex text format.

    Format errors raise ``ParseError`` with a 1-based line number; a
    duplicate simplex or a missing triangle edge raises the constructor's
    ``ValueError("invalid complex: ...")``, which names simplices, not lines.
    """
    n = None
    edges: list[tuple[int, int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    for lineno, fields in records(text):
        if n is None:
            if fields[0] != "complex" or len(fields) != 2:
                raise ParseError(f"line {lineno}: expected header 'complex <n>'")
            try:
                (n,) = parse_ints(fields[1:])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex count") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            continue
        if fields[0] != "s" or len(fields) < 2:
            raise ParseError(f"line {lineno}: expected 's <dim> ...'")
        try:
            dim, *rest = parse_ints(fields[1:])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field") from None
        if dim == 1:
            if len(rest) != 3:
                raise ParseError(f"line {lineno}: expected 's 1 <u> <v> <w>'")
            u, v, w = rest
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"line {lineno}: vertex out of range [0, {n})")
            if u == v:
                raise ParseError(f"line {lineno}: degenerate edge")
            if not 0 <= w <= MAX_WEIGHT:
                raise ParseError(f"line {lineno}: weight out of range")
            edges.append((u, v, w))
        elif dim == 2:
            if len(rest) != 3:
                raise ParseError(f"line {lineno}: expected 's 2 <a> <b> <c>'")
            a, b, c = rest
            if not all(0 <= x < n for x in rest):
                raise ParseError(f"line {lineno}: vertex out of range [0, {n})")
            if len({a, b, c}) != 3:
                raise ParseError(f"line {lineno}: degenerate triangle")
            triangles.append((a, b, c))
        else:
            raise ParseError(
                f"line {lineno}: simplex dimension {dim} not supported (only 1 and 2)"
            )
    if n is None:
        raise ParseError("line 1: missing 'complex <n>' header")
    if auto_close:
        present = {(min(u, v), max(u, v)) for u, v, _ in edges}
        for a, b, c in triangles:
            for u, v in ((a, b), (a, c), (b, c)):
                key = (min(u, v), max(u, v))
                if key not in present:
                    present.add(key)
                    edges.append((key[0], key[1], 1))
    return SimplicialComplex(n, tuple(Edge(*e) for e in edges), tuple(triangles))


def load_complex(path, auto_close: bool = False) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read(), auto_close=auto_close)


def format_complex(k: SimplicialComplex, comment: str | None = None) -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"complex {k.n}")
    for e in k.edges:
        lines.append(f"s 1 {e.u} {e.v} {e.w}")
    for t in k.triangles:
        lines.append(f"s 2 {t[0]} {t[1]} {t[2]}")
    return "\n".join(lines) + "\n"


def save_complex(k: SimplicialComplex, path, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_complex(k, comment))

"""Simplicial complexes of dimension <= 2 with weighted edges.

Simplices are canonical sorted vertex tuples.  Only edges carry weights;
triangles contribute boundaries.  Dimension-3-or-higher input is
rejected outright: silently dropping simplices would misreport the total
simplex count, and only triangles matter for 1-dimensional homology.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import ParseError
from .gf2 import Gf2Matrix, Gf2Vector, rank
from .graph import MAX_WEIGHT, Edge, Graph, component_count, parse_ints


@dataclass(frozen=True)
class SimplicialComplex:
    """Vertices ``0..n-1``, indexed weighted edges, and triangles."""

    n: int
    edges: tuple[Edge, ...]
    triangles: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon_edges = []
        for idx, e in enumerate(self.edges):
            u, v, w = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {idx}: vertex out of range")
            if u == v:
                raise ValueError(f"edge {idx}: endpoints must be distinct")
            if not 0 <= w <= MAX_WEIGHT:
                raise ValueError(f"edge {idx}: weight out of range")
            canon_edges.append(Edge(min(u, v), max(u, v), w))
        canon_tris = []
        for idx, t in enumerate(self.triangles):
            a, b, c = sorted(t)
            if not 0 <= a < self.n or c >= self.n:
                raise ValueError(f"triangle {idx}: vertex out of range")
            if a == b or b == c:
                raise ValueError(f"triangle {idx}: vertices must be distinct")
            canon_tris.append((a, b, c))
        object.__setattr__(self, "edges", tuple(canon_edges))
        object.__setattr__(self, "triangles", tuple(canon_tris))

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def n2(self) -> int:
        return len(self.triangles)

    @property
    def total_simplices(self) -> int:
        return self.n + self.m + self.n2

    @cached_property
    def _edge_ids(self) -> dict[tuple[int, int], int]:
        # first occurrence wins; duplicates are caught by validate()
        ids: dict[tuple[int, int], int] = {}
        for idx, e in enumerate(self.edges):
            ids.setdefault((e.u, e.v), idx)
        return ids

    def edge_id(self, u: int, v: int) -> int | None:
        return self._edge_ids.get((min(u, v), max(u, v)))

    def validate(self) -> list[str]:
        """All closure violations and duplicate simplices; empty means ok."""
        violations = []
        seen_e: set[tuple[int, int]] = set()
        for e in self.edges:
            key = (e.u, e.v)
            if key in seen_e:
                violations.append(f"duplicate edge ({e.u}, {e.v})")
            seen_e.add(key)
        seen_t: set[tuple[int, int, int]] = set()
        for t in self.triangles:
            if t in seen_t:
                violations.append(f"duplicate triangle ({t[0]}, {t[1]}, {t[2]})")
            seen_t.add(t)
            a, b, c = t
            for u, v in ((a, b), (a, c), (b, c)):
                if (u, v) not in seen_e:
                    violations.append(
                        f"triangle ({a}, {b}, {c}) is missing edge ({u}, {v})"
                    )
        return violations


@dataclass(frozen=True)
class HomologyProfile:
    """Component count, first Betti number and the ranks behind them."""

    beta0: int
    beta1: int
    boundary_rank: int  # rank of the triangle boundary matrix
    cycle_rank: int  # dimension of the cycle space of the 1-skeleton


def skeleton(k: SimplicialComplex) -> Graph:
    """The 1-skeleton as a graph sharing edge indices and weights."""
    return Graph(k.n, [(e.u, e.v, e.w) for e in k.edges])


def boundary_matrix(k: SimplicialComplex, p: int) -> Gf2Matrix:
    """Boundary matrix whose column t is the face set of simplex t.

    p=1: vertices x edges, ones at the two endpoints of each edge.
    p=2: edges x triangles, ones at the three edges of each triangle.
    """
    if p == 1:
        cols = [Gf2Vector(k.n, (1 << e.u) | (1 << e.v)) for e in k.edges]
        return Gf2Matrix(k.n, cols)
    if p == 2:
        cols = []
        for t in k.triangles:
            a, b, c = t
            bits = 0
            for u, v in ((a, b), (a, c), (b, c)):
                e_idx = k.edge_id(u, v)
                if e_idx is None:
                    raise ValueError(
                        f"triangle ({a}, {b}, {c}) is missing edge ({u}, {v}); "
                        "run validate()"
                    )
                bits |= 1 << e_idx
            cols.append(Gf2Vector(k.m, bits))
        return Gf2Matrix(k.m, cols)
    raise ValueError(f"p must be 1 or 2, got {p}")


def homology_profile(k: SimplicialComplex) -> HomologyProfile:
    """Betti numbers from the ranks of the boundary matrices."""
    beta0 = component_count(skeleton(k))
    cycle_rank = k.m - k.n + beta0
    boundary_rank = rank(boundary_matrix(k, 2)) if k.n2 else 0
    return HomologyProfile(beta0, cycle_rank - boundary_rank, boundary_rank, cycle_rank)


# ---------------------------------------------------------------------------
# Text format: `complex <n>` header, `s 1 <u> <v> <w>` and `s 2 <a> <b> <c>`
# lines.  Edge index = order of appearance; with auto_close the missing
# edges of listed triangles are appended with weight 1, in first-reference
# order, after all explicit edges.

def parse_complex(text: str, auto_close: bool = False) -> SimplicialComplex:
    """Parse the complex text format; errors carry 1-based line numbers."""
    n = None
    edges: list[tuple[int, int, int]] = []
    triangles: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
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

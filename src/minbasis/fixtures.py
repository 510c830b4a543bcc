"""Named test instances, seeded random generators, and fixture files.

Fixture expectations store weight multisets and counts, never concrete
edge sets: bases are not unique but their weight multisets are, so the
expectations stay stable across any correct implementation.  Everything
written by :func:`generate_fixtures` is derived from the oracle module
and regenerates bit-identically for a fixed seed; a complex's ranks are
``oracle.brute_mhb``'s counts, not the production elimination's.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Callable

from . import oracle
from .graph import Edge, Graph, cyclomatic_number, format_graph
from .simplicial import SimplicialComplex, format_complex, skeleton


# -- named graphs -----------------------------------------------------------

def complete_graph(k: int) -> Graph:
    return Graph(k, [(u, v, 1) for u in range(k) for v in range(u + 1, k)])


def k4() -> Graph:
    return complete_graph(4)


def cycle_graph(k: int) -> Graph:
    return Graph(k, [(i, (i + 1) % k, 1) for i in range(k)])


def c5() -> Graph:
    return cycle_graph(5)


def path_graph(k: int) -> Graph:
    return Graph(k, [(i, i + 1, 1) for i in range(k - 1)])


def petersen() -> Graph:
    edges = [(i, (i + 1) % 5, 1) for i in range(5)]
    edges += [(i, i + 5, 1) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
    return Graph(10, edges)


def k23() -> Graph:
    return Graph(5, [(u, v, 1) for u in (0, 1) for v in (2, 3, 4)])


def two_triangles() -> Graph:
    return Graph(6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1)])


# -- named complexes --------------------------------------------------------

def hollow_triangle() -> SimplicialComplex:
    return SimplicialComplex(3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1)), ())


def filled_triangle() -> SimplicialComplex:
    return SimplicialComplex(
        3, (Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1)), ((0, 1, 2),)
    )


def mobius_strip() -> SimplicialComplex:
    """Five-vertex Moebius band: complete 1-skeleton, five triangles."""
    edges = tuple(
        Edge(u, v, 1) for u in range(5) for v in range(u + 1, 5)
    )
    triangles = tuple(tuple(sorted((i, (i + 1) % 5, (i + 2) % 5))) for i in range(5))
    return SimplicialComplex(5, edges, triangles)


def torus_seven() -> SimplicialComplex:
    """Minimal 7-vertex torus triangulation: 21 edges, 14 triangles."""
    edges = tuple(Edge(u, v, 1) for u in range(7) for v in range(u + 1, 7))
    triangles = []
    for i in range(7):
        triangles.append(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))))
        triangles.append(tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))))
    return SimplicialComplex(7, edges, tuple(triangles))


def annulus() -> SimplicialComplex:
    """Two concentric triangles joined by a band of six triangles."""
    edges = tuple(
        Edge(u, v, 1)
        for u, v in (
            (0, 1), (1, 2), (0, 2),  # inner triangle
            (3, 4), (4, 5), (3, 5),  # outer triangle
            (0, 3), (1, 4), (2, 5),  # verticals
            (0, 4), (1, 5), (2, 3),  # diagonals
        )
    )
    triangles = ((0, 1, 4), (0, 3, 4), (1, 2, 5), (1, 4, 5), (0, 2, 3), (2, 3, 5))
    return SimplicialComplex(6, edges, triangles)


# -- seeded random instances ------------------------------------------------

def _tree_plus_edges(
    rng: random.Random, n: int, extra: Callable[[int], int], weights: tuple[int, int]
) -> Graph:
    """Random spanning tree plus ``extra(free)`` distinct sampled edges,
    where ``free`` counts the vertex pairs the tree leaves unused; the
    edge list is shuffled to vary edge indexing, not just topology."""
    edges: list[tuple[int, int, int]] = []
    used: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(*weights)))
        used.add((u, v))
    avail = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in used]
    for u, v in rng.sample(avail, extra(len(avail))):
        edges.append((u, v, rng.randint(*weights)))
    rng.shuffle(edges)
    return Graph(n, edges)


def random_connected_graph(
    rng: random.Random,
    min_n: int = 3,
    max_n: int = 10,
    max_extra: int = 6,
    weights: tuple[int, int] = (1, 8),
) -> Graph:
    """Random spanning tree plus up to ``max_extra`` distinct extra edges;
    always connected."""
    n = rng.randint(min_n, max_n)
    return _tree_plus_edges(
        rng, n, lambda free: rng.randint(0, min(max_extra, free)), weights
    )


def random_graph_nm(
    rng: random.Random, n: int, m: int, weights: tuple[int, int] = (1, 8)
) -> Graph:
    """Connected random graph with exactly n vertices and m simple edges."""
    if m < n - 1 or m > n * (n - 1) // 2:
        raise ValueError("edge count incompatible with a connected simple graph")
    return _tree_plus_edges(rng, n, lambda free: m - (n - 1), weights)


def random_complex(rng: random.Random, min_n: int = 3, max_n: int = 8) -> SimplicialComplex:
    """Random graph plus a random subset of its filled-in triangles."""
    g = random_connected_graph(rng, min_n, max_n, max_extra=5)
    present = {(e.u, e.v) for e in g.edges}
    triangles = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if (a, b) not in present:
                continue
            for c in range(b + 1, g.n):
                if (a, c) in present and (b, c) in present:
                    if rng.random() < 0.5:
                        triangles.append((a, b, c))
    return SimplicialComplex(
        g.n, tuple(Edge(e.u, e.v, e.w) for e in g.edges), tuple(triangles)
    )


# -- fixture files ------------------------------------------------------------

def _graph_expectations(g: Graph) -> dict:
    basis = oracle.brute_mcb(g)
    tight = oracle.brute_tight_cycles(g)
    return {
        "nu": cyclomatic_number(g),
        "total_weight": basis.total_weight,
        "weights": list(basis.weight_multiset()),
        "tight_count": len(tight.cycles),
        "tight_total_length": tight.total_length,
    }


def _complex_expectations(k: SimplicialComplex) -> dict:
    nu = cyclomatic_number(skeleton(k))
    basis = oracle.brute_mhb(k)
    return {
        "beta0": k.n - k.m + nu,
        "beta1": len(basis.cycles),
        "boundary_rank": len(basis.boundary_profile),
        "cycle_rank": nu,
        "total_weight": basis.total_weight,
        "weights": list(basis.weight_multiset()),
    }


NAMED_GRAPHS = {
    "k4": k4,
    "c5": c5,
    "petersen": petersen,
    "k23": k23,
    "two_triangles": two_triangles,
    "tree": lambda: path_graph(4),
}

NAMED_COMPLEXES = {
    "hollow_triangle": hollow_triangle,
    "filled_triangle": filled_triangle,
    "mobius": mobius_strip,
    "torus7": torus_seven,
    "annulus": annulus,
}


def generate_fixtures(seed: int, out_dir) -> list[dict]:
    """Write every named and seeded instance plus its oracle expectations.

    One manifest JSON per instance, next to the input file.  Returns the
    manifests in generation order.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifests: list[dict] = []

    def emit(name: str, kind: str, text: str, expected: dict) -> None:
        input_name = f"{name}.grf" if kind == "graph" else f"{name}.scx"
        (out / input_name).write_text(text, encoding="utf-8")
        manifest = {
            "name": name,
            "kind": kind,
            "input": input_name,
            "oracle_version": oracle.ORACLE_VERSION,
            "expected": expected,
        }
        (out / f"{name}.expect.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
        manifests.append(manifest)

    for name, build in NAMED_GRAPHS.items():
        g = build()
        emit(name, "graph", format_graph(g, comment=name), _graph_expectations(g))
    for name, build in NAMED_COMPLEXES.items():
        k = build()
        emit(name, "complex", format_complex(k, comment=name), _complex_expectations(k))

    rng = random.Random(seed)
    for i in range(20):
        g = random_connected_graph(rng)
        emit(
            f"rand_g{i:02d}",
            "graph",
            format_graph(g, comment=f"seeded random graph {i}"),
            _graph_expectations(g),
        )
    for i in range(10):
        k = random_complex(rng)
        emit(
            f"rand_c{i:02d}",
            "complex",
            format_complex(k, comment=f"seeded random complex {i}"),
            _complex_expectations(k),
        )
    return manifests

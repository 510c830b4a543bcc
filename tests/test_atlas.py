"""Every small graph against the brute-force oracle.

``networkx.graph_atlas_g()`` lists every graph with up to 7 vertices
(1,253 of them, 1,245 with an edge), all inside the oracle's budget.
Each graph gets a weight pattern seeded by its atlas index, cycling
through unit weights, weights in {0, 1} and weights 1..8, so equal
weights everywhere, zero weights and cut vertices all come up.
"""

import itertools
import random

import pytest

from minbasis.graph import Graph
from minbasis.mcb import ENGINES
from minbasis.mhb import mhb_tight, mhb_via_mcb
from minbasis.oracle import brute_mcb, brute_mhb, brute_tight_cycles
from minbasis.simplicial import SimplicialComplex
from minbasis.tight import enumerate_tight_cycles

WEIGHTS = [(1, 1), (0, 1), (1, 8)]  # weight range, by atlas index mod 3


def _atlas():
    """(index, n, sorted edges with seeded weights) for each atlas graph with an edge."""
    nx = pytest.importorskip("networkx")
    for index, G in enumerate(nx.graph_atlas_g()):
        if G.number_of_edges():
            rng = random.Random(index)
            lo, hi = WEIGHTS[index % len(WEIGHTS)]
            edges = [(u, v, rng.randint(lo, hi)) for u, v in sorted(G.edges())]
            yield index, G.number_of_nodes(), edges


def test_mcb_engines_and_tight_cycles_on_the_atlas():
    disagreements = []
    for index, n, edges in _atlas():
        g = Graph(n, edges)
        want = {c.mask for c in brute_mcb(g).cycles}
        for name, engine in ENGINES.items():
            if {c.mask for c in engine(g).cycles} != want:
                disagreements.append((index, name))
        if enumerate_tight_cycles(g) != brute_tight_cycles(g):
            disagreements.append((index, "tight"))
    assert disagreements == []


def test_mhb_engines_on_atlas_clique_complexes():
    """The clique complex of each atlas graph up to 6 vertices, with all its
    triangles and with a seeded half of them."""
    disagreements = []
    for index, n, edges in _atlas():
        if n > 6:
            break
        adjacent = {(u, v) for u, v, _ in edges}
        triangles = [
            t for t in itertools.combinations(range(n), 3)
            if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= adjacent
        ]
        half = random.Random(index).sample(triangles, len(triangles) // 2)
        for kept in (triangles, half):
            k = SimplicialComplex(n, tuple(edges), tuple(kept))
            want = brute_mhb(k)
            for engine in (mhb_tight, mhb_via_mcb):
                got = engine(k)
                if (got.cycles, got.boundary_profile) != (want.cycles, want.boundary_profile):
                    disagreements.append((index, len(kept), engine.__name__))
    assert disagreements == []

import random
from pathlib import Path

import pytest

from minbasis.errors import BudgetExceededError
from minbasis.fixtures import (
    c5,
    filled_triangle,
    generate_fixtures,
    hollow_triangle,
    k4,
    k23,
    mobius_strip,
    path_graph,
    petersen,
    random_complex,
    random_connected_graph,
    two_triangles,
)
from minbasis.gf2 import SpanTracker
from minbasis.graph import Graph, cyclomatic_number, eliminate
from minbasis.oracle import all_cycle_vectors, brute_mcb, brute_mhb, brute_tight_cycles
from minbasis.simplicial import load_complex, skeleton

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_all_cycle_vectors_counts():
    assert all_cycle_vectors(path_graph(4)) == []
    assert len(all_cycle_vectors(c5())) == 1
    assert len(all_cycle_vectors(k4())) == 7  # 2^3 - 1


def test_all_cycle_vectors_distinct_and_even():
    vecs = all_cycle_vectors(k4())
    masks = {c.mask for c in vecs}
    assert len(masks) == len(vecs)
    assert 0 not in masks


def test_budget_refusals():
    big = Graph(2, [(0, 1, 1)] * 18)  # 17 parallel extras -> rank 17
    with pytest.raises(BudgetExceededError):
        all_cycle_vectors(big)
    with pytest.raises(BudgetExceededError):
        brute_mcb(big)
    with pytest.raises(BudgetExceededError, match="cycle rank 17 exceeds oracle budget 16"):
        brute_tight_cycles(big)
    with pytest.raises(BudgetExceededError, match="13 vertices exceed oracle budget 12"):
        brute_tight_cycles(path_graph(13))
    assert brute_tight_cycles(path_graph(12)).cycles == []


def test_brute_mcb_values():
    assert brute_mcb(k4()).total_weight == 9
    assert brute_mcb(c5()).total_weight == 5
    assert brute_mcb(two_triangles()).total_weight == 6
    assert brute_mcb(petersen()).total_weight == 30


def test_brute_mcb_structure():
    report = brute_mcb(k4())
    assert report.engine == "oracle"
    assert len(report.cycles) == cyclomatic_number(k4())
    assert report.weight_multiset() == (3, 3, 3)


def test_brute_mcb_is_lower_bound_for_random_independent_subsets():
    rng = random.Random(9)
    for _ in range(10):
        g = random_connected_graph(rng, max_n=7, max_extra=4)
        nu = cyclomatic_number(g)
        if nu == 0:
            continue
        vectors = all_cycle_vectors(g)
        best = brute_mcb(g).total_weight
        for _ in range(25):
            rng.shuffle(vectors)
            tracker = SpanTracker()
            picked = [c for c in vectors if tracker.add(c.mask)]
            assert len(picked) == nu
            assert sum(c.weight.base for c in picked) >= best


def test_brute_mcb_greedy_exchange_property():
    rng = random.Random(11)
    for _ in range(8):
        g = random_connected_graph(rng, max_n=6, max_extra=3)
        basis = brute_mcb(g).cycles
        vectors = all_cycle_vectors(g)
        for i, member in enumerate(basis):
            rest = [c.mask for j, c in enumerate(basis) if j != i]
            for candidate in vectors:
                if candidate.weight < member.weight and candidate.mask not in {
                    c.mask for c in basis
                }:
                    tracker = SpanTracker()
                    for mask in rest:
                        assert tracker.add(mask)
                    # a strictly lighter replacement must be dependent
                    assert not tracker.add(candidate.mask)


def test_brute_mhb_values():
    assert brute_mhb(filled_triangle()).cycles == []
    hollow = brute_mhb(hollow_triangle())
    assert hollow.total_weight == 3 and len(hollow.cycles) == 1
    mobius = brute_mhb(mobius_strip())
    assert mobius.total_weight == 3 and len(mobius.cycles) == 1


def test_oracle_and_fixtures_run_without_the_elimination(monkeypatch, tmp_path):
    # the oracle checks the engines, so it must not lean on their elimination
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called eliminate")

    monkeypatch.setattr("minbasis.graph.eliminate", refuse)
    monkeypatch.setattr("minbasis.simplicial.eliminate", refuse)
    assert brute_mcb(petersen()).total_weight == 30
    assert brute_mhb(mobius_strip()).total_weight == 3
    manifests = generate_fixtures(7, tmp_path)
    assert {m["name"]: m["expected"] for m in manifests}["torus7"]["beta1"] == 2


def test_brute_mhb_ranks_match_the_elimination():
    complexes = [load_complex(path) for path in sorted(FIXTURES.glob("*.scx"))]
    assert len(complexes) == 15
    complexes += [random_complex(random.Random(seed)) for seed in range(200)]
    for k in complexes:
        report = brute_mhb(k)
        elim = eliminate(skeleton(k), k.boundaries)
        assert len(report.cycles) == elim.rank
        assert report.boundary_profile == elim.kept


def test_brute_tight_values():
    assert len(brute_tight_cycles(c5()).cycles) == 1
    k4_tight = brute_tight_cycles(k4())
    assert len(k4_tight.cycles) == 4
    assert all(c.edge_count() == 3 for c in k4_tight.cycles)
    # tie-breaking keeps only two of the three equal-weight 4-cycles
    assert len(brute_tight_cycles(k23()).cycles) == 2


def test_brute_tight_handles_parallel_edges():
    g = Graph(2, [(0, 1, 2), (0, 1, 3)])
    tcs = brute_tight_cycles(g)
    assert len(tcs.cycles) == 1
    assert tcs.cycles[0].edge_count() == 2
    assert tcs.cycles[0].weight.base == 5

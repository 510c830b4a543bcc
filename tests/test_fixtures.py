import hashlib
import json
import random

from minbasis.fixtures import (
    NAMED_COMPLEXES,
    NAMED_GRAPHS,
    generate_fixtures,
    random_complex,
    random_connected_graph,
    random_graph_nm,
)
from minbasis.graph import component_count, cyclomatic_number, load_graph
from minbasis.oracle import brute_mcb, brute_mhb
from minbasis.simplicial import homology_profile, load_complex


def test_generate_fixtures_layout(tmp_path):
    manifests = generate_fixtures(7, tmp_path / "fx")
    graphs = [m for m in manifests if m["kind"] == "graph"]
    complexes = [m for m in manifests if m["kind"] == "complex"]
    assert len(graphs) == len(NAMED_GRAPHS) + 20
    assert len(complexes) == len(NAMED_COMPLEXES) + 10
    for m in manifests:
        input_path = tmp_path / "fx" / m["input"]
        assert input_path.exists()
        manifest_path = tmp_path / "fx" / f"{m['name']}.expect.json"
        assert json.loads(manifest_path.read_text()) == m


def test_generate_fixtures_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    manifests_a = generate_fixtures(7, a)
    manifests_b = generate_fixtures(7, b)
    assert manifests_a == manifests_b
    for m in manifests_a:
        for name in (m["input"], f"{m['name']}.expect.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_expectations_regenerate_from_oracle(tmp_path):
    manifests = generate_fixtures(7, tmp_path / "fx")
    for m in manifests:
        path = tmp_path / "fx" / m["input"]
        if m["kind"] == "graph":
            g = load_graph(path)
            basis = brute_mcb(g)
            assert m["expected"]["nu"] == cyclomatic_number(g)
            assert m["expected"]["total_weight"] == basis.total_weight
            assert tuple(m["expected"]["weights"]) == basis.weight_multiset()
        else:
            k = load_complex(path)  # raises on an invalid complex
            profile = homology_profile(k)
            basis = brute_mhb(k)
            assert m["expected"]["beta1"] == profile.beta1
            assert m["expected"]["total_weight"] == basis.total_weight
            assert tuple(m["expected"]["weights"]) == basis.weight_multiset()


def test_named_fixture_headline_values(tmp_path):
    manifests = {m["name"]: m for m in generate_fixtures(7, tmp_path / "fx")}
    assert manifests["k4"]["expected"]["total_weight"] == 9
    assert manifests["petersen"]["expected"]["total_weight"] == 30
    assert manifests["petersen"]["expected"]["weights"] == [5] * 6
    assert manifests["torus7"]["expected"]["beta1"] == 2
    assert manifests["torus7"]["expected"]["total_weight"] == 6
    assert manifests["mobius"]["expected"]["beta1"] == 1
    assert manifests["mobius"]["expected"]["total_weight"] == 3
    assert manifests["annulus"]["expected"]["total_weight"] == 3
    assert manifests["filled_triangle"]["expected"]["beta1"] == 0
    assert manifests["tree"]["expected"]["nu"] == 0


def test_committed_fixture_directory_in_sync(tmp_path):
    import pathlib

    committed = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    if not committed.is_dir():
        import pytest

        pytest.skip("no committed fixtures directory")
    generate_fixtures(7, tmp_path / "fx")
    fresh = sorted(p.name for p in (tmp_path / "fx").iterdir())
    assert sorted(p.name for p in committed.iterdir()) == fresh
    for name in fresh:
        assert (committed / name).read_bytes() == (tmp_path / "fx" / name).read_bytes()


def test_random_generators_respect_bounds():
    rng = random.Random(123)
    for _ in range(50):
        g = random_connected_graph(rng)
        assert 3 <= g.n <= 10
        assert component_count(g) == 1
        assert all(1 <= e.w <= 8 for e in g.edges)
    for _ in range(30):
        k = random_complex(rng)  # raises on an invalid complex
        assert 3 <= k.n <= 8


def test_random_graph_nm_exact_counts():
    rng = random.Random(5)
    g = random_graph_nm(rng, 20, 40)
    assert g.n == 20 and g.m == 40 and component_count(g) == 1
    pairs = {(e.u, e.v) for e in g.edges}
    assert len(pairs) == 40  # simple graph


def test_random_graph_nm_edge_lists_are_pinned():
    """The benchmark's graph workloads and their stored references come
    from ``random_graph_nm``; a change in its draw order changes them."""
    h = hashlib.sha256()
    for seed in range(4):
        g = random_graph_nm(random.Random(seed), 200, 1000)
        h.update(repr((g.n, [(e.u, e.v, e.w) for e in g.edges])).encode())
    assert h.hexdigest()[:16] == "e7e71392a3047ca7"

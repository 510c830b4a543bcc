import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import helpers
import minbasis
from minbasis import cli, oracle
from minbasis.fixtures import (
    complete_graph,
    filled_triangle,
    k4,
    path_graph,
    random_complex,
    random_connected_graph,
    random_graph_nm,
    torus_seven,
)
from minbasis.graph import MAX_WEIGHT, Graph, cyclomatic_number, load_graph, save_graph
from minbasis.simplicial import SimplicialComplex, load_complex, save_complex
from minbasis.tight import enumerate_tight_cycles

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.grf"
    save_graph(k4(), path)
    return path


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.scx"
    save_complex(torus_seven(), path)
    return path


def test_mcb_json_k4(k4_file):
    code, out, err = run_cli(["mcb", "--engine", "earliest", str(k4_file), "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["engine"] == "earliest"
    assert payload["nu"] == 3
    assert payload["total_weight"] == 9
    assert len(payload["cycles"]) == 3
    for c in payload["cycles"]:
        assert c["edges"] == sorted(c["edges"])


def test_mcb_json_round_trips_weights(k4_file):
    g = load_graph(k4_file)
    for engine in ("earliest", "depina", "kavitha"):
        code, out, _ = run_cli(["mcb", "--engine", engine, str(k4_file), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        total = 0
        for c in payload["cycles"]:
            w = sum(g.edges[i].w for i in c["edges"])
            assert w == c["weight"]
            total += w
        assert total == payload["total_weight"]


def test_mcb_text_tree(tmp_path):
    path = tmp_path / "tree.grf"
    save_graph(path_graph(4), path)
    code, out, err = run_cli(["mcb", str(path)])
    assert code == 0
    assert "nu: 0" in out and "total_weight: 0" in out


def test_mcb_text_truncates_long_listings(tmp_path):
    g = random_graph_nm(random.Random(4), 30, 90)
    path = tmp_path / "big.grf"
    save_graph(g, path)
    code, out, _ = run_cli(["mcb", str(path)])
    assert code == 0
    assert "more cycles not shown" in out
    assert out.count("cycle ") == cli.TEXT_CYCLE_CAP
    code, out_json, _ = run_cli(["mcb", str(path), "--format", "json"])
    assert len(json.loads(out_json)["cycles"]) == 61  # never truncated


def test_mhb_json_torus(torus_file):
    code, out, _ = run_cli(["mhb", str(torus_file), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["engine"] == "tight"
    assert payload["beta1"] == 2
    assert payload["total_weight"] == 6
    code, out, _ = run_cli(
        ["mhb", str(torus_file), "--engine", "via-mcb", "--mcb-engine", "kavitha", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["total_weight"] == 6


def test_tight_cycles_json_default(k4_file):
    code, out, _ = run_cli(["tight-cycles", str(k4_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert payload["total_length"] == 12
    weights = [c["weight"] for c in payload["cycles"]]
    assert weights == sorted(weights)


def test_betti_text(torus_file):
    code, out, err = run_cli(["betti", str(torus_file)])
    assert code == 0 and err == ""
    assert out == "beta0=1 beta1=2\n"


def test_betti_json(torus_file):
    code, out, _ = run_cli(["betti", str(torus_file), "--format", "json"])
    payload = json.loads(out)
    assert payload == {"beta0": 1, "beta1": 2, "boundary_rank": 13, "cycle_rank": 15}


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.grf"
    bad.write_text("graph 2 1\ne 0 5 1\n")
    code, out, err = run_cli(["mcb", str(bad)])
    assert code == 1
    assert "line 2" in err and out == ""


def test_non_ascii_weight_exit_1(tmp_path):
    bad = tmp_path / "bad.grf"
    bad.write_text("graph 3 1\ne 1 2 \u0663\n", encoding="utf-8")
    code, out, err = run_cli(["mcb", str(bad)])
    assert code == 1 and out == ""
    assert "line 2: non-integer edge field" in err


def test_missing_file_exit_1(tmp_path):
    code, _, err = run_cli(["mcb", str(tmp_path / "nope.grf")])
    assert code == 1 and err.startswith("error:")


def test_usage_error_exit_1():
    code, _, err = run_cli(["mcb"])
    assert code == 1 and "usage" in err.lower()
    code, _, _ = run_cli(["mcb", "--engine", "bogus", "x.grf"])
    assert code == 1
    for flag in ("--graphs", "--complexes"):
        code, out, err = run_cli(["bench", "--seed", "1", flag, "-1"])
        assert code == 1 and out == ""
        assert f"argument {flag}: must be >= 0, got -1" in err and "usage: minbasis bench" in err
    # integer options are ASCII [+-]?[0-9]+, like the text formats' fields
    for flag, argv in (
        ("--graphs", ["bench", "--seed", "1", "--graphs", "٢", "--complexes", "0"]),
        ("--complexes", ["bench", "--seed", "1", "--graphs", "0", "--complexes", "1_0"]),
        ("--seed", ["bench", "--seed", "１", "--graphs", "0", "--complexes", "0"]),
        ("--seed", ["bench", "--seed", "1_0", "--graphs", "0", "--complexes", "0"]),
        ("--seed", ["oracle", "regen", "--seed", "٣", "--out", "unused"]),
        ("--graphs", ["bench", "--seed", "1", "--graphs", "0 ", "--complexes", "0"]),
    ):
        code, out, err = run_cli(argv)
        assert code == 1 and out == ""
        assert f"argument {flag}: invalid int value" in err


def test_closure_violation_and_auto_close(tmp_path):
    path = tmp_path / "open.scx"
    path.write_text("complex 3\ns 1 0 1 5\ns 2 0 1 2\n")
    code, _, err = run_cli(["mhb", str(path)])
    assert code == 1 and "missing edge" in err
    code, out, _ = run_cli(["mhb", str(path), "--auto-close", "--format", "json"])
    assert code == 0
    assert json.loads(out)["beta1"] == 0
    code, out, _ = run_cli(["betti", str(path), "--auto-close"])
    assert code == 0 and out == "beta0=1 beta1=0\n"
    # the parser rejects a degenerate triangle by line before any closing
    path.write_text("complex 3\ns 1 0 1 5\ns 2 0 1 1\n")
    for extra in ([], ["--auto-close"]):
        code, out, err = run_cli(["mhb", str(path), *extra])
        assert (code, out, err) == (1, "", "error: line 3: degenerate triangle\n")


@pytest.mark.parametrize("argv", [["mhb"], ["betti"], ["oracle", "mhb"]], ids=" ".join)
@pytest.mark.parametrize(
    "text, violations",
    [
        ("complex 3\ns 1 0 1 5\ns 1 1 0 2\n", "duplicate edge (0, 1)"),
        (
            "complex 3\ns 1 0 1 5\ns 2 0 1 2\n",
            "triangle (0, 1, 2) is missing edge (0, 2); "
            "triangle (0, 1, 2) is missing edge (1, 2)",
        ),
    ],
    ids=["duplicate-edge", "open-triangle"],
)
def test_invalid_complex_exit_1(tmp_path, argv, text, violations):
    path = tmp_path / "invalid.scx"
    path.write_text(text)
    code, out, err = run_cli(argv + [str(path)])
    assert (code, out, err) == (1, "", f"error: invalid complex: {violations}\n")


def test_internal_error_exit_2(k4_file, monkeypatch):
    def broken(g, tight=None):
        raise cli.InternalInvariantError("synthetic failure")

    monkeypatch.setitem(cli.ENGINES, "earliest", broken)
    code, out, err = run_cli(["mcb", str(k4_file)])
    assert code == 2
    assert err.startswith("internal error:") and out == ""


@pytest.mark.parametrize("exc", [MemoryError(), RecursionError("maximum recursion depth exceeded")])
def test_resource_exhaustion_exit_2(k4_file, monkeypatch, exc):
    def exhausted(g, tight=None):
        raise exc

    monkeypatch.setitem(cli.ENGINES, "earliest", exhausted)
    code, out, err = run_cli(["mcb", str(k4_file)])
    assert code == 2 and out == ""
    assert err.startswith(f"internal error: {type(exc).__name__}")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_deterministic_output(k4_file, torus_file):
    for argv in (
        ["mcb", str(k4_file), "--format", "json"],
        ["tight-cycles", str(k4_file)],
        ["mhb", str(torus_file), "--format", "json"],
        ["betti", str(torus_file)],
    ):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


def test_bench_agrees_and_is_deterministic():
    argv = ["bench", "--seed", "1", "--graphs", "6", "--complexes", "3"]
    code, out, err = run_cli(argv)
    assert code == 0
    assert "all engines agree" in out
    assert out.count("agree") >= 9
    assert "timing" in err  # timings only on stderr
    code2, out2, _ = run_cli(argv)
    assert code2 == 0 and out2 == out


def check_dumps(out, err, seed, graphs, complexes):
    """Every engine's report on each instance ``out`` marks DISAGREE is
    dumped to ``err`` as ``json.dumps(indent=2)`` of its dict, byte for
    byte, and lists that engine's cycles."""
    rng = random.Random(seed)  # the bench draws its instances in this order
    mcb_engines = sorted(cli.ENGINES.items())
    mhb_engines = [("tight", cli.mhb_tight), ("via_mcb", cli.mhb_via_mcb)]
    jobs = {f"g{i:03d}": (random_connected_graph(rng), mcb_engines, "nu") for i in range(graphs)}
    jobs |= {f"c{i:03d}": (random_complex(rng), mhb_engines, "beta1") for i in range(complexes)}
    dumps = {}
    for dump in err.split("disagreement on ")[1:]:
        header, text = dump.split(":\n", 1)
        name, engine = header.split(", engine ")
        report, end = json.JSONDecoder().raw_decode(text)
        assert text[end] == "\n"
        dumps.setdefault(name, {})[engine] = (report, text[: end + 1])
    assert sorted(dumps) == [line.split()[1] for line in out.splitlines() if line.endswith("DISAGREE")]
    for name, dumped in dumps.items():
        instance, engines, rank = jobs[name]
        assert list(dumped) == [e for e, _ in engines]
        for e, engine in engines:
            expected = helpers.basis_dict(engine(instance), rank)
            report, text = dumped[e]
            assert report["cycles"] == expected["cycles"]
            assert text == json.dumps(expected, indent=2) + "\n"


def test_bench_empty_sets():
    code, out, _ = run_cli(["bench", "--seed", "3", "--graphs", "0", "--complexes", "0"])
    assert code == 0
    assert "verdict: all engines agree (0 graphs, 0 complexes)" in out


def test_bench_detects_disagreement(monkeypatch):
    from minbasis.mcb import BasisReport

    def wrong(g, tight=None):
        return BasisReport("earliest", [])

    monkeypatch.setitem(cli.ENGINES, "earliest", wrong)
    code, out, err = run_cli(["bench", "--seed", "1", "--graphs", "2", "--complexes", "0"])
    assert code == 2
    assert "DISAGREE" in out
    assert "disagreement on" in err
    check_dumps(out, err, 1, 2, 0)


def test_bench_requires_the_mcb_engines_to_select_the_same_cycles(monkeypatch):
    # the MCB is unique: a cycle swapped for another of its weight must show
    from minbasis.mcb import mcb_kavitha

    def swapped(g, tight=None):
        r = mcb_kavitha(g, tight)
        return replace(r, cycles=[replace(c, mask=0) for c in r.cycles[:1]] + r.cycles[1:])

    monkeypatch.setitem(cli.ENGINES, "kavitha", swapped)
    code, out, err = run_cli(["bench", "--seed", "1", "--graphs", "2", "--complexes", "0"])
    assert code == 2
    assert "DISAGREE" in out
    assert "disagreement on" in err
    check_dumps(out, err, 1, 2, 0)


@pytest.mark.parametrize(
    "alter",
    [
        lambda r: replace(r, cycles=r.cycles[::-1]),
        lambda r: replace(r, boundary_profile=r.boundary_profile[1:]),
    ],
    ids=["cycle-order", "boundary-profile"],
)
def test_bench_requires_the_mhb_engines_to_select_the_same_cycles(monkeypatch, alter):
    # both changes keep the weight multiset; the bench must still see them
    from minbasis.mhb import mhb_via_mcb

    monkeypatch.setattr(cli, "mhb_via_mcb", lambda k: alter(mhb_via_mcb(k)))
    code, out, err = run_cli(["bench", "--seed", "1", "--graphs", "0", "--complexes", "10"])
    assert code == 2
    assert "DISAGREE" in out
    assert "disagreement on" in err
    check_dumps(out, err, 1, 0, 10)


def dict_output(payload, fmt, text_keys):
    """stdout for the report dict ``payload`` as the CLI wrote it when it
    built one dict per cycle: ``json.dumps(indent=2)``, or the text lines."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    cycles = payload["cycles"]
    lines = [f"{key}: {payload[key]}" for key in text_keys]
    lines += [f"cycle {i}: weight={c['weight']} edges={c['edges']}" for i, c in enumerate(cycles[:50])]
    if len(cycles) > 50:
        lines.append(f"... {len(cycles) - 50} more cycles not shown (JSON output is never truncated)")
    return "".join(line + "\n" for line in lines)


def check_graph_reports(path, engines=tuple(cli.ENGINES), oracles=True):
    """mcb (each of ``engines``), tight-cycles and, with ``oracles``, oracle
    mcb and tight stdout on ``path`` equal ``dict_output`` of their dicts."""
    g = load_graph(path)
    for engine in engines:
        payload = helpers.basis_dict(cli.ENGINES[engine](g), "nu")
        for fmt in ("json", "text"):
            got = run_cli(["mcb", "--engine", engine, str(path), "--format", fmt])
            assert got == (0, dict_output(payload, fmt, ("engine", "nu", "total_weight")), "")
    payload = {"nu": cyclomatic_number(g), **helpers.tight_dict(enumerate_tight_cycles(g))}
    for fmt in ("json", "text"):
        got = run_cli(["tight-cycles", str(path), "--format", fmt])
        assert got == (0, dict_output(payload, fmt, ("count", "total_length")), "")
    if oracles:
        references = [
            ("mcb", helpers.basis_dict(oracle.brute_mcb(g), "nu")),
            ("tight", helpers.tight_dict(oracle.brute_tight_cycles(g))),
        ]
        for mode, reference in references:
            payload = {"oracle_version": oracle.ORACLE_VERSION, **reference}
            assert run_cli(["oracle", mode, str(path)]) == (0, dict_output(payload, "json", ()), "")


def check_complex_reports(path):
    """mhb (tight, and via-mcb over each MCB engine) and oracle mhb stdout
    on ``path`` equal ``dict_output`` of their dicts."""
    k = load_complex(path)
    runs = [(["--engine", "tight"], cli.mhb_tight(k))]
    runs += [
        (["--engine", "via-mcb", "--mcb-engine", e], cli.mhb_via_mcb(k, mcb_engine=e))
        for e in sorted(cli.ENGINES)
    ]
    for flags, report in runs:
        payload = helpers.basis_dict(report, "beta1")
        for fmt in ("json", "text"):
            got = run_cli(["mhb", *flags, str(path), "--format", fmt])
            assert got == (0, dict_output(payload, fmt, ("engine", "beta1", "total_weight")), "")
    payload = {"oracle_version": oracle.ORACLE_VERSION, **helpers.basis_dict(oracle.brute_mhb(k), "beta1")}
    assert run_cli(["oracle", "mhb", str(path)]) == (0, dict_output(payload, "json", ()), "")


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.grf")), ids=lambda p: p.stem)
def test_graph_reports_match_the_dict_writer_on_fixtures(path):
    check_graph_reports(path)


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.scx")), ids=lambda p: p.stem)
def test_complex_reports_match_the_dict_writer_on_fixtures(path):
    check_complex_reports(path)


def test_reports_match_the_dict_writer_on_large_and_edge_cases(tmp_path):
    def saved(name, instance, save=save_graph):
        path = tmp_path / name
        save(instance, path)
        return path

    # nu = 1,537: the report the cycle-list writer was made for
    check_graph_reports(saved("dense.grf", random_graph_nm(random.Random(7), 64, 1600)),
                        engines=("depina",), oracles=False)
    # a tree with short chords: many blocks, joined by bridges
    rng = random.Random(5)
    edges = [(v - rng.randint(1, min(4, v)), v, rng.randint(1, 9)) for v in range(1, 300)]
    edges += [(u, u + rng.randint(2, 4), rng.randint(1, 9)) for u in rng.sample(range(295), 30)]
    check_graph_reports(saved("blocks.grf", Graph(300, edges)), oracles=False)
    # empty cycle lists: a forest, and a complex with beta1 = 0
    forest = saved("forest.grf", Graph(6, [(0, 1, 2), (1, 2, 0), (3, 4, 5)]))
    check_graph_reports(forest)
    assert '"cycles": []' in run_cli(["mcb", str(forest), "--format", "json"])[1]
    check_complex_reports(saved("filled.scx", filled_triangle(), save_complex))
    # weights summing past 2**63
    heavy = saved("heavy.grf", Graph(4, [(e.u, e.v, MAX_WEIGHT - i) for i, e in enumerate(k4().edges)]))
    check_graph_reports(heavy)
    assert json.loads(run_cli(["mcb", str(heavy), "--format", "json"])[1])["total_weight"] > 2**64
    tri = filled_triangle()
    hollow = SimplicialComplex(tri.n, tuple(e._replace(w=MAX_WEIGHT) for e in tri.edges), ())
    check_complex_reports(saved("heavy.scx", hollow, save_complex))


def test_bench_json_format():
    code, out, _ = run_cli(["bench", "--seed", "2", "--graphs", "2", "--complexes", "1", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["agree"] is True
    assert len(payload["rows"]) == 3


def test_bench_text_rows_match_json_rows():
    argv = ["bench", "--seed", "5", "--graphs", "4", "--complexes", "3"]
    code, text, _ = run_cli(argv)
    assert code == 0
    code, out, _ = run_cli([*argv, "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    lines = text.splitlines()
    fields = ["kind", "name", "n", "m", "rank", "weight", "verdict"]
    assert lines[0].split() == fields
    assert [line.split() for line in lines[1:-1]] == [[str(r[f]) for f in fields] for r in rows]
    assert [r["kind"] for r in rows] == ["graph"] * 4 + ["complex"] * 3
    assert lines[-1] == "verdict: all engines agree (4 graphs, 3 complexes)"


def test_oracle_subcommands(tmp_path, k4_file, torus_file):
    code, out, _ = run_cli(["oracle", "mcb", str(k4_file)])
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_version"] == 1 and payload["total_weight"] == 9
    assert list(payload) == ["oracle_version", "engine", "nu", "total_weight", "cycles"]

    code, out, _ = run_cli(["oracle", "tight", str(k4_file)])
    payload = json.loads(out)
    assert payload["count"] == 4
    assert list(payload) == ["oracle_version", "count", "total_length", "cycles"]

    code, out, _ = run_cli(["oracle", "mhb", str(torus_file)])
    payload = json.loads(out)
    assert payload["total_weight"] == 6
    assert list(payload) == ["oracle_version", "engine", "beta1", "total_weight", "cycles"]

    code, out, _ = run_cli(["oracle", "regen", "--seed", "7", "--out", str(tmp_path / "fx")])
    assert code == 0
    assert (tmp_path / "fx" / "k4.grf").exists()
    assert out.count("wrote") == len(out.splitlines())


def test_oracle_regen_requires_out():
    code, out, err = run_cli(["oracle", "regen", "--seed", "7"])
    assert (code, out, err) == (1, "", "error: oracle regen requires --out DIR\n")


def test_oracle_budget_refusal_exit_1(tmp_path):
    path = tmp_path / "wide.grf"
    save_graph(path_graph(14), path)
    code, _, err = run_cli(["oracle", "tight", str(path)])
    assert code == 1 and "budget" in err


def test_oracle_tight_refuses_cycle_rank_over_budget(tmp_path):
    # K9 has 9 vertices, inside the vertex budget, but cycle rank 28
    path = tmp_path / "k9.grf"
    save_graph(complete_graph(9), path)
    code, out, err = run_cli(["oracle", "tight", str(path)])
    assert code == 1 and out == ""
    assert "cycle rank 28 exceeds oracle budget 16" in err


def test_oracle_hidden_from_help():
    with pytest.raises(SystemExit):
        run_cli(["--help"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
    assert "oracle" not in out.getvalue()
    # the help is about usage: no docstring markup or private names
    assert "``" not in out.getvalue() and "_cycles_json" not in out.getvalue()
    code, _, err = run_cli(["frob"])
    assert code == 1
    assert "invalid choice: 'frob'" in err and "oracle" not in err


def test_module_entry_point(k4_file):
    # The child imports the same package as this test, even when pytest's
    # pythonpath setting (not the environment) put it on sys.path.
    src = str(Path(minbasis.__file__).resolve().parent.parent)
    pythonpath = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in pythonpath if p))
    proc = subprocess.run(
        [sys.executable, "-m", "minbasis", "mcb", str(k4_file), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total_weight"] == 9

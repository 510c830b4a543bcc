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

import minbasis
from minbasis import cli
from minbasis.fixtures import (
    complete_graph,
    k4,
    path_graph,
    random_graph_nm,
    torus_seven,
)
from minbasis.graph import load_graph, save_graph
from minbasis.simplicial import save_complex


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

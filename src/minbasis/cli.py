"""Command-line front end.

Exit codes: 0 success, 1 input or validation problems, 2 broken internal
invariants or exhausted memory or recursion depth.  Reports go to
stdout and are byte-identical across runs for identical inputs;
diagnostics and benchmark timings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Optional, TextIO

from . import fixtures, oracle
from .errors import InternalInvariantError, ParseError
from .graph import cyclomatic_number, load_graph
from .mcb import ENGINES, BasisReport
from .mhb import HomologyBasisReport, mhb_tight, mhb_via_mcb
from .simplicial import homology_profile, load_complex
from .tight import enumerate_tight_cycles

TEXT_CYCLE_CAP = 50


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, exit 1
        raise CliUsageError(f"{message}\n{self.format_usage()}".rstrip())


@dataclass
class RunConfig:
    subcommand: str
    input: Optional[str] = None
    engine: Optional[str] = None
    mcb_engine: str = "earliest"
    format: str = "text"
    seed: int = 0
    graphs: int = 20
    complexes: int = 10
    auto_close: bool = False
    oracle_mode: Optional[str] = None
    out_dir: Optional[str] = None


def build_parser() -> _Parser:
    parser = _Parser(prog="minbasis", description=__doc__)
    sub = parser.add_subparsers(
        dest="subcommand",
        metavar="{mcb,mhb,tight-cycles,betti,bench}",
        required=True,
    )

    p_mcb = sub.add_parser("mcb", help="minimum cycle basis of a graph file")
    p_mcb.add_argument("input")
    p_mcb.add_argument("--engine", choices=sorted(ENGINES), default="earliest")
    p_mcb.add_argument("--format", choices=["text", "json"], default="text")

    p_mhb = sub.add_parser("mhb", help="minimum homology basis of a complex file")
    p_mhb.add_argument("input")
    p_mhb.add_argument("--engine", choices=["tight", "via-mcb"], default="tight")
    p_mhb.add_argument("--mcb-engine", choices=sorted(ENGINES), default="earliest")
    p_mhb.add_argument("--format", choices=["text", "json"], default="text")
    p_mhb.add_argument("--auto-close", action="store_true")

    p_tc = sub.add_parser("tight-cycles", help="sorted tight cycles of a graph file")
    p_tc.add_argument("input")
    p_tc.add_argument("--format", choices=["text", "json"], default="json")

    p_betti = sub.add_parser("betti", help="Betti numbers of a complex file")
    p_betti.add_argument("input")
    p_betti.add_argument("--format", choices=["text", "json"], default="text")
    p_betti.add_argument("--auto-close", action="store_true")

    p_bench = sub.add_parser("bench", help="seeded cross-engine agreement harness")
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--graphs", type=int, default=20)
    p_bench.add_argument("--complexes", type=int, default=10)
    p_bench.add_argument("--format", choices=["text", "json"], default="text")

    # fixture regeneration and brute-force references; not shown in help
    p_oracle = sub.add_parser("oracle")
    p_oracle.add_argument("mode", choices=["mcb", "mhb", "tight", "regen"])
    p_oracle.add_argument("input", nargs="?")
    p_oracle.add_argument("--auto-close", action="store_true")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--out", default=None)

    return parser


def parse_args(argv: Optional[list[str]] = None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    cfg = RunConfig(subcommand=ns.subcommand)
    for name in ("input", "engine", "format", "seed", "graphs", "complexes"):
        if hasattr(ns, name):
            setattr(cfg, name, getattr(ns, name))
    if hasattr(ns, "mcb_engine"):
        cfg.mcb_engine = ns.mcb_engine
    if hasattr(ns, "auto_close"):
        cfg.auto_close = ns.auto_close
    if ns.subcommand == "oracle":
        cfg.oracle_mode = ns.mode
        cfg.out_dir = ns.out
    return cfg


def _cycles_payload(cycles) -> list[dict]:
    return [
        {"edges": list(c.edge_indices()), "weight": c.base} for c in cycles
    ]


def _dump(payload: dict, out: TextIO) -> None:
    out.write(json.dumps(payload, indent=2) + "\n")


def _print_cycles_text(cycles, out: TextIO) -> None:
    shown = cycles[:TEXT_CYCLE_CAP]
    for i, c in enumerate(shown):
        out.write(f"cycle {i}: weight={c.base} edges={list(c.edge_indices())}\n")
    hidden = len(cycles) - len(shown)
    if hidden > 0:
        out.write(f"... {hidden} more cycles not shown (JSON output is never truncated)\n")


def _basis_payload(report: BasisReport, nu: int) -> dict:
    return {
        "engine": report.engine,
        "nu": nu,
        "total_weight": report.total_weight,
        "cycles": _cycles_payload(report.cycles),
    }


def _homology_payload(report: HomologyBasisReport) -> dict:
    return {
        "engine": report.engine,
        "beta1": len(report.cycles),
        "total_weight": report.total_weight,
        "cycles": _cycles_payload(report.cycles),
    }


def _run_mcb(cfg: RunConfig, out: TextIO) -> int:
    g = load_graph(cfg.input)
    report = ENGINES[cfg.engine](g)
    nu = cyclomatic_number(g)
    if cfg.format == "json":
        _dump(_basis_payload(report, nu), out)
    else:
        out.write(f"engine: {report.engine}\n")
        out.write(f"nu: {nu}\n")
        out.write(f"total_weight: {report.total_weight}\n")
        _print_cycles_text(report.cycles, out)
    return 0


def _run_mhb(cfg: RunConfig, out: TextIO) -> int:
    k = load_complex(cfg.input, auto_close=cfg.auto_close)
    if cfg.engine == "via-mcb":
        report: HomologyBasisReport = mhb_via_mcb(k, mcb_engine=cfg.mcb_engine)
    else:
        report = mhb_tight(k)
    if cfg.format == "json":
        _dump(_homology_payload(report), out)
    else:
        out.write(f"engine: {report.engine}\n")
        out.write(f"beta1: {len(report.cycles)}\n")
        out.write(f"total_weight: {report.total_weight}\n")
        _print_cycles_text(report.cycles, out)
    return 0


def _run_tight(cfg: RunConfig, out: TextIO) -> int:
    g = load_graph(cfg.input)
    tcs = enumerate_tight_cycles(g)
    if cfg.format == "json":
        _dump(
            {
                "nu": cyclomatic_number(g),
                "count": len(tcs.cycles),
                "total_length": tcs.total_length,
                "cycles": _cycles_payload(tcs.cycles),
            },
            out,
        )
    else:
        out.write(f"count: {len(tcs.cycles)}\n")
        out.write(f"total_length: {tcs.total_length}\n")
        _print_cycles_text(tcs.cycles, out)
    return 0


def _run_betti(cfg: RunConfig, out: TextIO) -> int:
    k = load_complex(cfg.input, auto_close=cfg.auto_close)
    violations = k.validate()
    if violations:
        raise ValueError("invalid complex: " + "; ".join(violations))
    profile = homology_profile(k)
    if cfg.format == "json":
        _dump(
            {
                "beta0": profile.beta0,
                "beta1": profile.beta1,
                "boundary_rank": profile.boundary_rank,
                "cycle_rank": profile.cycle_rank,
            },
            out,
        )
    else:
        out.write(f"beta0={profile.beta0} beta1={profile.beta1}\n")
    return 0


def _run_bench(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    rng = random.Random(cfg.seed)
    rows = []
    disagreements = []

    for i in range(cfg.graphs):
        g = fixtures.random_connected_graph(rng)
        name = f"g{i:03d}"
        reports = {}
        for engine_name, engine in sorted(ENGINES.items()):
            t0 = time.perf_counter()
            reports[engine_name] = engine(g)
            err.write(f"timing {name} {engine_name}: {time.perf_counter() - t0:.4f}s\n")
        multisets = {r.weight_multiset() for r in reports.values()}
        agree = len(multisets) == 1
        weight = reports["earliest"].total_weight
        rows.append(
            {
                "kind": "graph",
                "name": name,
                "n": g.n,
                "m": g.m,
                "rank": cyclomatic_number(g),
                "weight": weight,
                "verdict": "agree" if agree else "DISAGREE",
            }
        )
        if not agree:
            disagreements.append((name, {e: _basis_payload(r, cyclomatic_number(g)) for e, r in reports.items()}))

    for i in range(cfg.complexes):
        k = fixtures.random_complex(rng)
        name = f"c{i:03d}"
        reports2 = {}
        for engine_name, fn in (("tight", mhb_tight), ("via_mcb", mhb_via_mcb)):
            t0 = time.perf_counter()
            reports2[engine_name] = fn(k)
            err.write(f"timing {name} {engine_name}: {time.perf_counter() - t0:.4f}s\n")
        multisets = {r.weight_multiset() for r in reports2.values()}
        agree = len(multisets) == 1
        rows.append(
            {
                "kind": "complex",
                "name": name,
                "n": k.n,
                "m": k.m,
                "rank": homology_profile(k).beta1,
                "weight": reports2["tight"].total_weight,
                "verdict": "agree" if agree else "DISAGREE",
            }
        )
        if not agree:
            disagreements.append((name, {e: _homology_payload(r) for e, r in reports2.items()}))

    all_agree = not disagreements
    if cfg.format == "json":
        _dump({"rows": rows, "agree": all_agree}, out)
    else:
        out.write("kind     name  n   m   rank  weight  verdict\n")
        for r in rows:
            out.write(
                f"{r['kind']:<8} {r['name']:<5} {r['n']:<3} {r['m']:<3} "
                f"{r['rank']:<5} {r['weight']:<7} {r['verdict']}\n"
            )
        out.write(
            f"verdict: {'all engines agree' if all_agree else 'ENGINES DISAGREE'} "
            f"({cfg.graphs} graphs, {cfg.complexes} complexes)\n"
        )
    if not all_agree:
        for name, reports_payload in disagreements:
            err.write(f"disagreement on {name}:\n")
            err.write(json.dumps(reports_payload, indent=2) + "\n")
        raise InternalInvariantError("engines disagree; reports dumped to stderr")
    return 0


def _run_oracle(cfg: RunConfig, out: TextIO) -> int:
    if cfg.oracle_mode == "regen":
        if cfg.out_dir is None:
            raise CliUsageError("oracle regen requires --out DIR")
        manifests = fixtures.generate_fixtures(cfg.seed, cfg.out_dir)
        for man in manifests:
            out.write(f"wrote {man['input']} ({man['kind']})\n")
        return 0
    if cfg.input is None:
        raise CliUsageError(f"oracle {cfg.oracle_mode} requires an input file")
    if cfg.oracle_mode == "mcb":
        g = load_graph(cfg.input)
        report = oracle.brute_mcb(g)
        payload = _basis_payload(report, cyclomatic_number(g))
        payload = {"oracle_version": oracle.ORACLE_VERSION, **payload}
        _dump(payload, out)
        return 0
    if cfg.oracle_mode == "tight":
        g = load_graph(cfg.input)
        tcs = oracle.brute_tight_cycles(g)
        _dump(
            {
                "oracle_version": oracle.ORACLE_VERSION,
                "count": len(tcs.cycles),
                "total_length": tcs.total_length,
                "cycles": _cycles_payload(tcs.cycles),
            },
            out,
        )
        return 0
    k = load_complex(cfg.input, auto_close=cfg.auto_close)
    report = oracle.brute_mhb(k)
    _dump({"oracle_version": oracle.ORACLE_VERSION, **_homology_payload(report)}, out)
    return 0


def run(cfg: RunConfig, out: TextIO, err: TextIO) -> int:
    if cfg.subcommand == "mcb":
        return _run_mcb(cfg, out)
    if cfg.subcommand == "mhb":
        return _run_mhb(cfg, out)
    if cfg.subcommand == "tight-cycles":
        return _run_tight(cfg, out)
    if cfg.subcommand == "betti":
        return _run_betti(cfg, out)
    if cfg.subcommand == "bench":
        return _run_bench(cfg, out, err)
    if cfg.subcommand == "oracle":
        return _run_oracle(cfg, out)
    raise CliUsageError(f"unknown subcommand {cfg.subcommand!r}")


def main(argv: Optional[list[str]] = None) -> int:
    out, err = sys.stdout, sys.stderr
    try:
        cfg = parse_args(argv)
        return run(cfg, out, err)
    except (ParseError, CliUsageError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    except InternalInvariantError as exc:
        err.write(f"internal error: {exc}\n")
        return 2
    except (MemoryError, RecursionError) as exc:
        detail = (str(exc) or "out of resources").splitlines()[0]
        err.write(f"internal error: {type(exc).__name__}: {detail}\n")
        return 2
    except (ValueError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

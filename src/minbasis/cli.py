"""Command-line front end.

Cycle reports (mcb, mhb, tight-cycles) are JSON listing every cycle or
text listing at most 50.  A JSON report is its ``json.dumps(indent=2)``
form byte for byte: every cycle list, bench's disagreement dump included,
is written as that text by ``_cycles_json``, every other key by
``json.dumps``.  bench instance counts must be >= 0.

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
from dataclasses import asdict
from typing import Optional, TextIO

from . import fixtures, oracle
from .errors import InternalInvariantError
from .gf2 import bit_indices
from .graph import cyclomatic_number, load_graph, parse_ints
from .mcb import ENGINES, BasisReport
from .mhb import mhb_tight, mhb_via_mcb
from .simplicial import homology_profile, load_complex
from .tight import TightCycleSet, enumerate_tight_cycles

TEXT_CYCLE_CAP = 50
BENCH_FIELDS = ("kind", "name", "n", "m", "rank", "weight", "verdict")
BENCH_ROW = "{kind:<8} {name:<5} {n:<3} {m:<3} {rank:<5} {weight:<7} {verdict}\n"
#: Subcommands named in help and usage errors; ``oracle`` parses but is not listed.
SUBCOMMANDS = ("mcb", "mhb", "tight-cycles", "betti", "bench")


class CliUsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors, exit 1
        raise CliUsageError(f"{message}\n{self.format_usage()}".rstrip())

    def _check_value(self, action, value):
        if action.dest == "subcommand" and value not in action.choices:
            choices = ", ".join(map(repr, SUBCOMMANDS))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")
        super()._check_value(action, value)


def _int(text: str) -> int:
    """An integer option: ASCII ``[+-]?[0-9]+``, like a text-format field.

    ``parse_ints`` gets whitespace-split fields; an option can carry the
    surrounding whitespace that ``int`` would strip, so that is refused here.
    """
    try:
        if text != text.strip():
            raise ValueError(text)
        (value,) = parse_ints([text])
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    return value


def _count(text: str) -> int:
    """An instance count for ``bench``: an integer >= 0."""
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> _Parser:
    """Each subparser names its handler; ``main`` calls ``ns.run(ns, out, err)``."""
    parser = _Parser(prog="minbasis", description="Minimum cycle bases and minimum homology bases.")
    sub = parser.add_subparsers(
        dest="subcommand",
        metavar="{" + ",".join(SUBCOMMANDS) + "}",
        required=True,
    )

    p_mcb = sub.add_parser("mcb", help="minimum cycle basis of a graph file")
    p_mcb.set_defaults(run=_run_mcb)
    p_mcb.add_argument("input")
    p_mcb.add_argument("--engine", choices=sorted(ENGINES), default="earliest")
    p_mcb.add_argument("--format", choices=["text", "json"], default="text")

    p_mhb = sub.add_parser("mhb", help="minimum homology basis of a complex file")
    p_mhb.set_defaults(run=_run_mhb)
    p_mhb.add_argument("input")
    p_mhb.add_argument("--engine", choices=["tight", "via-mcb"], default="tight")
    p_mhb.add_argument("--mcb-engine", choices=sorted(ENGINES), default="earliest")
    p_mhb.add_argument("--format", choices=["text", "json"], default="text")
    p_mhb.add_argument("--auto-close", action="store_true")

    p_tc = sub.add_parser("tight-cycles", help="sorted tight cycles of a graph file")
    p_tc.set_defaults(run=_run_tight)
    p_tc.add_argument("input")
    p_tc.add_argument("--format", choices=["text", "json"], default="json")

    p_betti = sub.add_parser("betti", help="Betti numbers of a complex file")
    p_betti.set_defaults(run=_run_betti)
    p_betti.add_argument("input")
    p_betti.add_argument("--format", choices=["text", "json"], default="text")
    p_betti.add_argument("--auto-close", action="store_true")

    p_bench = sub.add_parser("bench", help="seeded cross-engine agreement harness")
    p_bench.set_defaults(run=_run_bench)
    p_bench.add_argument("--seed", type=_int, required=True)
    p_bench.add_argument("--graphs", type=_count, default=20)
    p_bench.add_argument("--complexes", type=_count, default=10)
    p_bench.add_argument("--format", choices=["text", "json"], default="text")

    # fixture regeneration and brute-force references; not shown in help
    p_oracle = sub.add_parser("oracle")
    p_oracle.set_defaults(run=_run_oracle)
    p_oracle.add_argument("mode", choices=["mcb", "mhb", "tight", "regen"])
    p_oracle.add_argument("input", nargs="?")
    p_oracle.add_argument("--auto-close", action="store_true")
    p_oracle.add_argument("--seed", type=_int, default=0)
    p_oracle.add_argument("--out", default=None)

    return parser


def _cycles_json(cycles) -> str:
    """``json.dumps(indent=2)`` of a report's cycle list, byte for byte, as
    the value of a top-level key: one ``{"edges": [...], "weight": w}``
    block per cycle, its edge indices ascending.

    The only writer of cycle lists.  It formats the text itself: a dict per
    cycle for ``json.dumps`` cost more than the rest of the report.
    """
    if not cycles:
        return "[]"
    blocks = []
    for c in cycles:
        edges = ",\n        ".join(map(str, bit_indices(c.mask)))
        listed = f"[\n        {edges}\n      ]" if edges else "[]"
        blocks.append(f'    {{\n      "edges": {listed},\n      "weight": {c.base}\n    }}')
    return "[\n" + ",\n".join(blocks) + "\n  ]"


def _write(payload: dict, fmt: str, out: TextIO, text_keys: tuple[str, ...] = ()) -> None:
    """Write ``payload`` as ``json.dumps(payload, indent=2)`` would, or as
    text: one ``key: value`` line per text key, then at most
    ``TEXT_CYCLE_CAP`` lines of ``payload["cycles"]``.

    A ``"cycles"`` key, always the last, holds ``Cycle`` objects; its JSON
    comes from ``_cycles_json`` and the other keys' from ``json.dumps``.
    """
    if fmt == "json":
        text = json.dumps({k: v for k, v in payload.items() if k != "cycles"}, indent=2)
        if "cycles" in payload:  # the list goes in place of the closing "\n}"
            out.write(f'{text[:-2]},\n  "cycles": ')
            out.write(_cycles_json(payload["cycles"]))  # not concatenated: each copy adds to peak memory
            text = "\n}"
        out.write(text + "\n")
        return
    for key in text_keys:
        out.write(f"{key}: {payload[key]}\n")
    cycles = payload["cycles"]
    for i, c in enumerate(cycles[:TEXT_CYCLE_CAP]):
        out.write(f"cycle {i}: weight={c.base} edges={bit_indices(c.mask)}\n")
    hidden = len(cycles) - TEXT_CYCLE_CAP
    if hidden > 0:
        out.write(f"... {hidden} more cycles not shown (JSON output is never truncated)\n")


def _basis_payload(report: BasisReport, rank: str) -> dict:
    """``rank`` names the cycle count: ``"nu"`` for a cycle basis, ``"beta1"``
    for a homology basis.  Every engine raises InternalInvariantError unless
    it returns that many cycles."""
    return {
        "engine": report.engine,
        rank: len(report.cycles),
        "total_weight": report.total_weight,
        "cycles": report.cycles,
    }


def _tight_payload(tcs: TightCycleSet) -> dict:
    return {
        "count": len(tcs.cycles),
        "total_length": tcs.total_length,
        "cycles": tcs.cycles,
    }


def _run_mcb(cfg: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = load_graph(cfg.input)
    payload = _basis_payload(ENGINES[cfg.engine](g), "nu")
    _write(payload, cfg.format, out, ("engine", "nu", "total_weight"))
    return 0


def _run_mhb(cfg: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    k = load_complex(cfg.input, auto_close=cfg.auto_close)
    if cfg.engine == "via-mcb":
        report = mhb_via_mcb(k, mcb_engine=cfg.mcb_engine)
    else:
        report = mhb_tight(k)
    _write(_basis_payload(report, "beta1"), cfg.format, out, ("engine", "beta1", "total_weight"))
    return 0


def _run_tight(cfg: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    g = load_graph(cfg.input)
    payload = {"nu": cyclomatic_number(g), **_tight_payload(enumerate_tight_cycles(g))}
    _write(payload, cfg.format, out, ("count", "total_length"))
    return 0


def _run_betti(cfg: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    k = load_complex(cfg.input, auto_close=cfg.auto_close)
    profile = homology_profile(k)
    if cfg.format == "json":
        _write(asdict(profile), "json", out)
    else:
        out.write(f"beta0={profile.beta0} beta1={profile.beta1}\n")
    return 0


def _run_bench(cfg: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    # Instances come from one rng, graphs first; the engines draw nothing from it.
    rng = random.Random(cfg.seed)
    mcb_engines = sorted(ENGINES.items())
    mhb_engines = [("tight", mhb_tight), ("via_mcb", mhb_via_mcb)]
    jobs = [
        ("graph", f"g{i:03d}", fixtures.random_connected_graph(rng), mcb_engines)
        for i in range(cfg.graphs)
    ]
    jobs += [
        ("complex", f"c{i:03d}", fixtures.random_complex(rng), mhb_engines)
        for i in range(cfg.complexes)
    ]

    rows = []
    disagreements = []
    for kind, name, instance, engines in jobs:
        reports = {}
        for engine_name, engine in engines:
            t0 = time.perf_counter()
            reports[engine_name] = engine(instance)
            err.write(f"timing {name} {engine_name}: {time.perf_counter() - t0:.4f}s\n")
        graph = kind == "graph"
        if graph:  # the MCB is unique under the (base, mask) order
            agree = len({frozenset(c.mask for c in r.cycles) for r in reports.values()}) == 1
        else:  # the MHB engines select the same cycles in the same order
            agree = len({(tuple(c.mask for c in r.cycles), r.boundary_profile)
                         for r in reports.values()}) == 1
        ref = reports["earliest" if graph else "tight"]
        verdict = "agree" if agree else "DISAGREE"
        values = (kind, name, instance.n, instance.m, len(ref.cycles), ref.total_weight, verdict)
        rows.append(dict(zip(BENCH_FIELDS, values)))
        if not agree:
            rank = "nu" if graph else "beta1"
            disagreements.append((name, {e: _basis_payload(r, rank) for e, r in reports.items()}))

    all_agree = not disagreements
    if cfg.format == "json":
        _write({"rows": rows, "agree": all_agree}, "json", out)
    else:
        out.write(BENCH_ROW.format(**dict(zip(BENCH_FIELDS, BENCH_FIELDS))))
        out.writelines(BENCH_ROW.format(**r) for r in rows)
        out.write(
            f"verdict: {'all engines agree' if all_agree else 'ENGINES DISAGREE'} "
            f"({cfg.graphs} graphs, {cfg.complexes} complexes)\n"
        )
    if not all_agree:
        for name, reports_payload in disagreements:
            for engine_name, payload in reports_payload.items():
                err.write(f"disagreement on {name}, engine {engine_name}:\n")
                _write(payload, "json", err)
        raise InternalInvariantError("engines disagree; reports dumped to stderr")
    return 0


def _run_oracle(cfg: argparse.Namespace, out: TextIO, err: TextIO) -> int:
    if cfg.mode == "regen":
        if cfg.out is None:
            raise CliUsageError("oracle regen requires --out DIR")
        for man in fixtures.generate_fixtures(cfg.seed, cfg.out):
            out.write(f"wrote {man['input']} ({man['kind']})\n")
        return 0
    if cfg.input is None:
        raise CliUsageError(f"oracle {cfg.mode} requires an input file")
    if cfg.mode == "mhb":
        k = load_complex(cfg.input, auto_close=cfg.auto_close)
        payload = _basis_payload(oracle.brute_mhb(k), "beta1")
    else:
        g = load_graph(cfg.input)
        if cfg.mode == "mcb":
            payload = _basis_payload(oracle.brute_mcb(g), "nu")
        else:
            payload = _tight_payload(oracle.brute_tight_cycles(g))
    _write({"oracle_version": oracle.ORACLE_VERSION, **payload}, "json", out)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    out, err = sys.stdout, sys.stderr
    try:
        ns = build_parser().parse_args(argv)
        return ns.run(ns, out, err)
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

#!/usr/bin/env python3
"""Regenerate the benchmark's stored references.

    python3 benchmark/make_refs.py --seeds 0-63 [--workload NAME ...]
    python3 benchmark/make_refs.py --digests

``references.json`` maps workload -> seed -> instance -> {total_weight,
weights histogram}, computed with one engine per instance (``mcb
--engine earliest`` or ``mhb --engine tight``) and checked exactly before
it is stored.  The weight multiset of a minimum basis is unique, so every
engine the benchmark runs must reproduce it.  ``--digests`` rewrites
``digests.json`` from the current CLI output of every fixture.  Run
either only at a commit whose outputs are known to be right.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import digests  # noqa: E402
import workloads  # noqa: E402
from checks import check_report  # noqa: E402

REFERENCE_JOB = {"graph": ("mcb", "--engine", "earliest"), "complex": ("mhb", "--engine", "tight")}


def reference(w: workloads.Workload, seed: int, work: Path) -> dict:
    instances, _ = workloads.write_instances(w, seed, work)
    out = {}
    for name, (path, obj) in instances.items():
        sub, *flags = REFERENCE_JOB[w.kind]
        rc, stdout, stderr = workloads.run_cli((sub, str(path), *flags, "--format", "json"))
        if rc != 0:
            raise SystemExit(f"{name} seed {seed}: exit {rc}: {stderr}")
        problems, summary = check_report(w.kind, obj, flags[-1], stdout)
        if problems:
            raise SystemExit(f"{name} seed {seed}: {problems}")
        out[name] = summary
    return out


def format_refs(refs: dict) -> str:
    """JSON with one line per (workload, seed), so diffs stay readable."""
    blocks = []
    for name in sorted(refs):
        seeds = sorted(refs[name], key=int)
        lines = [f'  "{s}": {json.dumps(refs[name][s], sort_keys=True)}' for s in seeds]
        blocks.append(f' "{name}": {{\n' + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", help="inclusive range A-B")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--digests", action="store_true")
    args = parser.parse_args()
    if args.digests:
        table = digests.fixture_digests(ROOT / "fixtures")
        (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests")
    if args.seeds:
        lo, hi = map(int, args.seeds.split("-"))
        path = HERE / "references.json"
        refs = json.loads(path.read_text()) if path.exists() else {}
        work = ROOT / ".bench_out" / "refs"
        for name in args.workload or sorted(workloads.WORKLOADS):
            w = workloads.WORKLOADS[name]
            for seed in range(lo, hi + 1):
                refs.setdefault(name, {})[str(seed)] = reference(w, seed, work)
                print(f"{name} seed {seed}", flush=True)
            # write after each workload so a long regeneration keeps its progress
            path.write_text(format_refs(refs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

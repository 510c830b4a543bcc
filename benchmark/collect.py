#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 benchmark/collect.py --workload mcb-dense --seeds 1-5 --seconds 20
    python3 benchmark/collect.py --seeds 1-10 --seconds 20 --record

Each run is a separate ``benchmark/run.py`` process, started only after
the previous one has exited.  For every metric it prints the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread (q3 - q1) /
median.  ``--record`` also makes one traced run per workload and writes
the medians, the traced per-layer shares of ``cli.job_s`` and the run
environment into ``benchmark/PROVENANCE.json``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

# Layers whose self times add up to cli.job_s (see spans.DERIVED).
PARTITION = (
    "graph.parse_s", "simplicial.parse_s", "simplicial.skeleton_s", "graph.apsp_s",
    "tight.enumerate_s", "mcb.earliest_s", "mcb.depina_s", "mcb.kavitha_s",
    "mhb.select_s", "cli.overhead_s",
)
SPLITS = ("tight.candidates_s", "tight.filter_s", "simplicial.profile_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("digest mismatch"):
            print(line)
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def role_checks(wl: dict) -> dict[str, bool]:
    """The role each workload was chosen for, checked on the recorded trace."""
    shares = {n: wl[n]["traced"]["shares_of_cli.job_s"] for n in wl}

    def largest(name: str) -> str:
        return max((k for k in PARTITION if k in shares[name]), key=shares[name].get)

    rss = {n: wl[n]["baseline"]["peak_rss_mb"]["median"] for n in wl}
    layered = ("simplicial.", "mhb.")
    return {
        "tight.enumerate_s is the largest layer on mcb-sparse": largest("mcb-sparse") == "tight.enumerate_s",
        "mcb.depina_s + mcb.kavitha_s >= 1/3 of mcb-dense":
            shares["mcb-dense"].get("mcb.depina_s", 0) + shares["mcb-dense"].get("mcb.kavitha_s", 0) >= 1 / 3,
        "graph.apsp_s is the largest layer on tree-sparse": largest("tree-sparse") == "graph.apsp_s",
        "tree-sparse has the highest peak_rss_mb": max(rss, key=rss.get) == "tree-sparse",
        "simplicial/mhb spans appear only on mhb-torus": all(
            any(k.startswith(layered) for k in shares[n]) == (n == "mhb-torus") for n in wl),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    prov_path = HERE / "PROVENANCE.json"
    prov = json.loads(prov_path.read_text()) if prov_path.exists() else {}

    for name in args.workload or list(workloads.WORKLOADS):
        runs = [run_once(name, s, args.seconds, 0) for s in seeds]
        bad = [s for s, r in zip(seeds, runs) if not r["correct"] or r["failed"]]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarise(values) if len(values) > 1 else {"median": values[0]}
            print(f"{name:12s} {metric:12s} " + " ".join(f"{v:.4g}" for v in values))
            print(f"{'':12s} {'':12s} median {summary[metric]['median']:.4g} "
                  f"spread {summary[metric].get('spread', 0):.4f}")
        print(f"{name:12s} failed {failed}/{attempted}; incorrect seeds {bad}", flush=True)
        if not args.record:
            continue
        traced = run_once(name, seeds[0], args.seconds, 1)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        w = workloads.WORKLOADS[name]
        prov.setdefault("workloads", {})[name] = {
            "why": w.why,
            "generator": {**w.params, "seed": f"random.Random('{name}/<seed>')"},
            "jobs": [" ".join(t) + " --format json" for t in w.jobs],
            "seeds": seeds,
            "seconds": args.seconds,
            "baseline": {
                **{k: v for k, v in summary.items()},
                "failed_frac": failed / attempted,
            },
            "traced": {
                "seed": seeds[0],
                "cli.job_s": m["cli.job_s"],
                "shares_of_cli.job_s": {k: m[k] / m["cli.job_s"] for k in PARTITION + SPLITS if m[k]},
                "counts": {k: m[k] for k in spans.COUNT_METRICS},
                "peaks_mb": {k: m[k] for k in spans.PEAK_METRICS},
                "trace.overhead_frac": m["trace.overhead_frac"],
            },
        }
        prov["environment"] = {
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "load": "one process, one job at a time; memory measured on the benchmark process only",
        }
        prov["derived_metrics"] = spans.DERIVED
        if set(prov["workloads"]) == set(workloads.WORKLOADS):
            prov["roles"] = role_checks(prov["workloads"])
            for claim, ok in prov["roles"].items():
                print(f"{'ok ' if ok else 'NOT'} {claim}")
        prov_path.write_text(json.dumps(prov, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

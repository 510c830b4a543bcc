#!/usr/bin/env python3
"""minbasis benchmark: seeded workloads solved through ``minbasis.cli.main``.

    python3 benchmark/run.py --workload mcb-sparse --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` of
the same checkout and nowhere else.  One process runs one workload: it
writes the seeded instances, then repeats passes over the workload's CLI
jobs (one job at a time, stdout captured in a buffer) until the next pass
would end past ``--seconds``.  Every report is checked exactly
(``checks.py``) and against the weights stored for the seed
(``references.json``); engines run on the same instance must agree and a
job's stdout must be identical in every pass.  The fixture digests
(``digests.json``) are recomputed and mismatches printed by name.

``--trace 0`` prints the end-to-end metrics: median pass time ``wall_s``,
peak RSS of this process, and ``setup_s``, the median of import-plus-
instance-generation samples taken before the first pass and after every
pass.  ``--trace 1`` makes one untraced pass, one traced pass and a layer
replay with spans, then a tracemalloc pass on a freshly generated first
instance whose work counts must equal the replay's; it prints the
per-layer metrics and writes the spans to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import functools
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5


def _is_package_module(name: str) -> bool:
    return name.partition(".")[0] == "minbasis"


def import_package() -> float:
    """Import minbasis from this checkout's src/; return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import minbasis
    except ImportError as exc:
        sys.exit(f"error: cannot import minbasis from {SRC}: {exc}")
    if Path(minbasis.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: minbasis was imported from {minbasis.__file__}, not {SRC}")
    return time.perf_counter() - t0


def reimport_seconds() -> float:
    """Seconds to import minbasis afresh; the loaded modules are put back."""
    loaded = {k: sys.modules.pop(k) for k in list(sys.modules) if _is_package_module(k)}
    t0 = time.perf_counter()
    importlib.import_module("minbasis")
    dt = time.perf_counter() - t0
    for k in [k for k in sys.modules if _is_package_module(k)]:
        del sys.modules[k]
    sys.modules.update(loaded)
    return dt


def check_pass(w, instances, refs, first_digests, jobs, results) -> int:
    """Check one pass; return the number of failed jobs."""
    from checks import check_report  # imports minbasis, so only after import_package

    failed = 0
    summaries: dict[str, dict] = {}
    for i, (job, (rc, stdout, stderr)) in enumerate(zip(jobs, results)):
        problems = []
        if rc != 0:
            problems.append(f"exit {rc}: {stderr.strip()[-300:]}")
        else:
            engine = job.label.split("/")[1].replace("-", "_")
            probs, summary = check_report(w.kind, instances[job.instance][1], engine, stdout)
            problems += probs
            if summaries.setdefault(job.instance, summary) != summary:
                problems.append("weights differ from another engine on the same instance")
            ref = refs.get(job.instance)
            if ref is not None and summary != ref:
                problems.append("weights differ from the stored reference")
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if first_digests.setdefault(i, digest) != digest:
            problems.append("stdout differs from the first pass")
        if problems:
            failed += 1
            log(f"FAIL {job.instance} {job.label}: " + "; ".join(problems[:3]))
    return failed


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def untraced_run(jobs, check, seconds: float, set_up) -> tuple[dict, int, int]:
    """Passes until the next one would end past ``seconds``; end-to-end metrics.
    ``set_up`` is called after every pass, so that set-up is sampled across
    the whole run rather than at one moment of a noisy machine."""
    from workloads import run_cli

    walls = []
    failed = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [run_cli(j.argv) for j in jobs]
        walls.append(time.perf_counter() - t0)
        failed += check(jobs, results)
        set_up()
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log(f"{len(walls)} passes of {len(jobs)} jobs: wall_s " + " ".join(f"{x:.3f}" for x in walls))
    metrics = {"wall_s": (statistics.median(walls), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    return metrics, len(walls) * len(jobs), failed


def traced_run(w, seed: int, instances, jobs, check) -> tuple[dict, int, int, bool]:
    """One untraced pass, one traced pass plus layer replay, and tracemalloc
    on the first instance; per-layer metrics.  Spans go to .bench_out/."""
    import spans
    import workloads
    from workloads import run_cli

    t0 = time.perf_counter()
    results = [run_cli(j.argv) for j in jobs]
    wall = time.perf_counter() - t0
    failed = check(jobs, results)

    tr = spans.Tracer()
    t0 = time.perf_counter()
    results = []
    for job_id, job in enumerate(jobs):
        with tr.span("cli.job", job_id):
            results.append(run_cli(job.argv))
    traced_wall = time.perf_counter() - t0
    failed += check(jobs, results)

    counts = {}
    for job_id, job in enumerate(jobs):
        counts[job.instance] = spans.replay(tr, job_id, w.kind, instances[job.instance][0], job.label)
    # tracemalloc slows tight enumeration several-fold, so peaks and the
    # repeated counts come from the first instance only, generated afresh.
    name, obj = workloads.build_instances(w, seed)[0]
    peaks, again = spans.peaks_and_counts(w.kind, obj)
    repeat_ok = again == counts[name]
    if not repeat_ok:
        log(f"FAIL counts of {name} differ between two runs of seed {seed}: {counts[name]} != {again}")

    labels = [j.label for j in jobs]
    metrics = spans.layer_metrics(tr, labels, counts, peaks, traced_wall / wall - 1)
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{w.name}-{seed}.json").write_text(json.dumps({
        "workload": w.name,
        "seed": seed,
        "jobs": [{"id": i, "instance": j.instance, "label": j.label} for i, j in enumerate(jobs)],
        "derived": spans.DERIVED,
        "counts": counts,
        "self_s": tr.self_times(),
        "spans": tr.dump(),
    }, indent=1) + "\n")
    return metrics, 2 * len(jobs), failed, repeat_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    first_import_s = import_package()
    import digests
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    work = OUT / f"{w.name}-{args.seed}-{os.getpid()}"
    setup_samples = []

    def set_up():
        """Time import + instance generation SETUP_REPS times; return the instances and jobs."""
        for _ in range(SETUP_REPS):
            import_s = reimport_seconds() if setup_samples else first_import_s
            t0 = time.perf_counter()
            generated = workloads.write_instances(w, args.seed, work)
            setup_samples.append(import_s + time.perf_counter() - t0)
        return generated

    instances, jobs = set_up()

    refs = json.loads((HERE / "references.json").read_text()).get(w.name, {}).get(str(args.seed), {})
    if not refs:
        log(f"note: no stored reference weights for {w.name} seed {args.seed}; "
            "checking exactness and engine agreement only")
    check = functools.partial(check_pass, w, instances, refs, {})
    try:
        if args.trace:
            metrics, attempted, failed, correct = traced_run(w, args.seed, instances, jobs, check)
        else:
            metrics, attempted, failed = untraced_run(jobs, check, args.seconds, set_up)
            metrics["setup_s"] = (statistics.median(setup_samples), "s")
            log(f"setup_s samples: " + " ".join(f"{x:.4f}" for x in setup_samples))
            correct = True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    total, bad = digests.compare(HERE / "digests.json", ROOT / "fixtures")
    print(f"fixture digests: {total - len(bad)}/{total} match")
    for name in bad:
        print(f"digest mismatch: {name}")

    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

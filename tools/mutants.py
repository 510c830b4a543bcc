#!/usr/bin/env python3
"""Run the hand-written mutants in ``tools/mutants.json`` against tier-1.

Each entry names a file, an exact ``old`` text, the ``new`` text that
replaces it, and the expected outcome:

* ``killed``: the tier-1 tests fail on the mutant;
* ``equivalent``: they pass, and ``reason`` says why no output changes;
* ``gone``: the code it mutated was removed, so ``old`` no longer occurs.

A killed entry may name ``killed_by``, the test node that failed first
on it in the last full run, so the list doubles as a map of which test
guards which line.

Usage (stdlib only)::

    python tools/mutants.py            # run every mutant not gone
    python tools/mutants.py --check    # only check the list against the tree

A run copies the repository once into a temporary directory and times
the unmutated tests there.  For each mutant it edits that copy and runs
``python -m pytest -x -q`` with ``PYTHONPATH=src`` under a timeout of
``TIMEOUT_FACTOR`` times the unmutated run's seconds (a timeout counts
as killed), then restores the file.  A mutant with a ``killed_by`` node
runs that node alone first; it is killed if the node fails.  Otherwise,
and for every mutant without one, the whole suite runs over the test
files in name order, the exhaustive ``test_atlas.py`` last, and decides
the outcome as before: only the order of the tests changes.  Each killed
mutant is printed with its first failing test node, read from pytest's
``FAILED`` (or ``ERROR``) summary line, or ``timeout``.  The run ends
with the killed, equivalent and surviving counts, the killing node of
each killed mutant and the entries whose ``killed_by`` should now name
the test node that killed them, and exits 1 when an outcome differs from the expected one:
a mutant expected killed that survives, or an equivalent one that is
killed.  ``--check`` runs no mutant; it exits 1 unless each live ``old``
text occurs exactly once in its file and each gone one not at all, and
each ``killed_by`` is on a killed entry and names a node that pytest
collects.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
TIMEOUT_FACTOR = 3  # equivalent mutants take at most 1.2x the unmutated run; a loop is stopped
LAST = "test_atlas.py"  # seconds of exhaustive cases; most mutants die in an earlier file
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"
)


def collected(tree: Path) -> set[str]:
    """The test node ids pytest collects in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    cmd = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"]
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True).stdout
    return {line for line in out.splitlines() if "::" in line}


def check(mutants: list[dict], nodes: set[str]) -> list[str]:
    """Problems with the list against the tree at ``ROOT``, whose tests are
    ``nodes``; empty when none."""
    problems = []
    names = [m["name"] for m in mutants]
    for name in sorted({n for n in names if names.count(n) > 1}):
        problems.append(f"{name}: duplicate name")
    for m in mutants:
        if m["expect"] not in ("killed", "equivalent", "gone"):
            problems.append(f"{m['name']}: unknown expect {m['expect']!r}")
        if m["expect"] != "killed" and not m.get("reason"):
            problems.append(f"{m['name']}: {m['expect']} without a reason")
        count = (ROOT / m["file"]).read_text(encoding="utf-8").count(m["old"])
        want = 0 if m["expect"] == "gone" else 1
        if count != want:
            problems.append(f"{m['name']}: old text occurs {count} times in {m['file']}, want {want}")
        if "killed_by" in m and (m["expect"] != "killed" or m["killed_by"] not in nodes):
            problems.append(f"{m['name']}: killed_by {m['killed_by']!r} is no test that kills it")
    return problems


def first_failure(output: str) -> str:
    """The first test node named on a ``FAILED`` line of pytest's short
    summary, else on an ``ERROR`` line, else ``?``."""
    summary = output.rpartition("short test summary info")[2]
    for tag in ("FAILED ", "ERROR "):
        for line in summary.splitlines():
            if line.startswith(tag):
                return line[len(tag):].split(" - ", 1)[0]
    return "?"


def run_tests(
    tree: Path, timeout: float | None = None, node: str | None = None
) -> tuple[bool, float, str]:
    """(passed, seconds, first failing node) of ``pytest -x -q`` in ``tree``
    over ``node`` alone, or by default every test file, stopped after
    ``timeout`` seconds when given; a timeout is a failure, whose node
    reads ``timeout``.  The failing node of a run of ``node`` is ``node``,
    and it is empty when the tests pass."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    if node is None:
        files = sorted((tree / "tests").glob("test_*.py"), key=lambda p: (p.name == LAST, p.name))
        targets = [str(f.relative_to(tree)) for f in files]
    else:
        targets = [node]
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets]
    t0 = time.perf_counter()
    # a session of its own, so a timeout stops the CLI subprocesses tests start too
    proc = subprocess.Popen(
        cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        start_new_session=True, text=True,
    )
    try:
        output = proc.communicate(timeout=timeout)[0]
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, time.perf_counter() - t0, "timeout"
    passed = proc.returncode == 0
    return passed, time.perf_counter() - t0, "" if passed else node or first_failure(output)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true", help="check the list, run nothing")
    args = parser.parse_args()

    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    problems = check(mutants, collected(ROOT))
    for p in problems:
        print(f"stale: {p}")
    if problems or args.check:
        print(f"{len(mutants)} mutants, {len(problems)} problems")
        return 1 if problems else 0
    live = [m for m in mutants if m["expect"] != "gone"]

    with tempfile.TemporaryDirectory(prefix="minbasis-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        passed, secs, _ = run_tests(tree)
        if not passed:
            print(f"the unmutated tests fail ({secs:.1f} s); no mutant was run")
            return 2
        timeout = TIMEOUT_FACTOR * secs
        print(f"unmutated: passed ({secs:.1f} s); mutants time out after {timeout:.1f} s")
        counts = {"killed": 0, "equivalent": 0, "surviving": 0}
        mismatched = []
        killers = []
        moved = []
        for m in live:
            path = tree / m["file"]
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m["old"], m["new"], 1), encoding="utf-8")
            try:
                passed, secs = True, 0.0
                if "killed_by" in m:
                    passed, secs, killer = run_tests(tree, timeout, m["killed_by"])
                if passed:
                    passed, more, killer = run_tests(tree, timeout)
                    secs += more
            finally:
                path.write_text(original, encoding="utf-8")
            if not passed:
                outcome = "killed"
                killers.append((m["name"], killer))
                if "::" in killer and killer != m.get("killed_by"):
                    moved.append((m["name"], killer))
            else:
                outcome = "equivalent" if m["expect"] == "equivalent" else "surviving"
            counts[outcome] += 1
            if outcome != m["expect"]:
                mismatched.append(m["name"])
            by = f" by {killer}" if killer else ""
            print(f"{outcome:<10} {m['name']} ({secs:.1f} s, expected {m['expect']}){by}", flush=True)

    gone = sum(m["expect"] == "gone" for m in mutants)
    print(f"killed {counts['killed']}, equivalent {counts['equivalent']}, "
          f"surviving {counts['surviving']}, gone {gone} (not run)")
    print("first failing test of each killed mutant:")
    for name, killer in killers:
        print(f"  {name}: {killer}")
    if moved:
        print("killed_by to record (no entry, or its node passed alone):")
    for name, killer in moved:
        print(f"  {name}: {killer}")
    for name in mismatched:
        print(f"unexpected outcome: {name}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

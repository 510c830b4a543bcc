"""sha256 of the CLI stdout for every fixture, engine and output format.

This is the "same outputs" gate: a change that keeps every report
byte-identical keeps every digest.  Mismatches are reported by name and
do not fail a benchmark run, since a documented reordering of depina or
kavitha output is allowed to change them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import run_cli

ENGINES = ("earliest", "depina", "kavitha")
GRAPH_VARIANTS = [("mcb", "--engine", e) for e in ENGINES] + [("tight-cycles",)]
COMPLEX_VARIANTS = (
    [("mhb", "--engine", "tight")]
    + [("mhb", "--engine", "via-mcb", "--mcb-engine", e) for e in ENGINES]
    + [("betti",)]
)


def fixture_digests(fixtures: Path) -> dict[str, str]:
    """Digest per ``"<file> <subcommand and flags> --format <fmt>"`` name."""
    out = {}
    for path in sorted(fixtures.iterdir()):
        variants = {".grf": GRAPH_VARIANTS, ".scx": COMPLEX_VARIANTS}.get(path.suffix, [])
        for v in variants:
            for fmt in ("text", "json"):
                rc, stdout, _ = run_cli((v[0], str(path), *v[1:], "--format", fmt))
                name = " ".join((path.name, *v, "--format", fmt))
                out[name] = hashlib.sha256(stdout.encode()).hexdigest() if rc == 0 else f"exit {rc}"
    return out


def compare(stored_file: Path, fixtures: Path) -> tuple[int, list[str]]:
    """(number of stored digests, names that are missing or differ)."""
    stored = json.loads(stored_file.read_text())
    now = fixture_digests(fixtures)
    bad = sorted(n for n in stored.keys() | now.keys() if stored.get(n) != now.get(n))
    return len(stored), bad

"""The benchmark's traced replay agrees with its independent count pass.

``benchmark/run.py --trace 1`` replays each CLI job through ``apsp``,
``horton_candidates``, ``is_tight`` and the engines, and checks the work
counts against a second pass; this test runs the same two calls on
fixture instances so the replay's library calls stay working.
"""

import sys
from pathlib import Path

import pytest

import minbasis as mb

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import spans  # noqa: E402

JOBS = [
    ("graph", "petersen.grf", "mcb/earliest"),
    ("graph", "petersen.grf", "mcb/depina"),
    ("graph", "petersen.grf", "mcb/kavitha"),
    ("graph", "rand_g09.grf", "mcb/earliest"),  # is_tight rejects 11 of 17 candidates
    ("complex", "torus7.scx", "mhb/tight"),
    ("complex", "torus7.scx", "mhb/via-mcb"),
]


@pytest.mark.parametrize("kind, name, label", JOBS, ids=[f"{name}-{label}" for _, name, label in JOBS])
def test_replay_counts_match_independent_pass(kind, name, label):
    path = ROOT / "fixtures" / name
    counts = spans.replay(spans.Tracer(), 0, kind, path, label)
    obj = mb.load_graph(path) if kind == "graph" else mb.load_complex(path)
    assert counts == spans.peaks_and_counts(kind, obj)[1]

"""Every fixture's CLI output still matches its stored sha256 digest.

``benchmark/digests.py`` reports mismatches without failing a benchmark
run; this test makes byte-identical CLI output a gate of the suite.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmark"))

import digests  # noqa: E402


def test_fixture_outputs_match_stored_digests():
    stored, bad = digests.compare(ROOT / "benchmark" / "digests.json", ROOT / "fixtures")
    assert stored == 358
    assert bad == []

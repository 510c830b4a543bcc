"""Per-layer spans recorded from outside the package.

The traced run replays each CLI job as the sequence of public layer calls
the CLI makes (parse, ``apsp``, ``horton_candidates`` + ``is_tight``,
``enumerate_tight_cycles(g, pairs)``, the engine), each wrapped in a span
kept in memory.  Layers the engine span contains but the replay cannot
reach from outside (the MHB boundary selection, the CLI's own argument
handling and JSON output) are derived by subtraction and listed in
``DERIVED``.  Allocation peaks come from a separate tracemalloc pass so
that tracemalloc does not slow the timed spans.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

import minbasis as mb

MCB = {"earliest": mb.mcb_earliest, "depina": mb.mcb_depina, "kavitha": mb.mcb_kavitha}
MHB = {"tight": mb.mhb_tight, "via-mcb": mb.mhb_via_mcb}

# Self time of the span of the same name, without the "_s".
SPAN_METRICS = (
    "graph.parse_s", "graph.apsp_s",
    "tight.enumerate_s", "tight.candidates_s", "tight.filter_s",
    "mcb.earliest_s", "mcb.depina_s", "mcb.kavitha_s",
    "simplicial.parse_s", "simplicial.skeleton_s", "simplicial.profile_s",
    "mhb.tight_s", "mhb.via_mcb_s", "cli.job_s",
)
COUNT_METRICS = (
    "tight.candidates", "tight.kept", "tight.total_length", "mcb.nu",
    "simplicial.triangles", "simplicial.boundary_rank", "mhb.beta1",
)
PEAK_METRICS = ("graph.apsp_peak_mb", "tight.peak_mb")
DERIVED = {
    "mhb.select_s": "mhb engine span - simplicial.skeleton - graph.apsp - tight.enumerate "
                    "(- mcb.earliest for via-mcb); covers validate, homology_profile and "
                    "the boundary-seeded elimination",
    "cli.overhead_s": "cli.job span - the job's layer spans (graph.parse + graph.apsp + "
                      "tight.enumerate + engine, or simplicial.parse + mhb engine); covers "
                      "argument parsing, JSON output and freeing the layers' results",
    "trace.overhead_frac": "traced CLI pass / untraced pass - 1",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    job: int


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, job: int):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, job))
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - c
        return out

    def job_totals(self, job: int) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.spans:
            if s.job == job:
                out[s.name] = out.get(s.name, 0.0) + s.end - s.start
        return out

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def replay(tr: Tracer, job_id: int, kind: str, path, label: str) -> dict[str, int]:
    """Run one job's layers as spans; return the instance's work counts."""
    sub, engine = label.split("/")
    counts = {}
    with tr.span("layers", job_id):
        if kind == "graph":
            with tr.span("graph.parse", job_id):
                g = mb.load_graph(path)
        else:
            with tr.span("simplicial.parse", job_id):
                k = mb.load_complex(path)
            with tr.span("simplicial.skeleton", job_id):
                g = mb.skeleton(k)
            with tr.span("simplicial.profile", job_id):
                profile = mb.homology_profile(k)
            counts["simplicial.triangles"] = k.n2
            counts["simplicial.boundary_rank"] = profile.boundary_rank
        with tr.span("graph.apsp", job_id):
            pairs = mb.apsp(g)
        with tr.span("tight.candidates", job_id):
            candidates = mb.horton_candidates(g, pairs.trees)
        with tr.span("tight.filter", job_id):
            kept = [c for c in candidates if mb.is_tight(c, pairs)]
        with tr.span("tight.enumerate", job_id):
            tcs = mb.enumerate_tight_cycles(g, pairs)
        if len(kept) != len(tcs.cycles):
            raise AssertionError("filtered candidates disagree with enumerate_tight_cycles")
        counts["tight.candidates"] = len(candidates)
        counts["tight.kept"] = len(tcs.cycles)
        counts["tight.total_length"] = tcs.total_length
        counts["mcb.nu"] = mb.cyclomatic_number(g)
        if sub == "mcb" or engine == "via-mcb":
            with tr.span("mcb.earliest" if sub == "mhb" else f"mcb.{engine}", job_id):
                MCB["earliest" if sub == "mhb" else engine](g, tcs)
        if sub == "mhb":
            with tr.span(f"mhb.{engine.replace('-', '_')}", job_id):
                report = MHB[engine](k)
            counts["mhb.beta1"] = len(report.cycles)
    return counts


def _derived(tr: Tracer, labels: list[str]) -> dict[str, float]:
    """mhb.select_s and cli.overhead_s summed over the jobs (id = position)."""
    select = overhead = 0.0
    for job_id, label in enumerate(labels):
        t = tr.job_totals(job_id)
        sub, engine = label.split("/")
        if sub == "mhb":
            eng = t[f"mhb.{engine.replace('-', '_')}"]
            select += eng - t["simplicial.skeleton"] - t["graph.apsp"] - t["tight.enumerate"] \
                - t.get("mcb.earliest", 0.0)
            layer_sum = t["simplicial.parse"] + eng
        else:
            layer_sum = t["graph.parse"] + t["graph.apsp"] + t["tight.enumerate"] + t[f"mcb.{engine}"]
        overhead += t["cli.job"] - layer_sum
    return {"mhb.select_s": select, "cli.overhead_s": overhead}


def peaks_and_counts(kind: str, obj) -> tuple[dict[str, float], dict[str, int]]:
    """tracemalloc peaks of apsp and tight enumeration on one instance, and
    the work counts recomputed independently of the timed replay."""
    counts = {}
    if kind == "complex":
        g = mb.skeleton(obj)
        counts["simplicial.triangles"] = obj.n2
        profile = mb.homology_profile(obj)
        counts["simplicial.boundary_rank"] = profile.boundary_rank
        counts["mhb.beta1"] = profile.beta1
    else:
        g = obj
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pairs = mb.apsp(g)
        current, peak = tracemalloc.get_traced_memory()
        apsp_peak = peak - base
        tracemalloc.reset_peak()
        tcs = mb.enumerate_tight_cycles(g, pairs)
        tight_peak = tracemalloc.get_traced_memory()[1] - current
    finally:
        tracemalloc.stop()
    counts["tight.candidates"] = len(mb.horton_candidates(g, pairs.trees))
    counts["tight.kept"] = len(tcs.cycles)
    counts["tight.total_length"] = tcs.total_length
    counts["mcb.nu"] = mb.cyclomatic_number(g)
    return {"graph.apsp_peak_mb": apsp_peak / 2**20, "tight.peak_mb": tight_peak / 2**20}, counts


def layer_metrics(tr: Tracer, labels: list[str], counts: dict[str, dict],
                  peaks: dict[str, float], overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit).  Times are summed over jobs,
    counts over instances, peaks are of the first instance; layers a
    workload never reaches read 0."""
    self_s = tr.self_times()
    out = {k: (self_s.get(k[:-2], 0.0), "s") for k in SPAN_METRICS}
    out.update({k: (v, "s") for k, v in _derived(tr, labels).items()})
    totals = {k: sum(c.get(k, 0) for c in counts.values()) for k in COUNT_METRICS}
    out.update({k: (v, "count") for k, v in totals.items()})
    out["tight.keep_ratio"] = (totals["tight.kept"] / totals["tight.candidates"], "ratio")
    out.update({k: (v, "MB") for k, v in peaks.items()})
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out

"""The benchmark's seeded workload families and their CLI job lists.

Every instance is derived from ``(workload name, seed)`` alone, so the
same seed always writes byte-identical input files.  Graphs come from the
package's own generators where one exists; the torus and the sparse tree
are built here because the package has no generator for them.
"""

from __future__ import annotations

import contextlib
import io
import random
import traceback
from dataclasses import dataclass
from pathlib import Path

from minbasis import cli
from minbasis.fixtures import random_graph_nm
from minbasis.graph import Edge, Graph, save_graph
from minbasis.simplicial import SimplicialComplex, save_complex

WEIGHTS = (1, 8)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "graph" or "complex"
    params: dict
    jobs: tuple[tuple[str, ...], ...]  # CLI argument templates; input path goes second


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` is passed to ``minbasis.cli.main`` as is."""

    instance: str
    label: str  # e.g. "mcb/earliest"
    argv: tuple[str, ...]


def run_cli(argv) -> tuple[object, str, str]:
    """Run ``minbasis.cli.main`` in-process; return (exit code, stdout, stderr).

    An exception escaping ``main`` is returned as its text in place of the
    exit code, so the caller counts it as a failed job.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        rc = f"raised {type(exc).__name__}"
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def sparse_tree(rng: random.Random, n: int, reach: int, chords: int) -> Graph:
    """Random tree where vertex v hangs off one of its ``reach`` label-predecessors,
    plus ``chords`` distinct non-tree edges spanning at most ``reach`` labels."""
    used: set[tuple[int, int]] = set()
    edges = []
    for v in range(1, n):
        u = v - rng.randint(1, min(reach, v))
        used.add((u, v))
        edges.append((u, v, rng.randint(*WEIGHTS)))
    while len(edges) < n - 1 + chords:
        u = rng.randrange(n - 1)
        v = min(n - 1, u + rng.randint(1, reach))
        if (u, v) not in used:
            used.add((u, v))
            edges.append((u, v, rng.randint(*WEIGHTS)))
    rng.shuffle(edges)  # vary edge indexing, as random_graph_nm does
    return Graph(n, edges)


def torus_grid(rng: random.Random, side: int, keep: float) -> SimplicialComplex:
    """Triangulated side x side torus grid; each triangle is kept with
    probability ``keep``.  Every edge stays, so the 1-skeleton is fixed."""

    def vid(i: int, j: int) -> int:
        return (i % side) * side + (j % side)

    edges = []
    triangles = []
    for i in range(side):
        for j in range(side):
            a, right, down, diag = vid(i, j), vid(i, j + 1), vid(i + 1, j), vid(i + 1, j + 1)
            for u, v in ((a, right), (a, down), (a, diag)):
                edges.append(Edge(u, v, rng.randint(*WEIGHTS)))
            for t in ((a, right, diag), (a, down, diag)):
                if rng.random() < keep:
                    triangles.append(t)
    rng.shuffle(edges)
    return SimplicialComplex(side * side, tuple(edges), tuple(triangles))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mcb-sparse",
            "n=200/m=1000 graphs on the default earliest engine; tight enumeration "
            "dominates (multiplicity counting moves it)",
            "graph",
            {"generator": "random_graph_nm", "count": 3, "n": 200, "m": 1000, "weights": WEIGHTS},
            (("mcb", "--engine", "earliest"),),
        ),
        Workload(
            "mcb-dense",
            "dense n=64/m=1600 graph (nu=1537) through depina and kavitha; the only "
            "workload where the support-vector engines dominate",
            "graph",
            {"generator": "random_graph_nm", "count": 1, "n": 64, "m": 1600, "weights": WEIGHTS},
            (("mcb", "--engine", "depina"), ("mcb", "--engine", "kavitha")),
        ),
        Workload(
            "mhb-torus",
            "holed 15x15 torus complexes through mhb tight and via-mcb; the only "
            "workload through simplicial and boundary elimination",
            "complex",
            {"generator": "torus_grid", "count": 2, "side": 15, "keep": 0.9, "weights": WEIGHTS},
            (("mhb", "--engine", "tight"), ("mhb", "--engine", "via-mcb")),
        ),
        Workload(
            "tree-sparse",
            "n=1000 tree plus 40 short chords; all-pairs shortest paths is the time "
            "and memory cost, tightness is nearly free",
            "graph",
            {"generator": "sparse_tree", "count": 1, "n": 1000, "reach": 5, "chords": 40,
             "weights": WEIGHTS},
            (("mcb", "--engine", "earliest"),),
        ),
    )
}


def build_instances(w: Workload, seed: int) -> list[tuple[str, object]]:
    """The workload's instances for ``seed``, as (name, Graph or complex)."""
    rng = random.Random(f"{w.name}/{seed}")
    p = w.params
    out = []
    for i in range(p["count"]):
        if p["generator"] == "random_graph_nm":
            obj = random_graph_nm(rng, p["n"], p["m"], weights=WEIGHTS)
        elif p["generator"] == "sparse_tree":
            obj = sparse_tree(rng, p["n"], p["reach"], p["chords"])
        else:
            obj = torus_grid(rng, p["side"], p["keep"])
        out.append((f"{w.name}-{i}", obj))
    return out


def write_instances(w: Workload, seed: int, out_dir: Path) -> tuple[dict, list[Job]]:
    """Generate and save the instances; return them by name with the job list."""
    out_dir.mkdir(parents=True, exist_ok=True)
    instances = {}
    jobs = []
    for name, obj in build_instances(w, seed):
        if w.kind == "graph":
            path = out_dir / f"{name}.grf"
            save_graph(obj, path, comment=f"{w.name} seed {seed}")
        else:
            path = out_dir / f"{name}.scx"
            save_complex(obj, path, comment=f"{w.name} seed {seed}")
        instances[name] = (path, obj)
        for template in w.jobs:
            argv = (template[0], str(path), *template[1:], "--format", "json")
            jobs.append(Job(name, f"{template[0]}/{template[2]}", argv))
    return instances, jobs

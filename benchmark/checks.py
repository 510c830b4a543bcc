"""Exact correctness gate for one JSON report of ``minbasis mcb`` / ``mhb``.

The checks use only the instance itself, the public ``SpanTracker`` and
``boundary_matrix``: every cycle is an even-degree edge set with the
weight it states, the total is their sum, and the cycles are independent
(modulo triangle boundaries for a homology basis) in exactly the number
the cycle space (or first homology) needs.
"""

from __future__ import annotations

import json
from collections import Counter

from minbasis import boundary_matrix
from minbasis.gf2 import SpanTracker


def _components(n: int, edges) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n
    for e in edges:
        ru, rv = find(e.u), find(e.v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def _check_cycles(n: int, edges, cycles: list) -> tuple[list[str], list[int], list[int]]:
    """Problems, stated weights and edge masks of the reported cycles."""
    problems = []
    weights = []
    masks = []
    for i, c in enumerate(cycles):
        idx = c["edges"]
        if not idx or len(set(idx)) != len(idx) or not all(0 <= e < len(edges) for e in idx):
            problems.append(f"cycle {i}: empty, repeated or out-of-range edges")
            continue
        parity = [0] * n
        for e in idx:
            parity[edges[e].u] ^= 1
            parity[edges[e].v] ^= 1
        if any(parity):
            problems.append(f"cycle {i}: odd degree at vertex {parity.index(1)}")
        if sum(edges[e].w for e in idx) != c["weight"]:
            problems.append(f"cycle {i}: stated weight {c['weight']} is wrong")
        weights.append(c["weight"])
        masks.append(sum(1 << e for e in idx))
    return problems, weights, masks


def check_report(kind: str, obj, engine: str, text: str) -> tuple[list[str], dict]:
    """Check one report; return (problems, summary) where the summary holds
    ``total_weight`` and the weight histogram for cross-engine comparison."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], {}
    if not isinstance(payload, dict):
        return ["report is not a JSON object"], {}
    problems = []
    if payload.get("engine") != engine:
        problems.append(f"engine {payload.get('engine')!r} != {engine!r}")
    cycles = payload.get("cycles", [])
    try:
        cycle_problems, weights, masks = _check_cycles(obj.n, obj.edges, cycles)
    except (KeyError, TypeError) as exc:
        return problems + [f"malformed cycle list: {exc!r}"], {}
    problems += cycle_problems
    nu = len(obj.edges) - obj.n + _components(obj.n, obj.edges)
    tracker = SpanTracker()
    if kind == "graph":
        want, key = nu, "nu"
    else:
        for col in boundary_matrix(obj, 2).columns:
            tracker.add(col.bits)
        want, key = nu - tracker.rank, "beta1"
    if payload.get(key) != want or len(cycles) != want:
        problems.append(f"{key} {payload.get(key)} with {len(cycles)} cycles; expected {want}")
    independent = sum(tracker.add(m) for m in masks)
    if independent != want:
        problems.append(f"GF(2) rank {independent} of the cycles != {want}")
    if payload.get("total_weight") != sum(weights):
        problems.append(f"total_weight {payload.get('total_weight')} != sum {sum(weights)}")
    summary = {"total_weight": sum(weights), "weights": histogram(weights)}
    return problems, summary


def histogram(weights) -> dict[str, int]:
    """Weight multiset as a sorted {weight: multiplicity} map (JSON keys)."""
    return {str(w): c for w, c in sorted(Counter(weights).items())}

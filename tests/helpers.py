"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (dense 0/1 lists, cubic loops,
exhaustive enumeration) and shares no code with the production package.
"""

import itertools


# -- dense GF(2) -------------------------------------------------------------

def rows(m):
    """Dense 0/1 rows of a column-major ``Gf2Matrix``."""
    return [[c.bits >> i & 1 for c in m.columns] for i in range(m.nrows)]


def dense_rank(rows):
    """Rank of a dense 0/1 row-major matrix by textbook elimination."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                work[i] = [a ^ b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def columns_independent(rows, selected):
    """Whether the selected columns of a row-major matrix are independent."""
    sub = [[row[j] for j in selected] for row in rows]
    return dense_rank(sub) == len(selected)


def greedy_profile(rows):
    """Left-to-right scan keeping each column independent of the kept ones."""
    ncols = len(rows[0]) if rows else 0
    kept = []
    for j in range(ncols):
        if columns_independent(rows, kept + [j]):
            kept.append(j)
    return tuple(kept)


def exhaustive_lex_min_profile(rows):
    """Smallest independent index sequence of maximum size, by full scan.

    itertools.combinations yields index tuples in lexicographic order, so
    the first independent combination of size r is the minimum.
    """
    ncols = len(rows[0]) if rows else 0
    r = dense_rank(rows)
    for combo in itertools.combinations(range(ncols), r):
        if columns_independent(rows, list(combo)):
            return combo
    return ()


def lex_min_profile_dfs(col_bits, nrows):
    """Lexicographically smallest independent sequence of size rank.

    Depth-first search over increasing index sequences, smallest index
    first, pruning prefixes that are dependent (subsets of independent
    sets are independent, so the pruning is sound).  The first complete
    sequence found is the lexicographic minimum.
    """

    def reduce(bits, pivots):
        while bits:
            top = bits.bit_length() - 1
            if top not in pivots:
                return bits, top
            bits ^= pivots[top]
        return 0, -1

    # rank by one straight pass
    pivots = {}
    for b in col_bits:
        red, top = reduce(b, pivots)
        if red:
            pivots[top] = red
    r = len(pivots)

    ncols = len(col_bits)
    found = []

    def dfs(start, chosen, pivots):
        if len(chosen) == r:
            found.append(tuple(chosen))
            return True
        for j in range(start, ncols):
            if ncols - j < r - len(chosen):
                return False
            red, top = reduce(col_bits[j], pivots)
            if red:
                nxt = dict(pivots)
                nxt[top] = red
                chosen.append(j)
                if dfs(j + 1, chosen, nxt):
                    return True
                chosen.pop()
        return False

    dfs(0, [], {})
    return found[0] if found else ()


# -- support vectors -----------------------------------------------------------

def min_weight_odd_cycle(tcs, s):
    """Lightest cycle of the weight-sorted set ``tcs`` with odd inner product
    against the nonzero ``Gf2Vector`` ``s``, by one popcount per cycle, or
    None when no cycle is odd against it."""
    if not s.bits:
        raise ValueError("support vector must be nonzero")
    for c in tcs.cycles:
        if (c.mask & s.bits).bit_count() & 1:
            return c
    return None


# -- graph oracles ------------------------------------------------------------

def keyed_bellman_ford(n, edges, source):
    """Tie-broken (base weight, edge bit set) distances; None when unreachable.

    Relaxes only along edges not yet on the path, so every value is the
    key of a trail, and a trail never beats the simple path inside it.
    """
    dist = [None] * n
    dist[source] = (0, 0)
    changed = True
    while changed:
        changed = False
        for idx, (u, v, w) in enumerate(edges):
            bit = 1 << idx
            for a, b in ((u, v), (v, u)):
                if dist[a] is None or dist[a][1] & bit:
                    continue
                cand = (dist[a][0] + w, dist[a][1] | bit)
                if dist[b] is None or cand < dist[b]:
                    dist[b] = cand
                    changed = True
    return dist


def simple_path(edges, mask, source):
    """Vertices of the simple path the edges of ``mask`` form from ``source``.

    Walks from ``source`` along the one unused edge of ``mask`` at each
    vertex.  Returns None unless that walk uses every edge and visits no
    vertex twice: the source and the far end then have degree 1, every
    other touched vertex degree 2, and there are popcount + 1 vertices.
    """
    unused = {idx for idx in range(mask.bit_length()) if mask >> idx & 1}
    path = [source]
    while unused:
        step = [idx for idx in unused if path[-1] in edges[idx][:2]]
        if len(step) != 1:
            return None
        unused.remove(step[0])
        u, v = edges[step[0]][:2]
        path.append(v if path[-1] == u else u)
        if path[-1] in path[:-1]:
            return None
    return path


def floyd_warshall(n, edges):
    """Base-weight all-pairs distances; None for unreachable pairs."""
    inf = float("inf")
    d = [[inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for u, v, w in edges:
        if w < d[u][v]:
            d[u][v] = d[v][u] = w
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik == inf:
                continue
            for j in range(n):
                if dik + d[k][j] < d[i][j]:
                    d[i][j] = dik + d[k][j]
    return [[None if x == inf else x for x in row] for row in d]


def all_simple_paths(n, edges, source, target):
    """Every simple path source -> target as a list of edge indices."""
    adj = [[] for _ in range(n)]
    for idx, (u, v, _w) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    paths = []

    def walk(v, visited, acc):
        if v == target:
            paths.append(list(acc))
            return
        for o, idx in adj[v]:
            if not (visited >> o) & 1:
                acc.append(idx)
                walk(o, visited | (1 << o), acc)
                acc.pop()

    if source == target:
        return [[]]
    walk(source, 1 << source, [])
    return paths


def path_key(edges, path):
    """(base weight, edge bit set) of a list of edge indices."""
    base = 0
    mask = 0
    for idx in path:
        base += edges[idx][2]
        mask |= 1 << idx
    return base, mask


# -- CLI reports ----------------------------------------------------------------

def cycle_dicts(cycles):
    """A report's cycles as the dicts ``json.dumps`` was once given: one
    ``{"edges": [...], "weight": w}`` per cycle, edges ascending."""
    return [
        {"edges": [i for i, b in enumerate(reversed(f"{c.mask:b}")) if b == "1"], "weight": c.base}
        for c in cycles
    ]


def basis_dict(report, rank):
    """The dict a basis report was written from, ``rank`` naming its count."""
    return {
        "engine": report.engine,
        rank: len(report.cycles),
        "total_weight": report.total_weight,
        "cycles": cycle_dicts(report.cycles),
    }


def tight_dict(tcs):
    """The dict a tight cycle list was written from."""
    return {"count": len(tcs.cycles), "total_length": tcs.total_length, "cycles": cycle_dicts(tcs.cycles)}

"""Brute-force oracles for the fast recognizers.

Two engines: an induced-subgraph search (backtracking over bitset
candidate masks) for the forbidden-pattern classes, and an exhaustive
minor search (contraction recursion with memoization) for planarity and
outerplanarity.  Both are deliberately independent of the decision
procedures in `recognizers`.
"""

from __future__ import annotations

import itertools

from .graphs import Graph, cycle_graph, path_graph, two_k2

MAX_ORACLE_VERTICES = 12
MAX_PATTERN_VERTICES = 6


class OracleSizeError(ValueError):
    pass


def find_induced(g: Graph, pattern: Graph) -> frozenset[int] | None:
    """A vertex set inducing a subgraph isomorphic to the pattern, or None.

    Exhaustive backtracking; pattern vertices are matched most-constrained
    first and candidates pruned by degree and exact adjacency to the
    already-matched vertices (induced, so non-edges must match too).
    """
    k = pattern.n
    if k > MAX_PATTERN_VERTICES:
        raise OracleSizeError(f"pattern has {k} > {MAX_PATTERN_VERTICES} vertices")
    if k > g.n:
        return None
    order: list[int] = []
    placed = 0
    for _ in range(k):
        best = max(
            (u for u in range(k) if not (placed >> u) & 1),
            key=lambda u: ((pattern.rows[u] & placed).bit_count(), pattern.degree(u)),
        )
        order.append(best)
        placed |= 1 << best
    full = (1 << g.n) - 1
    pdeg = [pattern.degree(u) for u in range(k)]
    assign: dict[int, int] = {}

    def rec(step: int, used: int) -> frozenset[int] | None:
        if step == k:
            return frozenset(assign.values())
        u = order[step]
        cand = full & ~used
        for pu, gv in assign.items():
            if (pattern.rows[u] >> pu) & 1:
                cand &= g.rows[gv]
            else:
                cand &= ~g.rows[gv]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if g.degree(v) < pdeg[u]:
                continue
            assign[u] = v
            hit = rec(step + 1, used | (1 << v))
            if hit is not None:
                return hit
            del assign[u]
        return None

    return rec(0, 0)


def split_oracle(g: Graph) -> frozenset[int] | None:
    """A forbidden induced 2K_2, C_4 or C_5 if one exists (Foldes-Hammer)."""
    for pattern in (two_k2(), cycle_graph(4), cycle_graph(5)):
        hit = find_induced(g, pattern)
        if hit is not None:
            return hit
    return None


def threshold_oracle(g: Graph) -> frozenset[int] | None:
    """A forbidden induced P_4, C_4 or 2K_2 if one exists."""
    for pattern in (path_graph(4), cycle_graph(4), two_k2()):
        hit = find_induced(g, pattern)
        if hit is not None:
            return hit
    return None


def cograph_oracle(g: Graph) -> frozenset[int] | None:
    """An induced P_4 if one exists."""
    return find_induced(g, path_graph(4))


# --- minor search ---------------------------------------------------------

def _blocks_and_adj(g: Graph):
    # Blocks are bitmasks of original vertices; adjacency maps block -> set.
    adj: dict[int, set[int]] = {1 << v: set() for v in range(g.n)}
    for i, j in g.edges():
        adj[1 << i].add(1 << j)
        adj[1 << j].add(1 << i)
    return adj


def _simplify(adj: dict[int, set[int]], suppress_deg2: bool):
    changed = True
    while changed:
        changed = False
        for v in list(adj):
            if v not in adj:
                continue
            deg = len(adj[v])
            if deg <= 1:
                for u in adj[v]:
                    adj[u].discard(v)
                del adj[v]
                changed = True
            elif deg == 2 and suppress_deg2:
                a, b = adj[v]
                adj[a].discard(v)
                adj[b].discard(v)
                del adj[v]
                if a != b:
                    adj[a].add(b)
                    adj[b].add(a)
                changed = True


def _has_clique(adj: dict[int, set[int]], k: int) -> bool:
    verts = [v for v in adj if len(adj[v]) >= k - 1]
    for combo in itertools.combinations(verts, k):
        if all(b in adj[a] for a, b in itertools.combinations(combo, 2)):
            return True
    return False


def _has_complete_bipartite(adj: dict[int, set[int]], a: int, b: int) -> bool:
    # Subgraph (not induced): a vertices with >= b common neighbors elsewhere.
    verts = [v for v in adj if len(adj[v]) >= b]
    for combo in itertools.combinations(verts, a):
        common = set.intersection(*(adj[v] for v in combo)) - set(combo)
        if len(common) >= b:
            return True
    return False


_TARGETS = {
    # name: (vertices, edges, subgraph check, degree-2 suppression safe)
    "K5": (5, 10, lambda adj: _has_clique(adj, 5), True),
    "K33": (6, 9, lambda adj: _has_complete_bipartite(adj, 3, 3), True),
    "K4": (4, 6, lambda adj: _has_clique(adj, 4), True),
    # K_{2,3} has degree-2 branch vertices, so suppressing degree-2
    # vertices is not minor-safe for it; only degree <= 1 deletion is.
    "K23": (5, 6, lambda adj: _has_complete_bipartite(adj, 2, 3), False),
}


def has_minor(g: Graph, target: str) -> bool:
    """Exhaustive search for a named minor (K5, K33, K4 or K23).

    Contraction recursion: a graph has H as a minor iff H is a subgraph of
    some graph reachable by edge contractions.  Failed states are memoized
    on their block partition, so each reachable contracted graph is
    explored once.
    """
    need_v, need_e, check, deg2_ok = _TARGETS[target]
    memo: set[frozenset[frozenset[int]]] = set()

    def rec(adj: dict[int, set[int]]) -> bool:
        _simplify(adj, deg2_ok)
        if len(adj) < need_v:
            return False
        if sum(len(s) for s in adj.values()) // 2 < need_e:
            return False
        if check(adj):
            return True
        key = frozenset(
            frozenset((u, v)) for u in adj for v in adj[u] if u < v
        )
        if key in memo:
            return False
        memo.add(key)
        edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
        for u, v in edges:
            nadj = {w: set(s) for w, s in adj.items()}
            merged = u | v
            nbrs = (nadj[u] | nadj[v]) - {u, v}
            del nadj[u], nadj[v]
            nadj[merged] = nbrs
            for w in nbrs:
                nadj[w].discard(u)
                nadj[w].discard(v)
                nadj[w].add(merged)
            if rec(nadj):
                return True
        return False

    return rec(_blocks_and_adj(g))


def kuratowski_oracle(g: Graph) -> bool:
    """True iff the graph has no K_5 and no K_{3,3} minor (so, planar)."""
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle bound {MAX_ORACLE_VERTICES}")
    return not has_minor(g, "K5") and not has_minor(g, "K33")


def outerplanar_oracle(g: Graph) -> bool:
    """True iff the graph has no K_4 and no K_{2,3} minor (so, outerplanar)."""
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle bound {MAX_ORACLE_VERTICES}")
    return not has_minor(g, "K4") and not has_minor(g, "K23")

"""Brute-force oracles for the fast recognizers.

Two engines: an induced-subgraph search (backtracking over bitset
candidate masks) for the forbidden-pattern classes, and an exhaustive
minor search (contraction recursion over bitset rows, with memoization)
for planarity and outerplanarity.  Both are deliberately independent of
the decision procedures in `recognizers`.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import and_

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


# The forbidden induced subgraphs, built once.
_P4, _C4, _2K2 = path_graph(4), cycle_graph(4), two_k2()
_SPLIT_PATTERNS = (_2K2, _C4, cycle_graph(5))
_THRESHOLD_PATTERNS = (_P4, _C4, _2K2)


def _first_induced(g: Graph, patterns: tuple[Graph, ...]) -> frozenset[int] | None:
    return next((hit for p in patterns if (hit := find_induced(g, p)) is not None), None)


def split_oracle(g: Graph) -> frozenset[int] | None:
    """A forbidden induced 2K_2, C_4 or C_5 if one exists (Foldes-Hammer)."""
    return _first_induced(g, _SPLIT_PATTERNS)


def threshold_oracle(g: Graph) -> frozenset[int] | None:
    """A forbidden induced P_4, C_4 or 2K_2 if one exists."""
    return _first_induced(g, _THRESHOLD_PATTERNS)


def cograph_oracle(g: Graph) -> frozenset[int] | None:
    """An induced P_4 if one exists."""
    return find_induced(g, _P4)


# --- minor search ---------------------------------------------------------

def _contract(rows: dict[int, int], u: int, v: int) -> None:
    # Merge block v into block u (u < v, so u stays the representative).
    bu, bv = 1 << u, 1 << v
    rv = rows.pop(v)
    rows[u] = (rows[u] | rv) & ~(bu | bv)
    rest = rv & ~bu
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        rows[w] = rows[w] & ~bv | bu
        rest ^= low


def _simplify(rows: dict[int, int], suppress_deg2: bool):
    changed = True
    while changed:
        changed = False
        for v in list(rows):
            r = rows.get(v)
            if r is None or r.bit_count() > 1 + suppress_deg2:
                continue
            changed = True
            if r.bit_count() == 2:  # contract v into its lower neighbour
                a = (r & -r).bit_length() - 1
                _contract(rows, min(a, v), max(a, v))
            else:
                del rows[v]
                if r:
                    rows[r.bit_length() - 1] &= ~(1 << v)


def _has_clique(rows: dict[int, int], k: int) -> bool:
    # Extend a clique by `need` more vertices from cand, lowest first.
    def grow(cand: int, need: int) -> bool:
        if need == 0:
            return True
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if grow(cand & rows[low.bit_length() - 1], need - 1):
                return True
        return False

    return grow(sum(1 << v for v, r in rows.items() if r.bit_count() >= k - 1), k)


def _has_complete_bipartite(rows: dict[int, int], a: int, b: int) -> bool:
    # Subgraph (not induced): a vertices with >= b common neighbors.  With
    # no loops, the common neighbors of a set never include the set itself.
    wide = [r for r in rows.values() if r.bit_count() >= b]
    return any(reduce(and_, combo).bit_count() >= b for combo in itertools.combinations(wide, a))


_TARGETS = {
    # name: (vertices, edges, subgraph check, degree-2 suppression safe)
    "K5": (5, 10, lambda rows: _has_clique(rows, 5), True),
    "K33": (6, 9, lambda rows: _has_complete_bipartite(rows, 3, 3), True),
    "K4": (4, 6, lambda rows: _has_clique(rows, 4), True),
    # K_{2,3} has degree-2 branch vertices, so suppressing degree-2
    # vertices is not minor-safe for it; only degree <= 1 deletion is.
    "K23": (5, 6, lambda rows: _has_complete_bipartite(rows, 2, 3), False),
}


def has_minor(g: Graph, target: str) -> bool:
    """Exhaustive search for a named minor (K5, K33, K4 or K23).

    Contraction recursion: a graph has H as a minor iff H is a subgraph of
    some graph reachable by edge contractions.  A state maps each block of
    contracted vertices, named by its least original vertex, to its bitset
    row over those names.  A state seen before was checked and failed, so
    each reachable contracted graph is checked and expanded once.
    """
    need_v, need_e, check, deg2_ok = _TARGETS[target]
    memo: set[frozenset[tuple[int, int]]] = set()

    def rec(rows: dict[int, int]) -> bool:
        _simplify(rows, deg2_ok)
        if len(rows) < need_v or sum(r.bit_count() for r in rows.values()) < 2 * need_e:
            return False
        key = frozenset(rows.items())
        if key in memo:
            return False
        if check(rows):
            return True
        memo.add(key)
        for u, r in rows.items():
            higher = r >> u + 1
            while higher:
                low = higher & -higher
                higher ^= low
                nrows = dict(rows)
                _contract(nrows, u, u + low.bit_length())
                if rec(nrows):
                    return True
        return False

    return rec(dict(enumerate(g.rows)))


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

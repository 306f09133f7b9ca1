"""Brute-force oracles for the fast recognizers.

Two engines: an induced-subgraph search (backtracking over bitset
candidate masks, with each pattern's symmetries broken) for the
forbidden-pattern classes, and an exhaustive
minor search (contraction recursion over bitset rows, with memoization)
for planarity and outerplanarity, one search per forbidden minor.  Both
are deliberately independent of the decision procedures in `recognizers`.

The minor search stops at the first minor it finds, but must exhaust every
contraction to answer that none exists.  So `selftest` asks it only about
the planar and outerplanar no verdicts that path addition decided, where
the first search usually finds its minor; a yes comes with a certificate,
and a no the edge counts decide with the piece they reject as a witness,
both of which `certificates` checks.  The induced-subgraph search, which
must likewise try every vertex set to answer that no pattern is there, is
asked only about the split and threshold no verdicts, whose yes verdicts
come with a certificate too, and about every cograph verdict.  The tests
still hold the oracles to every verdict, and the evidence to the oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .graphs import Graph, cycle_graph, path_graph, two_k2

MAX_ORACLE_VERTICES = 12
MAX_PATTERN_VERTICES = 6


class OracleSizeError(ValueError):
    pass


@lru_cache(maxsize=None)
def _match_plan(prows: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    # Match the most constrained pattern vertex first: the one with the
    # most edges to the vertices already placed, then the highest degree.
    # Step i is (degree, bitmask over the steps j < i it is adjacent to,
    # bitmask over the steps j < i whose images its image must exceed).
    k = len(prows)
    order: list[int] = []
    placed = 0
    for _ in range(k):
        best = max(
            (u for u in range(k) if not (placed >> u) & 1),
            key=lambda u: ((prows[u] & placed).bit_count(), prows[u].bit_count()),
        )
        order.append(best)
        placed |= 1 << best
    # Symmetry breaking (Grochow and Kellis, RECOMB 2007): under the
    # automorphisms that fix the steps before step j, step j's vertex gets
    # the least image in its orbit.  Every copy of the pattern then matches
    # exactly once, not once per automorphism.
    step = {u: i for i, u in enumerate(order)}
    autos = [
        p for p in itertools.permutations(range(k))
        if all(((prows[p[u]] >> p[w]) & 1) == ((prows[u] >> w) & 1) for u in range(k) for w in range(u))
    ]
    above = [0] * k
    for j, u in enumerate(order):
        for w in {p[u] for p in autos} - {u}:
            above[step[w]] |= 1 << j
        autos = [p for p in autos if p[u] == u]
    return tuple(
        (prows[u].bit_count(), sum(1 << j for j in range(i) if (prows[u] >> order[j]) & 1), above[i])
        for i, u in enumerate(order)
    )


def find_induced(g: Graph, pattern: Graph) -> frozenset[int] | None:
    """A vertex set inducing a subgraph isomorphic to the pattern, or None.

    Exhaustive backtracking; pattern vertices are matched most-constrained
    first (the order is computed once per pattern) and candidates pruned by
    degree, exact adjacency to the already-matched vertices (induced, so
    non-edges must match too) and the pattern's symmetry-breaking order, so
    each vertex set is tried once.
    """
    k = pattern.n
    if k > MAX_PATTERN_VERTICES:
        raise OracleSizeError(f"pattern has {k} > {MAX_PATTERN_VERTICES} vertices")
    if k > g.n:
        return None
    plan = _match_plan(pattern.rows)
    rows = tuple(g.rows)
    full = (1 << g.n) - 1
    matched: list[int] = []

    def rec(step: int, used: int) -> frozenset[int] | None:
        if step == k:
            return frozenset(matched)
        deg, adj, above = plan[step]
        cand = full & ~used
        for j, gv in enumerate(matched):
            cand &= rows[gv] if (adj >> j) & 1 else ~rows[gv]
            if (above >> j) & 1:
                cand &= -2 << gv
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if rows[v].bit_count() < deg:
                continue
            matched.append(v)
            hit = rec(step + 1, used | low)
            if hit is not None:
                return hit
            matched.pop()
        return None

    return rec(0, 0)


# The forbidden induced subgraphs, built once.
_P4, _C4, _2K2 = path_graph(4), cycle_graph(4), two_k2()
_SPLIT_PATTERNS = (_2K2, _C4, cycle_graph(5))
_THRESHOLD_PATTERNS = (_P4, _C4, _2K2)


# The split, threshold and cograph oracles share C4, 2K2 and P4, and
# selftest asks all three about one graph in turn.  Graph hashes by
# identity, and the cache holds the graphs it keys, so no identity is
# reused while kept.  One graph asks at most the four distinct patterns, so
# four entries keep all its searches and drop older graphs' first.
@lru_cache(maxsize=4)
def _search(g: Graph, pattern: Graph) -> frozenset[int] | None:
    return find_induced(g, pattern)


def _first_induced(g: Graph, patterns: tuple[Graph, ...]) -> frozenset[int] | None:
    return next((hit for p in patterns if (hit := _search(g, p)) is not None), None)


def split_oracle(g: Graph) -> frozenset[int] | None:
    """A forbidden induced 2K_2, C_4 or C_5 if one exists (Foldes-Hammer)."""
    return _first_induced(g, _SPLIT_PATTERNS)


def threshold_oracle(g: Graph) -> frozenset[int] | None:
    """A forbidden induced P_4, C_4 or 2K_2 if one exists."""
    return _first_induced(g, _THRESHOLD_PATTERNS)


def cograph_oracle(g: Graph) -> frozenset[int] | None:
    """An induced P_4 if one exists."""
    return _search(g, _P4)


# --- minor search ---------------------------------------------------------

def _contract(rows: dict[int, int], u: int, v: int) -> int:
    # Merge block v into block u (u < v, so u stays the representative).
    # Returns the blocks whose degree changed: u and the common neighbours,
    # which lose their edge to v.  v's other neighbours only trade v for u,
    # and a degree-2 pair one of them newly forms with u is found from u.
    bu, bv = 1 << u, 1 << v
    ru = rows[u]
    rv = rows.pop(v)
    rows[u] = (ru | rv) & ~(bu | bv)
    rest = rv & ~bu
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        rows[w] = rows[w] & ~bv | bu
        rest ^= low
    return rv & ru | bu


def _simplify(rows: dict[int, int], suppress_deg2: bool, work: int) -> None:
    # Delete vertices of degree <= 1 and contract each vertex of degree 2
    # into its lower neighbour, or, unless suppression is allowed, only into
    # a neighbour that also has degree 2.  Only a block whose degree changed,
    # or a merged block with new neighbours, can newly qualify, so `work`
    # holds those blocks and grows as it goes.
    while work:
        low = work & -work
        work ^= low
        v = low.bit_length() - 1
        r = rows.get(v)
        if r is None or r.bit_count() > 2:
            continue
        if r.bit_count() == 2:
            a = (r & -r).bit_length() - 1
            if not suppress_deg2 and rows[a].bit_count() != 2:
                a = r.bit_length() - 1
                if rows[a].bit_count() != 2:
                    continue
            work |= _contract(rows, min(a, v), max(a, v))
        else:
            del rows[v]
            if r:
                rows[r.bit_length() - 1] &= ~low
                work |= r


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
    # A set grows one row at a time and is dropped once its common
    # neighbours fall below b, since another row can only remove some.
    wide = [r for r in rows.values() if r.bit_count() >= b]

    def grow(start: int, common: int, need: int) -> bool:
        if need == 0:
            return True
        for i in range(start, len(wide) - need + 1):
            both = common & wide[i]
            if both.bit_count() >= b and grow(i + 1, both, need - 1):
                return True
        return False

    return grow(0, -1, a)


_TARGETS = {
    # name: (vertices, edges, subgraph check, degree-2 suppression safe)
    "K5": (5, 10, lambda rows: _has_clique(rows, 5), True),
    "K33": (6, 9, lambda rows: _has_complete_bipartite(rows, 3, 3), True),
    "K4": (4, 6, lambda rows: _has_clique(rows, 4), True),
    # K_{2,3} has degree-2 branch vertices, so suppressing a degree-2
    # vertex is not minor-safe for it.  Its maximum degree is 3, so a K_{2,3}
    # minor is a subgraph made of two vertices and three disjoint paths of
    # length >= 2 between them.  A degree-2 vertex can lie on it only inside
    # a path, with both its edges, so two adjacent degree-2 vertices are
    # both off it or both inside one path of length >= 3.  Contracting the
    # edge between them is therefore safe: it shortens that path.
    "K23": (5, 6, lambda rows: _has_complete_bipartite(rows, 2, 3), False),
}


def has_minor(g: Graph, target: str) -> bool:
    """Exhaustive search for the named minor (K5, K33, K4 or K23).

    Contraction recursion: a graph has H as a minor iff H is a subgraph of
    some graph reachable by edge contractions.  A state maps each block of
    contracted vertices, named by its least original vertex, to its bitset
    row over those names.  A state seen before was checked and failed, so
    each reachable contracted graph is checked and expanded once.  A state
    or child with fewer vertices or edges than the target is pruned.
    """
    need_v, need_e, check, deg2_ok = _TARGETS[target]
    memo: set[frozenset[tuple[int, int]]] = set()

    def rec(rows: dict[int, int], work: int) -> bool:
        _simplify(rows, deg2_ok, work)
        nv = len(rows)
        ne = sum(map(int.bit_count, rows.values())) // 2
        if nv < need_v or ne < need_e:
            return False
        key = frozenset(rows.items())
        if key in memo:
            return False
        if check(rows):
            return True
        memo.add(key)
        if nv == need_v:  # every contraction leaves too few vertices
            return False
        for u, r in rows.items():
            higher = r >> u + 1
            while higher:
                low = higher & -higher
                higher ^= low
                v = u + low.bit_length()
                # Contracting uv loses the edge uv and one edge per common
                # neighbour; simplification only loses more.
                if ne - 1 - (r & rows[v]).bit_count() < need_e:
                    continue
                nrows = dict(rows)
                if rec(nrows, _contract(nrows, u, v)):
                    return True
        return False

    return rec(dict(enumerate(g.rows)), (1 << g.n) - 1)


def kuratowski_oracle(g: Graph) -> bool:
    """True iff the graph has no K_5 and no K_{3,3} minor (so, planar)."""
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle bound {MAX_ORACLE_VERTICES}")
    # A non-planar graph usually has a K_{3,3} minor, and that search prunes harder.
    return not (has_minor(g, "K33") or has_minor(g, "K5"))


def outerplanar_oracle(g: Graph) -> bool:
    """True iff the graph has no K_4 and no K_{2,3} minor (so, outerplanar)."""
    if g.n > MAX_ORACLE_VERTICES:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle bound {MAX_ORACLE_VERTICES}")
    return not has_minor(g, "K4") and not has_minor(g, "K23")

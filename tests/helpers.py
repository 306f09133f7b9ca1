"""Graph constructors, oracles and tools that only the tests use."""

import itertools
import json
import random
import signal
from contextlib import contextmanager

from hypothesis import strategies as st

from idemgraph.graphs import Graph, graph_from_edges, set_bits
from idemgraph.oracles import _TARGETS, MAX_PATTERN_VERTICES, OracleSizeError


class Overtime(Exception):
    """Raised by time_budget; not an error type the CLI turns into exit 1."""


@contextmanager
def time_budget(seconds):
    """Interrupt the block with Overtime if it runs longer than seconds."""
    def expire(signum, frame):
        raise Overtime(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def reference_json(obj) -> str:
    """The text `summary_json` must write, from the standard library's
    pure-Python indent encoder."""
    return json.dumps(obj, indent=2, sort_keys=True)


def sub(ring, x, y):
    """x - y in the ring, as x + (-y)."""
    return ring.add(x, ring.neg(y))


def has_edge(g: Graph, i: int, j: int) -> bool:
    return bool(g.rows[i] >> j & 1)


def reference_graph_check(n: int, rows) -> tuple[tuple[int, ...], int]:
    """The checks of `Graph(n, rows)` as a plain pair scan, raising the same
    ValueError texts in the same order: the row count, then row by row a bit
    outside [0, n) and a loop, then the pairs above the diagonal (rows
    ascending, columns descending), then those below.  For valid rows it
    returns the degrees and the edge count."""
    if len(rows) != n:
        raise ValueError(f"{len(rows)} rows for {n} vertices")
    for i, r in enumerate(rows):
        if not 0 <= r < 1 << n:
            raise ValueError(f"row {i} has bits beyond vertex count")
        if r >> i & 1:
            raise ValueError(f"loop at vertex {i}")
    bit = [format(r, f"0{n}b")[::-1] for r in rows]  # bit[i][j] is bit j of row i
    for i in range(n):
        for j in range(n - 1, i, -1):
            if bit[i][j] == "1" and bit[j][i] == "0":
                raise ValueError(f"asymmetric adjacency at ({i}, {j})")
    for i in range(n):
        for j in range(i):
            if bit[i][j] == "1" and bit[j][i] == "0":
                raise ValueError("asymmetric adjacency below the diagonal")
    edges = sum(bit[i][j] == "1" for i in range(n) for j in range(i + 1, n))
    return tuple(b.count("1") for b in bit), edges


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << i) for i in range(n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    left = (1 << m) - 1
    right = ((1 << (m + n)) - 1) ^ left
    rows = [right] * m + [left] * n
    return Graph(m + n, rows)


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return graph_from_edges(n, picks)


@st.composite
def random_graphs(draw, max_n=40):
    """Random graphs of up to max_n vertices, each with its own edge
    probability, so sparse and dense graphs both show up."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    p = rnd.random()
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p])


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex,
    by a plain search over neighbour lists (the reference for the masked
    search in `graphs.masked_components`)."""
    seen, out = set(), []
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        comp, todo = [root], [root]
        while todo:
            for w in set_bits(g.rows[todo.pop()]):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    todo.append(w)
        out.append(sorted(comp))
    return out


def reference_is_path(g: Graph) -> bool:
    """A path by its counts, the reference for `graphs.is_path_graph` and
    the census's path rule: at least one vertex, n - 1 edges, no degree
    above 2, and one component by the plain search above."""
    return g.n >= 1 and g.edge_count() == g.n - 1 and max(g.degrees) <= 2 and len(components(g)) == 1


def disjoint_union(parts) -> Graph:
    """The graphs of parts side by side, each relabeled past the last."""
    edges, n = [], 0
    for h in parts:
        edges += [(n + i, n + j) for i, j in h.edges()]
        n += h.n
    return graph_from_edges(n, edges)


def induced_subgraph(g: Graph, verts) -> Graph:
    """Subgraph induced by the given vertices, relabeled 0..k-1 in sorted order."""
    vs = sorted(verts)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [
        (pos[a], pos[b])
        for a in vs
        for b in vs
        if a < b and has_edge(g, a, b)
    ]
    return graph_from_edges(len(vs), edges)


def relabel(g: Graph, perm: list[int]) -> Graph:
    """New graph with vertex v renamed perm[v]."""
    edges = [(perm[i], perm[j]) for i, j in g.edges()]
    return graph_from_edges(g.n, edges)


def isomorphic_small(g: Graph, h: Graph) -> bool:
    """Permutation-exhaustive isomorphism test for tiny graphs (n <= 6)."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    if g.n > MAX_PATTERN_VERTICES:
        raise OracleSizeError("isomorphic_small is for pattern-sized graphs")
    if sorted(g.degrees) != sorted(h.degrees):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(has_edge(h, perm[i], perm[j]) for i, j in g.edges()) and all(
            has_edge(g, i, j) == has_edge(h, perm[i], perm[j])
            for i in range(g.n)
            for j in range(i + 1, g.n)
        ):
            return True
    return False


def reference_is_threshold(g: Graph) -> bool:
    """The vertex-by-vertex peel (Hammer, Ibaraki and Simeone, "Threshold
    sequences", 1981), an independent reference for
    `recognizers.is_threshold`, which is split and cograph: remove any
    vertex that is isolated or dominating among the vertices left, with its
    degree counted on the rows, until nothing is left."""
    alive = (1 << g.n) - 1
    count = g.n
    while count:
        for v in set_bits(alive):
            d = (g.rows[v] & alive).bit_count()
            if d == 0 or d == count - 1:
                alive &= ~(1 << v)
                count -= 1
                break
        else:
            return False
    return True


def reference_has_minor(g: Graph, target: str) -> bool:
    """A plain contraction search, the reference for `oracles.has_minor`:
    every child copied before it is pruned, degree-2 vertices suppressed
    for K5, K33 and K4 only (none contracted for K23), and each
    simplification rescanning every block until nothing changes.  The
    subgraph checks and size needs are the module's own."""
    need_v, need_e, check, deg2_ok = _TARGETS[target]
    memo = set()

    def contract(rows, u, v):
        bu, bv = 1 << u, 1 << v
        rv = rows.pop(v)
        rows[u] = (rows[u] | rv) & ~(bu | bv)
        for w in set_bits(rv & ~bu):
            rows[w] = rows[w] & ~bv | bu

    def simplify(rows):
        changed = True
        while changed:
            changed = False
            for v in list(rows):
                r = rows.get(v)
                if r is None or r.bit_count() > 1 + deg2_ok:
                    continue
                changed = True
                if r.bit_count() == 2:
                    a = (r & -r).bit_length() - 1
                    contract(rows, min(a, v), max(a, v))
                else:
                    del rows[v]
                    if r:
                        rows[r.bit_length() - 1] &= ~(1 << v)

    def rec(rows):
        simplify(rows)
        if len(rows) < need_v or sum(r.bit_count() for r in rows.values()) < 2 * need_e:
            return False
        key = frozenset(rows.items())
        if key in memo:
            return False
        if check(rows):
            return True
        memo.add(key)
        for u, r in list(rows.items()):
            for v in set_bits(r >> u + 1):
                nrows = dict(rows)
                contract(nrows, u, u + 1 + v)
                if rec(nrows):
                    return True
        return False

    return rec(dict(enumerate(g.rows)))


def has_induced_copy(g: Graph, pattern: Graph) -> bool:
    """Whether some vertex set of g induces a copy of the pattern, by
    comparing each k-subset's induced edges with every relabeling."""
    k = pattern.n
    pairs = list(itertools.combinations(range(k), 2))
    copies = {
        frozenset(p for p in pairs if has_edge(pattern, perm[p[0]], perm[p[1]]))
        for perm in itertools.permutations(range(k))
    }
    return any(
        frozenset(p for p in pairs if has_edge(g, vs[p[0]], vs[p[1]])) in copies
        for vs in itertools.combinations(range(g.n), k)
    )

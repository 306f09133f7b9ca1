"""Graph constructors, oracles and tools that only the tests use."""

import itertools
import signal
from contextlib import contextmanager

from hypothesis import strategies as st

from idemgraph.graphs import Graph, graph_from_edges, masked_components, set_bits
from idemgraph.oracles import MAX_PATTERN_VERTICES, OracleSizeError


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


def sub(ring, x, y):
    """x - y in the ring, as x + (-y)."""
    return ring.add(x, ring.neg(y))


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


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by least vertex."""
    return [set_bits(c) for c in masked_components(g.rows, (1 << g.n) - 1)]


def induced_subgraph(g: Graph, verts) -> Graph:
    """Subgraph induced by the given vertices, relabeled 0..k-1 in sorted order."""
    vs = sorted(verts)
    pos = {v: i for i, v in enumerate(vs)}
    edges = [
        (pos[a], pos[b])
        for a in vs
        for b in vs
        if a < b and g.has_edge(a, b)
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
    if sorted(g.degree(v) for v in range(g.n)) != sorted(h.degree(v) for v in range(h.n)):
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[i], perm[j]) for i, j in g.edges()) and all(
            g.has_edge(i, j) == h.has_edge(perm[i], perm[j])
            for i in range(g.n)
            for j in range(i + 1, g.n)
        ):
            return True
    return False

"""Immutable simple undirected graphs with bitset adjacency rows.

Includes the idempotent-graph construction (vertices = ring elements,
x ~ y iff x + y is idempotent), structural queries, named pattern
constructors used by the recognizer oracles, and DOT export.
"""

from __future__ import annotations

from .rings import FiniteRing, idempotents


class Graph:
    """Simple undirected graph; adjacency row i is a Python-int bitset.

    The degrees, the edge count and the components, each with its vertex
    and edge counts, are whole-graph facts that several recognizers and the
    report read, so each is computed once: the degrees and edge count while
    the rows are validated, the components on first use.

    The rows are validated in two passes.  The first rejects a bit at or
    beyond n and a loop in any row.  The second checks symmetry, one of two
    ways.  A dense graph, with more than 2 n b bits set (b the bit length
    of n, so about b edges per vertex), is compared with its transpose,
    computed in about (n / 2) b row steps.  If the two are equal, the edge
    count is half the bit count.  A sparse graph, or a dense one that
    differs from its transpose, is walked: one step per bit above the
    diagonal, which names the first such bit found unmirrored."""

    __slots__ = ("n", "rows", "degrees", "_edge_count", "_components")

    def __init__(self, n: int, rows: list[int]):
        self.n = n
        self.rows = rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"{len(rows)} rows for {n} vertices")
        for i, r in enumerate(rows):
            if r >> n:
                raise ValueError(f"row {i} has bits beyond vertex count")
            if r >> i & 1:
                raise ValueError(f"loop at vertex {i}")
        self.degrees = tuple(map(int.bit_count, rows))
        self._components = None
        bits = sum(self.degrees)
        # Symmetry.  The transpose costs about (n / 2) b row-pair steps
        # whatever the edge count, so it is tried only above 2 n b bits,
        # where a walk of one step per edge would cost more.
        if bits > 2 * n * n.bit_length() and transpose(rows) == rows:
            self._edge_count = bits // 2
            return
        # The walk: every bit above the diagonal is mirrored below it, and
        # there are as many bits below as above, so nothing else is below.
        # The bits above are walked from the highest down, and each partner
        # row is tested against bit i as it is, so a step of the walk
        # neither negates r nor shifts the partner row.
        above = 0
        for i, r in enumerate(rows):
            bit = 1 << i
            r >>= i + 1
            above += r.bit_count()
            while r:
                k = r.bit_length() - 1
                if not rows[i + 1 + k] & bit:
                    raise ValueError(f"asymmetric adjacency at ({i}, {i + 1 + k})")
                r ^= 1 << k
        if 2 * above != bits:
            raise ValueError("asymmetric adjacency below the diagonal")
        self._edge_count = above

    def edge_count(self) -> int:
        return self._edge_count

    def components(self) -> tuple[tuple[int, int, int], ...]:
        """Each component as (vertex bitmask, vertex count k, edge count m),
        ordered by least vertex, counted by the search that finds it."""
        if self._components is None:
            self._components = tuple(masked_components(self.rows, (1 << self.n) - 1, self.degrees))
        return self._components

    def edges(self):
        for i, ri in enumerate(self.rows):
            ri >>= i + 1
            while ri:
                low = ri & -ri
                yield (i, i + low.bit_length())
                ri ^= low

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def transpose(rows) -> tuple[int, ...]:
    """The transpose of the square 0/1 matrix whose row i is the bitset
    rows[i], for n = len(rows) rows with no bit at or beyond n.

    The recursive block transpose (Warren, Hacker's Delight, 2nd ed.,
    section 7-3): the rows are padded with zero rows to a power of two N,
    and at each scale b = N/2, ..., 1 every row i with bit b of i clear
    swaps its block of columns j + b with row i + b's block of columns j,
    over the columns j with bit b of j clear (the mask M_b)."""
    n = len(rows)
    size = 1 << (n - 1).bit_length() if n else 0
    t = list(rows) + [0] * (size - n)
    every = (1 << size) - 1
    b = size >> 1
    while b:
        m = every // ((1 << 2 * b) - 1) * ((1 << b) - 1)
        for lo in range(0, size, 2 * b):
            for i in range(lo, lo + b):
                d = ((t[i] >> b) ^ t[i + b]) & m
                t[i] ^= d << b
                t[i + b] ^= d
        b >>= 1
    return tuple(t[:n])


def graph_from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside [0, {n})")
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Graph(n, rows)


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def two_k2() -> Graph:
    return graph_from_edges(4, [(0, 1), (2, 3)])


def build_idempotent_graph(ring: FiniteRing) -> Graph:
    """Vertices are ring elements in enumeration order; x ~ y iff x + y is
    idempotent (x != y; no loops even when 2x is idempotent).

    Works on element indices, never on tuples.  The index of an element is
    a mixed-radix number whose digits are its coefficients, factor by
    factor, each in base its factor's modulus, most significant first: the
    ring's enumeration order.  The idempotents of a product are the tuples
    of the factors' idempotents, so the neighbours e - x of x = (a, rest)
    are the first factor's e_1 - a, each combined with a neighbour of rest
    in the product of the remaining factors.  Rows are therefore built from
    the last factor to the first: the row of (a, rest) is the row of rest
    shifted by (e_1 - a) times the size of the remaining product, OR-ed
    over e_1.  The indices of e_1 - a are the factor's own
    (`FactorSpec.offsets`), the same in every ring built from it.
    """
    idempotents(ring)  # the ring's idempotent set, which every report reads; perfbench counts this call
    rows = [1]  # the product of no factors: one element, adjacent to itself
    for f in reversed(ring.spec.factors):
        width = len(rows)
        wider = []
        for offsets in f.offsets:
            shifts = [j * width for j in offsets]
            for r in rows:
                row = 0
                for s in shifts:
                    row |= r << s
                wider.append(row)
        rows = wider
    for i in range(len(rows)):
        rows[i] &= ~(1 << i)
    return Graph(ring.size, rows)


def masked_components(rows, mask: int, degrees) -> list[tuple[int, int, int]]:
    """Components of the subgraph that the vertex mask induces, ordered by
    least vertex, each as (vertex bitmask, vertex count, half the sum of
    degrees[v] over its vertices v).  Every neighbour of a vertex lies in its
    component, so with the degrees of the graph the rows describe and a mask
    of all its vertices, the last is the component's edge count; other
    callers read only the mask and the count.  Passing every row XOR-ed with
    -1 walks the complement graph instead."""
    out = []
    rest = mask
    while rest:
        comp = frontier = rest & -rest
        k = d = 0
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                v = low.bit_length() - 1
                k += 1
                d += degrees[v]
                reach |= rows[v]
                frontier ^= low
            frontier = reach & mask & ~comp
            comp |= frontier
        out.append((comp, k, d // 2))
        rest ^= comp
    return out


def set_bits(mask: int) -> list[int]:
    """The positions of the set bits of a non-negative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_connected(g: Graph) -> bool:
    return len(g.components()) <= 1


def component_census(g: Graph) -> list[tuple[int, str]]:
    """(size, shape) of each component, ordered by least vertex; the shape
    is path, even-cycle, odd-cycle, complete or other.  A component of k
    vertices and m edges is a path if it is a tree (m = k - 1) and a cycle
    if m = k and it is not a triangle, each only with no degree above 2, so
    the degrees are read only when m is k - 1 or k."""
    out = []
    for comp, k, m in g.components():
        thin = (m == k - 1 or m == k) and max(map(g.degrees.__getitem__, set_bits(comp))) <= 2
        if thin and m == k - 1:
            shape = "path"
        elif 2 * m == k * (k - 1):
            shape = "complete"
        elif thin:
            shape = "even-cycle" if k % 2 == 0 else "odd-cycle"
        else:
            shape = "other"
        out.append((k, shape))
    return out


def is_path_graph(g: Graph) -> bool:
    return (
        g.n >= 1
        and g.edge_count() == g.n - 1
        and max(g.degrees) <= 2
        and is_connected(g)
    )


def export_dot(g: Graph, names: list[str] | None = None) -> str:
    """Deterministic DOT text: vertices in index order, each edge once.
    Vertex v is named names[v] when names are given, else by its index."""
    if names is None:
        names = range(g.n)
    lines = ["graph G {"] + [f'  "{names[v]}";' for v in range(g.n)]
    lines += [f'  "{names[i]}" -- "{names[j]}";' for i, j in g.edges()]
    return "\n".join(lines + ["}"]) + "\n"

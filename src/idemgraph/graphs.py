"""Immutable simple undirected graphs with bitset adjacency rows.

Includes the idempotent-graph construction (vertices = ring elements,
x ~ y iff x + y is idempotent), whose degrees, edge count and components
come from the ring's factors and whose rows are made when read, structural
queries, named pattern constructors used by the recognizer oracles, and
DOT export.
"""

from __future__ import annotations

from .rings import FiniteRing, RingSpec, idempotents


class Graph:
    """Simple undirected graph; adjacency row i is a Python-int bitset.

    The degrees, the edge count and the components, each with its vertex
    and edge counts, are whole-graph facts that several recognizers and the
    report read, so each is computed once.  `Graph(n, rows)` and
    `graph_from_edges` keep the rows as a tuple and take the degrees and
    edge count while they validate it; their components are found by a
    search on first use.  `build_idempotent_graph` takes all three facts
    from the ring's factors, and its rows are a `ProductRows`, which makes
    a row only when it is read.  A reader that walks the whole graph takes
    `tuple(g.rows)` once, which for a tuple is the same object; a reader
    that needs a few rows indexes them.

    `Graph(n, rows)` validates the rows in full and raises ValueError at the
    first fault.  It checks the row count, then row by row a bit at or
    beyond n (a negative row has such bits) and a loop, naming the first
    such row, then symmetry.  For symmetry it walks the bits above the
    diagonal, one step per bit, and names the first one found unmirrored;
    a count of the bits below then catches one with no mirror above.
    `graph_from_edges`, whose rows are symmetric by construction, uses
    `_symmetric_graph`, which makes every check but the walk."""

    __slots__ = ("n", "rows", "degrees", "_edge_count", "_components")

    def __init__(self, n: int, rows: list[int]):
        self._load(n, rows)
        rows = self.rows
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
        if 2 * above != sum(self.degrees):
            raise ValueError("asymmetric adjacency below the diagonal")
        self._edge_count = above

    def _load(self, n: int, rows) -> None:
        """Every check but symmetry, and the degrees."""
        self.n = n
        self.rows = rows = _checked_rows(n, rows)
        self.degrees = tuple(map(int.bit_count, rows))
        self._components = None

    def edge_count(self) -> int:
        return self._edge_count

    def components(self) -> tuple[tuple[int, int, int], ...]:
        """Each component as (vertex bitmask, vertex count k, edge count m),
        ordered by least vertex.  A built idempotent graph has them from its
        builder; any other graph finds them here, once, by `masked_components`
        weighted with the degrees, which makes the last field the edge count."""
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


def _checked_rows(n: int, rows) -> tuple[int, ...]:
    """The rows as a tuple, once it holds n of them, none with a bit at or
    beyond n (a negative row has such bits) and none with a loop; else
    ValueError naming the count or the first faulty row."""
    rows = tuple(rows)
    if len(rows) != n:
        raise ValueError(f"{len(rows)} rows for {n} vertices")
    for i, r in enumerate(rows):
        if r >> n:
            raise ValueError(f"row {i} has bits beyond vertex count")
        if r >> i & 1:
            raise ValueError(f"loop at vertex {i}")
    return rows


def _symmetric_graph(n: int, rows) -> Graph:
    """The Graph on rows that are symmetric by construction.  It makes every
    check of `Graph(n, rows)`, with the same texts, except the symmetry
    walk, and takes the edge count as half the bit count."""
    g = Graph.__new__(Graph)
    g._load(n, rows)
    g._edge_count = sum(g.degrees) // 2
    return g


def graph_from_edges(n: int, edges) -> Graph:
    rows = [0] * n
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) has an endpoint outside [0, {n})")
        if i == j:
            raise ValueError(f"loop at vertex {i}")
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return _symmetric_graph(n, rows)


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def two_k2() -> Graph:
    return graph_from_edges(4, [(0, 1), (2, 3)])


def graph_key(spec: RingSpec) -> tuple:
    """Everything `build_idempotent_graph` reads of a ring with this spec:
    each factor's `FactorSpec.offsets` and `FactorSpec.doubles_idempotent`,
    in factor order, and what follows from them (the sizes, the idempotent
    counts and `FactorSpec.cosets`).  Rings with equal keys therefore have
    equal rows, so one graph serves them all; factors with equal keys, such
    as GF(4) and Z2[x]/(x^2), have the same additive group with the 1 in the
    same place."""
    return tuple((f.offsets, f.doubles_idempotent) for f in spec.factors)


def build_idempotent_graph(ring: FiniteRing) -> Graph:
    """Vertices are ring elements in enumeration order; x ~ y iff x + y is
    idempotent (x != y; no loops even when 2x is idempotent).

    Works on element indices, never on tuples.  The index of an element is
    a mixed-radix number whose digits are its coefficients, factor by
    factor, each in base its factor's modulus, most significant first: the
    ring's enumeration order.  The idempotents of a product are the tuples
    of the factors' idempotents, so the neighbours e - x of x are found
    digit by digit: before its loop is cleared, row x is the OR of
    1 << sum_i j_i * w_i over each j_i in offsets_i[a_i], where a_i is x's
    digit in factor i and w_i the size of the product of the later factors.
    The indices j of e - a are the factor's own (`FactorSpec.offsets`), the
    same in every ring built from it.

    The graph's facts come from the factors, and no row is made for them.
    Every row has |Id(R)| bits before its loop is cleared, and it has its
    own bit exactly when a_i is in offsets_i[a_i] for every digit, that is
    when 2x is idempotent.  So the degrees are |Id(R)|, less 1 on those
    rows, which `_loop_rows` multiplies out of the offset tables, and the
    edge count is half their sum.  The loops are read from the offsets, not
    from `FactorSpec.doubles_idempotent`, so `theorems.verify_degree_formula`
    still compares two tables computed apart.  The components are the
    cosets of the idempotents' additive span, paired with their negatives,
    which `_product_components` multiplies out of the factors' cosets and
    checks against the degrees; the cosets count their loops by the
    doubling flags, so a flag wrong either way fails that check.

    The rows are a `ProductRows`, which makes a row when it is read and
    checks it for range and loops with the texts of `Graph(n, rows)`.  They
    are symmetric by construction, so they are not checked for symmetry;
    their factors are.  Before the diagonal is cleared, the adjacency matrix
    is the Kronecker product of the factors' matrices
    M[a][j] = [j in offsets[a]], and a Kronecker product of symmetric
    matrices is symmetric.  Each M is symmetric because addition commutes:
    e - a = j iff e - j = a.  So each factor's table is checked instead,
    which costs the sum of |R_i| |Id(R_i)|: every j in offsets[a] must lie
    in range(size), which also keeps every bit below the vertex count, and
    have a in offsets[j].  A table that fails raises ValueError naming the
    factor and the pair.

    Nothing else of the ring is read (`graph_key` lists what is), so a
    builder that comes to read more must add it to the key.
    """
    degree = len(idempotents(ring))  # each row's bit count before its loop is cleared
    factors = ring.spec.factors
    for k, f in enumerate(factors):
        table, size = f.offsets, f.size
        for a, offsets in enumerate(table):
            for j in offsets:
                if not (0 <= j < size and a in table[j]):
                    raise ValueError(f"factor {k} offset pair ({a}, {j}) is out of range or unmirrored")
    degrees = [degree] * ring.size
    for v in _loop_rows(factors):
        degrees[v] -= 1
    g = Graph.__new__(Graph)
    g.n, g.rows, g.degrees = ring.size, ProductRows(factors, ring.size), tuple(degrees)
    g._edge_count = sum(degrees) // 2
    g._components = _product_components(factors, degree, g)
    return g


class ProductRows:
    """The rows of a graph that `build_idempotent_graph` built, made from
    its factors' offset tables when they are read.

    rows[v] makes row v alone on its first read and keeps it; an index
    outside range(n) raises IndexError.  Iteration makes every row at once,
    by `_product_rows`, and keeps them, and rows[v] reads those from then
    on.  A row is checked as it is made, for a bit at or beyond n and for a
    loop, with the texts of `Graph(n, rows)`."""

    __slots__ = ("factors", "n", "made", "every")

    def __init__(self, factors, n: int):
        self.factors, self.n = factors, n
        self.made = {}  # row index -> row, for the rows made one at a time
        self.every = None  # all the rows, once iterated

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise IndexError(f"row {v} of a graph on {self.n} vertices")
        if self.every is not None:
            return self.every[v]
        row = self.made.get(v)
        if row is None:
            row = self.made[v] = self._make(v)
        return row

    def __iter__(self):
        if self.every is None:
            self.every = _checked_rows(self.n, _product_rows(self.factors))
        return iter(self.every)

    def _make(self, v: int) -> int:
        """Row v, from the last factor to the first: the offsets of each
        digit a shift the row so far by j * width, OR-ed over j, and the
        loop bit is cleared when every digit a is in its offsets[a]."""
        row, loop, rest, width = 1, True, v, 1
        for f in reversed(self.factors):
            rest, a = divmod(rest, f.size)
            offsets = f.offsets[a]
            wider = 0
            for j in offsets:
                wider |= row << j * width
            row, loop, width = wider, loop and a in offsets, width * f.size
        if loop:
            row ^= 1 << v
        if row >> self.n:
            raise ValueError(f"row {v} has bits beyond vertex count")
        if row >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        return row


def _loop_rows(factors) -> list[int]:
    """The rows of `build_idempotent_graph` with their own bit set before
    the loops are cleared, ascending: the x with a in offsets[a] for each
    digit a, its factor's, multiplied out from the last factor to the first
    as `_product_rows` builds the rows."""
    loops = [0]  # the product of no factors: one element, adjacent to itself
    width = 1
    for f in reversed(factors):
        loops = [a * width + i for a, offsets in enumerate(f.offsets) if a in offsets for i in loops]
        width *= f.size
    return loops


def _product_rows(factors) -> list[int]:
    """Every row of `build_idempotent_graph`, loops cleared, built from the
    last factor to the first: the row of (a, rest) is the row of rest
    shifted by j times the size of the remaining product, OR-ed over j in
    the factor's offsets[a]."""
    rows = [1]  # the product of no factors: one element, adjacent to itself
    for f in reversed(factors):
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
    for i in _loop_rows(factors):
        rows[i] ^= 1 << i
    return rows


def _product_components(factors, degree: int, g: Graph) -> tuple[tuple[int, int, int], ...]:
    """The components of g, the graph that `build_idempotent_graph` built
    from these factors, as `Graph.components()` gives them, taken from the
    factors' cosets (`FactorSpec.cosets`) with no search.

    g is the addition Cayley graph of (R, +) on Id(R) (Grynkiewicz, Lev and
    Serra, J. Combin. Theory Ser. B 99(1), 2009), so the component of x is
    (x + D) u (-x + D), D the additive span of Id(R): the product of the
    factors' spans.  Its cosets are multiplied out from the last factor to
    the first, as the rows are.  With width the size of the later product,
    C_b x C_a has C_a's mask times the spread of C_b (the sum of
    1 << (b * width) over b in C_b, a product with no carries), negative
    neg_b * count + neg_a, count the later product's number of cosets, and
    loops_b * loops_a loops.  In this order the cosets are ordered by least
    element, so a component is C at the first of C and -C, joined with -C.

    Every row had `degree` bits before its loop was cleared, so a
    component of k vertices with c loops has (k * degree - c) / 2 edges.
    The result is checked without a walk over the rows: the masks must add
    up to all n bits with counts that sum to n, so they are disjoint and
    cover every vertex, and the edge counts must sum to g's.  The cosets
    count their loops by the doubling flags and g's edge count is half its
    degree sum, whose loops come from the offset tables, so this last test
    compares the two.  ValueError otherwise.  Any partition passes that
    check, a wrong pairing of C and -C included; Tier-1's comparison with
    `masked_components` is its anchor."""
    # The cosets are lists, not tuples: the interpreter keeps freed tuples
    # on a free list, and the 1,024 cosets of GF(64)^2 held there raised
    # the classify-large workload's peak RSS by about 0.5 MB.
    cosets = [[1, 0, 1]]  # the product of no factors: one element, 2 * 0 = 0 idempotent
    width = 1
    for f in reversed(factors):
        count = len(cosets)
        wider = []
        for mask_b, neg_b, loops_b in f.cosets:
            spread = _spread(mask_b, width)
            wider += [[mask * spread, neg_b * count + neg, loops * loops_b] for mask, neg, loops in cosets]
        cosets = wider
        width *= f.size
    out = []
    covered = vertices = edges = 0
    for i, (mask, neg, loops) in enumerate(cosets):
        if neg < i:
            continue
        if neg > i:
            mask += cosets[neg][0]
        k = mask.bit_count()
        m = (k * degree - loops) // 2
        out.append((mask, k, m))
        covered += mask
        vertices += k
        edges += m
    if covered != (1 << g.n) - 1 or vertices != g.n or edges != g.edge_count():
        raise ValueError("the factor graphs' components do not partition the graph")
    return tuple(out)


def _spread(mask: int, width: int) -> int:
    """The mask with each bit b moved to bit b * width."""
    if width == 1:
        return mask
    return sum(1 << (b * width) for b in set_bits(mask))


def masked_components(rows, mask: int, weights=None, flip: int = 0) -> list[tuple[int, int, int]]:
    """Components of the subgraph that the vertex mask induces in the graph
    whose row v is rows[v] ^ flip, ordered by least vertex, each as (vertex
    bitmask, vertex count, half the sum of weights[v] over its vertices v,
    or 0 without weights).  flip is 0, for the graph the rows describe, or
    -1, for its complement, which is read row by row and never built.

    The search keeps rest, the vertices of the mask not yet reached, and
    visits one reached vertex at a time, adding the vertices of its row
    that are still in rest.  With weights it visits every vertex to count
    its weight: with the degrees of the graph the rows describe and a mask
    of all its vertices the last field is the component's edge count, since
    every neighbour of a vertex lies in its component, and
    `FactorSpec.cosets` passes twice its loop flags to count loops.  Without
    weights it stops once rest is empty, as every vertex left to visit is
    then in the last component."""
    weighted = weights is not None
    out = []
    rest = mask
    while rest:
        start = rest
        todo = rest & -rest
        rest ^= todo
        d = 0
        while todo:
            v = todo.bit_length() - 1
            todo ^= 1 << v
            if weighted:
                d += weights[v]
            elif not rest:
                break
            reach = rows[v] & rest
            if flip:
                reach ^= rest  # (rows[v] ^ -1) & rest
            todo |= reach
            rest ^= reach
        comp = start ^ rest
        out.append((comp, comp.bit_count(), d // 2))
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
    """Connected, and its one component is a path by `component_census`."""
    return is_connected(g) and component_census(g) == [(g.n, "path")]


def export_dot(g: Graph, names: list[str] | None = None) -> str:
    """Deterministic DOT text: vertices in index order, each edge once.
    Vertex v is named names[v] when names are given, else by its index."""
    if names is None:
        names = range(g.n)
    lines = ["graph G {"] + [f'  "{names[v]}";' for v in range(g.n)]
    lines += [f'  "{names[i]}" -- "{names[j]}";' for i, j in g.edges()]
    return "\n".join(lines + ["}"]) + "\n"

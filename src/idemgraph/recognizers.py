"""Graph-class recognizers: planar, outerplanar, split, threshold, cograph,
cactus, unicyclic.

Each recognizer is a polynomial-time decision procedure that returns a
plain bool; threshold is split and cograph, since the threshold graphs are
exactly the split cographs.  Everything works directly on bitset rows.  The
self-test harness checks every verdict independently: the planar and
outerplanar yes verdicts by the certificates that `planar_certificate` and
`outerplanar_certificate` return and `certificates` checks, and every other
verdict by the matching brute-force oracle in `oracles`.

Planarity is decided by counts at three levels: the whole graph, each
component and each biconnected block.  A graph with at most 4 vertices or 8
edges is planar (K5 needs 10 edges and K3,3 needs 9), and one with more than
3n - 6 edges is not (Euler).  The graph's counts come first; then each
component's, read from `Graph.components()`, where one rejected component
makes the graph non-planar; then, by one block search over the components
still open, each block's.  A block the counts do not decide goes to the
path-addition test of Demoucron, Malgrange and Pertuiset (1964): embed a
cycle, then add paths through the fragments of the graph left over, each
into a face whose boundary holds all the fragment's attachment vertices.
The faces it keeps are a planar embedding of the block, and the
certificate of a yes is the list of pieces the counts and path addition
decided: each component its counts decide and each block of the others,
with its faces when path addition decided it.  Outerplanarity is
planarity of each block plus an apex vertex joined to all of it, by the
same three levels of counts, with the exit that at most 5 edges is
outerplanar, and path addition.  The cograph walk skips complete components
the same way, by their counts.
"""

from __future__ import annotations

from collections import defaultdict

from .graphs import Graph, is_connected, masked_components, set_bits

# Pieces of a graph as (vertex mask, faces or None); `certificates` checks one.
Certificate = list[tuple[int, list[list[int]] | None]]


def is_planar(g: Graph) -> bool:
    return planar_certificate(g) is not None


def planar_certificate(g: Graph) -> Certificate | None:
    """None if g is not planar, else the certificate `certificates.check_planar`
    checks: the pieces of `_certificate`, each block that path addition
    decided with the faces of its embedding."""
    return _certificate(g, _planar_by_counts, lambda verts: _planar_block(g.rows, verts))


def _planar_by_counts(n: int, m: int) -> bool | None:
    """Planarity when the vertex and edge counts decide it, else None."""
    if n <= 4 or m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    return None


def _certificate(g: Graph, by_counts, embed) -> Certificate | None:
    """The pieces of g as (vertex mask, faces), or None when a piece is
    rejected.  by_counts(k, m) decides a piece of k vertices and m edges
    (its faces are None) or leaves it to embed(verts), which returns its
    faces or None.  The graph's counts come first, then each component's,
    then each block's, found by one block search over the components still
    open: the pieces are the whole graph, or each component the counts
    decide and each block of the others."""
    known = by_counts(g.n, g.edge_count())
    if known is not None:
        return [((1 << g.n) - 1, None)] if known else None
    pieces, comps = [], []
    for comp, k, m in g.components():
        known = by_counts(k, m)
        if known is None:
            comps.append(comp)
        elif not known:
            return None
        else:
            pieces.append((comp, None))
    for verts, m in _blocks(g, comps):
        known = by_counts(verts.bit_count(), m)
        faces = embed(verts) if known is None else None
        if not (known or faces):
            return None
        pieces.append((verts, faces))
    return pieces


def _planar_block(rows, verts: int) -> list[list[int]] | None:
    """Demoucron-Malgrange-Pertuiset path addition on the biconnected block
    with vertex mask verts (at least 3 vertices) of the graph with the given
    rows: the faces of a planar embedding of the block, each a
    list of vertices in cyclic order, or None if the block is not planar.

    The embedded subgraph H starts as a cycle and grows by one path per
    step.  Its faces are simple cycles, kept as vertex lists and as vertex
    masks.  A fragment is an edge outside H between two vertices of H (a
    chord, keyed by its end pair), or a component of the block minus H with
    the edges joining it to H (keyed by its vertex mask); a face admits it
    when the face holds all its attachments (its vertices in H).  A fragment
    no face admits makes the block non-planar.  One that exactly one face
    admits must go there, so it is embedded first; when every fragment has
    two or more, any choice keeps a planar block embeddable.

    Fragments are kept from step to step: `fits` holds each one's
    attachment mask and the faces that admit it, and `at` finds, from a
    vertex, the fragments attached there, the ones a split can change.  The
    fragments a step makes (the chords at the path's new vertices and the
    pieces of the component it ran through) touch the path's interior, so
    only the two halves of the split face can admit them.  Of the older
    fragments, only those at the vertices that leave the split face, or at
    the path's two ends alone, change; the half on the shorter side is the
    one rebuilt, so a long face is not rescanned for every cut.
    """
    u = _low(verts)
    v = _low(rows[u] & verts)
    path = _path(rows, v, verts & ~(1 << u | 1 << v), 1 << u)
    faces = [path, path[::-1]]
    masks = [_mask(path)] * 2
    fits = {}  # fragment -> (its attachment mask, the faces that admit it)
    at = defaultdict(set)  # vertex -> fragments attached there
    forced = []  # fragments that may have one admitting face, or none
    placed = 0
    body, halves = verts, (0, 1)
    path = path[-1:] + path + path[:1]  # the cycle, as a path closed at both ends
    while True:
        # A vertex joins H inside a path, with the path's two edges at it;
        # its other edges to H are chords.
        made = []
        for p, x, q in zip(path, path[1:], path[2:]):
            placed |= 1 << x
            chords = rows[x] & verts & placed & ~(1 << p | 1 << q)
            made += [((x, y), 1 << x | 1 << y) for y in set_bits(chords)]
        for comp, _, _ in masked_components(rows, body & ~placed):
            att = 0
            for x in set_bits(comp):
                att |= rows[x]
            made.append((comp, att & placed))
        for key, att in made:
            options = {c for c in halves if not att & ~masks[c]}
            fits[key] = att, options
            for x in set_bits(att):
                at[x].add(key)
            if len(options) < 2:
                forced.append(key)
        while forced and (forced[-1] not in fits or len(fits[forced[-1]][1]) > 1):
            forced.pop()
        if forced:
            key = forced.pop()
            att, options = fits.pop(key)
        elif fits:
            key, (att, options) = fits.popitem()
        else:
            return faces
        if not options:
            return None
        f = min(options)
        for x in set_bits(att):
            at[x].discard(key)
        if isinstance(key, tuple):
            path, body = list(key), 0
        else:
            a = _low(att)
            path, body = _path(rows, a, key, att & ~(1 << a)), key
        # Face f runs a, side1, b, side2 from the path's end a to its end b
        # and back.  The halves are a, side1, b plus the path back, and b,
        # side2, a plus the path; the one on the shorter side is face k.
        a, b, inner = path[0], path[-1], path[1:-1]
        i = faces[f].index(a)
        face = faces[f][i:] + faces[f][:i]
        j = face.index(b)
        if j - 1 <= len(face) - j - 1:
            side = face[1:j]
            faces[f] = face[j:] + face[:1] + inner
            faces.append(face[: j + 1] + inner[::-1])
        else:
            side = face[j + 1 :]
            faces[f] = face[: j + 1] + inner[::-1]
            faces.append(face[j:] + face[:1] + inner)
        k = len(masks)
        cut, ends, mid = _mask(side), 1 << a | 1 << b, _mask(inner)
        masks[f] = masks[f] & ~cut | mid
        masks.append(cut | ends | mid)
        halves = f, k
        touched = set()
        for x in side:
            touched |= at[x]
        for other in touched:
            att, options = fits[other]
            if f in options:
                options.discard(f)
                if not att & ~masks[k]:
                    options.add(k)
                elif len(options) < 2:
                    forced.append(other)
        # A fragment attached only at a and b already fits f, which holds
        # both, so it gains k without a test for f.
        for other in at[a] if len(at[a]) < len(at[b]) else at[b]:
            att, options = fits[other]
            if not att & ~ends:
                options.add(k)


def _path(rows, a: int, body: int, targets: int) -> list[int]:
    """A path a, x, ..., y, b through the connected vertex mask body, with b
    in the mask targets.  It follows a depth-first search from a's least
    neighbour in body and ends at the deepest vertex with a neighbour in
    targets, so that one step places many vertices."""
    x = _low(rows[a] & body)
    parent = {x: a}
    stack = [x]
    seen = 1 << x
    end, depth = None, 0
    while stack:
        x = stack[-1]
        if len(stack) > depth and rows[x] & targets:
            end, depth = x, len(stack)
        step = rows[x] & body & ~seen
        if step:
            y = _low(step)
            seen |= 1 << y
            parent[y] = x
            stack.append(y)
        else:
            stack.pop()
    path = [_low(rows[end] & targets), end]
    while end != a:
        end = parent[end]
        path.append(end)
    return path[::-1]


def _low(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _mask(verts) -> int:
    out = 0
    for x in verts:
        out |= 1 << x
    return out


def is_outerplanar(g: Graph) -> bool:
    return outerplanar_certificate(g) is not None


def outerplanar_certificate(g: Graph) -> Certificate | None:
    """None if g is not outerplanar, else the certificate
    `certificates.check_outerplanar` checks: the pieces of `_certificate`
    under `_outerplanar_by_counts`, each block the counts leave open with the
    faces of the block plus an apex vertex, numbered g.n and joined to all
    of it.  The apex rows are built for the first such block."""
    apex = None

    def embed(verts):
        nonlocal apex
        if apex is None:
            apex = [r | 1 << g.n for r in g.rows] + [(1 << g.n) - 1]
        return _planar_block(apex, verts | 1 << g.n)

    return _certificate(g, _outerplanar_by_counts, embed)


def _outerplanar_by_counts(k: int, m: int) -> bool | None:
    """Outerplanarity when the counts of k vertices and m edges decide it,
    else None.  At most 5 edges is outerplanar, since K4 and K2,3 each need
    6.  Otherwise the graph plus the apex has k + 1 vertices and m + k edges,
    so the planar counts pass k <= 3 and reject m > 2k - 3."""
    if m <= 5:
        return True
    return _planar_by_counts(k + 1, m + k)


def is_split(g: Graph) -> bool:
    """Degree-sequence characterization (Hammer-Simeone).

    With d_1 >= ... >= d_n and m = max{i : d_i >= i - 1}, the graph is
    split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i.  As i grows,
    d_i - (i - 1) falls, so the i with d_i >= i - 1 are a prefix and the
    scan stops at the first that fails.
    """
    degs = sorted(g.degrees, reverse=True)
    m = 0
    for i, d in enumerate(degs, start=1):
        if d < i - 1:
            break
        m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    return lhs == rhs


def is_threshold(g: Graph) -> bool:
    """Split and a cograph.  Threshold graphs are the graphs with no
    induced 2K2, C4 or P4 (Chvatal and Hammer, "Aggregation of inequalities
    in integer programming", 1977), split graphs those with no induced 2K2,
    C4 or C5 (Foldes and Hammer, "Split graphs", 1977) and cographs those
    with no induced P4; a C5 contains a P4."""
    return is_split(g) and is_cograph(g)


def is_cograph(g: Graph) -> bool:
    """Cotree decomposition: every induced subgraph on >= 2 vertices must be
    disconnected or have a disconnected complement.  A component is
    connected, so only its complement can split it, and a co-component
    only the graph: the walk alternates, starting from g's components in
    the complement.  It reads the complement as g's rows XOR -1, the flip
    of `masked_components`, so it builds no complement rows.  A complete
    component (2m = k(k - 1)) is a cograph, so the walk starts only from
    the others.  The walk reads only vertex masks, so each search stops
    once it has reached every vertex of its mask: on a dense complement,
    such as that of `Z4^6`'s one component, after a few rows."""
    stack = [(comp, -1) for comp, k, m in g.components() if 2 * m != k * (k - 1)]
    while stack:
        mask, flip = stack.pop()
        parts = masked_components(g.rows, mask, flip=flip)
        if len(parts) == 1:
            return False
        stack.extend((part, ~flip) for part, k, _ in parts if k > 1)
    return True


def is_cactus(g: Graph) -> bool:
    """Connected, and every biconnected block has no more edges than
    vertices: it is a single edge or a cycle, so no edge lies on two simple
    cycles.  A cactus has at most 3(n - 1)/2 edges, so denser graphs are
    rejected without a search."""
    if g.n == 0 or 2 * g.edge_count() > 3 * (g.n - 1) or not is_connected(g):
        return False
    # g is connected, so its one component is every vertex
    return all(m <= verts.bit_count() for verts, m in _blocks(g, [(1 << g.n) - 1]))


def _blocks(g: Graph, comps):
    """Each biconnected block of the components of g whose vertex masks comps
    lists, as (vertex mask, edge count), by one depth-first search from each
    component's least vertex with a stack of vertices (Hopcroft and Tarjan,
    "Efficient algorithms for graph manipulation", 1973).  A search edge
    joins a vertex to an ancestor or a descendant: up[u] counts u's edges
    up, and low[u] is the least depth an edge from u's subtree reaches.  A
    child u of p with low[u] >= depth[p] closes a block: p, u and the
    vertices above u on the stack, with the up edges of all but p.  Two
    blocks share at most one vertex, so these are all the edges among the
    block's vertices.  An isolated vertex is in no block."""
    rows = g.rows
    depth = [0] * g.n  # 0 until found; a root has depth 1
    low = [0] * g.n
    up = [0] * g.n
    for comp in comps:
        root = _low(comp)
        depth[root] = 1
        path = [(root, iter(set_bits(rows[root])))]
        stack = [root]
        while True:
            u, nbrs = path[-1]
            for v in nbrs:
                if not depth[v]:
                    depth[v] = low[v] = len(path) + 1
                    path.append((v, iter(set_bits(rows[v]))))
                    stack.append(v)
                    break
                if depth[v] < depth[u]:
                    up[u] += 1
                    low[u] = min(low[u], depth[v])
            else:
                path.pop()
                if not path:
                    break
                p = path[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= depth[p]:
                    verts, m = 1 << p, 0
                    while True:
                        x = stack.pop()
                        verts |= 1 << x
                        m += up[x]
                        if x == u:
                            break
                    yield verts, m


def is_unicyclic(g: Graph) -> bool:
    return g.n > 0 and g.edge_count() == g.n and is_connected(g)

"""Graph-class recognizers: planar, outerplanar, split, threshold, cograph,
cactus, unicyclic.

Each recognizer is a polynomial-time decision procedure; the matching
brute-force oracles live in `oracles` and the two are compared head-to-head
by the self-test harness.  Everything works directly on bitset rows.

Planarity is decided block by block.  A graph, or a biconnected block, with
at most 4 vertices or 8 edges is planar (K5 needs 10 edges and K3,3 needs 9),
and one with more than 3n - 6 edges is not (Euler).  A block these counts do
not decide goes to the path-addition test of Demoucron, Malgrange and
Pertuiset (1964): embed a cycle, then add paths through the fragments of the
graph left over, each into a face whose boundary holds all the fragment's
attachment vertices.  The faces it keeps are a planar embedding of the block.
Outerplanarity is planarity of the graph plus an apex vertex.
"""

from __future__ import annotations

from collections import defaultdict

from .graphs import Graph, is_connected, masked_components, set_bits


def is_planar(g: Graph) -> bool:
    known = _planar_by_counts(g.n, g.edge_count())
    if known is not None:
        return known
    for block in _biconnected_blocks(g):
        verts = 0
        for u, v in block:
            verts |= 1 << u | 1 << v
        known = _planar_by_counts(verts.bit_count(), len(block))
        if known is None:
            known = _planar_block(g.rows, verts)
        if not known:
            return False
    return True


def _planar_by_counts(n: int, m: int) -> bool | None:
    """Planarity when the vertex and edge counts decide it, else None."""
    if n <= 4 or m <= 8:
        return True
    if m > 3 * n - 6:
        return False
    return None


def _planar_block(rows, verts: int) -> bool:
    """Demoucron-Malgrange-Pertuiset path addition on the biconnected block
    with vertex mask verts (at least 3 vertices).

    The embedded subgraph H starts as a cycle and grows by one path per
    step.  Its faces are simple cycles, kept as vertex lists and as vertex
    masks.  A fragment is an edge outside H between two vertices of H (a
    chord, keyed by its end pair), or a component of the block minus H with
    the edges joining it to H (keyed by its vertex mask); a face admits it
    when the face holds all its attachments (its vertices in H).  A fragment
    no face admits makes the block non-planar.  One that exactly one face
    admits must go there, so it is embedded first; when every fragment has
    two or more, any choice keeps a planar block embeddable.

    Fragments are kept from step to step, each with the faces that admit
    it.  The fragments a step makes (the chords at the path's new vertices
    and the pieces of the component it ran through) touch the path's
    interior, so only the two halves of the split face can admit them.  Of
    the older fragments, only those at the vertices that leave the split
    face, or at the path's two ends alone, change; the half on the shorter
    side is the one rebuilt, so a long face is not rescanned for every cut.
    """
    u = _low(verts)
    v = _low(rows[u] & verts)
    path = _path(rows, v, verts & ~(1 << u | 1 << v), 1 << u)
    faces = [path, path[::-1]]
    masks = [_mask(path)] * 2
    admits = [set(), set()]  # face -> the fragments it admits
    fits = {}  # fragment -> the faces that admit it
    attach = {}  # fragment -> its attachment mask
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
        for comp in masked_components(rows, body & ~placed):
            att = 0
            for x in set_bits(comp):
                att |= rows[x]
            made.append((comp, att & placed))
        for key, att in made:
            attach[key] = att
            fits[key] = options = set()
            for c in halves:
                if not att & ~masks[c]:
                    options.add(c)
                    admits[c].add(key)
            for x in set_bits(att):
                at[x].add(key)
            if len(options) < 2:
                forced.append(key)
        while forced and (forced[-1] not in fits or len(fits[forced[-1]]) > 1):
            forced.pop()
        if forced:
            key = forced.pop()
            options = fits.pop(key)
        elif fits:
            key, options = fits.popitem()
        else:
            return True
        if not options:
            return False
        f = min(options)
        for c in options:
            admits[c].discard(key)
        att = attach.pop(key)
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
        admits.append(set())
        halves = f, k
        touched = set()
        for x in side:
            touched |= at[x]
        for other in touched & admits[f]:
            fits[other].discard(f)
            admits[f].discard(other)
            if not attach[other] & ~masks[k]:
                fits[other].add(k)
                admits[k].add(other)
            elif len(fits[other]) < 2:
                forced.append(other)
        for other in (at[a] if len(at[a]) < len(at[b]) else at[b]) & admits[f]:
            if not attach[other] & ~ends:
                fits[other].add(k)
                admits[k].add(other)


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
    # K4 and K2,3 need 6 edges.  An outerplanar graph on n >= 2 vertices
    # has at most 2n - 3 edges, and one on n >= 1 vertices has a vertex of
    # degree at most 2.
    m = g.edge_count()
    if g.n <= 3 or m <= 5:
        return True
    if m > 2 * g.n - 3:
        return False
    if min(g.degrees) >= 3:
        return False
    # Standard reduction: outerplanar iff the graph plus an apex vertex
    # adjacent to everything is planar.
    full = (1 << g.n) - 1
    rows = [r | (1 << g.n) for r in g.rows]
    rows.append(full)
    return is_planar(Graph(g.n + 1, rows))


def is_split(g: Graph) -> bool:
    """Degree-sequence characterization (Hammer-Simeone).

    With d_1 >= ... >= d_n and m = max{i : d_i >= i - 1}, the graph is
    split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i.
    """
    degs = sorted(g.degrees, reverse=True)
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    return lhs == rhs


def is_threshold(g: Graph) -> bool:
    """Peel vertices that are isolated or dominating until nothing is left
    (Hammer, Ibaraki and Simeone, "Threshold sequences", 1981).

    Peeling an isolated vertex leaves every degree unchanged, and peeling a
    dominating one lowers every other degree by 1.  So among the vertices
    left, a vertex's degree is its degree in g minus the number of
    dominating vertices peeled, and the degrees stay in sorted order: the
    vertices left are degs[lo..hi], an isolated one can only be degs[lo]
    and a dominating one only degs[hi]."""
    degs = sorted(g.degrees)
    lo, hi, dominating = 0, g.n - 1, 0
    while lo <= hi:
        if degs[lo] == dominating:
            lo += 1
        elif degs[hi] - dominating == hi - lo:
            hi -= 1
            dominating += 1
        else:
            return False
    return True


def is_cograph(g: Graph) -> bool:
    """Cotree decomposition: every induced subgraph on >= 2 vertices must be
    disconnected or have a disconnected complement.  A component is
    connected, so only its complement can split it, and a co-component
    only the graph: the walk alternates, starting from g's components."""
    co_rows = [r ^ -1 for r in g.rows]
    stack = [(comp, co_rows) for comp in g.components()]
    while stack:
        mask, rows = stack.pop()
        if mask.bit_count() < 2:
            continue
        parts = masked_components(rows, mask)
        if len(parts) == 1:
            return False
        rows = g.rows if rows is co_rows else co_rows
        stack.extend((part, rows) for part in parts)
    return True


def is_cactus(g: Graph) -> bool:
    """Connected and every biconnected block is a single edge or a cycle
    (equivalently: no edge lies on two simple cycles).  A cactus has at
    most 3(n - 1)/2 edges, so denser graphs are rejected without a search."""
    if g.n == 0 or 2 * g.edge_count() > 3 * (g.n - 1) or not is_connected(g):
        return False
    for block_edges in _biconnected_blocks(g):
        verts = {v for e in block_edges for v in e}
        if len(block_edges) > len(verts):
            return False
    return True


def _biconnected_blocks(g: Graph):
    """Edge sets of the biconnected blocks (iterative Hopcroft-Tarjan)."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    edge_stack: list[tuple[int, int]] = []
    for root in range(g.n):
        if disc[root]:
            continue
        stack = [(root, -1, iter(set_bits(g.rows[root])))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if not disc[v]:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(set_bits(g.rows[v]))))
                    advanced = True
                    break
                if v != parent and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                pu = stack[-1][0]
                low[pu] = min(low[pu], low[u])
                if low[u] >= disc[pu]:
                    block = []
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (pu, u):
                            break
                    if block:
                        yield block


def is_unicyclic(g: Graph) -> bool:
    return g.n > 0 and g.edge_count() == g.n and is_connected(g)

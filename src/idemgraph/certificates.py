"""The checkers of the recognizers' evidence: yes certificates for planar,
outerplanar, split and threshold, and count witnesses of a planar or
outerplanar no.

A certifying recognizer returns, with its verdict, evidence that a simple
and independent checker confirms (McConnell, Mehlhorn, Näher and
Schweitzer, "Certifying algorithms", Comput. Sci. Rev. 5(2), 2011).  This
module reads only the graph and the evidence, and imports nothing from
`recognizers`.

`recognizers.planar_certificate(g)` and `outerplanar_certificate(g)` return
a yes certificate as a list of pieces `(verts, faces)`: a vertex mask, and
either None, when the piece's vertex and edge counts decide it, or the
faces of a planar embedding of the subgraph the mask induces, each a list
of vertices in cyclic order.  A certificate shows g planar when
- the edges the pieces induce partition the edges of g;
- the graph linking each piece to each vertex it shares with another piece
  is a forest, so g is its pieces glued at single vertices in a tree, and
  is planar iff each piece is;
- each piece with no faces has at most 4 vertices or at most 8 edges (K5
  has 5 and 10, K3,3 has 6 and 9, and so does any subdivision), or is
  connected with at most k + 2 edges on k vertices: its cyclomatic number
  m - k + 1 is at most 3, no minor raises it, and K3,3 has 4 and K5 has 6;
- each piece with faces is connected, every directed edge of it lies on
  exactly one face, the faces around each vertex form one cycle, so the
  faces are those of an embedding in a closed surface, and V - E + F = 2,
  so that surface is the sphere.

A graph is outerplanar iff it stays planar when one more vertex, the apex,
is joined to all of it (Chartrand and Harary, 1967).  An outerplanar
certificate has the same pieces, and gluing at single vertices keeps
outerplanarity too.  A piece with no faces has at most 3 vertices or at
most 5 edges (K4 and K2,3 each have 6), or is connected with at most k
edges (K4 has cyclomatic number 3 and K2,3 has 2).  A piece with faces has
those of the piece plus the apex, numbered g.n, and passes the same face
check.

The witness of a planar (outerplanar) no is a vertex mask whose induced
subgraph, its edges counted here from the rows, has k >= 3 vertices and
more than 3k - 6 edges (k >= 2 and more than 2k - 3): no planar
(outerplanar) graph has one, so g, which holds it, is not planar
(outerplanar).

`recognizers.split_certificate(g)` returns a yes as the clique size m: the
m vertices of the largest degrees, ties broken by the lower index, must be
a clique and the others an independent set.  A threshold yes has the same
m, and the neighbourhoods of the independent side must also be nested, a
chain under inclusion; the split graphs with that property are exactly the
threshold graphs (Chvatal and Hammer 1977; Mahadev and Peled, "Threshold
Graphs and Related Topics", 1995).
"""

from __future__ import annotations

from .graphs import Graph, masked_components, set_bits


def check_planar(g: Graph, cert) -> bool:
    rows = tuple(g.rows)
    pieces = _glued(g, rows, cert)
    return pieces is not None and all(
        (k <= 4 or m <= 8 or m <= k + 2 and _connected(rows, verts))
        if faces is None
        else _embeds(rows, verts, m, faces)
        for verts, k, m, faces in pieces
    )


def check_outerplanar(g: Graph, cert) -> bool:
    rows = tuple(g.rows)
    pieces = _glued(g, rows, cert)
    if pieces is None:
        return False
    apex = None
    for verts, k, m, faces in pieces:
        if faces is None:
            if not (k <= 3 or m <= 5 or m <= k and _connected(rows, verts)):
                return False
            continue
        if apex is None:
            apex = [r | 1 << g.n for r in rows] + [(1 << g.n) - 1]
        if not _embeds(apex, verts | 1 << g.n, m + k, faces):  # the apex adds k edges
            return False
    return True


def check_nonplanar(g: Graph, mask: int) -> bool:
    k, e = _induced(g, mask)
    return k >= 3 and e > 3 * k - 6


def check_nonouterplanar(g: Graph, mask: int) -> bool:
    k, e = _induced(g, mask)
    return k >= 2 and e > 2 * k - 3


def _induced(g: Graph, mask: int) -> tuple[int, int]:
    """The vertex and edge counts of the subgraph the vertex mask induces,
    its edges counted from the rows; (0, 0) for a mask with a bit outside
    g's vertices."""
    if mask < 0 or mask >> g.n:
        return 0, 0
    rows = tuple(g.rows)
    return mask.bit_count(), sum((rows[v] & mask).bit_count() for v in set_bits(mask)) // 2


def check_split(g: Graph, m: int) -> bool:
    return _independent_rows(g, m) is not None


def check_threshold(g: Graph, m: int) -> bool:
    nbrs = _independent_rows(g, m)
    if nbrs is None:
        return False
    nbrs.sort(key=int.bit_count)
    return not any(a & ~b for a, b in zip(nbrs, nbrs[1:]))


def _independent_rows(g: Graph, m: int) -> list[int] | None:
    """The rows of the independent side, when the m vertices of the largest
    degrees, ties broken by the lower index, are a clique and the others an
    independent set; else None."""
    if not 0 <= m <= g.n:
        return None
    rows = tuple(g.rows)
    order = sorted(range(g.n), key=g.degrees.__getitem__, reverse=True)  # stable: ties by index
    clique = 0
    for v in order[:m]:
        clique |= 1 << v
    side = [rows[v] for v in order[m:]]
    if any(clique & ~rows[v] != 1 << v for v in order[:m]) or any(r & ~clique for r in side):
        return None
    return side


def _connected(rows, verts: int) -> bool:
    return len(masked_components(rows, verts)) == 1


def _glued(g: Graph, rows, cert) -> list[tuple[int, int, int, list | None]] | None:
    """Each piece as (vertex mask, vertex count, edge count, faces), when the
    pieces' induced edges partition the edges of g, whose rows are rows,
    and the graph linking each piece to its shared vertices is a forest;
    else None.

    A union-find over the pieces joins each piece to the first piece
    holding each of its vertices.  That adds the edges of a tree on the
    pieces at each shared vertex, and the linking graph is a forest iff no
    join finds the two pieces already joined.  Then no two pieces share two
    vertices, so no edge lies in two pieces, and the pieces' edges are all
    of g's when their counts add up to g's edge count."""
    n = g.n
    first = [-1] * n  # the first piece holding each vertex
    parent = list(range(len(cert)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    out, total = [], 0
    for i, (verts, faces) in enumerate(cert):
        if verts < 0 or verts >> n:
            return None
        m = 0
        for v in set_bits(verts):
            m += (rows[v] & verts).bit_count()
            if first[v] < 0:
                first[v] = i
            else:
                a, b = root(first[v]), root(i)
                if a == b:
                    return None
                parent[a] = b
        total += m // 2
        out.append((verts, verts.bit_count(), m // 2, faces))
    return out if total == g.edge_count() else None


def _embeds(rows, verts: int, edges: int, faces) -> bool:
    """Whether faces, each a list of vertices in cyclic order, are the faces
    of a planar embedding of the subgraph, of the given number of edges, that
    the vertex mask verts induces in the graph with these rows.

    A face that runs p, x, q says the rotation at x takes p to q.  With
    every directed edge on exactly one face these turns are a permutation
    of x's neighbours at each vertex x, and an embedding in a closed
    surface needs it to be one cycle: a vertex whose turns form two cycles
    is two points of the surface, and the count V - E + F = 2 could then
    hold on a non-planar piece, such as a subdivided K3,3."""
    if not _connected(rows, verts):
        return False
    turn = {}  # (p, x) -> q: some face runs p, x, q
    for face in faces:
        if not face:
            return False
        for p, x, q in zip(face[-1:] + face[:-1], face, face[1:] + face[:1]):
            if not (0 <= p and 0 <= x and verts >> p & 1 and (rows[p] & verts) >> x & 1) or (p, x) in turn:
                return False
            turn[p, x] = q
    if len(turn) != 2 * edges or verts.bit_count() - edges + len(faces) != 2:
        return False
    for x in set_bits(verts):
        around = rows[x] & verts
        start = p = (around & -around).bit_length() - 1
        steps = 0
        while True:
            p = turn[p, x]
            steps += 1
            if p == start:
                break
        if steps != around.bit_count():
            return False
    return True

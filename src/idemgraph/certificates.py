"""The checker of the planar and outerplanar yes verdicts.

A certifying recognizer returns, with a yes, a certificate that a simple
and independent checker confirms (McConnell, Mehlhorn, Näher and
Schweitzer, "Certifying algorithms", Comput. Sci. Rev. 5(2), 2011).
`recognizers.planar_certificate(g)` and `outerplanar_certificate(g)` return
one as a list of pieces `(verts, faces)`: a vertex mask, and either None,
when the piece's vertex and edge counts decide it, or the faces of a planar
embedding of the subgraph the mask induces, each a list of vertices in
cyclic order.  This module reads only the graph and the certificate, and
imports nothing from `recognizers`.

A certificate shows g planar when
- the edges the pieces induce partition the edges of g;
- the graph linking each piece to each vertex it shares with another piece
  is a forest, so g is its pieces glued at single vertices in a tree, and
  is planar iff each piece is;
- each piece with no faces has at most 4 vertices or at most 8 edges (K5
  has 5 and 10, K3,3 has 6 and 9, and so does any subdivision);
- each piece with faces is connected, every directed edge of it lies on
  exactly one face, the faces around each vertex form one cycle, so the
  faces are those of an embedding in a closed surface, and V - E + F = 2,
  so that surface is the sphere.

A graph is outerplanar iff it stays planar when one more vertex, the apex,
is joined to all of it (Chartrand and Harary, 1967).  An outerplanar
certificate has the same pieces, and gluing at single vertices keeps
outerplanarity too.  A piece with no faces has at most 3 vertices or at
most 5 edges (K4 and K2,3 each have 6).  A piece with faces has those of
the piece plus the apex, numbered g.n, and passes the same face check.
"""

from __future__ import annotations

from .graphs import Graph, masked_components, set_bits


def check_planar(g: Graph, cert) -> bool:
    rows = tuple(g.rows)
    pieces = _glued(g, rows, cert)
    return pieces is not None and all(
        k <= 4 or m <= 8 if faces is None else _embeds(rows, verts, m, faces)
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
            if not (k <= 3 or m <= 5):
                return False
            continue
        if apex is None:
            apex = [r | 1 << g.n for r in rows] + [(1 << g.n) - 1]
        if not _embeds(apex, verts | 1 << g.n, m + k, faces):  # the apex adds k edges
            return False
    return True


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
    if len(masked_components(rows, verts)) != 1:
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

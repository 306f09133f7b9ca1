import ast
import itertools
import random
from dataclasses import replace
from pathlib import Path

import pytest

from idemgraph import certificates, cli, recognizers, selftest
from idemgraph.certificates import check_outerplanar, check_planar
from idemgraph.graphs import build_idempotent_graph, graph_from_edges, graph_key, set_bits
from idemgraph.oracles import kuratowski_oracle
from idemgraph.recognizers import outerplanar_certificate, planar_certificate
from idemgraph.rings import build_ring
from idemgraph.selftest import random_graph
from idemgraph.sweep import SweepConfig, enumerate_sweep_specs

from helpers import complete_bipartite_graph, complete_graph, time_budget

# The rings of the classify-large benchmark workload, 256 to 4,096 elements.
LARGE_RINGS = ("Z4 * Z4 * Z4 * Z4 * Z4 * Z4", "GF(64) * GF(64)", " * ".join(["Z2"] * 8), "GF(16) * GF(16) * GF(16)")

K33 = complete_bipartite_graph(3, 3)  # parts {0, 1, 2} and {3, 4, 5}
# The octahedron: 6 vertices and 12 = 3n - 6 edges, so only path addition
# decides it, and its certificate is one piece with faces.
OCTAHEDRON = graph_from_edges(6, [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3])


def rotation_faces(rotation):
    """The faces of the rotation system that orders each vertex v's
    neighbours cyclically as rotation[v]: after the directed edge u -> v a
    face turns to the neighbour of v that follows u."""
    after = {v: dict(zip(order, order[1:] + order[:1])) for v, order in rotation.items()}
    left = {(u, v) for v in rotation for u in rotation[v]}
    faces = []
    while left:
        u, v = start = min(left)
        face = []
        while True:
            left.discard((u, v))
            face.append(u)
            u, v = v, after[v][u]
            if (u, v) == start:
                break
        faces.append(face)
    return faces


def rotation_systems(rows, verts):
    """Every rotation system of the subgraph the vertex mask verts induces:
    each vertex's neighbours in every cyclic order."""
    orders = []
    for v in set_bits(verts):
        first, *rest = set_bits(rows[v] & verts)
        orders.append([(v, [first, *p]) for p in itertools.permutations(rest)])
    for choice in itertools.product(*orders):
        yield dict(choice)


def apex_rows(g):
    return [r | 1 << g.n for r in g.rows] + [(1 << g.n) - 1]


def test_the_checker_imports_nothing_from_recognizers():
    path = Path(certificates.__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported == {"__future__", ".graphs"}


class TestCertificatesPass:
    def test_octahedron_is_one_piece_with_faces(self):
        cert = planar_certificate(OCTAHEDRON)
        assert [verts for verts, _ in cert] == [0b111111]
        assert len(cert[0][1]) == 8
        assert check_planar(OCTAHEDRON, cert)

    def test_counts_decide_the_small_graphs_whole(self):
        for g in (complete_graph(4), complete_bipartite_graph(2, 3), graph_from_edges(0, [])):
            assert planar_certificate(g) == [((1 << g.n) - 1, None)]
            assert check_planar(g, planar_certificate(g))
        path = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert outerplanar_certificate(path) == [(0b1111, None)]
        assert check_outerplanar(path, outerplanar_certificate(path))

    def test_a_cycle_is_outerplanar_by_its_faces_with_the_apex(self):
        cycle = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        cert = outerplanar_certificate(cycle)
        (verts, faces), = cert
        assert verts == 0xFF and any(8 in face for face in faces)
        assert check_outerplanar(cycle, cert)

    def test_of_the_rotation_systems_of_k4_only_the_planar_two_pass(self):
        # K4 has 16 rotation systems; the planar embedding and its mirror
        # image give 4 faces, V - E + F = 2, and the other 14 give 2 faces
        k4 = complete_graph(4)
        faces = [rotation_faces(r) for r in rotation_systems(k4.rows, 0b1111)]
        assert sorted(map(len, faces)) == [2] * 14 + [4] * 2
        assert [check_planar(k4, [(0b1111, f)]) for f in faces] == [len(f) == 4 for f in faces]

    def test_every_default_sweep_graph_and_the_large_rings(self):
        # One graph per graph_key group of the default sweep (222 graphs for
        # 403 rings) and the four classify-large graphs, up to 4,096
        # vertices, beyond the 12 vertices the minor oracles reach.
        specs = enumerate_sweep_specs(SweepConfig())
        groups = {graph_key(spec): spec for spec in specs}
        assert len(groups) == 222
        graphs = [build_idempotent_graph(build_ring(spec)) for spec in groups.values()]
        graphs += [build_idempotent_graph(build_ring(spec)) for spec in LARGE_RINGS]
        yes = [0, 0]
        with time_budget(2.0):
            for g in graphs:
                for i, (certify, check) in enumerate(
                    ((planar_certificate, check_planar), (outerplanar_certificate, check_outerplanar))
                ):
                    cert = certify(g)
                    if cert is not None:
                        assert check(g, cert), (check.__name__, g)
                        yes[i] += 1
        assert yes == [56, 10]  # planar and outerplanar yes verdicts of the 226


class TestBogusCertificatesFail:
    def test_every_rotation_system_of_k33(self):
        # The 64 rotation systems of K3,3 cover every directed edge once and
        # turn once around each vertex, but none has V - E + F = 2.
        systems = list(rotation_systems(K33.rows, 0b111111))
        assert len(systems) == 64
        for r in systems:
            assert not check_planar(K33, [(0b111111, rotation_faces(r))])

    def test_made_up_faces_for_k33(self):
        hexagon = [0, 3, 1, 4, 2, 5]
        for faces in (
            [hexagon, hexagon[::-1]],  # a cycle, missing the chords
            [hexagon, [0, 4, 2, 3, 1, 5], [0, 5, 1, 3, 2, 4]],  # every edge once, not every dart
            [[0, 3, 1, 4], [0, 4, 1, 3], [1, 4, 2, 5], [1, 5, 2, 4], [0, 5, 2, 3], [0, 3, 2, 5], []],
            [[0, 3], [3, 0], [0, 1, 3]],  # 0-1 is not an edge
        ):
            assert not check_planar(K33, [(0b111111, faces)])
        assert not check_planar(K33, [(0b111111, None)])

    def test_one_vertex_dropped_from_one_face(self):
        cert = planar_certificate(OCTAHEDRON)
        assert check_planar(OCTAHEDRON, cert)
        (verts, faces), = cert
        for f, face in enumerate(faces):
            for i in range(len(face)):
                broken = [list(x) for x in faces]
                del broken[f][i]
                assert not check_planar(OCTAHEDRON, [(verts, broken)]), (f, i)

    def test_a_face_dropped_or_repeated(self):
        (verts, faces), = planar_certificate(OCTAHEDRON)
        assert not check_planar(OCTAHEDRON, [(verts, faces[1:])])
        assert not check_planar(OCTAHEDRON, [(verts, faces + faces[:1])])

    def test_the_torus_faces_of_k33_with_two_listed_twice(self):
        # 3 faces on the torus, and two of them again: 5 faces give
        # V - E + F = 6 - 9 + 5 = 2, every directed edge is on a face, and
        # the turns are one cycle around each vertex, but some directed
        # edges are on two faces.
        torus = next(f for f in map(rotation_faces, rotation_systems(K33.rows, 0b111111)) if len(f) == 3)
        assert not check_planar(K33, [(0b111111, torus + torus[:2])])

    def test_faces_that_miss_some_directed_edges(self):
        # K4 minus 1-3 (4 vertices, 5 edges) and 3 faces, so V - E + F = 2,
        # but 1 -> 0, 2 -> 1 and 0 -> 2 lie on no face: the checker answers
        # no rather than failing on the missing turn at 0.
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])
        assert not check_planar(g, [(0b1111, [[0, 1, 2], [0, 3], [2, 3]])])

    def test_a_subdivided_k33_with_two_turn_cycles_at_two_vertices(self):
        # K3,3 with the edge 0-3 replaced by the path 0-6-3 is non-planar.
        # Its faces, here those of K3,3 minus 0-3 and the one face 0, 6, 3, 6
        # of the path, cover every directed edge once and give V - E + F =
        # 7 - 10 + 5 = 2, but the turns at 0 (and at 3) form two cycles.
        rest = [(a, b) for a in range(3) for b in range(3, 6) if (a, b) != (0, 3)]
        g = graph_from_edges(7, rest + [(0, 6), (6, 3)])
        assert not kuratowski_oracle(g)
        base = graph_from_edges(6, rest)
        base_faces = recognizers._planar_block(base.rows, 0b111111)
        assert check_planar(base, [(0b111111, base_faces)])
        faces = base_faces + [[0, 6, 3, 6]]
        assert g.n - g.edge_count() + len(faces) == 2
        assert not check_planar(g, [(0b1111111, faces)])

    def test_k33_as_two_pieces_sharing_three_vertices(self):
        # A star at 3 and K2,3 on {0, 1, 2} and {4, 5}: their edges partition
        # K3,3's and each passes its count rule, but they share 0, 1 and 2,
        # so the pieces are not glued in a tree.
        assert not check_planar(K33, [(0b001111, None), (0b110111, None)])
        # The same vertices with 0 to 3 in a piece of its own, so that two
        # pieces share 1 and 2 and the third shares 0 and 3 with them.
        assert not check_planar(K33, [(0b001001, None), (0b001110, None), (0b110111, None)])

    def test_pieces_that_do_not_partition_the_edges(self):
        k4 = complete_graph(4)
        assert check_planar(k4, [(0b1111, None)])
        assert not check_planar(k4, [(0b0111, None)])  # the edges at 3 are missing
        assert not check_planar(k4, [(0b0111, None), (0b1011, None)])  # 0-1 in both, 2-3 in neither
        assert not check_planar(k4, [(0b1111, None), (0b0011, None)])  # 0-1 twice
        assert not check_planar(k4, [(0b11111, None)])  # a vertex k4 does not have
        assert not check_planar(k4, [])
        assert check_planar(graph_from_edges(3, []), [])  # isolated vertices need no piece

    def test_faces_of_a_piece_in_two_parts(self):
        # K3,3 and a disjoint triangle as one piece: the rotation system
        # that puts K3,3 on the torus (V - E + F = 0) and the triangle's two
        # faces (2) add up to 2, but the piece is not connected.
        g = graph_from_edges(9, [*K33.edges(), (6, 7), (7, 8), (6, 8)])
        torus = next(f for f in map(rotation_faces, rotation_systems(K33.rows, 0b111111)) if len(f) == 3)
        faces = torus + [[6, 7, 8], [8, 7, 6]]
        assert g.n - g.edge_count() + len(faces) == 2
        assert not check_planar(g, [((1 << 9) - 1, faces)])

    @pytest.mark.parametrize("g", [complete_graph(4), complete_bipartite_graph(2, 3)], ids=["K4", "K23"])
    def test_outerplanar_certificates_for_k4_and_k23(self, g):
        full = (1 << g.n) - 1
        assert check_planar(g, planar_certificate(g))
        assert not check_outerplanar(g, [(full, None)])
        # a planar embedding of g itself, without the apex
        faces = recognizers._planar_block(g.rows, full)
        assert check_planar(g, [(full, faces)])
        assert not check_outerplanar(g, [(full, faces)])
        # a sample of the rotation systems of g plus the apex, none planar
        rows = apex_rows(g)
        systems = list(rotation_systems(rows, (1 << g.n + 1) - 1))
        for r in random.Random(0).sample(systems, 200):
            assert not check_outerplanar(g, [(full, rotation_faces(r))])


@pytest.mark.parametrize(
    "graph,certify,faces,line",
    [
        (K33, "planar_certificate", [[0, 3, 1, 4, 2, 5], [5, 2, 4, 1, 3, 0]], "planar: recognizer=True certificate=False"),
        (complete_graph(4), "outerplanar_certificate", None, "outerplanar: recognizer=True certificate=False"),
    ],
    ids=["K33-planar", "K4-outerplanar"],
)
def test_selftest_reports_a_bogus_certificate(graph, certify, faces, line, monkeypatch, capsys):
    # A recognizer that says yes on a graph that is not planar (outerplanar)
    # and hands over a made-up certificate: the checker rejects it, and
    # selftest reports the disagreement and exits 2.
    monkeypatch.setattr(selftest, "random_graph", lambda n, rng: graph)
    real = getattr(recognizers, certify)
    monkeypatch.setattr(recognizers, certify, lambda g: [((1 << g.n) - 1, faces)] if g is graph else real(g))
    assert cli.main(["selftest", "--exhaustive-n", "0", "--random-count", "1", "--random-n", str(graph.n)]) == 2
    out = capsys.readouterr().out
    assert "disagreements  1" in out
    assert line in out


def test_selftest_checks_yes_by_certificate_and_no_by_oracle(monkeypatch):
    # On 40 of criterion 9's random graphs, the checker sees each planar or
    # outerplanar yes and the oracle each no, never both.
    calls = []

    def counted(prop):
        return replace(
            prop,
            oracle=lambda g: calls.append((prop.name, "oracle")) or prop.oracle(g),
            check=prop.check and (lambda g, c: calls.append((prop.name, "check")) or prop.check(g, c)),
        )

    monkeypatch.setattr(selftest, "CHECKED", tuple(map(counted, selftest.CHECKED)))
    rng = random.Random(0)
    expected, disagreements = [], []
    for i in range(40):
        g = random_graph(12, rng)
        calls.clear()
        selftest._compare(g, str(i), disagreements)
        assert calls == [
            ("planar", "oracle" if planar_certificate(g) is None else "check"),
            ("outerplanar", "oracle" if outerplanar_certificate(g) is None else "check"),
            ("split", "oracle"),
            ("threshold", "oracle"),
            ("cograph", "oracle"),
        ]
        expected.append(planar_certificate(g) is not None)
    assert disagreements == []
    assert 0 < sum(expected) < 40

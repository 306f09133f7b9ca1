import ast
import itertools
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from idemgraph import certificates, cli, recognizers, selftest
from idemgraph.certificates import (
    check_nonouterplanar,
    check_nonplanar,
    check_outerplanar,
    check_planar,
    check_split,
    check_threshold,
)
from idemgraph.graphs import build_idempotent_graph, cycle_graph, graph_from_edges, graph_key, path_graph, set_bits
from idemgraph.oracles import kuratowski_oracle, split_oracle, threshold_oracle
from idemgraph.recognizers import outerplanar_certificate, planar_certificate, split_certificate, threshold_certificate
from idemgraph.rings import build_ring
from idemgraph.selftest import all_graphs, random_graph
from idemgraph.sweep import SweepConfig, enumerate_sweep_specs
from idemgraph.theorems import PROPERTIES

from helpers import complete_bipartite_graph, complete_graph, disjoint_union, empty_graph, time_budget

# The rings of the classify-large benchmark workload, 256 to 4,096 elements.
LARGE_RINGS = ("Z4 * Z4 * Z4 * Z4 * Z4 * Z4", "GF(64) * GF(64)", " * ".join(["Z2"] * 8), "GF(16) * GF(16) * GF(16)")

K33 = complete_bipartite_graph(3, 3)  # parts {0, 1, 2} and {3, 4, 5}
# The table rows with a certifying recognizer.
CERTIFIED = tuple(p for p in PROPERTIES if p.certify is not None)
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

    def test_a_cycle_with_a_chord_is_outerplanar_by_its_faces_with_the_apex(self):
        # 8 vertices and 9 edges in one block: no count decides it
        g = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4)])
        cert = outerplanar_certificate(g)
        (verts, faces), = cert
        assert verts == 0xFF and any(8 in face for face in faces)
        assert check_outerplanar(g, cert)

    def test_a_cycle_is_one_piece_decided_by_its_cyclomatic_number(self):
        # A connected piece with m <= k is outerplanar, and with m <= k + 2
        # planar, so the 8-cycle's component needs no faces.
        cycle = graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)])
        assert outerplanar_certificate(cycle) == [(0xFF, None)]
        assert check_outerplanar(cycle, [(0xFF, None)])
        theta = graph_from_edges(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5), (2, 7)])
        assert planar_certificate(theta) == [((1 << 10) - 1, None)]
        assert check_planar(theta, planar_certificate(theta))

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
        tally = Counter()  # (property, verdict, with evidence) -> graphs
        with time_budget(2.0):
            for g in graphs:
                for i, (certify, check) in enumerate(
                    ((planar_certificate, check_planar), (outerplanar_certificate, check_outerplanar))
                ):
                    cert = certify(g)
                    if cert is not None:
                        assert check(g, cert), (check.__name__, g)
                        yes[i] += 1
                for prop in CERTIFIED:
                    verdict, evidence = prop.certify(g)
                    assert verdict == prop.recognize(g), (prop.name, g)
                    assert evidence is None or prop.check(g, verdict, evidence), (prop.name, g)
                    tally[prop.name, verdict, evidence is not None] += 1
        assert yes == [56, 10]  # planar and outerplanar yes verdicts of the 226
        # Every yes has a certificate, and every planar or outerplanar no but
        # the 10 planar ones path addition decides has a count witness.
        assert tally == {
            ("planar", True, True): 56,
            ("planar", False, True): 160,
            ("planar", False, False): 10,
            ("outerplanar", True, True): 10,
            ("outerplanar", False, True): 216,
            ("split", True, True): 6,
            ("split", False, False): 220,
            ("threshold", True, True): 5,
            ("threshold", False, False): 221,
        }


class TestSplitAndThresholdCheckers:
    def test_every_graph_up_to_five_vertices(self):
        # A split (threshold) graph's m passes its checker, and no m, nor
        # one outside 0..n, passes on a graph that is not split (threshold).
        for n in range(6):
            for g in all_graphs(n):
                split, threshold = split_oracle(g) is None, threshold_oracle(g) is None
                for m in range(-1, n + 2):
                    if not split:
                        assert not check_split(g, m), (m, sorted(g.edges()))
                    if not threshold:
                        assert not check_threshold(g, m), (m, sorted(g.edges()))
                assert not check_split(g, -1) and not check_split(g, n + 1)
                if split:
                    assert check_split(g, split_certificate(g)), sorted(g.edges())
                if threshold:
                    assert check_threshold(g, threshold_certificate(g)), sorted(g.edges())

    def test_a_wrong_m_on_a_split_graph(self):
        # A triangle 0, 1, 2 with a pendant vertex 3 at 0: degrees 3, 2, 2, 1.
        # The first 2 or 3 vertices are a clique with the rest independent;
        # with 1 the edge 1-2 joins the independent side, with 4 the clique
        # lacks 1-3, and with 0 every edge is on the independent side.
        g = graph_from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert split_certificate(g) == 3
        assert [check_split(g, m) for m in range(-1, 6)] == [False, False, False, True, True, False, False]

    def test_p4_is_split_with_m_2_but_not_threshold(self):
        # Degrees 1, 2, 2, 1: the clique {1, 2} and the independent {0, 3},
        # whose neighbourhoods {1} and {2} are not nested.
        p4 = path_graph(4)
        assert split_certificate(p4) == 2 and threshold_certificate(p4) is None
        assert check_split(p4, 2)
        assert not any(check_threshold(p4, m) for m in range(-1, 6))

    def test_nested_neighbourhoods_on_a_threshold_graph(self):
        # The star K1,3 at 0 plus the edge 1-2: m = 3 leaves 3 alone on the
        # independent side, and m = 2 leaves 2 and 3, with N(3) = {0} inside
        # N(2) = {0, 1}.
        g = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert threshold_certificate(g) == 3 and check_threshold(g, 3)
        assert check_threshold(g, 2)


class TestCountWitnesses:
    def test_a_dense_piece_proves_a_no(self):
        k5, k4 = complete_graph(5), complete_graph(4)
        assert check_nonplanar(k5, 0b11111)
        assert check_nonouterplanar(k4, 0b1111)
        assert check_nonouterplanar(k5, 0b11110)  # a K4 inside K5

    def test_too_few_induced_edges(self):
        # K5 has 10 edges, but 4 of its vertices induce only 6 = 3k - 6; K5
        # less an edge has 9 = 3k - 6; K4 less an edge has 5 = 2k - 3.
        k5, k4 = complete_graph(5), complete_graph(4)
        k5_less = graph_from_edges(5, [e for e in k5.edges() if e != (0, 1)])
        k4_less = graph_from_edges(4, [e for e in k4.edges() if e != (0, 1)])
        assert not check_nonplanar(k5, 0b01111)
        assert not check_nonplanar(k5_less, 0b11111)
        assert not check_nonouterplanar(k4_less, 0b1111)
        assert not check_nonouterplanar(k5, 0b00111)  # a triangle: 3 = 2k - 3

    def test_too_few_vertices(self):
        # One edge is more than 3k - 6 = 0 on k = 2, and no edge more than
        # 2k - 3 = -1 on k = 1, yet both pieces are planar and outerplanar.
        k5 = complete_graph(5)
        for mask in (0, 0b1, 0b11):
            assert not check_nonplanar(k5, mask)
        for mask in (0, 0b1):
            assert not check_nonouterplanar(k5, mask)

    def test_a_mask_outside_the_graph(self):
        k5 = complete_graph(5)
        for check in (check_nonplanar, check_nonouterplanar):
            assert not check(k5, 0b111111)  # bit 5 is no vertex of K5
            assert not check(k5, 1 << 5)
            assert not check(k5, -1)
            assert not check(k5, ~0b100000)


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

    def test_a_faceless_piece_in_two_parts(self):
        # K3,3 and an isolated vertex have 9 = k + 2 edges on 7 vertices, and
        # K2,3 and an isolated vertex 6 = k edges on 6; the cyclomatic rule
        # holds only for a connected piece.
        k33 = disjoint_union([K33, empty_graph(1)])
        assert not check_planar(k33, [(0b1111111, None)])
        k23 = disjoint_union([complete_bipartite_graph(2, 3), empty_graph(1)])
        assert check_planar(k23, [(0b111111, None)])
        assert not check_outerplanar(k23, [(0b111111, None)])

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
    "graph,certify,evidence,line",
    [
        (
            K33, "certify_planar", (True, [(0b111111, [[0, 3, 1, 4, 2, 5], [5, 2, 4, 1, 3, 0]])]),
            "planar: recognizer=True certificate=False",
        ),
        (
            complete_graph(4), "certify_outerplanar", (True, [(0b1111, None)]),
            "outerplanar: recognizer=True certificate=False",
        ),
        (complete_graph(4), "certify_planar", (False, 0b1111), "planar: recognizer=False witness=True"),
        (cycle_graph(5), "split_certificate", 2, "split: recognizer=True certificate=False"),
        (path_graph(4), "threshold_certificate", 2, "threshold: recognizer=True certificate=False"),
    ],
    ids=["K33-planar", "K4-outerplanar", "K4-nonplanar", "C5-split", "P4-threshold"],
)
def test_selftest_reports_a_bogus_certificate(graph, certify, evidence, line, monkeypatch, capsys):
    # A recognizer that gives the wrong verdict on a graph with made-up
    # evidence for it: the checker rejects the evidence, and selftest
    # reports the disagreement and exits 2.
    monkeypatch.setattr(selftest, "random_graph", lambda n, rng: graph)
    real = getattr(recognizers, certify)
    monkeypatch.setattr(recognizers, certify, lambda g: evidence if g is graph else real(g))
    assert cli.main(["selftest", "--exhaustive-n", "0", "--random-count", "1", "--random-n", str(graph.n)]) == 2
    out = capsys.readouterr().out
    assert "disagreements  1" in out
    assert line in out


def test_selftest_asks_an_oracle_only_about_a_no_without_evidence(monkeypatch):
    # On the graphs of at most 4 vertices and 40 of criterion 9's random
    # graphs, every verdict of the four certifying rows is checked once: a
    # no without evidence by the oracle, any other by the checker.
    calls = []

    def counted(prop):
        return replace(
            prop,
            oracle=lambda g: calls.append((prop.name, "oracle")) or prop.oracle(g),
            check=prop.check and (lambda g, v, e: calls.append((prop.name, "check")) or prop.check(g, v, e)),
        )

    monkeypatch.setattr(selftest, "CHECKED", tuple(map(counted, selftest.CHECKED)))
    rng = random.Random(0)
    sample = [g for n in range(5) for g in all_graphs(n)] + [random_graph(12, rng) for _ in range(40)]
    tally, disagreements = Counter(), []
    for i, g in enumerate(sample):
        calls.clear()
        selftest._compare(g, str(i), disagreements)
        expected = []
        for prop in CERTIFIED:
            verdict, evidence = prop.certify(g)
            assert verdict == prop.recognize(g)
            assert not verdict or evidence is not None  # every yes has a certificate
            by = "oracle" if evidence is None else "check"
            expected.append((prop.name, by))
            tally[prop.name, verdict, by] += 1
        assert calls == expected + [("cograph", "oracle")]
    assert disagreements == []
    # each kind of evidence, and the oracle, is reached
    for name in ("planar", "outerplanar"):
        assert {(v, by) for p, v, by in tally if p == name} == {(True, "check"), (False, "check"), (False, "oracle")}
    for name in ("split", "threshold"):
        assert {(v, by) for p, v, by in tally if p == name} == {(True, "check"), (False, "oracle")}

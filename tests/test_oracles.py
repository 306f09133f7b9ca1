import itertools
import random
from collections import Counter, defaultdict
from functools import reduce
from operator import and_

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from idemgraph.graphs import (
    build_idempotent_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    two_k2,
)
from idemgraph.oracles import (
    _TARGETS,
    MAX_ORACLE_VERTICES,
    OracleSizeError,
    _contract,
    _has_complete_bipartite,
    _match_plan,
    _simplify,
    cograph_oracle,
    find_induced,
    has_minor,
    kuratowski_oracle,
    outerplanar_oracle,
    split_oracle,
    threshold_oracle,
)
from idemgraph import oracles, recognizers
from idemgraph.certificates import check_outerplanar, check_planar
from idemgraph.recognizers import outerplanar_certificate, planar_certificate
from idemgraph.rings import build_ring
from idemgraph.selftest import all_graphs, random_graph

from helpers import (
    complete_bipartite_graph,
    complete_graph,
    has_induced_copy,
    induced_subgraph,
    isomorphic_small,
    reference_has_minor,
    reference_is_threshold,
    relabel,
    time_budget,
)

TARGETS = ("K5", "K33", "K4", "K23")
PATTERNS = (path_graph(4), cycle_graph(4), two_k2(), cycle_graph(5))


@pytest.fixture(scope="module")
def criterion_9_graphs():
    # The 500 random 12-vertex graphs of acceptance criterion 9, in order.
    rng = random.Random(0)
    return [random_graph(12, rng) for _ in range(500)]


@pytest.fixture(scope="module")
def pattern_classes():
    # One graph per isomorphism class on 1 to 5 vertices: 1, 2, 4, 11 and 34.
    classes = []
    for n in range(1, 6):
        reps = []
        for g in all_graphs(n):
            if not any(isomorphic_small(g, h) for h in reps):
                reps.append(g)
        classes += reps
    assert len(classes) == 52
    return classes


def constrained_self_matches(pattern):
    # Every assignment of pattern vertices to the plan's steps that keeps the
    # steps' adjacencies and non-adjacencies and the symmetry constraints.
    plan = _match_plan(pattern.rows)
    rows = pattern.rows
    return [
        images
        for images in itertools.permutations(range(pattern.n))
        if all(
            ((rows[images[i]] >> images[j]) & 1) == ((adj >> j) & 1)
            and (not (above >> j) & 1 or images[i] > images[j])
            for i, (_, adj, above) in enumerate(plan)
            for j in range(i)
        )
    ]


def assert_minor_search_matches_reference(g):
    expected = {t: reference_has_minor(g, t) for t in TARGETS}
    for target in TARGETS:
        assert has_minor(g, target) == expected[target], (target, sorted(g.edges()))
    if g.n <= MAX_ORACLE_VERTICES:
        assert kuratowski_oracle(g) == (not (expected["K5"] or expected["K33"])), sorted(g.edges())
        assert outerplanar_oracle(g) == (not (expected["K4"] or expected["K23"])), sorted(g.edges())


def assert_induced_search_matches_reference(g, patterns=PATTERNS):
    for pattern in patterns:
        hit = find_induced(g, pattern)
        if hit is None:
            assert not has_induced_copy(g, pattern), (sorted(pattern.edges()), sorted(g.edges()))
        else:
            assert isomorphic_small(induced_subgraph(g, hit), pattern), (sorted(pattern.edges()), sorted(g.edges()))


class TestFindInduced:
    def test_p4_inside_c5(self):
        hit = find_induced(cycle_graph(5), path_graph(4))
        assert hit is not None
        assert isomorphic_small(induced_subgraph(cycle_graph(5), hit), path_graph(4))

    def test_no_2k2_in_k4(self):
        assert find_induced(complete_graph(4), two_k2()) is None

    def test_p4_witness_in_z4xz2_graph(self):
        g = build_idempotent_graph(build_ring("Z4 * Z2"))
        hit = find_induced(g, path_graph(4))
        assert hit is not None
        assert isomorphic_small(induced_subgraph(g, hit), path_graph(4))

    def test_induced_not_just_subgraph(self):
        # C4 and K4 both contain P4 as a subgraph but not induced
        assert find_induced(cycle_graph(4), path_graph(4)) is None
        assert find_induced(complete_graph(4), path_graph(4)) is None

    def test_pattern_size_guard(self):
        with pytest.raises(OracleSizeError):
            find_induced(complete_graph(8), complete_graph(7))

    def test_p4_absent_from_cograph(self):
        g = complete_bipartite_graph(3, 3)
        assert find_induced(g, path_graph(4)) is None


class TestFindInducedAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.randoms(use_true_random=False))
    def test_small_graphs(self, n, rnd):
        assert_induced_search_matches_reference(random_graph(n, rnd))

    def test_criterion_9_graphs(self, criterion_9_graphs):
        for g in criterion_9_graphs:
            assert_induced_search_matches_reference(g)


class TestSymmetryBreaking:
    # Each induced copy is one vertex set; the plan must let exactly one of
    # its automorphic matches through, for every pattern shape.
    def test_every_pattern_matches_itself_once(self, pattern_classes):
        for p in pattern_classes:
            assert len(constrained_self_matches(p)) == 1, sorted(p.edges())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.randoms(use_true_random=False))
    def test_every_pattern_against_reference(self, pattern_classes, n, rnd):
        assert_induced_search_matches_reference(random_graph(n, rnd), pattern_classes)


class TestForbiddenPatternOracles:
    def test_split_oracle_witnesses(self):
        for g in (two_k2(), cycle_graph(4), cycle_graph(5)):
            hit = split_oracle(g)
            assert hit is not None and len(hit) in (4, 5)
        assert split_oracle(complete_graph(5)) is None

    def test_threshold_oracle(self):
        assert threshold_oracle(path_graph(4)) is not None
        assert threshold_oracle(complete_graph(5)) is None

    def test_queries_about_another_graph_start_afresh(self, monkeypatch):
        # split and threshold share their C4 and 2K2 searches on one graph;
        # an answer about C4 must not carry over to K4.
        c4, k4 = cycle_graph(4), complete_graph(4)
        assert split_oracle(c4) is not None
        assert threshold_oracle(k4) is None
        assert cograph_oracle(k4) is None
        assert split_oracle(k4) is None
        assert threshold_oracle(c4) == split_oracle(c4) == frozenset(range(4))

        # On one graph the three oracles search each pattern they ask for
        # once; K5 has none, so they ask all four, and asking again adds
        # no search.
        searched = []

        def counted(g, pattern):
            searched.append(pattern.rows)
            return find_induced(g, pattern)

        monkeypatch.setattr(oracles, "find_induced", counted)
        k5 = complete_graph(5)
        for _ in range(2):
            assert split_oracle(k5) is threshold_oracle(k5) is cograph_oracle(k5) is None
            assert sorted(searched) == sorted(p.rows for p in PATTERNS)

        # Five graphs, each a pattern (or K4) at its own offset among 9
        # vertices, so that no two have the same answers, asked about in
        # turn: more graphs than the searches kept, yet no answer is
        # another graph's.
        oracle_fns = (split_oracle, threshold_oracle, cograph_oracle)
        graphs = [
            graph_from_edges(9, [(u + i, v + i) for u, v in h.edges()])
            for i, h in enumerate(PATTERNS + (complete_graph(4),))
        ]
        expected = []
        for g in graphs:
            oracles._search.cache_clear()
            expected.append(tuple(f(g) for f in oracle_fns))
        assert len(set(expected)) == len(graphs)
        for r in range(3):
            for f, answers in zip(oracle_fns, zip(*expected)):
                for i in range(len(graphs)):
                    j = (i + r) % len(graphs)
                    assert f(graphs[j]) == answers[j], (f.__name__, j)

    def test_cograph_oracle_witness_revalidates(self):
        g = build_idempotent_graph(build_ring("Z4 * Z2"))
        hit = cograph_oracle(g)
        assert hit is not None
        assert isomorphic_small(induced_subgraph(g, hit), path_graph(4))


class TestMinorSearch:
    def test_k33_is_its_own_minor(self):
        assert not kuratowski_oracle(complete_bipartite_graph(3, 3))

    def test_cycles_are_planar(self):
        assert kuratowski_oracle(cycle_graph(8))

    def test_k5_minus_an_edge_is_planar(self):
        edges = [e for e in itertools.combinations(range(5), 2) if e != (0, 1)]
        assert kuratowski_oracle(graph_from_edges(5, edges))

    def test_petersen_graph_not_planar(self):
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        petersen = graph_from_edges(10, outer + inner + spokes)
        assert not kuratowski_oracle(petersen)
        assert has_minor(petersen, "K5")
        assert has_minor(petersen, "K33")

    def test_subdivision_detected_via_contractions(self):
        # K5 with every edge subdivided once: 15 vertices... too big for the
        # oracle; subdivide a K33 instead (12 vertices after 3 subdivisions)
        base = list(complete_bipartite_graph(3, 3).edges())
        edges = []
        extra = 6
        for k, (a, b) in enumerate(base):
            if k < 3:
                edges += [(a, extra), (extra, b)]
                extra += 1
            else:
                edges.append((a, b))
        g = graph_from_edges(9, edges)
        assert not kuratowski_oracle(g)

    def test_outerplanar_oracle(self):
        assert outerplanar_oracle(cycle_graph(7))
        assert not outerplanar_oracle(complete_graph(4))
        assert not outerplanar_oracle(complete_bipartite_graph(2, 3))
        # fan graph: maximal outerplanar
        fan = graph_from_edges(6, [(i, i + 1) for i in range(5)] + [(0, i) for i in range(2, 6)])
        assert outerplanar_oracle(fan)

    @pytest.mark.parametrize(
        "lengths, k23",
        [((2, 2, 2), True), ((3, 4, 5), True), ((2, 2, 8), True), ((1, 4, 4), False), ((1, 2, 6), False)],
    )
    def test_theta_graphs(self, lengths, k23):
        # Two vertices joined by three disjoint paths have a K_{2,3} minor
        # iff every path has an inner vertex.  Long paths are chains of
        # adjacent degree-2 vertices, which the K_{2,3} search contracts.
        edges, n = [], 2
        for length in lengths:
            path = [0, *range(n, n + length - 1), 1]
            n += length - 1
            edges += zip(path, path[1:])
        g = graph_from_edges(n, edges)
        assert has_minor(g, "K23") == k23
        assert outerplanar_oracle(g) == (not k23)

    def test_minor_searches_in_order(self, monkeypatch):
        # The first search settles most no verdicts.  K3,3's prunes harder
        # than K5's, and K4's suppresses degree-2 vertices where K2,3's may
        # not, so each goes first.  K5 has no K3,3 minor and K2,3 no K4
        # minor, so each needs both searches.  has_minor takes one target.
        searched = []

        def counted(g, target):
            searched.append(target)
            return has_minor(g, target)

        monkeypatch.setattr(oracles, "has_minor", counted)
        for oracle, g, order in [
            (kuratowski_oracle, complete_bipartite_graph(3, 3), ["K33"]),
            (kuratowski_oracle, complete_graph(5), ["K33", "K5"]),
            (outerplanar_oracle, complete_graph(4), ["K4"]),
            (outerplanar_oracle, complete_bipartite_graph(2, 3), ["K4", "K23"]),
        ]:
            searched.clear()
            assert not oracle(g)
            assert searched == order, oracle.__name__
        with pytest.raises(TypeError):
            has_minor(complete_graph(5), "K5", "K33")

    @pytest.mark.parametrize(
        "target, graph",
        [
            ("K5", complete_graph(5)),
            ("K33", complete_bipartite_graph(3, 3)),
            ("K4", complete_graph(4)),
            ("K23", complete_bipartite_graph(2, 3)),
        ],
    )
    def test_target_table(self, target, graph):
        # The search prunes by the table's vertex and edge counts, and
        # suppresses degree-2 vertices only for a target without any.
        need_v, need_e, check, deg2_ok = _TARGETS[target]
        assert (need_v, need_e) == (graph.n, graph.edge_count())
        assert deg2_ok == (min(r.bit_count() for r in graph.rows) >= 3)
        assert check(dict(enumerate(graph.rows)))

    def test_size_guard(self):
        with pytest.raises(OracleSizeError):
            kuratowski_oracle(complete_graph(13))
        with pytest.raises(OracleSizeError):
            outerplanar_oracle(complete_graph(13))


class TestMinorSearchAgainstReference:
    # The child prune and the worklist simplification against the plain
    # search, target by target, and the two oracles against its verdicts.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=9), st.randoms(use_true_random=False))
    def test_small_graphs(self, n, rnd):
        assert_minor_search_matches_reference(random_graph(n, rnd))

    def test_criterion_9_graphs(self, criterion_9_graphs):
        for g in criterion_9_graphs:
            assert_minor_search_matches_reference(g)

    def test_wheel_is_not_outerplanar_within_a_quarter_second(self):
        # The 12-vertex wheel W12 has a K_4 and a K_{2,3} minor.  The K_4
        # search, which suppresses degree-2 vertices, finds its minor in
        # about a millisecond; the K_{2,3} search, which may not, takes
        # about 0.2 s.
        rim = [(i, i % 11 + 1) for i in range(1, 12)]
        wheel = graph_from_edges(12, rim + [(0, i) for i in range(1, 12)])
        with time_budget(0.25):
            assert not outerplanar_oracle(wheel)


def reference_has_complete_bipartite(rows, a, b):
    return any(reduce(and_, combo).bit_count() >= b for combo in itertools.combinations(rows.values(), a))


def simplified(g, deg2_ok):
    rows = dict(enumerate(g.rows))
    _simplify(rows, deg2_ok, (1 << g.n) - 1)
    return rows


class TestMinorSearchPieces:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=11), st.randoms(use_true_random=False))
    def test_complete_bipartite_against_combinations(self, n, rnd):
        # Rows as a contraction leaves them: some blocks gone, rows over the
        # remaining names.
        g = random_graph(n, rnd)
        keep = [v for v in range(n) if rnd.random() < 0.8]
        mask = sum(1 << v for v in keep)
        rows = {v: g.rows[v] & mask for v in keep}
        for a, b in ((2, 3), (3, 3)):
            assert _has_complete_bipartite(rows, a, b) == reference_has_complete_bipartite(rows, a, b), (a, b, rows)

    def test_complete_bipartite_at_exactly_b_common_neighbours(self):
        k33 = dict(enumerate(complete_bipartite_graph(3, 3).rows))
        assert _has_complete_bipartite(k33, 3, 3)
        assert _has_complete_bipartite(dict(enumerate(complete_bipartite_graph(2, 3).rows)), 2, 3)
        k32 = {v: r & ~(1 << 5) for v, r in k33.items() if v != 5}
        assert not _has_complete_bipartite(k32, 3, 3)
        assert _has_complete_bipartite(k32, 2, 3)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
    def test_worklist_reaches_the_fixpoint(self, n, rnd):
        # After any contraction, simplifying only the blocks _contract names
        # leaves nothing a full rescan would still delete or contract.
        g = random_graph(n, rnd)
        for deg2_ok in (True, False):
            rows = simplified(g, deg2_ok)
            for u, r in rows.items():
                for v in (w for w in rows if w > u and (r >> w) & 1):
                    after = dict(rows)
                    _simplify(after, deg2_ok, _contract(after, u, v))
                    rescanned = dict(after)
                    _simplify(rescanned, deg2_ok, sum(1 << w for w in rescanned))
                    assert after == rescanned, (deg2_ok, u, v, sorted(g.edges()))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=3, max_value=8), st.randoms(use_true_random=False))
    def test_k23_after_a_common_neighbour_drops_to_degree_two(self, n, rnd):
        # A new vertex joined to both ends of an edge uv and to one more
        # vertex x drops to degree 2 next to the merged block when uv is
        # contracted: the case the K_{2,3} worklist must revisit.
        g = random_graph(n, rnd)
        u, v = rnd.choice(sorted(g.edges()) or [(0, 1)])
        x = rnd.choice([y for y in range(n) if y not in (u, v)])
        h = graph_from_edges(n + 1, [*g.edges(), (u, v), (u, n), (v, n), (x, n)])
        assert has_minor(h, "K23") == reference_has_minor(h, "K23"), sorted(h.edges())


def certified(g, certify, check):
    """The recognizer's verdict, when its certificate passes the checker."""
    cert = certify(g)
    return cert is not None and check(g, cert)


class TestMinorSearchAgainstNetworkx:
    # Each verdict of the two oracles is also held to networkx's, and the
    # recognizers' certificates pass the checker exactly when the oracle
    # says yes: the ground truth for the checker that selftest trusts with
    # every yes.
    def test_criterion_9_graphs(self, criterion_9_graphs):
        for g in criterion_9_graphs:
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            planar = kuratowski_oracle(g)
            assert planar == nx.check_planarity(h)[0], sorted(g.edges())
            assert certified(g, planar_certificate, check_planar) == planar, sorted(g.edges())
            h.add_edges_from((g.n, v) for v in range(g.n))
            outerplanar = outerplanar_oracle(g)
            assert outerplanar == nx.check_planarity(h)[0], sorted(g.edges())
            assert certified(g, outerplanar_certificate, check_outerplanar) == outerplanar, sorted(g.edges())

    def test_every_atlas_graph_up_to_seven_vertices(self):
        # The atlas (Read and Wilson) lists each of the 1,253 graphs on 0 to
        # 7 vertices once up to isomorphism, 1,044 of them on 7.  A graph is
        # outerplanar iff it stays planar with one more vertex joined to
        # every vertex.  The recognizers are held to the same verdicts, and
        # their certificates pass exactly on the yes verdicts.
        atlas = nx.graph_atlas_g()
        assert len(atlas) == 1253
        counts = defaultdict(Counter)
        for h in atlas:
            n = h.number_of_nodes()
            g = graph_from_edges(n, h.edges())
            is_planar = kuratowski_oracle(g)
            assert is_planar == nx.check_planarity(h)[0], sorted(g.edges())
            apex = h.copy()
            apex.add_edges_from((n, v) for v in range(n))
            is_outerplanar = outerplanar_oracle(g)
            assert is_outerplanar == nx.check_planarity(apex)[0], sorted(g.edges())
            assert recognizers.is_planar(g) == is_planar, sorted(g.edges())
            assert recognizers.is_outerplanar(g) == is_outerplanar, sorted(g.edges())
            assert certified(g, planar_certificate, check_planar) == is_planar, sorted(g.edges())
            assert certified(g, outerplanar_certificate, check_outerplanar) == is_outerplanar, sorted(g.edges())
            # Threshold is split and cograph: the conjunction, the peel and
            # the forbidden 2K2, C4 and P4 agree.
            is_threshold = recognizers.is_threshold(g)
            assert is_threshold == reference_is_threshold(g) == (threshold_oracle(g) is None), sorted(g.edges())
            counts[n].update(graphs=1, planar=is_planar, outerplanar=is_outerplanar, threshold=is_threshold)
        # There are 2^(n-1) threshold graphs on n >= 1 vertices up to
        # isomorphism, one per sequence of isolated and dominating additions.
        assert counts[7] == Counter(graphs=1044, planar=822, outerplanar=277, threshold=64)
        assert sum(counts.values(), Counter()) == Counter(graphs=1253, planar=1016, outerplanar=400, threshold=128)


class TestMinorSearchInvariance:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=5, max_value=9), st.randoms(use_true_random=False))
    def test_every_target_ignores_labels(self, n, rnd):
        # random_graph draws an edge density per graph, so dense graphs with
        # every minor come up as well as sparse ones with none.
        g = random_graph(n, rnd)
        perm = list(range(n))
        rnd.shuffle(perm)
        h = relabel(g, perm)
        for target in ("K5", "K33", "K4", "K23"):
            assert has_minor(h, target) == has_minor(g, target), target

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=9), st.randoms(use_true_random=False))
    def test_subdividing_an_edge(self, n, rnd):
        # Planarity is kept.  Outerplanarity can be lost (subdividing the
        # chord of K4 minus an edge gives K_{2,3}) but never gained, since g
        # is a minor of its subdivision.
        g = random_graph(n, rnd)
        assume(g.edge_count())
        i, j = rnd.choice(sorted(g.edges()))
        h = graph_from_edges(g.n + 1, [e for e in g.edges() if e != (i, j)] + [(i, g.n), (g.n, j)])
        assert kuratowski_oracle(h) == kuratowski_oracle(g)
        assert outerplanar_oracle(h) <= outerplanar_oracle(g)


class TestIsomorphicSmall:
    def test_c4_vs_2k2(self):
        assert not isomorphic_small(cycle_graph(4), two_k2())

    def test_relabelled_p4(self):
        g = graph_from_edges(4, [(2, 0), (0, 3), (3, 1)])
        assert isomorphic_small(g, path_graph(4))

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idemgraph.graphs import (
    build_idempotent_graph,
    cycle_graph,
    graph_from_edges,
    path_graph,
    set_bits,
    two_k2,
)
from idemgraph import recognizers
from idemgraph.certificates import check_outerplanar, check_planar
from idemgraph.oracles import (
    cograph_oracle,
    kuratowski_oracle,
    outerplanar_oracle,
    split_oracle,
    threshold_oracle,
)
from idemgraph.recognizers import (
    is_cactus,
    is_cograph,
    is_outerplanar,
    is_planar,
    is_split,
    is_threshold,
    is_unicyclic,
)
from idemgraph.rings import build_ring
from idemgraph.selftest import all_graphs
from idemgraph.sweep import SweepConfig, enumerate_sweep_specs
from idemgraph.theorems import PROPERTIES

from helpers import (
    CountedRows,
    complete_bipartite_graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    graphs,
    random_graphs,
    reference_is_threshold,
    relabel,
    time_budget,
)

# The rings of the classify-large benchmark workload, 256 to 4,096 elements.
LARGE_RINGS = (" * ".join(["Z4"] * 6), "GF(64) * GF(64)", " * ".join(["Z2"] * 8), "GF(16) * GF(16) * GF(16)")


def ring_graph(spec):
    return build_idempotent_graph(build_ring(spec))


class TestPlanar:
    def test_k5_not_planar(self):
        assert not is_planar(complete_graph(5))

    def test_paper_example_ring_not_planar(self):
        assert not is_planar(ring_graph("Z3[x]/(x^2) * Z2"))

    def test_z4xz2_planar(self):
        assert is_planar(ring_graph("Z4 * Z2"))


class TestOuterplanar:
    def test_cycle_outerplanar(self):
        # every vertex of a cycle has degree 2, so the degree bound passes it
        assert is_outerplanar(cycle_graph(6))

    def test_cube_has_no_vertex_of_degree_two(self):
        # Q3 is planar and within the 2n - 3 edge bound, but 3-regular, and
        # an outerplanar graph always has a vertex of degree at most 2
        cube = graph_from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
        assert cube.edge_count() == 12 <= 2 * cube.n - 3
        assert all(cube.degrees[v] == 3 for v in range(8))
        assert is_planar(cube)
        assert not is_outerplanar(cube)
        assert not outerplanar_oracle(cube)

    def test_k4_not_outerplanar(self):
        assert not is_outerplanar(complete_graph(4))

    def test_z6_not_outerplanar(self):
        assert not is_outerplanar(ring_graph("Z6"))


class TestSplit:
    def test_complete_graphs_split(self):
        assert is_split(complete_graph(4))

    def test_forbidden_patterns(self):
        assert not is_split(two_k2())
        assert not is_split(cycle_graph(4))
        assert not is_split(cycle_graph(5))

    def test_z2_cubed_is_split(self):
        g = ring_graph("Z2 * Z2 * Z2")
        assert g.edge_count() == 8 * 7 // 2
        assert is_split(g)


class TestThreshold:
    def test_complete_graphs_threshold(self):
        assert is_threshold(complete_graph(6))

    def test_p4_not_threshold(self):
        # P4 is split but not a cograph.
        g = path_graph(4)
        assert is_split(g) and not is_cograph(g)
        assert not is_threshold(g)

    def test_c4_and_2k2_not_threshold(self):
        # Both are cographs but not split.
        for g in (cycle_graph(4), two_k2()):
            assert is_cograph(g) and not is_split(g)
            assert not is_threshold(g)

    def test_z6_not_threshold(self):
        assert not is_threshold(ring_graph("Z6"))


class TestCograph:
    def test_complete_bipartite_cograph(self):
        assert is_cograph(complete_bipartite_graph(3, 3))

    def test_p4_not_cograph(self):
        assert not is_cograph(path_graph(4))

    def test_z3xz2_cograph(self):
        assert is_cograph(ring_graph("Z3 * Z2"))


class TestCactusUnicyclic:
    def test_c5(self):
        assert is_cactus(cycle_graph(5))
        assert is_unicyclic(cycle_graph(5))

    def test_k4(self):
        assert not is_cactus(complete_graph(4))
        assert not is_unicyclic(complete_graph(4))

    def test_z2xz4(self):
        g = ring_graph("Z2 * Z4")
        assert not is_cactus(g)
        assert not is_unicyclic(g)

    def test_disconnected_inputs_rejected_by_definition(self):
        g = two_k2()
        assert not is_cactus(g)
        assert not is_unicyclic(g)

    def test_two_triangles_sharing_a_vertex_is_cactus_not_unicyclic(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
        assert is_cactus(g)
        assert not is_unicyclic(g)

    def test_tree_is_cactus_not_unicyclic(self):
        g = path_graph(5)
        assert is_cactus(g)
        assert not is_unicyclic(g)

    def test_a_connected_graph_with_at_most_n_edges_needs_no_block_search(self, monkeypatch):
        # a tree and a cycle with paths hanging off it: at most one cycle
        searched = record_block_searches(monkeypatch)
        assert is_cactus(path_graph(6))
        assert is_cactus(graph_from_edges(7, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (0, 5), (5, 6)]))
        assert searched == []
        assert is_cactus(graph_from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]))
        assert len(searched) == 1

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_windmill_sits_on_the_edge_bound(self, k):
        # k triangles through vertex 0: n = 2k + 1 and m = 3k = 3(n - 1)/2,
        # the most edges a cactus can have; one chord more and it is not one
        blades = [(0, 2 * i + 1) for i in range(k)] + [(0, 2 * i + 2) for i in range(k)]
        tips = [(2 * i + 1, 2 * i + 2) for i in range(k)]
        windmill = graph_from_edges(2 * k + 1, blades + tips)
        assert 2 * windmill.edge_count() == 3 * (windmill.n - 1)
        assert is_cactus(windmill)
        assert not is_cactus(graph_from_edges(2 * k + 1, blades + tips + [(1, 3)]))


class TestOuterplanarEdgeBound:
    def test_fan_sits_on_the_edge_bound(self):
        # the fan is maximal outerplanar: m = 2n - 3; one chord more breaks it
        fan_edges = [(i, i + 1) for i in range(5)] + [(0, i) for i in range(2, 6)]
        fan = graph_from_edges(6, fan_edges)
        assert fan.edge_count() == 2 * fan.n - 3
        assert is_outerplanar(fan)
        assert not is_outerplanar(graph_from_edges(6, fan_edges + [(1, 3)]))


class TestAgainstOraclesExhaustive:
    # full n <= 6 exhaustive agreement is the acceptance suite's job;
    # here every graph on up to 5 vertices keeps the unit tests quick
    def test_all_graphs_up_to_five_vertices(self):
        for n in range(6):
            for g in all_graphs(n):
                assert is_planar(g) == kuratowski_oracle(g)
                assert is_outerplanar(g) == outerplanar_oracle(g)
                assert is_split(g) == (split_oracle(g) is None)
                assert is_threshold(g) == (threshold_oracle(g) is None)
                assert is_cograph(g) == (cograph_oracle(g) is None)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_random_graphs_agree_with_oracles(g):
    assert is_planar(g) == kuratowski_oracle(g)
    assert is_outerplanar(g) == outerplanar_oracle(g)
    assert is_split(g) == (split_oracle(g) is None)
    assert is_threshold(g) == (threshold_oracle(g) is None)
    assert is_cograph(g) == (cograph_oracle(g) is None)


@st.composite
def near_threshold_graphs(draw, max_n=40):
    """A threshold graph (each new vertex isolated or dominating), vertices
    shuffled, then up to two vertex pairs toggled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    edges = {(u, v) for v in range(n) if rnd.random() < 0.5 for u in range(v)}
    for _ in range(draw(st.integers(0, 2)) if n >= 2 else 0):
        edges ^= {tuple(sorted(rnd.sample(range(n), 2)))}
    perm = list(range(n))
    rnd.shuffle(perm)
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


class TestThresholdAgainstThePeel:
    """Split and cograph against the vertex-by-vertex peel of
    `tests/helpers.py`, beyond the 12 vertices the oracles reach."""

    @settings(max_examples=300, deadline=None)
    @given(near_threshold_graphs())
    def test_near_threshold_graphs(self, g):
        assert is_threshold(g) == reference_is_threshold(g), sorted(g.edges())

    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=40))
    def test_random_graphs(self, g):
        assert is_threshold(g) == reference_is_threshold(g), sorted(g.edges())

    def test_every_default_sweep_ring(self):
        for spec in enumerate_sweep_specs(SweepConfig()):
            g = ring_graph(spec)
            assert is_threshold(g) == reference_is_threshold(g), spec


def networkx_verdicts(g):
    """(planar, outerplanar) by networkx's left-right planarity test, the
    second on the graph plus an apex vertex joined to every vertex."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n + 1))
    h.add_edges_from(g.edges())
    planar = nx.check_planarity(h)[0]
    h.add_edges_from((g.n, v) for v in range(g.n))
    return planar, nx.check_planarity(h)[0]


@st.composite
def near_triangulations(draw, max_n=40):
    """A stacked triangulation (a triangle, then each new vertex joined to
    the corners of a face it splits), with a few edges deleted and up to two
    non-edges added, vertices shuffled.  It has 3n - 6 edges before the
    changes, so after them the edge counts rarely decide planarity."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    edges = {(0, 1), (0, 2), (1, 2)}
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rnd.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    edges = set(rnd.sample(sorted(edges), len(edges) - draw(st.integers(0, min(4, len(edges))))))
    non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges |= set(rnd.sample(non_edges, min(len(non_edges), draw(st.integers(0, 2)))))
    perm = list(range(n))
    rnd.shuffle(perm)
    return graph_from_edges(n, [(perm[i], perm[j]) for i, j in edges])


@st.composite
def sparse_graphs(draw, max_n=40):
    """Random graphs around the planarity threshold: mean degree 2 to 6."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    p = draw(st.integers(2, 6)) / max(n - 1, 1)
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p])


def certified_verdicts(g):
    """(planar, outerplanar) by the certifying recognizers, with each yes
    certificate checked."""
    planar, outer = recognizers.planar_certificate(g), recognizers.outerplanar_certificate(g)
    assert planar is None or check_planar(g, planar), sorted(g.edges())
    assert outer is None or check_outerplanar(g, outer), sorted(g.edges())
    return planar is not None, outer is not None


class TestPlanarityAgainstNetworkx:
    # The random graphs reach 40 vertices, so their yes certificates check
    # the faces path addition finds on blocks larger than the selftest's.
    @settings(max_examples=300, deadline=None)
    @given(near_triangulations())
    def test_near_triangulations(self, g):
        assert certified_verdicts(g) == networkx_verdicts(g), sorted(g.edges())

    @settings(max_examples=300, deadline=None)
    @given(sparse_graphs())
    def test_sparse_graphs(self, g):
        assert certified_verdicts(g) == networkx_verdicts(g), sorted(g.edges())

    def test_triangulation_plus_an_edge_inside_a_larger_sparse_graph(self):
        # Octahedron (6 vertices, 12 = 3n - 6 edges) plus the diagonal 0-3:
        # 13 edges, non-planar.  A path of 10 more vertices keeps the whole
        # graph within 3n - 6, so the block, not the graph, must decide it.
        octahedron = [(i, j) for i in range(6) for j in range(i + 1, 6) if j - i != 3]
        g = graph_from_edges(16, octahedron + [(0, 3)] + [(v, v + 1) for v in range(5, 15)])
        assert g.edge_count() <= 3 * g.n - 6
        assert not is_planar(g)
        assert is_planar(graph_from_edges(16, octahedron + [(v, v + 1) for v in range(5, 15)]))

    def test_every_default_sweep_ring(self):
        for spec in enumerate_sweep_specs(SweepConfig()):
            g = ring_graph(spec)
            assert (is_planar(g), is_outerplanar(g)) == networkx_verdicts(g), spec

    @pytest.mark.parametrize("spec", LARGE_RINGS)
    def test_large_rings(self, spec):
        g = ring_graph(spec)
        assert (is_planar(g), is_outerplanar(g)) == networkx_verdicts(g), spec

    def test_gf64_squared_is_quick(self):
        # 1,024 separate K4 components on 4,096 vertices
        g = ring_graph("GF(64) * GF(64)")
        with time_budget(1.0):
            assert is_planar(g)
            assert not is_outerplanar(g)

    def test_blocks_of_four_thousand_vertices_are_quick(self):
        # Z2 x Z2048 is one planar block on 4,096 vertices, and Z4096 is a
        # path, whose apex graph is one block on 4,097.  Path addition that
        # rescans every fragment at every step took 20 s and more on these.
        product, path = ring_graph("Z2 * Z2048"), ring_graph("Z4096")
        with time_budget(3.0):
            assert is_planar(product)
            assert is_outerplanar(path)

    @pytest.mark.parametrize("outerplanar", [False, True])
    def test_one_block_decides_where_no_whole_graph_count_does(self, outerplanar):
        # A 20-cycle, a path 0-20-21-22 off it, and at the path's end a K2,3
        # (parts {22, 23} and {24, 25, 26}), or a 5-cycle with one chord, which
        # also has 5 vertices and 6 edges.  The whole graph passes the counts
        # and has vertices of degree 2, so only that block can decide it, and
        # the block plus an apex, 6 vertices and 11 edges, goes to path addition.
        cycle = [(i, (i + 1) % 20) for i in range(20)]
        path = [(0, 20), (20, 21), (21, 22)]
        if outerplanar:
            block = [(22, 23), (23, 24), (24, 25), (25, 26), (26, 22), (22, 24)]
        else:
            block = [(a, b) for a in (22, 23) for b in (24, 25, 26)]
        g = graph_from_edges(27, cycle + path + block)
        assert recognizers._planar_by_counts(g.n + 1, g.edge_count() + g.n) is None
        assert min(g.degrees) == 2
        assert recognizers._planar_by_counts(6, 11) is None
        assert is_outerplanar(g) == outerplanar
        assert (is_planar(g), is_outerplanar(g)) == networkx_verdicts(g)


def record_block_searches(monkeypatch):
    """The component masks each `_blocks` call is given, in call order."""
    calls, real = [], recognizers._blocks
    monkeypatch.setattr(recognizers, "_blocks", lambda g, comps: calls.append(list(comps)) or real(g, comps))
    return calls


def record_embeddings(monkeypatch):
    """What each `_planar_block` call returns, faces or None, in call order."""
    results, real = [], recognizers._planar_block
    monkeypatch.setattr(
        recognizers, "_planar_block", lambda rows, verts: results.append(real(rows, verts)) or results[-1]
    )
    return results


class TestCountsPerComponent:
    # 1,024 separate K4s, the shape of G_Id(GF(64) x GF(64)); 6,144 edges on
    # 4,096 vertices leave the whole graph's planar counts open
    K4S = [complete_graph(4)] * 1024

    def test_disjoint_k4s_are_planar_and_a_cograph_without_a_block_search(self, monkeypatch):
        g = disjoint_union(self.K4S)
        assert recognizers._planar_by_counts(g.n, g.edge_count()) is None
        searched = record_block_searches(monkeypatch)
        embedded = record_embeddings(monkeypatch)
        assert is_planar(g)
        assert is_cograph(g)
        assert searched == [[]]
        assert embedded == []
        assert recognizers.planar_certificate(g) == [(comp, None) for comp, _, _ in g.components()]

    def test_the_cyclomatic_rule_decides_components_and_blocks_not_the_whole_graph(self, monkeypatch):
        # K3,3 and an isolated vertex: 9 = n + 2 edges on 7 vertices, but the
        # component has 9 > k + 2 edges on its 6, so path addition decides
        # it.  K2,3 and an isolated vertex likewise: 6 = n edges, 6 > k on 5.
        k33 = disjoint_union([complete_bipartite_graph(3, 3), empty_graph(1)])
        k23 = disjoint_union([complete_bipartite_graph(2, 3), empty_graph(1)])
        assert (k33.n, k33.edge_count(), k23.n, k23.edge_count()) == (7, 9, 6, 6)
        embedded = record_embeddings(monkeypatch)
        assert not is_planar(k33) and not kuratowski_oracle(k33)
        assert not is_outerplanar(k23) and not outerplanar_oracle(k23)
        assert is_planar(k23)
        assert embedded == [None, None]
        # A path and a cycle of 4,096 vertices are one component each, which
        # the rule decides, so the block search is given no component.
        searched = record_block_searches(monkeypatch)
        cycle = graph_from_edges(4096, [(v, (v + 1) % 4096) for v in range(4096)])
        for g in (path_graph(4096), cycle):
            whole = [((1 << 4096) - 1, None)]
            assert recognizers.planar_certificate(g) == recognizers.outerplanar_certificate(g) == whole
        assert searched == [[]] * 4

    def test_one_k5_component_is_rejected_by_its_counts(self, monkeypatch):
        g = disjoint_union(self.K4S + [complete_graph(5)])
        assert recognizers._planar_by_counts(g.n, g.edge_count()) is None
        searched = record_block_searches(monkeypatch)
        embedded = record_embeddings(monkeypatch)
        assert not is_planar(g)
        assert searched == []
        assert embedded == []

    def test_one_subdivided_k33_component_is_decided_by_its_blocks(self, monkeypatch):
        # K3,3 with the edge 0-3 replaced by the path 0-6-3: 7 vertices and
        # 10 edges, which the counts leave open
        k33 = [(a, b) for a in range(3) for b in range(3, 6) if (a, b) != (0, 3)] + [(0, 6), (6, 3)]
        g = disjoint_union(self.K4S + [graph_from_edges(7, k33)])
        searched = record_block_searches(monkeypatch)
        embedded = record_embeddings(monkeypatch)
        assert not is_planar(g)
        assert searched == [[0b1111111 << 4096]]
        assert embedded == [None]

    def test_k8_components_and_one_p4_are_not_a_cograph(self):
        k8s = [complete_graph(8)] * 512
        assert is_cograph(disjoint_union(k8s))
        assert not is_cograph(disjoint_union(k8s + [path_graph(4)]))
        assert not is_cograph(disjoint_union([path_graph(4)] + k8s))

    def test_the_cograph_walk_on_z4_6_stops_when_every_vertex_is_reached(self):
        # Z4^6's graph is one component of 4,096 vertices whose complement
        # is connected; the search stops after two rows, where a walk of
        # every vertex reads 4,096
        g = ring_graph("Z4*Z4*Z4*Z4*Z4*Z4")
        assert len(g.components()) == 1
        g.rows = CountedRows(g.rows)
        assert not is_cograph(g)
        assert 0 < g.rows.reads <= 16
        assert g.rows.passes == 0

    def test_the_cograph_walk_starts_from_each_component_that_is_not_complete(self, monkeypatch):
        # K5 minus an edge is a cograph (two non-adjacent vertices joined to
        # a triangle); it is the one component here that is not complete
        near = graph_from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5) if (i, j) != (0, 1)])
        g = disjoint_union([complete_graph(5), near, complete_graph(3), empty_graph(1)])
        walked, real = [], recognizers.masked_components
        monkeypatch.setattr(
            recognizers, "masked_components", lambda rows, mask, weights=None, flip=0: walked.append(mask) or real(rows, mask, weights, flip)
        )
        assert is_cograph(g)
        assert walked[0] == 0b11111 << 5
        assert all(mask >> 5 <= 0b11111 and mask & 0b11111 == 0 for mask in walked)
        walked.clear()
        assert is_cograph(disjoint_union([complete_graph(5), complete_graph(3), empty_graph(1)]))
        assert walked == []


@settings(max_examples=150, deadline=None)
@given(st.lists(random_graphs(max_n=8), min_size=1, max_size=4), st.randoms(use_true_random=False))
def test_disjoint_unions_are_decided_as_their_parts(parts, rnd):
    g = disjoint_union(parts)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    g = relabel(g, perm)
    planar, outerplanar = networkx_verdicts(g)
    assert is_planar(g) == all(map(is_planar, parts)) == planar
    assert is_outerplanar(g) == all(map(is_outerplanar, parts)) == outerplanar
    assert is_cograph(g) == all(map(is_cograph, parts)) == (cograph_oracle(g) is None)


@st.composite
def pieced_graphs(draw, max_n=40):
    """Pieces of up to 8 consecutive vertices, each with its own edge
    probability, most joined to the next piece by one edge, vertices
    shuffled: isolated vertices, bridges, cut vertices and several
    components all show up."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    edges, start = set(), 0
    while start < n:
        end = min(n, start + rnd.randint(1, 8))
        p = rnd.random()
        edges |= {(i, j) for i in range(start, end) for j in range(i + 1, end) if rnd.random() < p}
        if end < n and rnd.random() < 0.6:
            edges.add((rnd.randrange(start, end), end))
        start = end
    perm = list(range(n))
    rnd.shuffle(perm)
    return graph_from_edges(n, [(perm[i], perm[j]) for i, j in edges])


def networkx_blocks(g):
    """(vertices, edge count) of each biconnected component, by networkx."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return sorted((sorted(c), h.subgraph(c).number_of_edges()) for c in nx.biconnected_components(h))


def blocks(g):
    comps = [c for c, _, _ in g.components()]
    return sorted((set_bits(verts), m) for verts, m in recognizers._blocks(g, comps))


class TestBlocksAgainstNetworkx:
    @settings(max_examples=300, deadline=None)
    @given(pieced_graphs())
    def test_pieced_graphs(self, g):
        assert blocks(g) == networkx_blocks(g), sorted(g.edges())

    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs())
    def test_sparse_graphs(self, g):
        assert blocks(g) == networkx_blocks(g), sorted(g.edges())

    def test_every_default_sweep_ring(self):
        for spec in enumerate_sweep_specs(SweepConfig()):
            g = ring_graph(spec)
            assert blocks(g) == networkx_blocks(g), spec


def cactus_oracle(g):
    """Connected, and no biconnected block has more edges than vertices."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return (
        g.n > 0
        and nx.is_connected(h)
        and all(len(b) <= len({v for e in b for v in e}) for b in nx.biconnected_component_edges(h))
    )


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=8))
def test_cactus_agrees_with_block_oracle(g):
    assert is_cactus(g) == cactus_oracle(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_threshold_implies_split_and_cograph(g):
    if is_threshold(g):
        assert is_split(g)
        assert is_cograph(g)


@settings(max_examples=150, deadline=None)
@given(graphs(max_n=8))
def test_outerplanar_implies_planar(g):
    if is_outerplanar(g):
        assert is_planar(g)


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_relabeling_invariance(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = relabel(g, perm)
    for rec in (is_planar, is_outerplanar, is_split, is_threshold, is_cograph, is_cactus, is_unicyclic):
        assert rec(g) == rec(h), rec.__name__


RECOGNIZERS = [getattr(recognizers, name) for name in dir(recognizers) if name.startswith("is_")]


def test_verdicts_are_exactly_bool():
    # a verdict that is 1 or 0, or a truthy wrapper, would reach the JSON
    # report as 1/0 or fail to serialize, not as true/false
    rings = [ring_graph(spec) for spec in ("Z6", "Z9", "GF(4)", "Z2 * Z2", "Z3[x]/(x^2) * Z2")]
    for g in [g for n in range(5) for g in all_graphs(n)] + rings:
        for recognize in RECOGNIZERS + [p.recognize for p in PROPERTIES]:
            assert type(recognize(g)) is bool, (recognize, g, sorted(g.edges()))

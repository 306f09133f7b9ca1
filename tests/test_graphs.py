import random
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from idemgraph import graphs as graphs_module
from idemgraph.graphs import (
    Graph,
    ProductRows,
    _product_rows,
    _symmetric_graph,
    build_idempotent_graph,
    component_census,
    cycle_graph,
    export_dot,
    graph_from_edges,
    graph_key,
    is_path_graph,
    masked_components,
    set_bits,
)
from idemgraph.rings import build_ring, parse_ring_spec
from idemgraph.sweep import SweepConfig, enumerate_sweep_specs

from helpers import (
    complete_bipartite_graph,
    complete_graph,
    components,
    empty_graph,
    graphs,
    has_edge,
    random_graphs,
    reference_graph_check,
    reference_is_path,
)


CLASSIFY_LARGE = ["Z4*Z4*Z4*Z4*Z4*Z4", "GF(64)*GF(64)", "Z2*Z2*Z2*Z2*Z2*Z2*Z2*Z2", "GF(16)*GF(16)*GF(16)"]


def census_set(g):
    return sorted(component_census(g))


def is_dense(g):
    """Whether g has more than about b edges per vertex, b the bit length of n."""
    return sum(g.degrees) > 2 * g.n * g.n.bit_length()


def complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, [full ^ r ^ (1 << i) for i, r in enumerate(g.rows)])


dense_graphs = random_graphs(max_n=40).map(complement).filter(is_dense)


class TestGraphType:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            graph_from_edges(2, [(0, 0)])

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, [0b10, 0b00])

    def test_rejects_a_bit_only_below_the_diagonal(self):
        with pytest.raises(ValueError):
            Graph(2, [0b00, 0b01])

    @pytest.mark.parametrize("n, rows", [(3, [0, 0]), (2, [0, 0, 0]), (1, [])])
    def test_rejects_a_row_count_other_than_n(self, n, rows):
        with pytest.raises(ValueError, match="rows for"):
            Graph(n, rows)

    @pytest.mark.parametrize("edge", [(0, 5), (0, -1), (3, 1), (-2, 0)])
    def test_rejects_an_endpoint_outside_the_vertices(self, edge):
        with pytest.raises(ValueError, match="outside"):
            graph_from_edges(3, [edge])

    @settings(max_examples=250, deadline=None)
    @given(st.one_of(graphs(max_n=8), dense_graphs), st.data())
    def test_rejects_any_one_directed_bit_cleared(self, g, data):
        assume(g.edge_count())
        i, j = data.draw(st.sampled_from(sorted(g.edges())))
        if data.draw(st.booleans()):
            i, j = j, i
        rows = list(g.rows)
        rows[i] &= ~(1 << j)
        with pytest.raises(ValueError) as raised:
            Graph(g.n, rows)
        expected = "below the diagonal" if i < j else f"at ({j}, {i})"
        assert str(raised.value) == f"asymmetric adjacency {expected}"

    @pytest.mark.parametrize("n", [2, 9, 512, 513])
    def test_names_a_loop_at_the_first_and_the_last_vertex(self, n):
        for v in (0, n - 1):
            rows = list(complete_graph(n).rows)
            rows[v] |= 1 << v
            with pytest.raises(ValueError) as raised:
                Graph(n, rows)
            assert str(raised.value) == f"loop at vertex {v}"

    def test_degree_sum_is_twice_edges(self):
        g = complete_bipartite_graph(2, 3)
        assert sum(g.degrees) == 2 * g.edge_count()


class TestValidationRoute:
    """Public `Graph(n, rows)` walks the bits above the diagonal;
    `graph_from_edges`, whose rows are symmetric by construction, goes
    through `_symmetric_graph`, which makes every check but the walk.  A
    built idempotent graph goes through neither: its facts come from the
    factors, and its rows are checked as they are made."""

    @pytest.fixture
    def routes(self, monkeypatch):
        seen = {"walked": [], "trusted": []}
        walk, trust = Graph.__init__, graphs_module._symmetric_graph

        def walked(g, n, rows):
            seen["walked"].append(n)
            walk(g, n, rows)

        def trusted(n, rows):
            seen["trusted"].append(n)
            return trust(n, rows)

        monkeypatch.setattr(Graph, "__init__", walked)
        monkeypatch.setattr(graphs_module, "_symmetric_graph", trusted)
        return seen

    def test_public_graphs_are_walked(self, routes):
        g = complete_graph(16)
        assert routes == {"walked": [16], "trusted": []}
        assert g.edge_count() == 16 * 15 // 2

    def test_graphs_from_edges_are_not_walked(self, routes):
        g = cycle_graph(9)
        assert routes == {"walked": [], "trusted": [9]}
        assert (g.degrees, g.edge_count()) == ((2,) * 9, 9)

    @pytest.mark.parametrize("spec", CLASSIFY_LARGE)
    def test_large_built_graphs_are_not_walked(self, routes, spec):
        g = build_idempotent_graph(build_ring(spec))
        assert routes == {"walked": [], "trusted": []}
        assert isinstance(g.rows, ProductRows)
        assert g.edge_count() == Graph(g.n, tuple(g.rows)).edge_count()

    def test_every_default_sweep_graph_is_not_walked(self, routes):
        built = [build_idempotent_graph(build_ring(spec)) for spec in enumerate_sweep_specs(SweepConfig())]
        assert len(built) == 403
        assert routes == {"walked": [], "trusted": []}
        assert all(isinstance(g.rows, ProductRows) for g in built)


@pytest.mark.parametrize("n", [*range(71), 257])
def test_each_route_matches_a_pair_scan_at_every_size(n):
    # every size up to 70 crosses the int digit and word boundaries; the
    # walk finds an unmirrored bit, and _symmetric_graph, which trusts its
    # rows, makes every other check with the same text
    rnd = random.Random(n)
    for density in (0, 1, 4, 7, 8):
        rows = random_symmetric_rows(n, rnd, density)
        for fault in (None, "beyond", "negative", "loop", "upper", "lower", "count"):
            bad = inject(rows, fault, rnd)
            if bad is None:
                continue
            expected = outcome(reference_graph_check, n, bad)
            assert outcome(graph_facts, n, bad) == expected, fault
            trusted = outcome(symmetric_graph_facts, n, bad)
            if fault in ("upper", "lower"):
                assert isinstance(expected, str)
                assert trusted == (tuple(map(int.bit_count, bad)), sum(map(int.bit_count, bad)) // 2)
            else:
                assert trusted == expected, fault


def random_symmetric_rows(n, rnd, density):
    """The rows of a random loopless graph on n vertices, each pair an edge
    with probability density / 8, for density in {0, 1, 4, 7, 8}; the bits
    above the diagonal are mirrored below through bit strings."""
    upper = []
    for i in range(n):
        a, b, c = (rnd.getrandbits(n) for _ in range(3))
        r = {0: 0, 1: a & b & c, 4: a, 7: a | b | c, 8: -1}[density]
        upper.append(r & ((1 << n) - 1) >> (i + 1) << (i + 1))
    strings = [format(u, f"0{n}b")[::-1] for u in upper]
    lower = [int("".join(column)[::-1], 2) for column in zip(*strings)]
    return [u | w for u, w in zip(upper, lower)]


def inject(rows, fault, rnd):
    """rows with one fault of the named kind, or None where n is too small
    for it: a bit at or beyond n, a negative row, a loop, a bit (i, j) above
    the diagonal or one below it without its mirror, or one row too many or
    too few."""
    n = len(rows)
    rows = list(rows)
    if fault is None:
        return rows
    if fault == "count":
        return rows + [0] if not n or rnd.random() < 0.5 else rows[:-1]
    if n < (2 if fault in ("upper", "lower") else 1):
        return None
    i = rnd.randrange(n)
    if fault == "beyond":
        rows[i] |= 1 << (n + rnd.randrange(3))
    elif fault == "negative":
        rows[i] = ~rows[i]
    elif fault == "loop":
        rows[i] |= 1 << i
    else:
        i, j = sorted(rnd.sample(range(n), 2))
        if fault == "lower":
            i, j = j, i
        rows[i] |= 1 << j
        rows[j] &= ~(1 << i)
    return rows


def outcome(check, n, rows):
    """What check(n, rows) gives: its value, or the text of its ValueError."""
    try:
        return check(n, rows)
    except ValueError as e:
        return str(e)


def graph_facts(n, rows):
    g = Graph(n, rows)
    return g.degrees, g.edge_count()


def symmetric_graph_facts(n, rows):
    g = _symmetric_graph(n, rows)
    return g.degrees, g.edge_count()


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 255, 256, 257, 511, 512, 513])
# no shrink phase: a fault in Graph() is reported in seconds, unshrunk
@settings(max_examples=4, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**32), density=st.sampled_from([0, 1, 4, 7, 8]))
def test_graph_checks_match_a_pair_scan(n, seed, density):
    # each fault in turn on one random graph
    rnd = random.Random(seed)
    rows = random_symmetric_rows(n, rnd, density)
    for fault in (None, "beyond", "negative", "loop", "upper", "lower", "count"):
        bad = inject(rows, fault, rnd)
        if bad is not None:
            assert outcome(graph_facts, n, bad) == outcome(reference_graph_check, n, bad), fault


def test_every_built_graph_passes_the_full_check():
    # the builder's graphs skip the symmetry walk, trusted by the Kronecker
    # argument, and take their degrees and edge count from the factors;
    # public Graph() walks the rows of one graph per graph_key group of the
    # default sweep and each large ring's, and the pair scan checks every
    # sweep graph (at most 256 vertices)
    specs = enumerate_sweep_specs(SweepConfig())
    groups = {graph_key(spec): spec for spec in specs}
    assert (len(specs), len(groups)) == (403, 222)
    for spec in [*groups.values(), *map(parse_ring_spec, CLASSIFY_LARGE)]:
        g = build_idempotent_graph(build_ring(spec))
        facts = g.degrees, g.edge_count()
        rows = tuple(g.rows)
        assert graph_facts(g.n, rows) == facts
        if g.n <= 256:
            assert reference_graph_check(g.n, rows) == facts


@pytest.mark.parametrize("n", [3, 300])
def test_a_negative_row_is_a_bit_beyond_the_vertex_count(n):
    rows = list(complete_graph(n).rows)
    rows[1] = -rows[1]
    with pytest.raises(ValueError) as raised:
        Graph(n, rows)
    assert str(raised.value) == "row 1 has bits beyond vertex count"


def assert_stored_invariants_match_rows(g):
    rows = tuple(g.rows)
    assert g.degrees == tuple(r.bit_count() for r in rows)
    assert len(g.degrees) == g.n
    assert g.edge_count() == sum(r.bit_count() for r in rows) // 2 == len(list(g.edges()))
    assert g.components() == tuple(masked_components(rows, (1 << g.n) - 1, g.degrees))
    assert [set_bits(c) for c, _, _ in g.components()] == components(g)
    for c, k, m in g.components():
        assert k == c.bit_count()
        # every edge with one end in a component has both ends there
        assert m == sum(1 for i, j in g.edges() if c >> i & 1) == sum(1 for i, j in g.edges() if c >> j & 1)


class TestStoredInvariants:
    @settings(max_examples=200, deadline=None)
    @given(random_graphs(max_n=40))
    def test_random_graphs(self, g):
        assert_stored_invariants_match_rows(g)

    def test_every_default_sweep_graph(self):
        for spec in enumerate_sweep_specs(SweepConfig()):
            assert_stored_invariants_match_rows(build_idempotent_graph(build_ring(spec)))

    def test_components_are_found_once(self):
        g = graph_from_edges(5, [(0, 1), (3, 4)])
        assert g.components() is g.components()
        assert g.components() == ((0b00011, 2, 1), (0b00100, 1, 0), (0b11000, 2, 1))

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(random_graphs(max_n=40), dense_graphs), st.data())
    def test_flipping_any_off_diagonal_bit_names_asymmetry(self, g, data):
        assume(g.n >= 2)
        i = data.draw(st.integers(0, g.n - 1))
        j = data.draw(st.integers(0, g.n - 2))
        assert_flip_names_asymmetry(g, i, j + (j >= i))

    @pytest.mark.parametrize(
        "g",
        [
            complete_graph(7),
            empty_graph(7),
            build_idempotent_graph(build_ring("Z4 * Z2")),
            complete_graph(16),
            build_idempotent_graph(build_ring("Z2*Z2*Z2*Z2*Z2")),
        ],
        ids=["K7", "empty", "Z4xZ2", "K16", "Z2^5"],
    )
    def test_flipping_the_highest_upper_bit_of_any_row_names_asymmetry(self, g):
        # the walk over a row's upper bits starts at the highest, so both
        # the highest set bit and the highest position n - 1 are flipped
        for i in range(g.n - 1):
            upper = g.rows[i] >> (i + 1)
            for j in {i + upper.bit_length(), g.n - 1} - {i}:
                assert_flip_names_asymmetry(g, i, j)


def assert_flip_names_asymmetry(g, i, j):
    """Flip bit j of row i (i != j).  The one unmirrored pair is named when
    its bit above the diagonal is the one set; otherwise the count of the
    bits below catches it."""
    rows = list(g.rows)
    rows[i] ^= 1 << j
    upper, lower = min(i, j), max(i, j)
    if rows[upper] >> lower & 1:
        expected = f"asymmetric adjacency at ({upper}, {lower})"
    else:
        expected = "asymmetric adjacency below the diagonal"
    with pytest.raises(ValueError) as raised:
        Graph(g.n, rows)
    assert str(raised.value) == expected


class TestBuildIdempotentGraph:
    def test_z2xz2_is_k4(self):
        g = build_idempotent_graph(build_ring("Z2 * Z2"))
        assert g.n == 4 and g.edge_count() == 6

    def test_z4_is_the_path_0_1_3_2(self):
        g = build_idempotent_graph(build_ring("Z4"))
        assert sorted(g.edges()) == [(0, 1), (1, 3), (2, 3)]
        assert is_path_graph(g)

    def test_z3x_quotient_components(self):
        r = build_ring("Z3[x]/(x^2)")
        g = build_idempotent_graph(r)
        assert census_set(g) == [(3, "path"), (6, "even-cycle")]
        # the paper's 6-cycle: x ~ 2x ~ x+1 ~ 2x+2 ~ x+2 ~ 2x+1 ~ x
        idx = {r.label(e): i for i, e in enumerate(r.elements)}
        cyc = ["x", "2x", "x + 1", "2x + 2", "x + 2", "2x + 1"]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert has_edge(g, idx[a], idx[b]), (a, b)

    def test_no_loops_even_in_char_2(self):
        g = build_idempotent_graph(build_ring("Z2 * Z2"))
        assert all(not (g.rows[i] >> i) & 1 for i in range(g.n))

    @pytest.mark.parametrize(
        "flags, loop",
        [((True, True, True, False), 1), ((False, False, True, False), 0)],
        ids=["element-1-flagged", "element-0-unflagged"],
    )
    def test_a_wrong_doubling_flag_is_rejected_by_the_partition_check(self, flags, loop):
        # Z4: 2a is idempotent for a = 0 and 2 only, and the flag of element
        # `loop` is wrong.  The degrees take their loops from the offset
        # tables and the cosets from the doubling flags, so the cosets' loop
        # count, and with it their edge count, differs from the graph's
        r = build_ring("Z3 * Z4")
        factor = r.spec.factors[1]
        assert factor.doubles_idempotent == (True, False, True, False)
        assert (loop in factor.offsets[loop]) != flags[loop]
        factor.__dict__["doubles_idempotent"] = flags  # the cached_property's slot
        with pytest.raises(ValueError) as raised:
            build_idempotent_graph(r)
        assert str(raised.value) == "the factor graphs' components do not partition the graph"

    @pytest.mark.parametrize(
        "row, pair",
        [((0, 1, 2), (0, 2)), ((0, 1, 4), (0, 4)), ((0, 1, -3), (0, -3))],
        ids=["unmirrored", "beyond-the-factor", "negative"],
    )
    def test_a_corrupt_offset_table_is_rejected_by_its_factor_check(self, row, pair):
        # Z4's idempotents are 0 and 1, so element a's offsets are -a and
        # 1 - a; -3 would index row 1, which holds 0, so only the range
        # check catches it
        r = build_ring("Z3 * Z4")
        factor = r.spec.factors[1]
        assert factor.offsets == ((0, 1), (3, 0), (2, 3), (1, 2))
        factor.__dict__["offsets"] = (row,) + factor.offsets[1:]  # the cached_property's slot
        with pytest.raises(ValueError) as raised:
            build_idempotent_graph(r)
        assert str(raised.value) == f"factor 1 offset pair {pair} is out of range or unmirrored"

    @pytest.mark.parametrize(
        "spec", ["Z12", "Z3[x]/(x^2) * Z2", "GF(4) * Z4", "Z2 * GF(8)", "Z6 * Z2[x]/(x^2)"]
    )
    def test_adjacency_definition_against_pair_scan(self, spec):
        # independent oracle: O(n^2) scan of x + y over the raw elements,
        # against idempotents found by squaring every element; multi-digit,
        # multi-factor specs exercise the digit order
        r = build_ring(spec)
        ids = {x for x in r.elements if r.mul(x, x) == x}
        g = build_idempotent_graph(r)
        for i, x in enumerate(r.elements):
            for j, y in enumerate(r.elements):
                expected = i != j and r.add(x, y) in ids
                assert has_edge(g, i, j) == expected


class TestDegrees:
    def test_z6_degrees_match_idempotent_count(self):
        r = build_ring("Z6")
        g = build_idempotent_graph(r)
        # 2*1 = 2 is not idempotent -> degree |Id| = 4; 2*0 = 0 is -> |Id| - 1
        assert g.degrees[1] == 4
        assert g.degrees[0] == 3

    def test_k4_degrees(self):
        g = complete_graph(4)
        assert all(g.degrees[v] == 3 for v in range(4))


class TestComponents:
    def test_z6_connected(self):
        assert len(components(build_idempotent_graph(build_ring("Z6")))) == 1

    def test_gf4_two_matching_edges(self):
        g = build_idempotent_graph(build_ring("GF(4)"))
        assert census_set(g) == [(2, "path"), (2, "path")]

    def test_empty_graph(self):
        assert components(empty_graph(0)) == []

    def test_partition_property(self):
        g = graph_from_edges(7, [(0, 1), (2, 3), (3, 4)])
        comps = components(g)
        assert sorted(v for c in comps for v in c) == list(range(7))


# Rings whose built components come from the factors' cosets: one large
# factor, cosets that are their own negatives and cosets paired with their
# negatives, in one factor or only in the product, with a pairing carried
# into a later factor, and a non-local factor whose cosets pair up.
PRODUCT_RINGS = CLASSIFY_LARGE + [
    "Z4096",
    "Z2*Z2048",
    "Z3[x]/(x^2)*GF(9)*Z5",
    "GF(9)*GF(9)*GF(9)*Z5",
    "GF(25)*GF(49)",
    "Z9*Z8*Z4",
    "Z4[x]/(x^2)*Z8",
    "Z3[x]/(x^3 + x^2)*GF(9)",
    "Z3[x]/(x^3 + x^2)*Z4[x]/(x^2)",
]


class TestProductComponents:
    @pytest.mark.parametrize("spec", PRODUCT_RINGS)
    def test_built_components_equal_the_search(self, spec):
        g = build_idempotent_graph(build_ring(spec))
        assert g._components is not None  # the builder's, not a search on first use
        assert g.components() == tuple(masked_components(tuple(g.rows), (1 << g.n) - 1, g.degrees))

    def test_built_graphs_are_not_searched(self, monkeypatch):
        def search(*args):
            raise AssertionError("masked_components called")

        # the factor's cosets are found by masked_components, so they are
        # read first; only the build of the 9-vertex product runs patched
        r = build_ring("Z3[x]/(x^2)")
        r.spec.factors[0].cosets
        monkeypatch.setattr(graphs_module, "masked_components", search)
        g = build_idempotent_graph(r)
        assert g.components() == ((0b001001001, 3, 2), (0b110110110, 6, 6))
        assert census_set(g) == [(3, "path"), (6, "even-cycle")]

    @pytest.mark.parametrize(
        "coset",
        [(0b011, 0, 2), (0b111, 0, 1), (0b111, 0, 3)],
        ids=["a-vertex-left-out", "a-loop-too-few", "a-loop-too-many"],
    )
    def test_cosets_that_do_not_partition_the_graph_are_rejected(self, coset):
        # Z3's idempotents span it: one coset, its own negative, with 2a
        # idempotent at 0 and 2
        r = build_ring("Z3 * Z4")
        factor = r.spec.factors[0]
        assert factor.cosets == ((0b111, 0, 2),)
        factor.__dict__["cosets"] = (coset,)  # the cached_property's slot
        with pytest.raises(ValueError) as raised:
            build_idempotent_graph(r)
        assert str(raised.value) == "the factor graphs' components do not partition the graph"


class TestProductRows:
    """A built graph's rows are made when they are read: row v alone by
    index, every row at once by iteration.  Either way, and in either order,
    they are the rows `_product_rows` builds all at once."""

    def test_every_row_equals_the_eager_row_read_in_either_order(self):
        specs = [*enumerate_sweep_specs(SweepConfig()), *map(parse_ring_spec, CLASSIFY_LARGE + ["Z4096", "Z2*Z2048"])]
        assert len(specs) == 409
        for spec in specs:
            ring = build_ring(spec)
            eager, n = _product_rows(spec.factors), ring.size
            assert len(eager) == n
            indexed = build_idempotent_graph(ring).rows
            assert len(indexed) == n
            assert [indexed[v] for v in range(n)] == eager  # each made alone
            assert tuple(indexed) == tuple(eager)  # then all at once
            assert [indexed[v] for v in range(n)] == eager  # then read from those
            iterated = build_idempotent_graph(ring).rows
            assert tuple(iterated) == tuple(eager)
            assert [iterated[v] for v in range(n)] == eager
            for rows in (indexed, iterated, build_idempotent_graph(ring).rows):
                for v in (-1, n):
                    with pytest.raises(IndexError):
                        rows[v]

    def test_a_row_is_checked_as_it_is_made(self):
        # a factor of 2 elements whose element 0 has an offset 3 beyond it:
        # the builder's factor check rejects such a table, so it is fed to
        # the rows directly; both ways of making row 0 name it
        factor = SimpleNamespace(size=2, offsets=((0, 3), (1,)))
        with pytest.raises(ValueError) as raised:
            ProductRows((factor,), 2)[0]
        assert str(raised.value) == "row 0 has bits beyond vertex count"
        with pytest.raises(ValueError) as raised:
            tuple(ProductRows((factor,), 2))
        assert str(raised.value) == "row 0 has bits beyond vertex count"
        assert ProductRows((factor,), 2)[1] == 0  # its loop is cleared


@settings(max_examples=150, deadline=None)
@given(random_graphs(max_n=20), st.one_of(st.just(-1), st.integers(min_value=0, max_value=2**20 - 1)))
def test_the_search_with_and_without_weights_and_through_the_complement(g, mask):
    mask &= (1 << g.n) - 1
    inside = set_bits(mask)
    # the subgraph the mask induces and its complement, built edge by edge;
    # vertices outside the mask stay isolated and their components are dropped
    sub = graph_from_edges(g.n, [(i, j) for i in inside for j in inside if i < j and has_edge(g, i, j)])
    co = graph_from_edges(g.n, [(i, j) for i in inside for j in inside if i < j and not has_edge(g, i, j)])

    def explicit(h):
        return [(sum(1 << v for v in c), len(c)) for c in components(h) if mask >> c[0] & 1]

    weighted = masked_components(g.rows, mask, g.degrees)
    assert [(c, k) for c, k, _ in weighted] == explicit(sub)
    assert [(c, k, 0) for c, k, _ in weighted] == masked_components(g.rows, mask)
    assert all(d == sum(g.degrees[v] for v in set_bits(c)) // 2 for c, _, d in weighted)
    walked = masked_components(g.rows, mask, flip=-1)
    assert [(c, k) for c, k, _ in walked] == explicit(co)
    assert [(c, k) for c, k, _ in masked_components(g.rows, mask, g.degrees, -1)] == explicit(co)


class TestCensus:
    def test_z9_single_path(self):
        g = build_idempotent_graph(build_ring("Z9"))
        assert census_set(g) == [(9, "path")]

    def test_complete_component(self):
        assert census_set(complete_graph(4)) == [(4, "complete")]

    def test_odd_cycle_and_other(self):
        assert census_set(cycle_graph(5)) == [(5, "odd-cycle")]
        k4_minus = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        assert census_set(k4_minus) == [(4, "other")]

    def test_triangle_counts_as_complete(self):
        assert census_set(cycle_graph(3)) == [(3, "complete")]

    def test_trees_and_unicyclic_components_need_low_degrees(self):
        # a star K1,3 and a triangle with a pendant vertex have the counts of
        # a path and of a cycle, and a vertex of degree 3
        star = [(0, 1), (0, 2), (0, 3)]
        paw = [(4, 5), (5, 6), (6, 4), (6, 7)]
        c4 = [(8, 9), (9, 10), (10, 11), (11, 8)]
        assert component_census(graph_from_edges(12, star + paw + c4)) == [
            (4, "other"), (4, "other"), (4, "even-cycle"),
        ]

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=7))
    def test_path_graph_iff_one_path_component(self, g):
        # the census form and is_path_graph against the counts, so a loosened
        # census path rule shows on random graphs too
        assert is_path_graph(g) == (component_census(g) == [(g.n, "path")]) == reference_is_path(g)


class TestExport:
    def test_names_replace_indices(self):
        g = build_idempotent_graph(build_ring("Z2"))
        assert export_dot(g, ["zero", "one"]) == (
            'graph G {\n  "zero";\n  "one";\n  "zero" -- "one";\n}\n'
        )

    def test_z4_dot_counts(self):
        dot = export_dot(build_idempotent_graph(build_ring("Z4")))
        assert dot.count(";") == 4 + 3
        assert dot.index('"0" -- "1"') < dot.index('"1" -- "3"') < dot.index('"2" -- "3"')

    def test_empty_graph_dot(self):
        assert export_dot(empty_graph(0)) == "graph G {\n}\n"

    def test_dot_deterministic(self):
        g = build_idempotent_graph(build_ring("Z6"))
        assert export_dot(g) == export_dot(g)

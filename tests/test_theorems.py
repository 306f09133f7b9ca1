import json

import pytest

from idemgraph.graphs import Graph, build_idempotent_graph, graph_from_edges
from idemgraph.rings import build_ring, primitive_idempotents
from idemgraph.selftest import run_selftest
from idemgraph.sweep import summary_json
from idemgraph.theorems import (
    PROPERTIES,
    cross_validate,
    predict_all,
    verify_component_structure,
    verify_degree_formula,
)


def report(spec):
    ring = build_ring(spec)
    return cross_validate(ring, build_idempotent_graph(ring))


def predict(name, ring):
    return predict_all(ring)[name]


class TestConnectivityAndPath:
    @pytest.mark.parametrize(
        "spec,expected",
        [("Z6", True), ("GF(4)", False), ("Z2 * Z2", True), ("Z9", True), ("Z3[x]/(x^2)", False)],
    )
    def test_predict_connected(self, spec, expected):
        assert predict("connected", build_ring(spec)) is expected

    @pytest.mark.parametrize(
        "spec,expected",
        [("Z9", True), ("Z6", False), ("Z2", True), ("GF(4)", False), ("Z4", True)],
    )
    def test_predict_path(self, spec, expected):
        assert predict("path_graph", build_ring(spec)) is expected


class TestPlanarityPrediction:
    def test_paper_examples_not_planar(self):
        assert predict("planar", build_ring("Z3[x]/(x^2) * Z2")) is False
        assert predict("planar", build_ring("Z3[x]/(x^2) * Z3")) is False
        assert predict("planar", build_ring("Z3[x]/(x^2) * Z3[x]/(x^2)")) is False

    def test_both_char_two(self):
        assert predict("planar", build_ring("GF(4) * Z2")) is True

    def test_three_factors_never_planar(self):
        assert predict("planar", build_ring("Z2 * Z2 * Z2")) is False

    def test_local_not_applicable(self):
        assert predict("planar", build_ring("Z9")) is None

    def test_both_generated(self):
        assert predict("planar", build_ring("Z4 * Z9")) is True

    def test_one_generated_other_char_two(self):
        assert predict("planar", build_ring("Z9 * GF(4)")) is True

    def test_factor_order_invariant(self):
        for a, b in [("Z2", "Z4"), ("Z9", "GF(4)"), ("Z3[x]/(x^2)", "Z3")]:
            assert predict("planar", build_ring(f"{a} * {b}")) == predict(
                "planar", build_ring(f"{b} * {a}")
            )

    def test_hidden_decomposition_used_not_spec_shape(self):
        # Z6 entered as a single factor still decomposes to Z2 x Z3
        assert predict("planar", build_ring("Z6")) is True
        assert predict("planar", build_ring("Z2 * Z3")) is True


class TestAlwaysFalsePredicates:
    @pytest.mark.parametrize("spec", ["Z6", "Z2 * Z4"])
    def test_nonlocal_rings(self, spec):
        ring = build_ring(spec)
        assert predict("outerplanar", ring) is False
        assert predict("cactus", ring) is False
        assert predict("unicyclic", ring) is False

    def test_local_not_applicable_and_guard_matters(self):
        ring = build_ring("Z9")
        assert predict("outerplanar", ring) is None
        # G_Id(Z9) = P9 really is outerplanar, so the guard is load-bearing
        from idemgraph.recognizers import is_outerplanar

        assert is_outerplanar(build_idempotent_graph(ring))


class TestSplitThresholdPrediction:
    @pytest.mark.parametrize(
        "spec,expected",
        [("Z2 * Z2", True), ("Z2 * Z3", False), ("GF(4) * Z2", False), ("Z2 * Z2 * Z2", True)],
    )
    def test_examples(self, spec, expected):
        ring = build_ring(spec)
        assert predict("split", ring) is expected
        assert predict("threshold", ring) is expected

    def test_split_equals_threshold_everywhere(self):
        for spec in ["Z6", "Z2 * Z2", "Z4 * Z2", "Z9", "GF(4) * GF(8)", "Z30"]:
            ring = build_ring(spec)
            assert predict("split", ring) == predict("threshold", ring)
            if predict("split", ring) is not None:
                expected = all(p.factor_size == 2 for p in primitive_idempotents(ring))
                assert predict("split", ring) == expected


class TestCographPrediction:
    def test_all_char_two(self):
        assert predict("cograph", build_ring("GF(4) * GF(8)")) is True

    def test_z3_with_char_two_rest(self):
        assert predict("cograph", build_ring("Z3 * Z2")) is True
        assert predict("cograph", build_ring("Z3 * Z2 * GF(4)")) is True

    def test_negative_cases(self):
        assert predict("cograph", build_ring("Z4 * Z2")) is False
        assert predict("cograph", build_ring("Z3 * Z3")) is False
        assert predict("cograph", build_ring("Z3[x]/(x^2) * Z2")) is False

    def test_local_not_applicable(self):
        assert predict("cograph", build_ring("Z8")) is None


class TestDegreeFormula:
    def test_z6_exact_degrees(self):
        ring = build_ring("Z6")
        g = build_idempotent_graph(ring)
        assert verify_degree_formula(ring, g)
        assert g.degrees == (3, 4, 3, 3, 4, 3)

    def test_z2xz2_all_degrees(self):
        ring = build_ring("Z2 * Z2")
        g = build_idempotent_graph(ring)
        assert verify_degree_formula(ring, g)
        assert g.degrees == (3, 3, 3, 3)

    def test_z9_path_degrees(self):
        ring = build_ring("Z9")
        g = build_idempotent_graph(ring)
        assert verify_degree_formula(ring, g)
        assert sorted(g.degrees) == [1, 1, 2, 2, 2, 2, 2, 2, 2]


def toggled(g, i, j):
    """g with the pair {i, j} flipped between edge and non-edge."""
    rows = list(g.rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return Graph(g.n, rows)


class TestDegreeFormulaMutations:
    """Multi-digit, multi-factor rings: removing any one edge or adding any
    one non-edge must fail the check."""

    @pytest.mark.parametrize("spec", ["Z3[x]/(x^2) * Z2", "GF(4) * Z4", "Z6"])
    def test_every_toggled_pair_fails(self, spec):
        ring = build_ring(spec)
        g = build_idempotent_graph(ring)
        assert verify_degree_formula(ring, g)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert not verify_degree_formula(ring, toggled(g, i, j)), (i, j)


class TestComponentStructure:
    def test_z3_quotient(self):
        ring = build_ring("Z3[x]/(x^2)")
        assert verify_component_structure(ring, build_idempotent_graph(ring))

    def test_z9(self):
        ring = build_ring("Z9")
        assert verify_component_structure(ring, build_idempotent_graph(ring))

    def test_gf4(self):
        ring = build_ring("GF(4)")
        assert verify_component_structure(ring, build_idempotent_graph(ring))

    def test_precondition(self):
        ring = build_ring("Z6")
        with pytest.raises(ValueError):
            verify_component_structure(ring, build_idempotent_graph(ring))

    # Hand-built graphs against the rule: every component is a path or an
    # even cycle, with at most one size per shape.
    @pytest.mark.parametrize(
        "n,edges,expected",
        [
            (10, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9), (9, 6)], True),
            (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)], False),
            (5, [(0, 1), (2, 3), (3, 4)], False),
            (10, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 4)], False),
            (4, [(0, 1), (0, 2), (0, 3)], False),
        ],
        ids=["two-P3-and-C4", "odd-cycle", "paths-of-two-lengths", "even-cycles-of-two-lengths", "star"],
    )
    def test_hand_built(self, n, edges, expected):
        assert verify_component_structure(build_ring("Z9"), graph_from_edges(n, edges)) is expected


class TestCrossValidate:
    @pytest.mark.parametrize(
        "spec",
        ["Z3[x]/(x^2) * Z3", "Z3[x]/(x^2) * Z3[x]/(x^2)", "Z2 * Z2", "Z6", "Z9", "GF(4) * Z2"],
    )
    def test_no_mismatches(self, spec):
        assert report(spec)["mismatches"] == []

    def test_example_planarity_both_ways(self):
        d = report("Z3[x]/(x^2) * Z3")
        assert d["predicted"]["planar"] == "false"
        assert d["recognized"]["planar"] is False

    def test_z2xz2_report_values(self):
        d = report("Z2 * Z2")
        for prop in ("split", "threshold", "cograph", "planar"):
            assert d["predicted"][prop] == "true" and d["recognized"][prop] is True
        assert d["predicted"]["outerplanar"] == "false"
        assert d["recognized"]["outerplanar"] is False

    def test_report_is_plain_json(self):
        # no tuples, no dataclasses: what JSON reads back is the report itself
        d = report("Z3[x]/(x^2)")
        assert json.loads(summary_json(d)) == d

    def test_predict_all_split_threshold_consistency(self):
        for spec in ("Z6", "Z2 * Z2", "Z9", "Z4 * GF(4)"):
            p = predict_all(build_ring(spec))
            assert p["split"] == p["threshold"]


class TestPropertyTable:
    def test_reports_follow_table_order(self):
        names = [p.name for p in PROPERTIES]
        d = report("Z6")
        assert list(d["predicted"]) == names
        assert list(d["recognized"]) == names
        assert list(predict_all(build_ring("Z6"))) == names

    def test_selftest_checks_exactly_the_rows_with_an_oracle(self):
        summary = run_selftest(exhaustive_n=0, random_count=0)
        assert summary["properties"] == [p.name for p in PROPERTIES if p.oracle is not None]
        assert summary["properties"] == ["planar", "outerplanar", "split", "threshold", "cograph"]

    def test_local_ring_predicts_only_the_rows_that_apply(self):
        predicted = predict_all(build_ring("Z9"))
        for p in PROPERTIES:
            assert (predicted[p.name] is None) == p.nonlocal_only, p.name

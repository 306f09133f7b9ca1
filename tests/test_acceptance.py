"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from contextlib import contextmanager

import pytest

from idemgraph.graphs import build_idempotent_graph, component_census, is_path_graph
from idemgraph.recognizers import is_planar, is_split, is_threshold
from idemgraph.rings import build_ring
from idemgraph.selftest import run_selftest
from idemgraph.sweep import SweepConfig, run_sweep, summary_json

SWEEP_TIME_BUDGET_S = 300.0


@contextmanager
def criterion(label):
    try:
        yield
    except AssertionError:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}")


@pytest.fixture(scope="module")
def sweep():
    t0 = time.time()
    summary = run_sweep(SweepConfig())
    summary["_elapsed"] = time.time() - t0
    return summary


@pytest.fixture(scope="module")
def products(sweep):
    return [r for r in sweep["reports"] if len(r["factors"]) >= 2]


def test_criterion_1_paper_example_regressions():
    with criterion("criterion 1: paper examples 1-3 non-planar, each under 1s"):
        for spec, n in [
            ("Z3[x]/(x^2) * Z2", 18),
            ("Z3[x]/(x^2) * Z3", 27),
            ("Z3[x]/(x^2) * Z3[x]/(x^2)", 81),
        ]:
            t0 = time.time()
            g = build_idempotent_graph(build_ring(spec))
            verdict = is_planar(g)
            elapsed = time.time() - t0
            assert g.n == n
            assert verdict is False, spec
            assert elapsed < 1.0, (spec, elapsed)


def test_criterion_2_split_threshold_theorem(products):
    with criterion("criterion 2: split/threshold iff Z2 x ... x Z2"):
        for n in (2, 3, 4):
            g = build_idempotent_graph(build_ring(" * ".join(["Z2"] * n)))
            size = 2**n
            assert g.n == size
            assert g.edge_count() == size * (size - 1) // 2  # K_{2^n}
            assert is_split(g) and is_threshold(g)
        for rep in products:
            expect = all(f["factor_size"] == 2 for f in rep["factors"])
            assert rep["predicted"]["split"] == ("true" if expect else "false")
            assert rep["recognized"]["split"] is expect, rep["spec"]
            assert rep["recognized"]["threshold"] is expect, rep["spec"]


def test_criterion_3_planarity_sweep(sweep, products):
    with criterion("criterion 3: planarity theorem sweep, zero mismatches, <= 5 min"):
        assert sweep["mismatch_count"] == 0
        assert len(products) >= 60
        for rep in products:
            assert rep["predicted"]["planar"] == (
                "true" if rep["recognized"]["planar"] else "false"
            ), rep["spec"]
        assert sweep["_elapsed"] <= SWEEP_TIME_BUDGET_S
        # pinned regression values for the default catalog and bounds
        assert sweep["rings_checked"] == 403
        assert sweep["product_rings_checked"] == 390


def test_criterion_4_outerplanar_cactus_unicyclic(products):
    with criterion("criterion 4: non-local rings never outerplanar/cactus/unicyclic"):
        for rep in products:
            assert rep["recognized"]["outerplanar"] is False, rep["spec"]
            assert rep["recognized"]["cactus"] is False, rep["spec"]
            assert rep["recognized"]["unicyclic"] is False, rep["spec"]


def test_criterion_5_cograph_sweep(products):
    with criterion("criterion 5: cograph theorem sweep, both branches exercised"):
        by_spec = {rep["spec"]: rep for rep in products}
        all_char2 = by_spec["Z2 * Z2[x]/(x^2 + x + 1)"]  # GF(4) x Z2
        assert all_char2["recognized"]["cograph"] is True
        z3_branch = by_spec["Z2 * Z2 * Z3"]
        assert z3_branch["recognized"]["cograph"] is True
        negative = by_spec["Z2 * Z4"]
        assert negative["recognized"]["cograph"] is False
        for rep in products:
            assert rep["predicted"]["cograph"] == (
                "true" if rep["recognized"]["cograph"] else "false"
            ), rep["spec"]


def test_criterion_6_degree_formula(sweep):
    with criterion("criterion 6: degree formula exact on >= 10,000 vertices"):
        assert sweep["total_vertices"] >= 10_000
        for rep in sweep["reports"]:
            assert rep["degree_formula_ok"] is True, rep["spec"]


def test_criterion_7_connectivity_and_path(sweep):
    with criterion("criterion 7: connectivity/path predicates match graph shape"):
        for rep in sweep["reports"]:
            assert rep["predicted"]["connected"] == (
                "true" if rep["recognized"]["connected"] else "false"
            ), rep["spec"]
            assert rep["predicted"]["path_graph"] == (
                "true" if rep["recognized"]["path_graph"] else "false"
            ), rep["spec"]
        for spec, n in (("Z4", 4), ("Z9", 9)):
            g = build_idempotent_graph(build_ring(spec))
            assert is_path_graph(g) and g.n == n


def test_criterion_8_component_structure(sweep):
    with criterion("criterion 8: path/even-cycle components, uniform lengths"):
        for rep in sweep["reports"]:
            if rep["component_structure_ok"] is not None:
                assert rep["component_structure_ok"] is True, rep["spec"]
        census = sorted(component_census(build_idempotent_graph(build_ring("Z3[x]/(x^2)"))))
        assert census == [(3, "path"), (6, "even-cycle")]


def test_criterion_9_recognizer_selftest():
    with criterion("criterion 9: recognizers vs oracles, exhaustive n<=6 + 500 random n=12"):
        summary = run_selftest(exhaustive_n=6, random_count=500, random_n=12, seed=0)
        assert summary["disagreement_count"] == 0, summary["disagreements"][:3]
        assert summary["graphs_checked"] == 33868 + 500


def test_criterion_10_determinism():
    with criterion("criterion 10: repeated verify runs are byte-identical"):
        a = summary_json(run_sweep(SweepConfig()))
        b = summary_json(run_sweep(SweepConfig()))
        assert a == b

"""Tests of the benchmark itself: span arithmetic, the output checker, seeded
inputs, the traced run, and BENCHMARK.json against what run.py reports.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import random
import shutil
import signal
import subprocess
import sys
import time
import types
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibrate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from idemgraph import cli, selftest  # noqa: E402


def call(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


# --- self time -------------------------------------------------------------

def test_self_time_of_nested_spans():
    spans_ = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 1.0, 4.0, 0, 1),
        ("b", 5.0, 9.0, 0, 1),
        ("c", 6.0, 7.0, 2, 1),
        ("other_root", 20.0, 22.0, -1, 2),
    ]
    assert spans.self_times(spans_) == [3.0, 3.0, 3.0, 1.0, 2.0]
    root_durations = 10.0 + 2.0
    assert sum(spans.self_times(spans_)) == pytest.approx(root_durations)


def test_overlapping_and_overhanging_children_are_counted_once():
    spans_ = [
        ("root", 0.0, 10.0, -1, 1),
        ("x", 1.0, 5.0, 0, 1),
        ("y", 3.0, 6.0, 0, 1),
        ("z", 8.0, 12.0, 0, 1),
    ]
    # children cover [1, 6] and [8, 10] of the root: 7 of its 10
    assert spans.self_times(spans_)[0] == pytest.approx(3.0)


def test_tracer_records_nesting_generators_and_calls():
    tracer = spans.Tracer()
    ns = types.SimpleNamespace()

    def walk(n):
        for i in range(n):
            yield ns.leaf() + i

    ns.leaf = tracer.wrap("leaf", lambda: 1)
    ns.walk = tracer.wrap("walk", walk)
    top = tracer.wrap("top", lambda: sum(ns.walk(3)))
    assert top() == top() == 6
    records = list(tracer.records())
    names = [r[0] for r in records]
    assert tracer.calls == {"top": 2, "walk": 2, "leaf": 6}
    # one walk span per resume: three items and the final StopIteration
    assert names.count("walk") == 8
    for name, start, end, parent, run_id in records:
        assert end >= start
        if name == "top":
            assert parent == -1
        else:
            assert records[parent][4] == run_id
        if name == "leaf":
            assert records[parent][0] == "walk"
    assert {r[4] for r in records} == {1, 2}
    roots = sum(e - s for _, s, e, p, _ in records if p < 0)
    assert sum(spans.self_times(records)) == pytest.approx(roots, abs=1e-9)


def test_patched_wraps_every_holder_and_restores():
    from idemgraph import graphs, rings, theorems

    orig = rings.idempotents
    counts = Counter()
    with spans.patched(run.targets([("rings", "idempotents")]), run.namespaces(), spans.counter_wrapper(counts)):
        assert rings.idempotents is not orig
        assert graphs.idempotents is rings.idempotents
        assert theorems.idempotents is rings.idempotents
        theorems.predict_all(rings.build_ring("Z2*Z2"))
    assert counts["rings.idempotents"] > 0
    assert rings.idempotents is graphs.idempotents is theorems.idempotents is orig


def test_sampling_collects_probes_and_restores_the_handler():
    before = signal.getsignal(signal.SIGPROF)
    with calibrate.sampling() as samples:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    # one before, one after, and at least one from the timer
    assert len(samples) >= 3
    assert all(s > 0 for s in samples)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert calibrate.scale([2 * calibrate.REF_S, 2 * calibrate.REF_S]) == 0.5


# --- checker ---------------------------------------------------------------

SMALL_SWEEP = ("verify", "--json", "--max-size", "16", "--max-factors", "2", "--jobs", "1")


@pytest.fixture(scope="module")
def small():
    """A classify op, a sweep op and their reference, on small rings."""
    classify_op = workloads.Op("z2_8", ("classify", "Z2*Z2", "--json"))
    sweep_op = workloads.Op("sweep", SMALL_SWEEP)
    c_code, c_out = call(list(classify_op.argv))
    s_code, s_out = call(list(sweep_op.argv))
    assert c_code == s_code == 0
    reference = {
        "classify": {"z2_8": workloads.observe(classify_op, c_out)},
        "sweep": workloads.observe(sweep_op, s_out),
        "selftest": {"graphs_checked": 1600, "disagreement_count": 0},
    }
    return classify_op, c_out, sweep_op, s_out, reference


def test_checker_accepts_untampered_output(small):
    classify_op, c_out, sweep_op, s_out, ref = small
    assert workloads.check(classify_op, 0, c_out, ref) == 0
    assert workloads.check(sweep_op, 0, s_out, ref) == 0
    assert workloads.size(sweep_op, ref) == ref["sweep"]["rings_checked"] > 1


def test_checker_fails_tampered_classify_report(small):
    classify_op, c_out, _, _, ref = small
    report = json.loads(c_out)
    report["recognized"]["planar"] = not report["recognized"]["planar"]
    assert workloads.check(classify_op, 0, json.dumps(report), ref) == 1
    report = json.loads(c_out)
    report["graph"]["edges"] += 1
    assert workloads.check(classify_op, 0, json.dumps(report), ref) == 1
    assert workloads.check(classify_op, 2, c_out, ref) == 1
    assert workloads.check(classify_op, 0, "not json", ref) == 1


def test_checker_ignores_fields_outside_the_verdicts(small):
    _, _, sweep_op, s_out, ref = small
    summary = json.loads(s_out)
    del summary["config"]["random_seed"]
    summary["reports"][0]["characteristic"] = -1
    assert workloads.check(sweep_op, 0, json.dumps(summary), ref) == 0


def test_checker_fails_tampered_sweep_rings(small):
    _, _, sweep_op, s_out, ref = small
    summary = json.loads(s_out)
    summary["reports"][0]["predicted"]["connected"] = "not-applicable"
    summary["reports"][1]["num_idempotents"] += 2
    assert workloads.check(sweep_op, 0, json.dumps(summary), ref) == 2
    summary = json.loads(s_out)
    summary["reports"].pop()
    assert workloads.check(sweep_op, 0, json.dumps(summary), ref) == 1
    assert workloads.check(sweep_op, 2, s_out, ref) == 1


def test_checker_fails_selftest_disagreements_and_short_counts(small):
    *_, ref = small
    op = workloads.plan("selftest", 1)[0]
    good = "graphs checked 1600 (exhaustive n<=5, ...)\nproperties     planar\ndisagreements  0\n"
    assert workloads.check(op, 0, good, ref) == 0
    assert workloads.check(op, 2, good.replace("disagreements  0", "disagreements  3"), ref) == 3
    assert workloads.check(op, 0, good.replace("1600", "1599"), ref) == 1
    assert workloads.check(op, 2, good, ref) == 1
    assert workloads.check(op, 0, "", ref) == 1600


def test_recorded_reference_is_consistent():
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    assert ref["properties"] == list(workloads.PROPERTIES)
    assert sorted(ref["classify"]) == sorted(workloads.LARGE_RINGS)
    rings = ref["sweep"]["rings"]
    assert ref["sweep"]["rings_checked"] == len(rings) == 403
    assert ref["sweep"]["total_vertices"] == sum(r["size"] for r in rings.values()) == 42278
    assert ref["selftest"] == {"graphs_checked": 1600, "disagreement_count": 0}
    for rec in [*rings.values(), *ref["classify"].values()]:
        assert rec["mismatches"] == 0


# --- seeded inputs ---------------------------------------------------------

def test_same_seed_same_plan():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7) == workloads.plan(w, 7)
    orders = {tuple(op.key for op in workloads.plan("classify-large", s)) for s in range(20)}
    assert len(orders) > 1
    assert all(sorted(o) == sorted(workloads.LARGE_RINGS) for o in orders)


def test_same_seed_same_selftest_graphs():
    argv = workloads.plan("selftest", 3)[0].argv
    seed = int(argv[argv.index("--seed") + 1])
    n = int(argv[argv.index("--random-n") + 1])

    def draw():
        rng = random.Random(seed)
        return [selftest.random_graph(n, rng).rows for _ in range(20)]

    assert draw() == draw()


# --- traced run and BENCHMARK.json ----------------------------------------

def test_traced_run_self_times_add_up_and_counts_repeat(small):
    _, _, sweep_op, _, ref = small
    metrics, passes, report = run.traced_run(cli, [sweep_op], ref)
    assert list(metrics) == list(run.layer_metric_units())
    assert all(p.failed == 0 for p in passes)
    assert report["self_s_sum"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["theorems.cross_validate.calls"] == ref["sweep"]["rings_checked"]
    assert metrics["cli.main.calls"] == 1
    grouped = sum(metrics[f"{m}.{q}.self_s"] for m, q in run.TARGETS)
    assert grouped == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    again, _, _ = run.traced_run(cli, [sweep_op], ref)
    for mod, qual in run.COUNTED:
        name = f"{mod}.{qual}.calls"
        assert metrics[name] == again[name] > 0


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_metric_units()


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

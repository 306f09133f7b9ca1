#!/usr/bin/env python3
"""Benchmark of idemgraph's three end-to-end uses: classify, verify, selftest.

Usage (from the repository root):
  python3 perfbench/run.py --workload classify-large|verify-sweep|selftest
                           --seed N --seconds S --trace 0|1

One process, one client, closed loop: each operation is a call to
`idemgraph.cli.main(argv)` in this process, with stdout captured and checked
against `perfbench/reference.json`.  No threads; `verify` runs at --jobs 1.

--trace 0 runs whole passes of the workload for at least S seconds and
reports the end-to-end metrics (medians over passes).  setup_s is the median
time for a fresh interpreter to import idemgraph.cli, over several
interpreters.  All three times are scaled to a reference machine speed by
calibrate.py; the table above the JSON line also shows them raw.

--trace 1 runs one untraced pass, one traced pass (a span around each call
into the wrapped functions in TARGETS) and one counting pass (calls of the
ring operations in COUNTED, no spans), and reports the per-layer metrics.
It writes the spans and a per-layer table to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
WATCHDOG_S = 170

# Functions wrapped in the traced pass, as (module, qualified name); modules
# are idemgraph's, except networkx, whose planarity test is delegated to.
TARGETS = (
    ("cli", "main"),
    ("rings", "parse_ring_spec"),
    ("rings", "build_ring"),
    ("rings", "idempotents"),
    ("rings", "is_local"),
    ("rings", "additive_closure"),
    ("rings", "primitive_idempotents"),
    ("graphs", "build_idempotent_graph"),
    ("graphs", "Graph.edges"),
    ("graphs", "component_census"),
    ("graphs", "is_connected"),
    ("graphs", "graph_from_edges"),
    ("recognizers", "is_planar"),
    ("recognizers", "is_outerplanar"),
    ("recognizers", "is_split"),
    ("recognizers", "is_threshold"),
    ("recognizers", "is_cograph"),
    ("recognizers", "is_cactus"),
    ("recognizers", "is_unicyclic"),
    ("networkx", "check_planarity"),
    ("oracles", "has_minor"),
    ("oracles", "find_induced"),
    ("theorems", "cross_validate"),
    ("theorems", "predict_all"),
    ("theorems", "predict_connected"),
    ("theorems", "verify_degree_formula"),
    ("theorems", "verify_component_structure"),
    ("sweep", "run_sweep"),
    ("sweep", "enumerate_sweep_specs"),
    ("sweep", "summary_json"),
    ("selftest", "run_selftest"),
    ("selftest", "all_graphs"),
    ("selftest", "random_graph"),
)

# Counted in their own pass, so the counting does not inflate span self times.
COUNTED = (
    ("rings", "FiniteRing.add"),
    ("rings", "FiniteRing.mul"),
    ("rings", "FiniteRing.neg"),
)

GROUPS = ("cli", "rings", "graphs", "recognizers", "networkx", "oracles", "theorems", "sweep", "selftest")

# Waste ratios: (metric, call count divided, what it is divided by, unit).
RATIOS = (
    ("theorems.additive_closure_per_ring", "rings.additive_closure", "ring", "1/ring"),
    ("rings.primitive_idempotents_per_ring", "rings.primitive_idempotents", "ring", "1/ring"),
    ("rings.is_local_per_ring", "rings.is_local", "ring", "1/ring"),
    ("recognizers.planarity_runs_per_graph", "networkx.check_planarity", "graph", "1/graph"),
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, qual in TARGETS:
        units[f"{mod}.{qual}.self_s"] = "s"
        units[f"{mod}.{qual}.calls"] = "count"
    for mod, qual in COUNTED:
        units[f"{mod}.{qual}.calls"] = "count"
    for name, _, _, unit in RATIOS:
        units[name] = unit
    units["trace.wall_s"] = "s"
    units["trace.untraced_wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    for key in workloads.LARGE_RINGS:
        units[f"ring_s.{key}"] = "s"
    return units


@dataclass
class Pass:
    wall_s: float = 0.0
    ref_wall_s: float = 0.0
    op_s: dict = field(default_factory=dict)
    op_ref_s: dict = field(default_factory=dict)
    ops: int = 0
    failed: int = 0


def run_pass(cli, ops, reference, calibrated=False) -> Pass:
    """Run each operation once through cli.main and check its output.

    Garbage is collected before each operation, outside the timed call, so
    one operation's cyclic garbage neither lengthens the next one nor adds
    to its peak memory: each starts as a fresh CLI process would.  When
    calibrated, each time is also scaled to reference machine speed.
    """
    result = Pass()
    for op in ops:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        sampling = calibrate.sampling() if calibrated else nullcontext([calibrate.REF_S])
        with redirect_stdout(out), redirect_stderr(err), sampling as samples:
            t0 = perf_counter()
            code = cli.main(list(op.argv))
            dt = perf_counter() - t0
        ref_dt = dt * calibrate.scale(samples)
        result.wall_s += dt
        result.ref_wall_s += ref_dt
        result.op_s[op.key] = dt
        result.op_ref_s[op.key] = ref_dt
        result.ops += workloads.size(op, reference)
        result.failed += workloads.check(op, code, out.getvalue(), reference)
    return result


# Run in a fresh interpreter: the import, timed and sampled from inside.
SETUP_CODE = """
import time, calibrate
with calibrate.sampling() as samples:
    t0 = time.perf_counter()
    import idemgraph.cli
    dt = time.perf_counter() - t0
print(dt, calibrate.scale(samples))
"""


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import idemgraph.cli, raw and
    scaled to reference speed, over SETUP_PROBES interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), str(HERE), env.get("PYTHONPATH"))))
    raw, ref = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True, capture_output=True, text=True
        ).stdout
        dt, factor = map(float, out.split())
        if i:  # the first import also compiles bytecode
            raw.append(dt)
            ref.append(dt * factor)
    return statistics.median(raw), statistics.median(ref)


def resolve(mod: str, qual: str):
    module = importlib.import_module(mod if mod == "networkx" else f"idemgraph.{mod}")
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def targets(entries):
    return [(*resolve(mod, qual), f"{mod}.{qual}") for mod, qual in entries]


def namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "idemgraph"]


def traced_run(cli, ops, reference):
    """Untraced, traced and counting pass; returns (metrics, passes, report).

    Times are scaled to reference speed like the end-to-end ones: each span
    by the factor of the operation (the run id) it belongs to.  The probe's
    own time, about 1 %, lands in whichever span is open when it runs.
    """
    plain = run_pass(cli, ops, reference, calibrated=True)

    tracer = spans.Tracer()
    with spans.patched(targets(TARGETS), namespaces(), tracer.wrap):
        traced = run_pass(cli, ops, reference, calibrated=True)
    # Run ids count the top-level cli.main calls from 1, one per operation.
    factor = {i: traced.op_ref_s[op.key] / traced.op_s[op.key] for i, op in enumerate(ops, 1)}
    records = list(tracer.records())
    selfs = [s * factor[rec[4]] for rec, s in zip(records, spans.self_times(records))]
    self_s: Counter = Counter()
    for rec, s in zip(records, selfs):
        self_s[rec[0]] += s
    traced_wall = sum((end - start) * factor[run] for _, start, end, parent, run in records if parent < 0)

    counts: Counter = Counter()
    per_op_counts = {}
    counting = Pass()
    with spans.patched(targets(COUNTED), namespaces(), spans.counter_wrapper(counts)):
        for op in ops:
            before = counts.copy()
            p = run_pass(cli, [op], reference)
            counting.failed += p.failed
            counting.ops += p.ops
            per_op_counts[op.key] = dict(counts - before)

    rings = tracer.calls["theorems.cross_validate"]
    bases = {"ring": rings, "graph": traced.ops}
    metrics = {}
    for mod, qual in TARGETS:
        name = f"{mod}.{qual}"
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = tracer.calls[name]
    for mod, qual in COUNTED:
        metrics[f"{mod}.{qual}.calls"] = counts[f"{mod}.{qual}"]
    for name, num, base, _ in RATIOS:
        metrics[name] = tracer.calls[num] / bases[base] if bases[base] else 0.0
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = plain.ref_wall_s
    metrics["trace.overhead_s"] = traced_wall - plain.ref_wall_s
    for key in workloads.LARGE_RINGS:
        metrics[f"ring_s.{key}"] = plain.op_ref_s.get(key, 0.0)

    report = {
        "self_s_sum": sum(selfs),
        "spans": len(records),
        "per_op_counts": per_op_counts,
        "tracer": tracer,
    }
    return metrics, [plain, traced, counting], report


def layer_table(metrics: dict, report: dict) -> str:
    """Calls, self time and share of the traced wall_s per wrapped function,
    grouped by module, then the totals, the counts and the waste ratios."""
    wall = metrics["trace.wall_s"]
    lines = [f"{'layer':<44}{'calls':>10}{'self_s':>12}{'share':>8}"]
    for group in GROUPS:
        group_s = 0.0
        for mod, qual in TARGETS:
            if mod == group:
                name = f"{mod}.{qual}"
                s = metrics[f"{name}.self_s"]
                group_s += s
                lines.append(f"  {name:<42}{metrics[f'{name}.calls']:>10}{s:>12.4f}{100 * s / wall:>7.1f}%")
        lines.append(f"{group + ' total':<54}{group_s:>12.4f}{100 * group_s / wall:>7.1f}%")
    lines += [
        f"{'sum of self times':<54}{report['self_s_sum']:>12.4f}",
        f"{'traced wall_s':<54}{wall:>12.4f}",
        f"{'untraced wall_s':<54}{metrics['trace.untraced_wall_s']:>12.4f}",
        f"{'tracing overhead (traced - untraced)':<54}{metrics['trace.overhead_s']:>12.4f}",
        f"spans recorded: {report['spans']}",
    ]
    for mod, qual in COUNTED:
        lines.append(f"{mod}.{qual}.calls = {metrics[f'{mod}.{qual}.calls']}")
    for key, counts in report["per_op_counts"].items():
        lines.append(f"  op {key}: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for name, _, _, _ in RATIOS:
        lines.append(f"{name} = {metrics[name]:.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGALRM's default action ends the process, without a result line.
    signal.alarm(WATCHDOG_S)

    if not (SRC / "idemgraph" / "cli.py").is_file():
        print(f"error: no idemgraph sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("idemgraph.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: idemgraph imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    ops = workloads.plan(args.workload, args.seed)
    # Loads the modules the program imports lazily (networkx planarity).
    with redirect_stdout(io.StringIO()):
        cli.main(["classify", "Z2 * Z3"])

    if args.trace:
        metrics, passes, report = traced_run(cli, ops, reference)
        units = layer_metric_units()
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}"
        report["tracer"].write_tsv(stem.with_name(stem.name + "-spans.tsv"))
        table = layer_table(metrics, report)
        stem.with_name(stem.name + "-layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    else:
        raw_setup_s, setup_s = measure_setup()
        passes = []
        start = perf_counter()
        while True:
            passes.append(run_pass(cli, ops, reference, calibrated=True))
            if perf_counter() - start >= args.seconds:
                break
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.ref_wall_s for p in passes),
            "ops_per_s": statistics.median(p.ops / p.ref_wall_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es); times at reference speed, raw in brackets")
        print(f"  {'raw setup_s':<17}{raw_setup_s:>12.4f} s")
        print(f"  {'raw wall_s':<17}{statistics.median(p.wall_s for p in passes):>12.4f} s")
        for key in workloads.LARGE_RINGS:
            if any(key in p.op_s for p in passes):
                ref = statistics.median(p.op_ref_s[key] for p in passes)
                raw = statistics.median(p.op_s[key] for p in passes)
                print(f"  ring_s.{key:<10}{ref:>12.4f} s ({raw:.4f})")

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"  {'error_rate':<17}{failed / attempted:>12.4f} ratio")
    for name in END_TO_END_UNITS:
        if name in metrics:
            print(f"  {name:<17}{metrics[name]:>12.4f} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

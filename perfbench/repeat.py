#!/usr/bin/env python3
"""Run the benchmark on every workload over several seeds and summarize.

Usage (from the repository root):
  python3 perfbench/repeat.py [--seeds 1 2 3] [--seconds 30] [--out FILE]

Each run is a fresh `perfbench/run.py` process.  Runs are interleaved by
seed, so a slow spell on the machine falls on every workload alike.  For
each end-to-end metric it prints the median, the quartiles, the spread
(interquartile range over median) and the sample count.  With --out it also
makes one traced run per workload, on the first seed, and writes the
summary, the machine and the per-layer metrics to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "n": len(values),
        "values": values,
    }


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import networkx

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    results = {w: [] for w in workloads.WORKLOADS}
    for seed in args.seeds:
        for w in workloads.WORKLOADS:
            res = run_once(w, seed, args.seconds, 0)
            results[w].append(res)
            shown = "  ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"{w:<15} seed {seed:<3} correct={res['correct']} {shown}", flush=True)

    summary = {
        "machine": machine(),
        "settings": {"seconds": args.seconds, "seeds": args.seeds},
        "workloads": {},
    }
    for w, runs in results.items():
        e2e = {}
        print(f"\n{w}: {len(runs)} runs")
        for name in runs[0]["metrics"]:
            st = stats([r["metrics"][name]["value"] for r in runs])
            st["unit"] = runs[0]["metrics"][name]["unit"]
            e2e[name] = st
            print(
                f"  {name:<12} median {st['median']:.4f} {st['unit']:<4} "
                f"q1 {st['q1']:.4f}  q3 {st['q3']:.4f}  spread {100 * st['spread']:.1f}%  n={st['n']}"
            )
        summary["workloads"][w] = {
            "runs_correct": sum(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": e2e,
        }
        if args.out:
            traced = run_once(w, args.seeds[0], args.seconds, 1)
            summary["workloads"][w]["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

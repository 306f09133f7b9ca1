#!/usr/bin/env python3
"""Record perfbench/reference.json from the program's current outputs.

Usage (from the repository root): python3 perfbench/record_reference.py

Run this only on a commit whose outputs are known to be right: the benchmark
counts every later deviation from this file as a failed operation.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from idemgraph import cli

    reference = {"properties": list(workloads.PROPERTIES), "classify": {}}
    ops = workloads.plan("classify-large", 0) + workloads.plan("verify-sweep", 0) + workloads.plan("selftest", 0)
    for op in ops:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(list(op.argv))
        if code != 0:
            print(f"error: {' '.join(op.argv)} exited with {code}", file=sys.stderr)
            return 1
        observed = workloads.observe(op, out.getvalue())
        if op.key in ("sweep", "selftest"):
            reference[op.key] = observed
        else:
            reference["classify"][op.key] = observed
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: the argv each operation passes to `idemgraph.cli.main`,
and the check of each operation's output against the recorded reference.

A pass of a workload is its list of operations run once, in order:
  classify-large  four `classify --json` calls on rings of 256 to 4096
                  elements, in an order the seed permutes;
  verify-sweep    one `verify --json` over the default catalog (403 rings);
  selftest        one `selftest` comparing recognizers with oracles on 1,600
                  graphs.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

PROPERTIES = (
    "connected",
    "path_graph",
    "planar",
    "outerplanar",
    "split",
    "threshold",
    "cograph",
    "cactus",
    "unicyclic",
)

LARGE_RINGS = {
    "z4_6": "Z4*Z4*Z4*Z4*Z4*Z4",
    "gf64_2": "GF(64)*GF(64)",
    "z2_8": "Z2*Z2*Z2*Z2*Z2*Z2*Z2*Z2",
    "gf16_3": "GF(16)*GF(16)*GF(16)",
}

SWEEP_ARGV = ("verify", "--json", "--max-size", "256", "--max-factors", "3", "--jobs", "1")

# The random graphs of a selftest pass come from one fixed program seed, the
# default that acceptance criterion 9 also uses.  At --random-n 12 a handful
# of graphs need seconds of minor search each, so a pass took 4.9 to 10.4 s
# across program seeds 1 to 5; a seed-dependent pass would measure which
# graphs were drawn, not the program.
SELFTEST_ARGV = (
    "selftest",
    "--exhaustive-n", "5",
    "--random-count", "500",
    "--random-n", "12",
    "--seed", "0",
)

WORKLOADS = ("classify-large", "verify-sweep", "selftest")


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]


def plan(workload: str, seed: int) -> list[Op]:
    """The operations of one pass; the same seed gives the same list."""
    if workload == "classify-large":
        keys = sorted(LARGE_RINGS)
        random.Random(seed).shuffle(keys)
        return [Op(k, ("classify", LARGE_RINGS[k], "--json")) for k in keys]
    if workload == "verify-sweep":
        return [Op("sweep", SWEEP_ARGV)]
    if workload == "selftest":
        return [Op("selftest", SELFTEST_ARGV)]
    raise ValueError(f"unknown workload {workload!r}")


def _tristate_letter(v: str) -> str:
    return {"true": "t", "false": "f", "not-applicable": "n"}[v]


def verdicts(report: dict) -> dict:
    """The verdict fields of one classification report.

    Predicted and recognized values are strings with one letter per entry of
    PROPERTIES: t(rue), f(alse) or n(ot applicable).
    """
    return {
        "size": report["size"],
        "num_idempotents": report["num_idempotents"],
        "edges": report["graph"]["edges"],
        "components": report["graph"]["components"],
        "predicted": "".join(_tristate_letter(report["predicted"][p]) for p in PROPERTIES),
        "recognized": "".join("t" if report["recognized"][p] else "f" for p in PROPERTIES),
        "degree_formula_ok": report["degree_formula_ok"],
        "component_structure_ok": report["component_structure_ok"],
        "mismatches": len(report["mismatches"]),
    }


_SELFTEST_LINES = (
    ("graphs_checked", re.compile(r"^graphs checked (\d+)", re.M)),
    ("disagreement_count", re.compile(r"^disagreements\s+(\d+)", re.M)),
)


def observe(op: Op, stdout: str) -> dict:
    """What the reference records about an operation's output."""
    if op.key == "sweep":
        summary = json.loads(stdout)
        return {
            "rings_checked": summary["rings_checked"],
            "total_vertices": summary["total_vertices"],
            "mismatch_count": summary["mismatch_count"],
            "rings": {r["spec"]: verdicts(r) for r in summary["reports"]},
        }
    if op.key == "selftest":
        out = {}
        for field, pattern in _SELFTEST_LINES:
            m = pattern.search(stdout)
            if m is None:
                raise ValueError(f"selftest output lacks {field}")
            out[field] = int(m.group(1))
        return out
    return verdicts(json.loads(stdout))


def expected(op: Op, reference: dict) -> dict:
    if op.key in ("sweep", "selftest"):
        return reference[op.key]
    return reference["classify"][op.key]


def size(op: Op, reference: dict) -> int:
    """Operations one call performs: rings classified or graphs compared."""
    if op.key == "sweep":
        return reference["sweep"]["rings_checked"]
    if op.key == "selftest":
        return reference["selftest"]["graphs_checked"]
    return 1


def check(op: Op, exit_code: int, stdout: str, reference: dict) -> int:
    """Failed operations among the `size(op)` that one call attempted.

    A nonzero exit code, output that does not parse, a mismatch or
    disagreement the program reports, or any verdict that deviates from
    the reference each count as a failure.
    """
    attempted = size(op, reference)
    want = expected(op, reference)
    try:
        got = observe(op, stdout)
    except (ValueError, KeyError, TypeError):
        return attempted
    if op.key == "sweep":
        failed = sum(1 for spec, rec in want["rings"].items() if got["rings"].get(spec) != rec)
        failed += len(got["rings"].keys() - want["rings"].keys())
        totals_ok = all(got[k] == want[k] for k in ("rings_checked", "total_vertices", "mismatch_count"))
        if not totals_ok or exit_code != 0:
            failed = max(failed, 1)
        return min(failed, attempted)
    if op.key == "selftest":
        failed = got["disagreement_count"]
        if got != want or exit_code != 0:
            failed = max(failed, 1)
        return min(failed, attempted)
    return int(exit_code != 0 or got != want)

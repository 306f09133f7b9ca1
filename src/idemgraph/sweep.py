"""Verification sweep: cross-validate the theorem predicates against the
recognizers over all factor multisets drawn from a catalog of local rings.

The sweep doubles as a falsification harness: any prediction/recognizer
mismatch is the headline event and surfaces as a nonzero mismatch count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .graphs import build_idempotent_graph
from .rings import (
    DEFAULT_MAX_RING_SIZE,
    RingSpec,
    build_ring,
    format_ring_spec,
    is_local,
    parse_ring_spec,
)
from .theorems import cross_validate

# Small local rings covering every characteristic/generated-by-idempotents
# combination the theorem predicates branch on.
DEFAULT_CATALOG: tuple[str, ...] = (
    "Z2",
    "Z3",
    "Z4",
    "Z5",
    "Z7",
    "Z8",
    "Z9",
    "GF(4)",
    "GF(8)",
    "GF(9)",
    "Z2[x]/(x^2)",
    "Z2[x]/(x^3)",
    "Z3[x]/(x^2)",
)


@dataclass
class SweepConfig:
    max_ring_size: int = 256
    max_factors: int = 3
    catalog: tuple[str, ...] = DEFAULT_CATALOG
    random_seed: int = 0
    parallelism: int = 1

    def validate(self):
        if not (1 <= self.max_ring_size <= DEFAULT_MAX_RING_SIZE):
            raise ValueError(
                f"max_ring_size must be in [1, {DEFAULT_MAX_RING_SIZE}]"
            )
        if self.max_factors < 1:
            raise ValueError("max_factors must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        for entry in self.catalog:
            ring = build_ring(entry)
            if not is_local(ring):
                raise ValueError(f"catalog entry {entry!r} is not a local ring")


def enumerate_sweep_specs(config: SweepConfig) -> list[str]:
    """Canonical spec texts: every multiset of 1..max_factors catalog rings
    whose product size is within bound."""
    canon = {}
    for entry in config.catalog:
        spec = parse_ring_spec(entry)
        canon[format_ring_spec(spec)] = spec.size
    singles = sorted(canon)
    # Multisets as non-decreasing index tuples with their product size, grown
    # one factor at a time; one whose product exceeds the bound is dropped
    # at once, so the walk never extends a multiset it does not return.
    grown = [((i,), canon[s]) for i, s in enumerate(singles) if canon[s] <= config.max_ring_size]
    specs = [singles[i] for (i,), _ in grown]
    for _ in range(config.max_factors - 1):
        grown = [
            (combo + (j,), size * canon[singles[j]])
            for combo, size in grown
            for j in range(combo[-1], len(singles))
            if size * canon[singles[j]] <= config.max_ring_size
        ]
        if not grown:
            break
        specs.extend(" * ".join(singles[j] for j in combo) for combo, _ in grown)
    return sorted(set(specs))


def _classify_one(args: tuple[RingSpec, int]) -> dict:
    spec, max_size = args
    ring = build_ring(spec, max_size=max_size)
    return cross_validate(ring, build_idempotent_graph(ring))


def run_sweep(config: SweepConfig) -> dict:
    """Cross-validate every sweep ring; returns a deterministic summary.

    The rings are built from one FactorSpec per catalog factor, so each
    factor's own facts (its elements, idempotents, atoms, doubling flags
    and offsets) are computed once per sweep, not once per ring.  A worker
    process gets its own copy of the factors of each job it runs."""
    config.validate()
    specs = enumerate_sweep_specs(config)
    if not specs:
        raise ValueError(f"no catalog ring has at most {config.max_ring_size} elements")
    # validate() has checked that every catalog entry is local: one factor
    shared = {format_ring_spec(spec): spec.factors[0] for spec in map(parse_ring_spec, config.catalog)}
    jobs = [
        (RingSpec(tuple(shared[text] for text in s.split(" * "))), config.max_ring_size)
        for s in specs
    ]
    # The pool starts every worker at once, so never ask for more than
    # there are CPUs or rings.
    workers = min(config.parallelism, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_classify_one, jobs))
    else:
        reports = [_classify_one(j) for j in jobs]
    reports.sort(key=lambda r: r["spec"])
    mismatches = []
    properties_checked = 0
    total_vertices = 0
    for rep in reports:
        total_vertices += rep["size"]
        applicable = sum(
            1 for v in rep["predicted"].values() if v != "not-applicable"
        )
        properties_checked += applicable + 1  # + degree formula
        if rep["component_structure_ok"] is not None:
            properties_checked += 1
        for m in rep["mismatches"]:
            mismatches.append({"spec": rep["spec"], **m})
    return {
        "config": {
            "max_ring_size": config.max_ring_size,
            "max_factors": config.max_factors,
            "catalog": list(config.catalog),
            "random_seed": config.random_seed,
            "parallelism": config.parallelism,
        },
        "rings_checked": len(reports),
        "product_rings_checked": sum(1 for r in reports if len(r["factors"]) >= 2),
        "total_vertices": total_vertices,
        "properties_checked": properties_checked,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches,
        "reports": reports,
    }


def summary_json(summary: dict) -> str:
    """The one JSON layout, for a sweep summary and for a single report."""
    return json.dumps(summary, indent=2, sort_keys=True)


def load_catalog_file(path: str) -> tuple[str, ...]:
    """One spec per line; blank lines and '#' comments ignored."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append(line)
    return tuple(entries)

"""Verification sweep: cross-validate the theorem predicates against the
recognizers over all factor multisets drawn from a catalog of local rings.

The sweep doubles as a falsification harness: any prediction/recognizer
mismatch is the headline event and surfaces as a nonzero mismatch count.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

from .graphs import build_idempotent_graph, graph_key
from .rings import (
    DEFAULT_MAX_RING_SIZE,
    FactorSpec,
    RingSpec,
    build_ring,
    format_ring_spec,
    parse_ring_spec,
)
from .theorems import cross_validate, recognize_all

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
    parallelism: int = 1

    def validate(self) -> list[FactorSpec]:
        """The sweep's one reader of the catalog text: checks the bounds,
        parses each entry once and rejects one that is not a local ring (one
        spec factor, whose only idempotents are 0 and 1).  Returns one
        FactorSpec per distinct catalog ring, in canonical-text order."""
        if not (1 <= self.max_ring_size <= DEFAULT_MAX_RING_SIZE):
            raise ValueError(f"max_ring_size must be in [1, {DEFAULT_MAX_RING_SIZE}]")
        if self.max_factors < 1:
            raise ValueError("max_factors must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if not self.catalog:
            raise ValueError("the catalog is empty")
        factors = {}
        for entry in self.catalog:
            spec = parse_ring_spec(entry)
            if len(spec.factors) != 1 or len(spec.factors[0].idempotents) != 2:
                raise ValueError(f"catalog entry {entry!r} is not a local ring")
            factors.setdefault(format_ring_spec(spec), spec.factors[0])
        return [factors[text] for text in sorted(factors)]


def enumerate_sweep_specs(config: SweepConfig) -> list[RingSpec]:
    """Every multiset of 1..max_factors catalog rings whose product size is
    within bound, in the order of its canonical spec text.  The config is
    validated first, and the rings share the FactorSpec objects it returns,
    one per distinct catalog ring."""
    factors = config.validate()
    sizes = [f.size for f in factors]
    # Multisets as non-decreasing index tuples with their product size, grown
    # one factor at a time; one whose product exceeds the bound is dropped
    # at once, so the walk never extends a multiset it does not return.
    grown = [((i,), size) for i, size in enumerate(sizes) if size <= config.max_ring_size]
    combos = [combo for combo, _ in grown]
    for _ in range(config.max_factors - 1):
        grown = [
            (combo + (j,), size * sizes[j])
            for combo, size in grown
            for j in range(combo[-1], len(sizes))
            if size * sizes[j] <= config.max_ring_size
        ]
        if not grown:
            break
        combos.extend(combo for combo, _ in grown)
    specs = [RingSpec(tuple(factors[i] for i in combo)) for combo in combos]
    return sorted(specs, key=format_ring_spec)


def _classify_one(specs: list[RingSpec]) -> list[dict]:
    """One report per ring of a group whose specs have one `graph_key`.

    The group's graph is built, validated and recognized once, from its
    first ring; its equal key means every other ring has the same rows.
    Each ring still gets its own predictions, profiles, degree check,
    component-structure check and ring facts."""
    rings = [build_ring(spec) for spec in specs]
    g = build_idempotent_graph(rings[0])
    recognized = recognize_all(g)
    return [cross_validate(ring, g, recognized) for ring in rings]


def run_sweep(config: SweepConfig) -> dict:
    """Cross-validate every sweep ring; returns a deterministic summary.

    The rings' specs share one FactorSpec per catalog factor, so each
    factor's own facts (its elements, idempotents, atoms, doubling flags
    and offsets) are computed once per sweep, not once per ring.  Rings
    whose specs have equal `graph_key`s, such as GF(4) * Z3 and
    Z2[x]/(x^2) * Z3, have equal graphs, so each group of their specs is
    one job that builds, validates and recognizes its graph once: the
    default sweep's 403 rings make 222 jobs.  Nothing is kept from one call
    to the next.  A worker gets its own copy of the factors of each chunk."""
    specs = enumerate_sweep_specs(config)
    if not specs:
        raise ValueError(f"no catalog ring has at most {config.max_ring_size} elements")
    groups: dict[tuple, list[RingSpec]] = {}
    for spec in specs:
        groups.setdefault(graph_key(spec), []).append(spec)
    jobs = list(groups.values())
    # The pool starts every worker at once, so never ask for more than
    # there are CPUs or graphs.
    workers = min(config.parallelism, os.cpu_count() or 1, len(jobs))
    if workers > 1:
        # Each chunk of jobs is pickled as one object, so its jobs share
        # their FactorSpec objects in the worker, and a worker analyses
        # each factor once per chunk, not once per ring.  Four chunks per
        # worker, not one, so that a worker that finishes early takes more.
        chunk = -(-len(jobs) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = [r for group in pool.map(_classify_one, jobs, chunksize=chunk) for r in group]
    else:
        reports = [r for job in jobs for r in _classify_one(job)]
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
        # No sweep draws a random number.  The "random_seed" key stays, fixed,
        # because perfbench's test_checker_ignores_fields_outside_the_verdicts
        # deletes it; it goes when that test stops doing so.
        "config": {**asdict(config), "catalog": list(config.catalog), "random_seed": 0},
        "rings_checked": len(reports),
        "product_rings_checked": sum(1 for r in reports if len(r["factors"]) >= 2),
        "total_vertices": total_vertices,
        "properties_checked": properties_checked,
        "mismatch_count": len(mismatches),
        "mismatches": mismatches,
        "reports": reports,
    }


def summary_json(summary: dict) -> str:
    """The one JSON layout, for a sweep summary and for a single report:
    exactly the text of json.dumps(summary, indent=2, sort_keys=True),
    written without the pure-Python encoder that json.dumps falls back to
    when indent is set.

    Keys are sorted, each level is indented two spaces, items are separated
    by ",\n" and the indent, and a key is followed by ": ".  Strings and keys
    go through the C encode_basestring_ascii, as with ensure_ascii; ints are
    written by int.__repr__, tuples as lists.  The reports hold only dicts,
    lists, str, int, bool and None, so a float, a non-str key or any other
    type raises TypeError rather than being written in some other way.
    Each container is returned as one joined string, so a dict of scalars
    never becomes a list of pieces.

    A list item that is the same object as the item before it is written
    once and its text reused, so a census whose equal entries are one shared
    dict (see `theorems.cross_validate`) costs one entry's encoding.  The
    test is identity, never equality: True == 1 and 1.0 == 1, so text reused
    for an equal item would write 1 for True or pass a float unchecked."""
    return _json_text(summary, "\n")


_encode = json.encoder.encode_basestring_ascii

# The text of each scalar, by exact type: bool is its own type here, so True
# never takes the int route, and any other type, a float or a subclass of
# str or int among them, raises TypeError.
_SCALAR_TEXT = {
    str: _encode,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _json_text(value, indent: str) -> str:
    scalar = _SCALAR_TEXT.get
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _encode(k) + ": " + (text(v) if (text := scalar(type(v := value[k]))) else _json_text(v, inner))
            for k in sorted(value)
        ]) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        parts = []
        prev = parts  # no item of value is this new list
        for v in value:
            if v is not prev:
                prev = v
                last = text(v) if (text := scalar(type(v))) else _json_text(v, inner)
            parts.append(last)
        return "[" + inner + ("," + inner).join(parts) + indent + "]"
    text = scalar(type(value))
    if text is None:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return text(value)


def load_catalog_file(path: str) -> tuple[str, ...]:
    """One spec per line; blank lines and '#' comments ignored."""
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                entries.append(line)
    return tuple(entries)

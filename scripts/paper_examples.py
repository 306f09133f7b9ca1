#!/usr/bin/env python3
"""Classify the showcase rings: the three non-planar product rings built on
Z3[x]/(x^2), plus small rings hitting each branch of the characterization
theorems."""

from idemgraph.graphs import build_idempotent_graph
from idemgraph.rings import build_ring
from idemgraph.theorems import cross_validate

RINGS = [
    "Z3[x]/(x^2) * Z2",
    "Z3[x]/(x^2) * Z3",
    "Z3[x]/(x^2) * Z3[x]/(x^2)",
    "Z2 * Z2",
    "Z2 * Z2 * Z2",
    "GF(4) * Z2",
    "Z4 * Z9",
    "Z3 * Z2",
    "Z4 * Z2",
    "Z6",
]


def main():
    header = f"{'ring':<28}{'n':>5}  {'planar':<14}{'split':<14}{'cograph':<14}mismatches"
    print(header)
    print("-" * len(header))
    for spec in RINGS:
        ring = build_ring(spec)
        d = cross_validate(ring, build_idempotent_graph(ring))

        def cell(prop):
            return f"{d['predicted'][prop]}/{str(d['recognized'][prop]).lower()}"

        print(
            f"{spec:<28}{d['size']:>5}  {cell('planar'):<14}{cell('split'):<14}"
            f"{cell('cograph'):<14}{len(d['mismatches'])}"
        )


if __name__ == "__main__":
    main()

"""Recognizer self-test: fast decision procedures vs brute-force oracles.

Compares planar/outerplanar against the exhaustive minor search and
split/threshold/cograph against their forbidden-induced-subgraph oracles,
over every labeled graph with up to N vertices plus a seeded batch of
random graphs.
"""

from __future__ import annotations

import random

from .graphs import Graph, graph_from_edges
from .theorems import PROPERTIES

# The 33,868 labeled graphs on at most 6 vertices took 5.4 to 5.6 s of
# process time on a 2-CPU machine with Python 3.11.  n = 7 adds 2,097,152
# graphs at 0.20 to 0.29 ms each (a uniform sample of 5,000), 7 to 10 minutes.
MAX_EXHAUSTIVE_N = 6
MAX_RANDOM_N = 12
# About a minute at 0.5 to 0.7 ms per 12-vertex graph (2,000 random graphs at
# seed 0 took 0.97 to 1.46 s on the same machine).
MAX_RANDOM_COUNT = 100_000

# The properties that have a brute-force oracle to compare the recognizer with.
CHECKED = tuple(p for p in PROPERTIES if p.oracle is not None)


def all_graphs(n: int):
    """Every labeled simple graph on exactly n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[k] for k in range(len(pairs)) if (mask >> k) & 1]
        yield graph_from_edges(n, edges)


def random_graph(n: int, rng: random.Random) -> Graph:
    # Edge probability drawn per graph so both planar and dense non-planar
    # graphs show up in the sample.
    p = rng.uniform(0.1, 0.8)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def _compare(g: Graph, desc: str, disagreements: list[dict]):
    for prop in CHECKED:
        a = prop.recognize(g)
        b = prop.oracle(g)
        if a != b:
            disagreements.append(
                {
                    "graph": desc,
                    "property": prop.name,
                    "recognizer": a,
                    "oracle": b,
                    "edges": sorted(g.edges()),
                }
            )


def run_selftest(
    exhaustive_n: int = 6,
    random_count: int = 500,
    random_n: int = 12,
    seed: int = 0,
) -> dict:
    if not 0 <= exhaustive_n <= MAX_EXHAUSTIVE_N:
        raise ValueError(f"exhaustive_n must be in [0, {MAX_EXHAUSTIVE_N}], got {exhaustive_n}")
    if not 0 <= random_n <= MAX_RANDOM_N:
        raise ValueError(f"random_n must be in [0, {MAX_RANDOM_N}], got {random_n}")
    if not 0 <= random_count <= MAX_RANDOM_COUNT:
        raise ValueError(f"random_count must be in [0, {MAX_RANDOM_COUNT}], got {random_count}")
    disagreements: list[dict] = []
    graphs_checked = 0
    for n in range(exhaustive_n + 1):
        for g in all_graphs(n):
            _compare(g, f"exhaustive n={n} #{graphs_checked}", disagreements)
            graphs_checked += 1
    rng = random.Random(seed)
    for i in range(random_count):
        g = random_graph(random_n, rng)
        _compare(g, f"random n={random_n} #{i} seed={seed}", disagreements)
        graphs_checked += 1
    return {
        "exhaustive_n": exhaustive_n,
        "random_count": random_count,
        "random_n": random_n,
        "seed": seed,
        "graphs_checked": graphs_checked,
        "properties": [p.name for p in CHECKED],
        "disagreement_count": len(disagreements),
        "disagreements": disagreements,
    }

"""Recognizer self-test: every verdict of the fast decision procedures is
checked independently, over every labeled graph with up to N vertices plus
a seeded batch of random graphs.

Planar, outerplanar, split and threshold run in their certifying form,
once per graph, and a verdict that comes with evidence is checked by
`certificates` in linear time: a yes by its certificate (the pieces and
their faces, or the clique size of a split or threshold graph), a planar or
outerplanar no by the piece whose edge count rejects it.  Only a verdict
with no evidence goes to the brute-force oracle of `oracles`: a planar or
outerplanar no that path addition decided to the minor search, a split or
threshold no and every cograph verdict to the forbidden-induced-subgraph
search.  Those searches are slowest on a yes, where they must rule out
every minor or pattern, and a yes always comes with its certificate.
"""

from __future__ import annotations

import random

from .graphs import Graph, graph_from_edges
from .oracles import MAX_ORACLE_VERTICES
from .theorems import PROPERTIES

# The 33,868 labeled graphs on at most 6 vertices took 4.7 to 6.2 s of
# process time on a 2-CPU machine with Python 3.11.  n = 7 adds 2,097,152
# graphs at 0.17 to 0.26 ms each (a uniform sample of 5,000), 6 to 9 minutes.
MAX_EXHAUSTIVE_N = 6
MAX_RANDOM_N = MAX_ORACLE_VERTICES
# Half a minute to three quarters at 0.26 to 0.43 ms per 12-vertex graph
# (2,000 random graphs at seed 0 took 0.52 to 0.85 s on the same machine).
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
    """Run each checked recognizer once on g and check its verdict: one with
    evidence by the row's checker, anything else by the row's oracle.  A
    verdict whose evidence fails is a disagreement with the checker, which
    then reads the opposite verdict: False for a yes certificate, True for
    a no witness."""
    for prop in CHECKED:
        if prop.certify is None:
            a, evidence = prop.recognize(g), None
        else:
            a, evidence = prop.certify(g)
        if evidence is None:
            checked_by, b = "oracle", prop.oracle(g)
        else:
            checked_by = "certificate" if a else "witness"
            b = a == prop.check(g, a, evidence)
        if a != b:
            disagreements.append(
                {
                    "graph": desc,
                    "property": prop.name,
                    "recognizer": a,
                    "oracle": b,
                    "checked_by": checked_by,
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

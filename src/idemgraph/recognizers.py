"""Graph-class recognizers: planar, outerplanar, split, threshold, cograph,
cactus, unicyclic.

Each recognizer is a polynomial-time decision procedure; the matching
brute-force oracles live in `oracles` and the two are compared head-to-head
by the self-test harness.  Planarity delegates to networkx's left-right
planarity check; everything else works directly on bitset rows.
"""

from __future__ import annotations

import networkx as nx

from .graphs import Graph, is_connected, masked_components, set_bits


def _to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def is_planar(g: Graph) -> bool:
    # Euler bound: a planar graph on n >= 3 vertices has at most 3n - 6 edges.
    if g.n >= 3 and g.edge_count() > 3 * g.n - 6:
        return False
    ok, _ = nx.check_planarity(_to_networkx(g), counterexample=False)
    return ok


def is_outerplanar(g: Graph) -> bool:
    # An outerplanar graph on n >= 2 vertices has at most 2n - 3 edges, and
    # one on n >= 1 vertices has a vertex of degree at most 2.
    if g.n >= 2 and g.edge_count() > 2 * g.n - 3:
        return False
    if g.n and min(r.bit_count() for r in g.rows) >= 3:
        return False
    # Standard reduction: outerplanar iff the graph plus an apex vertex
    # adjacent to everything is planar.
    full = (1 << g.n) - 1
    rows = [r | (1 << g.n) for r in g.rows]
    rows.append(full)
    return is_planar(Graph(g.n + 1, rows))


def is_split(g: Graph) -> bool:
    """Degree-sequence characterization (Hammer-Simeone).

    With d_1 >= ... >= d_n and m = max{i : d_i >= i - 1}, the graph is
    split iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i.
    """
    degs = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    m = 0
    for i, d in enumerate(degs, start=1):
        if d >= i - 1:
            m = i
    lhs = sum(degs[:m])
    rhs = m * (m - 1) + sum(degs[m:])
    return lhs == rhs


def is_threshold(g: Graph) -> bool:
    """Peel vertices that are isolated or dominating until nothing is left."""
    alive = (1 << g.n) - 1
    count = g.n
    while count:
        progress = False
        a = alive
        while a:
            v = (a & -a).bit_length() - 1
            a &= a - 1
            d = (g.rows[v] & alive).bit_count()
            if d == 0 or d == count - 1:
                alive &= ~(1 << v)
                count -= 1
                progress = True
                break
        if not progress:
            return False
    return True


def is_cograph(g: Graph) -> bool:
    """Cotree decomposition: every induced subgraph on >= 2 vertices must be
    disconnected or have a disconnected complement."""
    co_rows = [r ^ -1 for r in g.rows]
    stack = [(1 << g.n) - 1]
    while stack:
        mask = stack.pop()
        if mask.bit_count() < 2:
            continue
        parts = masked_components(g.rows, mask)
        if len(parts) == 1:
            co_parts = masked_components(co_rows, mask)
            if len(co_parts) == 1:
                return False
            stack.extend(co_parts)
        else:
            stack.extend(parts)
    return True


def is_cactus(g: Graph) -> bool:
    """Connected and every biconnected block is a single edge or a cycle
    (equivalently: no edge lies on two simple cycles).  A cactus has at
    most 3(n - 1)/2 edges, so denser graphs are rejected without a search."""
    if g.n == 0 or 2 * g.edge_count() > 3 * (g.n - 1) or not is_connected(g):
        return False
    for block_edges in _biconnected_blocks(g):
        verts = {v for e in block_edges for v in e}
        if len(block_edges) > len(verts):
            return False
    return True


def _biconnected_blocks(g: Graph):
    """Edge sets of the biconnected blocks (iterative Hopcroft-Tarjan)."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    edge_stack: list[tuple[int, int]] = []
    for root in range(g.n):
        if disc[root]:
            continue
        stack = [(root, -1, iter(set_bits(g.rows[root])))]
        disc[root] = low[root] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if not disc[v]:
                    edge_stack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(set_bits(g.rows[v]))))
                    advanced = True
                    break
                if v != parent and disc[v] < disc[u]:
                    edge_stack.append((u, v))
                    low[u] = min(low[u], disc[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                pu = stack[-1][0]
                low[pu] = min(low[pu], low[u])
                if low[u] >= disc[pu]:
                    block = []
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (pu, u):
                            break
                    if block:
                        yield block


def is_unicyclic(g: Graph) -> bool:
    return g.n > 0 and g.edge_count() == g.n and is_connected(g)

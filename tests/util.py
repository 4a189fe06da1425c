"""Shared test helpers: graph builders and independent oracles.

The oracles here deliberately use different algorithms than the package
(Floyd-Warshall instead of BFS, union-find instead of traversal, naive
iterated removal for the 2-core) so tests cross-check rather than echo the
implementation.
"""
from __future__ import annotations

import itertools
import random

from netgeom.graph import Graph, load_edge_list

INF = float("inf")


def from_edges(pairs) -> Graph:
    """Build a graph from (a, b) label pairs via the text loader."""
    return load_edge_list(f"{a} {b}" for a, b in pairs)


def complete_graph(n: int) -> Graph:
    return from_edges(itertools.combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return from_edges((i, i + 1) for i in range(n - 1))


def cycle_graph(n: int) -> Graph:
    return from_edges((i, (i + 1) % n) for i in range(n))


def star_graph(leaves: int) -> Graph:
    """Hub labelled 0 plus ``leaves`` pendant nodes."""
    return from_edges((0, i) for i in range(1, leaves + 1))


def random_connected(n: int, extra: int, rng: random.Random) -> Graph:
    """Random spanning tree over a shuffled node order plus extra edges."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    edges = set()
    for i in range(1, n):
        a, b = nodes[i], nodes[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for _ in range(extra):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return from_edges(sorted(edges))


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Random simple graph, possibly disconnected; at least one edge."""
    edges = set()
    cap = n * (n - 1) // 2
    target = max(1, min(m, cap))
    while len(edges) < target:
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return from_edges(sorted(edges))


def fw_distances(g: Graph) -> list[list[float]]:
    """Floyd-Warshall all-pairs distances; INF where unreachable."""
    n = g.node_count
    dist = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    for a, b in g.edges():
        dist[a][b] = 1.0
        dist[b][a] = 1.0
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            dik = dist[i][k]
            if dik == INF:
                continue
            di = dist[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < di[j]:
                    di[j] = alt
    return dist


def uf_components(g: Graph) -> list[set[int]]:
    """Union-find connected components, as a list of node-id sets."""
    parent = list(range(g.node_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in g.edges():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set[int]] = {}
    for v in range(g.node_count):
        groups.setdefault(find(v), set()).add(v)
    return list(groups.values())


def oracle_two_core(g: Graph) -> set[int]:
    """Maximal subgraph of minimum degree two, by naive repeated removal."""
    alive = set(range(g.node_count))
    deg = {v: g.degree(v) for v in alive}
    changed = True
    while changed:
        changed = False
        for v in list(alive):
            if deg[v] < 2:
                alive.discard(v)
                for u in g.neighbors(v):
                    if u in alive:
                        deg[u] -= 1
                changed = True
    return alive


def brute_force_min_cover(coords, tolerance: int) -> int:
    """Smallest reference subset meeting the coverage rule, by enumeration."""
    n = len(coords)
    pairs = [(p, q) for p in range(n) for q in range(p + 1, n)]
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if all(
                any(
                    abs(coords[p][k] - coords[q][k])
                    >= max(0, coords[p][q] - tolerance)
                    for k in subset
                )
                for p, q in pairs
            ):
                return size
    raise AssertionError("full reference set must always cover")


def greedy_cover(rows) -> list[int]:
    """Plain greedy set cover over ((p, q), covering references) rows.

    Each round picks the reference covering the most still-uncovered rows,
    ties to the lowest reference; returns the picks in order.
    """
    uncovered = [set(cols) for _, cols in rows]
    picks: list[int] = []
    while uncovered:
        counts: dict[int, int] = {}
        for cols in uncovered:
            for c in cols:
                counts[c] = counts.get(c, 0) + 1
        best = min(counts, key=lambda c: (-counts[c], c))
        picks.append(best)
        uncovered = [cols for cols in uncovered if best not in cols]
    return picks

"""Shared test helpers: graph builders and independent oracles.

The oracles here deliberately use different algorithms than the package
(Floyd-Warshall instead of BFS, union-find instead of traversal, naive
iterated removal for the 2-core) so tests cross-check rather than echo the
implementation.
"""
from __future__ import annotations

import io
import itertools
import math
import random
from collections import deque
from fractions import Fraction

import numpy as np

from netgeom.crawl import CrawlTrace, TraceParseError
from netgeom.generators import AppendageSpec
from netgeom.graph import EdgeListParseError, Graph, load_edge_list

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


def edge_list_tokens_oracle(lines) -> list[str]:
    """The data tokens of edge-list lines in order, by a plain line loop that
    strips each line before it tests for a blank or '#' line. Raises
    EdgeListParseError with the parser's line number and message."""
    tokens: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        pair = line.split()
        if len(pair) != 2:
            raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(pair)}: {raw.rstrip()!r}")
        tokens += pair
    return tokens


def parse_edge_list_oracle(lines) -> tuple[tuple[str, ...], set[tuple[int, int]], int, int]:
    """The line-by-line edge-list reader as a plain loop over sets: labels in
    first-appearance order, the edge set (u < v), self-loops and duplicates.
    Raises EdgeListParseError with the parser's line number and message."""
    index: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    loops = dups = 0
    tokens = edge_list_tokens_oracle(lines)
    for pair in zip(tokens[0::2], tokens[1::2]):
        a, b = (index.setdefault(t, len(index)) for t in pair)
        if a == b:
            loops += 1
        elif (min(a, b), max(a, b)) in edges:
            dups += 1
        else:
            edges.add((min(a, b), max(a, b)))
    return tuple(index), edges, loops, dups


def restrict(g: Graph, nodes) -> tuple[list[list[int]], tuple[int, ...]]:
    """Adjacency lists of the subgraph induced on ``nodes`` (renumbered in
    increasing order) and the kept node ids, by plain set filtering."""
    keep = sorted(set(nodes))
    new = {v: i for i, v in enumerate(keep)}
    adj: list[list[int]] = [[] for _ in keep]
    for a, b in g.edges():
        if a in new and b in new:
            adj[new[a]].append(new[b])
            adj[new[b]].append(new[a])
    return adj, tuple(keep)


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


def chains_oracle(g: Graph, root: int | None = None) -> list[tuple[tuple[int, ...], int | None]]:
    """Pendant chains of a connected graph as sorted (nodes loner-first, attachment) pairs.

    The peeled nodes, those outside ``oracle_two_core``, form trees that hang
    from one core node each, or, when the core is empty, one tree rooted at
    ``root`` (where the peel ends is the peel's own choice). Subtree heights
    come by plain recursion. A chain runs down from its top, at every branch
    into the tallest child, ties to the smallest index; every other child tops
    a chain of its own, hung from the branch node.
    """
    core = oracle_two_core(g)
    parent: dict[int, int | None] = {root: None} if not core else {}
    stack = [root] if not core else []
    for c in core:
        for w in g.neighbors(c):
            if w not in core:
                parent[w] = c
                stack.append(w)
    kids: dict[int, list[int]] = {v: [] for v in range(g.node_count)}
    while stack:
        x = stack.pop()
        for y in g.neighbors(x):
            if y not in core and y not in parent:
                parent[y] = x
                kids[x].append(y)
                stack.append(y)

    def height(x: int) -> int:
        return 1 + max((height(c) for c in kids[x]), default=0)

    chains = []

    def split(top: int, attach: int | None) -> None:
        nodes = [top]
        while kids[nodes[-1]]:
            best, *rest = sorted(kids[nodes[-1]], key=lambda c: (-height(c), c))
            for other in rest:
                split(other, nodes[-1])
            nodes.append(best)
        chains.append((tuple(reversed(nodes)), attach))

    for v, p in parent.items():
        if p is None or p in core:
            split(v, p)
    return sorted(chains)


def fibers_oracle(g: Graph) -> tuple[list[tuple[tuple[int, ...], tuple[int, int]]], list[tuple[int, ...]]]:
    """Fibers as sorted (inner nodes, endpoints) pairs, and the pure cycles of the 2-core.

    The core nodes of core degree 2 fall into union-find components. One that
    touches no node of core degree >= 3 is a pure cycle, listed from its
    smallest node toward that node's smaller neighbour; cycles are sorted.
    Any other is a fiber: a path whose two ends each have one more core
    neighbour outside it, the endpoints. It is listed from whichever end
    gives the smaller (endpoint, inner nodes).
    """
    core = oracle_two_core(g)
    nbrs = {v: sorted(w for w in g.neighbors(v) if w in core) for v in core}
    two = {v for v in core if len(nbrs[v]) == 2}
    leader = {v: v for v in two}

    def find(x: int) -> int:
        while leader[x] != x:
            x = leader[x]
        return x

    for v in two:
        for w in nbrs[v]:
            if w in two:
                leader[find(v)] = find(w)
    groups: dict[int, set[int]] = {}
    for v in two:
        groups.setdefault(find(v), set()).add(v)

    def line(first: int, second: int, members: set[int]) -> list[int]:
        """Walk from ``first`` through ``second`` while inside ``members``."""
        out = [first]
        prev, cur = first, second
        while cur in members and cur != first:
            out.append(cur)
            prev, cur = cur, next(w for w in nbrs[cur] if w != prev)
        return out

    fibers, cycles = [], []
    for members in groups.values():
        outside = [(v, w) for v in sorted(members) for w in nbrs[v] if w not in members]
        if not outside:
            start = min(members)
            cycles.append(tuple(line(start, nbrs[start][0], members)))
            continue
        (end, a), (far_end, b) = outside  # one step out at each end of the path
        inner = line(a, end, members)[1:]
        assert inner[-1] == far_end
        fibers.append(min((tuple(inner), (a, b)), (tuple(reversed(inner)), (b, a)),
                          key=lambda f: (f[1][0], f[0])))
    return sorted(fibers), sorted(cycles)


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


def distortion_oracle(g: Graph, references) -> tuple[int, dict[int, int], float | None]:
    """Max hop shortfall, shortfall histogram and max relative shortfall
    (d_true / d_estimate - 1 over the pairs with a nonzero estimate, None if
    there are none) of the Chebyshev estimate over ``references``, pair by
    pair in Python ints and floats."""
    d = [[int(x) for x in row] for row in fw_distances(g)]
    hist: dict[int, int] = {}
    rel = None
    for p, q in itertools.combinations(range(len(d)), 2):
        est = max(abs(d[p][r] - d[q][r]) for r in references)
        hist[d[p][q] - est] = hist.get(d[p][q] - est, 0) + 1
        if est:
            x = d[p][q] / est - 1.0
            rel = x if rel is None else max(rel, x)
    return max(hist, default=0), hist, rel


def crawl_oracle(g: Graph, start: int, policy: str, stride: int, seed: int) -> tuple[list[int], list[int]]:
    """P and D samples of a crawl, as one plain loop over neighbour tuples."""
    rng = random.Random(seed)
    seen = {start}
    frontier: deque[int] | list[int] = deque([start]) if policy == "fifo" else [start]
    processed = 0
    ps: list[int] = []
    ds: list[int] = []
    while frontier:
        if policy == "fifo":
            u = frontier.popleft()
        else:
            i = rng.randrange(len(frontier))
            frontier[i], frontier[-1] = frontier[-1], frontier[i]
            u = frontier.pop()
        processed += 1
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
        if processed % stride == 0:
            ps.append(processed)
            ds.append(len(frontier))
    if not ps or ps[-1] != processed:
        ps.append(processed)
        ds.append(0)
    return ps, ds


def read_trace_oracle(path: str) -> CrawlTrace:
    """A trace file decoded whole, then read by one loop over its text lines, as
    ``read_trace_csv`` reads the files its numpy pass turns down, with the same errors."""
    meta: dict = {"policy": "fifo", "stride": 1, "seed": 0, "start": 0, "true_size": 0, "complete": 1}
    ps: list[int] = []
    ds: list[int] = []
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8-sig")  # bytes that are not UTF-8 anywhere win over a bad line
    with io.StringIO(text, newline="") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    k, sep, v = token.partition("=")
                    if not sep or k not in meta:
                        continue
                    if k != "policy":
                        try:
                            v = int(v)
                        except ValueError:
                            raise TraceParseError(line_no, f"header {token!r} is not an integer") from None
                        if k == "true_size" and not -(2**63) <= v < 2**63:
                            raise TraceParseError(line_no, f"header {token!r} is not a signed 64-bit integer")
                    meta[k] = v
                continue
            cells = line.split(",")
            if cells[0] == "sample_index":
                continue
            if len(cells) < 3:
                raise TraceParseError(line_no, f"expected at least 3 cells, got {len(cells)}: {line!r}")
            try:
                p, d = int(cells[1]), int(cells[2])
            except ValueError:
                raise TraceParseError(line_no, f"P and D must be integers: {line!r}") from None
            if not (-(2**63) <= p < 2**63 and -(2**63) <= d < 2**63):
                raise TraceParseError(line_no, f"P and D must be signed 64-bit integers: {line!r}")
            if ps and p <= ps[-1]:
                raise TraceParseError(line_no, f"P must be strictly increasing, got {p} after {ps[-1]}")
            ps.append(p)
            ds.append(d)
    return CrawlTrace(p=tuple(ps), d=tuple(ds), policy=meta["policy"], stride=meta["stride"], seed=meta["seed"],
                      start=meta["start"], true_size=meta["true_size"], complete=bool(meta["complete"]))


def appendage_oracle(spec: AppendageSpec) -> tuple[Graph, tuple[str, ...]]:
    """``generate_appendage_graph`` by plain loops, with the same random draws in the same order:
    the core's components by union-find and its edges read cell by cell off its adjacency matrix,
    then each tentacle and fiber appended edge by edge to one Python list for ``Graph.from_edges``."""
    rng = np.random.default_rng(spec.seed)
    m = spec.core_size
    if spec.core_kind == "complete":
        edges = list(itertools.combinations(range(m), 2))
    else:
        adj = np.triu(rng.random((m, m)) < spec.edge_prob, 1)
        pairs = [(u, v) for u in range(m) for v in range(m) if adj[u, v]]
        comps = sorted(sorted(c) for c in uf_components(Graph.from_edges(m, pairs)))  # by smallest node
        for comp in comps[1:]:
            u, v = rng.choice(comp), rng.choice(comps[0])
            adj[u, v] = True
        adj |= adj.T
        np.fill_diagonal(adj, True)
        for u in range(m):
            while adj[u].sum() < 4:
                v = rng.choice(np.flatnonzero(~adj[u]))
                adj[u, v] = adj[v, u] = True
        edges = [(u, v) for u in range(m) for v in range(u + 1, m) if adj[u, v]]
    if (spec.tentacle_lengths or spec.fiber_inner_counts) and m < 4:
        raise ValueError("core too small to host attachments (no core node of degree >= 3)")
    roles = ["core"] * m
    next_id = m
    for length in spec.tentacle_lengths:
        prev = int(rng.choice(m))
        for i in range(length):
            edges.append((prev, next_id))
            roles.append("loner" if i == length - 1 else "tentacle")
            prev, next_id = next_id, next_id + 1
    for inner in spec.fiber_inner_counts:
        if spec.allow_fiber_loops:
            a = int(rng.choice(m))
            b = int(rng.choice(m))
            while inner == 1 and b == a:
                b = int(rng.choice(m))
        else:
            a, b = rng.choice(m, size=2, replace=False).tolist()
        prev = a
        for _ in range(inner):
            edges.append((prev, next_id))
            roles.append("fiber")
            prev, next_id = next_id, next_id + 1
        edges.append((prev, b))
    return Graph.from_edges(next_id, edges), tuple(roles)


def senior_neighbor_counts(g: Graph, threshold: int) -> list[int]:
    """Senior neighbours of each senior node (degree >= threshold), in node order."""
    senior = [g.degree(v) >= threshold for v in range(g.node_count)]
    return [sum(senior[w] for w in g.neighbors(v)) for v in range(g.node_count) if senior[v]]


def personality_oracle(g: Graph, tau: float) -> dict:
    """Every field of ``personality_report(g, tau)`` but ``tau``, by plain loops over nodes and edges."""
    deg = [g.degree(v) for v in range(g.node_count)]
    nmd = [sum(deg[w] for w in g.neighbors(v)) / deg[v] for v in range(g.node_count)]
    score = [math.log10(m) - math.log10(d) for m, d in zip(nmd, deg)]
    classes = ["popular" if s < -tau else "marginal" if s > tau else "neutral" for s in score]
    order = ("popular", "neutral", "marginal")
    counts = {c: classes.count(c) for c in order}
    pool = [[0, 0, 0] for _ in order]
    for v in range(g.node_count):
        for w in g.neighbors(v):
            pool[order.index(classes[v])][order.index(classes[w])] += 1
    return {
        "degree": tuple(deg),
        "neighbor_mean_degree": tuple(nmd),
        "activity_ratio": tuple(m / d for m, d in zip(nmd, deg)),
        "score": tuple(score),
        "classes": tuple(classes),
        "class_counts": counts,
        "marginal_popular_ratio": counts["marginal"] / counts["popular"] if counts["popular"] else None,
        "mixing": {c: tuple(x / sum(row) for x in row) if sum(row) else None for c, row in zip(order, pool)},
    }


def line_fit_oracle(x, y, w) -> tuple[float, float, float]:
    """Weighted least-squares line through one window or segment: (slope, intercept, sse).

    Sums are taken directly over the given points, about the weighted means,
    in exact rational arithmetic (a float converts to a Fraction exactly), so
    only the three returned values are rounded.
    """
    xs, ys, ws = ([Fraction(v) for v in col] for col in (x, y, w))
    sw = sum(ws)
    mx = sum(a * b for a, b in zip(ws, xs)) / sw
    my = sum(a * b for a, b in zip(ws, ys)) / sw
    sxx = sum(a * (b - mx) ** 2 for a, b in zip(ws, xs))
    sxy = sum(a * (b - mx) * (c - my) for a, b, c in zip(ws, xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    sse = sum(a * (c - intercept - slope * b) ** 2 for a, b, c in zip(ws, xs, ys))
    return float(slope), float(intercept), float(sse)

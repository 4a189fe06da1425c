"""Structure of a connected graph at the scale between single nodes and the
whole graph: dense-core extraction with pendant-chain ("tentacle") and
attached-chain ("fiber") inventories, node depth maps, depth-density profiles
and neighbor-degree ("personality") classification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import (
    Graph,
    _component_ids,
    _core_blocks,
    _distance_blocks,
    _Forest,
    _induced,
    _peel,
    _require_connected,
    _row_sums,
    _sources,
)
from .stats import Histogram

__all__ = [
    "Tentacle",
    "Fiber",
    "Decomposition",
    "GeometricFit",
    "DepthMap",
    "PersonalityReport",
    "PERSONALITY_CLASSES",
    "decompose",
    "tentacle_histogram",
    "fiber_histogram",
    "depth_map",
    "depth_map_per_component",
    "depth_density_profile",
    "personality_report",
]

PERSONALITY_CLASSES = ("popular", "neutral", "marginal")


@dataclass(frozen=True)
class Tentacle:
    """Pendant chain peeled off the dense core, listed loner-first.

    ``attached_to`` is the node the chain hangs from: a dense-core node for
    chains rooted at the core, another chain node where a pendant tree
    branches, or None for the trunk of a fully peeled (tree) component.
    """

    nodes: tuple[int, ...]
    attached_to: int | None

    @property
    def loner(self) -> int:
        return self.nodes[0]

    @property
    def length(self) -> int:
        """Hop count from the attachment point to the loner (== node count)."""
        return len(self.nodes)


@dataclass(frozen=True)
class Fiber:
    """Chain of degree-2 core nodes strung between two attachment nodes of
    core degree >= 3. ``endpoints`` are the attachment nodes (not part of the
    fiber); a fiber whose ends meet the same node is a loop ("handle").
    """

    inner: tuple[int, ...]
    endpoints: tuple[int, int]

    @property
    def is_loop(self) -> bool:
        return self.endpoints[0] == self.endpoints[1]

    @property
    def hops(self) -> int:
        """Endpoint-to-endpoint hop count (inner nodes + 1)."""
        return len(self.inner) + 1


@dataclass(frozen=True)
class GeometricFit:
    """Maximum-likelihood geometric law on {1, 2, ...}: p = 1 / sample mean."""

    p: float
    mean: float
    count: int


@dataclass(frozen=True)
class Decomposition:
    """Partition of a connected graph into its 2-core and pendant chains.

    ``roles[v]`` is "core" or "tentacle". ``dense_core`` is the induced 2-core
    with ``origin_nodes`` mapping back to the input graph. ``cycles`` lists
    core components that are pure cycles (every node degree 2); their nodes are
    core members, not fibers.
    """

    roles: tuple[str, ...]
    tentacles: tuple[Tentacle, ...]
    fibers: tuple[Fiber, ...]
    cycles: tuple[tuple[int, ...], ...]
    dense_core: Graph

    @property
    def core_size(self) -> int:
        return self.dense_core.node_count

    @property
    def tentacle_node_count(self) -> int:
        return sum(len(t.nodes) for t in self.tentacles)

    def node_labels(self) -> tuple[str, ...]:
        """Fine-grained roles: core / tentacle / loner / fiber."""
        labels = list(self.roles)
        for t in self.tentacles:
            labels[t.loner] = "loner"
        for f in self.fibers:
            for v in f.inner:
                labels[v] = "fiber"
        return tuple(labels)


def _split_chains(forest: _Forest) -> list[Tentacle]:
    """Break the peeled forest into maximal chains, loner-first.

    One pass in peel order, children before their parent, gives each peeled
    node its ``reach``, the node count of the longest chain below it, itself
    included, and its ``heir``, the peeled child of largest reach (ties to the
    smallest index). Every peeled node that is not its parent's heir starts a
    chain, which follows heir links down to its loner. The chain hangs from
    the top node's parent, or from None at the root of a component that peels
    away completely.
    """
    order, parent = forest.order, forest.parent
    reach, heir = [0] * len(parent), [-1] * len(parent)
    for u in order:
        reach[u] += 1
        if (p := parent[u]) >= 0 and (reach[u], -u) > (reach[p], -heir[p]):
            reach[p], heir[p] = reach[u], u
    tentacles: list[Tentacle] = []
    for u in order:
        p = parent[u]
        # a core parent is never peeled, so its reach stays that of its heir
        if p >= 0 and heir[p] == u and reach[p] > reach[u]:
            continue
        chain = [u]
        while heir[chain[-1]] >= 0:
            chain.append(heir[chain[-1]])
        tentacles.append(Tentacle(nodes=tuple(reversed(chain)), attached_to=p if p >= 0 else None))
    tentacles.sort(key=lambda t: t.nodes)
    return tentacles


def _find_fibers(g: Graph, core: np.ndarray) -> tuple[list[Fiber], list[tuple[int, ...]]]:
    """Locate degree-2 chains and pure cycles inside the core subgraph.

    From each unseen core node of core degree 2, one walk runs to a terminal
    (a node of another core degree) or all the way round a pure cycle; from
    that terminal, one walk runs back across the whole chain. A fiber is
    listed from whichever end gives the smaller (endpoint, inner nodes).
    """
    cdeg_array = _row_sums(g, core)
    cdeg, inside = cdeg_array.tolist(), core.tolist()
    seen: set[int] = set()
    fibers: list[Fiber] = []
    cycles: list[tuple[int, ...]] = []

    def walk(prev: int, cur: int) -> tuple[list[int], int]:
        """Step from prev to cur and on through nodes of core degree 2; return
        those nodes and where the walk stops: at a terminal, or back at the
        first node after a pure cycle."""
        run: list[int] = []
        while cdeg[cur] == 2:
            run.append(cur)
            a, b = (w for w in g.neighbors(cur) if inside[w])
            prev, cur = cur, b if a == prev else a
            if cur == run[0]:
                break
        return run, cur

    for v in np.flatnonzero(core & (cdeg_array == 2)).tolist():
        if v in seen:
            continue
        _, right = (w for w in g.neighbors(v) if inside[w])
        run, end = walk(right, v)  # from v toward its smaller core neighbour
        if end == v:
            cycles.append(tuple(run))
            seen.update(run)
            continue
        inner, far = walk(end, run[-1])
        if (far, inner[::-1]) < (end, inner):
            end, far, inner = far, end, inner[::-1]
        fibers.append(Fiber(inner=tuple(inner), endpoints=(end, far)))
        seen.update(inner)
    fibers.sort(key=lambda f: f.inner)
    return fibers, cycles


def decompose(gc: Graph) -> Decomposition:
    """Split a connected graph into its 2-core plus pendant chains.

    Degree-1 nodes are peeled iteratively; what remains is the dense core.
    Peeled nodes are grouped into loner-first chains. Inside the core, maximal
    degree-2 chains whose both terminals have core degree >= 3 are reported as
    fibers; core components that are pure cycles are reported separately. A
    tree input yields the degenerate result with an empty core (not an error).

    Raises ValueError for empty or disconnected input.
    """
    n = gc.node_count
    if n == 0:
        raise ValueError("cannot decompose an empty graph")
    _require_connected(gc, "decompose one component at a time")

    forest = _peel(gc)
    core = np.ones(n, dtype=bool)
    core[forest.order] = False
    fibers, cycles = _find_fibers(gc, core)
    return Decomposition(
        roles=tuple(np.where(core, "core", "tentacle").tolist()),
        tentacles=tuple(_split_chains(forest)),
        fibers=tuple(fibers),
        cycles=tuple(cycles),
        dense_core=_induced(gc, np.flatnonzero(core)),
    )


def _geometric_fit(values: list[int]) -> GeometricFit | None:
    if not values:
        return None
    mean = sum(values) / len(values)
    return GeometricFit(p=1.0 / mean, mean=mean, count=len(values))


def tentacle_histogram(d: Decomposition) -> tuple[Histogram, GeometricFit | None]:
    """Histogram of tentacle hop lengths with a geometric-law MLE (None if no tentacles)."""
    lengths = [t.length for t in d.tentacles]
    return Histogram.from_values(lengths), _geometric_fit(lengths)


def fiber_histogram(d: Decomposition) -> tuple[Histogram, GeometricFit | None]:
    """Histogram of fiber inner-node counts with a geometric-law MLE.

    Endpoint-to-endpoint hop counts are inner + 1 (see Fiber.hops).
    """
    inner = [len(f.inner) for f in d.fibers]
    return Histogram.from_values(inner), _geometric_fit(inner)


@dataclass(frozen=True)
class DepthMap:
    """Per-node depth: mean hop distance to the rest of the graph.

    Sampled mode averages distance to a fixed shared anchor set instead, so
    values stay comparable across nodes; ``anchors`` records the set.
    """

    depths: tuple[float, ...]
    mean_depth: float
    mode: str
    anchors: tuple[int, ...] | None = None
    seed: int | None = None


def depth_map(g: Graph, mode: str = "exact", anchors: int | None = None, seed: int = 0) -> DepthMap:
    """Depth (mean BFS distance) of every node of a connected graph.

    Exact mode averages over all other nodes; its mean depth equals the mean
    pairwise shortest-path length. It traverses only the 2-core and adds the
    pendant trees by exact integer arithmetic (see ``_distance_sums``).
    Sampled mode traverses the whole graph and averages over ``anchors``
    distinct uniformly chosen anchor nodes shared by all nodes (a node that is
    itself an anchor contributes its own zero distance). Raises ValueError on
    disconnected input.
    """
    if g.node_count == 0:
        raise ValueError("depth of an empty graph is undefined")
    _require_connected(g, "see depth_map_per_component")
    return _depth_map(g, mode, anchors, seed)


def _depth_map(g: Graph, mode: str, anchors: int | None, seed: int) -> DepthMap:
    """``depth_map`` of a graph known to be connected and not empty."""
    n = g.node_count
    if mode == "exact":
        depths = tuple((_distance_sums(g) / max(n - 1, 1)).tolist())
        return DepthMap(depths=depths, mean_depth=sum(depths) / n, mode=mode)
    chosen = _sources(n, mode, anchors, seed, "anchors")
    sums = sum(block.sum(axis=0, dtype=np.int64) for block in _distance_blocks(g, chosen))
    depths = tuple((sums / len(chosen)).tolist())
    return DepthMap(depths=depths, mean_depth=sum(depths) / n, mode=mode, anchors=chosen, seed=seed)


def _distance_sums(g: Graph) -> np.ndarray:
    """Per node, the sum of its hop distances to every node of connected ``g``, as int64.

    The kernel runs from the roots of the pendant forest over the core they
    induce. A root's sum weights each root's distance by the node count of
    the tree there, and adds the height of every node. A tree node t with root
    a and height h is h + d(a, y) hops from every y outside a's tree, so its
    sum is its sum within the tree, plus h for each node outside the tree, plus
    a's own sum outside the tree.
    """
    forest = _peel(g)
    core, anchor, height, size = forest.core, forest.anchor, forest.height, forest.size
    sums = np.zeros(g.node_count, dtype=np.int64)
    sums[core] = np.concatenate([block @ size[core] for block in _core_blocks(g, forest)]) + height.sum()
    within = _tree_sums(forest)
    return within + height * (g.node_count - size[anchor]) + sums[anchor] - within[anchor]


def _tree_sums(forest: _Forest) -> np.ndarray:
    """Per node, the sum of its hop distances to the nodes of its own tree.

    One pass in peel order sums the hops from each node down into its subtree;
    at a root that is the whole tree. One pass back down reroots: a child is
    one hop nearer its own subtree and one hop farther from the rest of the tree.
    """
    parent, size, anchor = forest.parent, forest.size.tolist(), forest.anchor.tolist()
    sums = [0] * len(parent)
    for u in forest.order:
        if (p := parent[u]) >= 0:
            sums[p] += sums[u] + size[u]
    for u in reversed(forest.order):
        if (p := parent[u]) >= 0:
            sums[u] = sums[p] + size[anchor[u]] - 2 * size[u]
    return np.array(sums, dtype=np.int64)


def depth_map_per_component(
    g: Graph, mode: str = "exact", anchors: int | None = None, seed: int = 0
) -> list[tuple[Graph, DepthMap]]:
    """Depth maps of each connected component, as (component subgraph, map) pairs.

    Each subgraph's ``origin_nodes`` maps its indices back to ``g``.
    """
    cid, sizes = _component_ids(g)
    lo, hi = g._ends()
    # stable sorts keep each component's nodes ascending and its edges in sorted
    # order, so the edges are split once for every component; the last pieces are empty
    groups = np.split(np.argsort(cid, kind="stable"), np.cumsum(sizes))[:-1]
    by_edge = np.argsort(cid[lo], kind="stable")
    cuts = np.cumsum(np.bincount(cid[lo], minlength=len(sizes)))
    los, his = np.split(lo[by_edge], cuts)[:-1], np.split(hi[by_edge], cuts)[:-1]
    out: list[tuple[Graph, DepthMap]] = []
    for nodes, ends in zip(groups, zip(los, his)):
        sub = _induced(g, nodes, ends)
        out.append((sub, _depth_map(sub, mode, anchors, seed)))  # each piece is one component
    return out


def depth_density_profile(
    g: Graph, dm: DepthMap, bin_width: float = 0.25
) -> list[tuple[float, float, int]]:
    """Mean degree as a function of depth, binned.

    Returns rows (bin start, mean degree of nodes in the bin, node count),
    sorted by bin start. Bin b covers depths [b, b + bin_width).
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be > 0")
    if len(dm.depths) != g.node_count:
        raise ValueError("depth map does not match graph")
    acc: dict[int, tuple[int, int]] = {}
    for depth, deg in zip(dm.depths, g.degrees()):
        b = int(math.floor(depth / bin_width))
        s, c = acc.get(b, (0, 0))
        acc[b] = (s + deg, c + 1)
    return [(b * bin_width, s / c, c) for b, (s, c) in sorted(acc.items())]


@dataclass(frozen=True)
class PersonalityReport:
    """Neighbor-degree classification of every node.

    score[v] = log10(neighbor mean degree / own degree). Nodes whose neighbors
    are on average better connected than themselves (score > tau) are
    "marginal"; better-connected-than-their-neighbors nodes (score < -tau) are
    "popular"; the band |score| <= tau is "neutral". ``mixing`` maps each class
    to the fraction of its pooled neighbor endpoints falling in each class
    (rows ordered per PERSONALITY_CLASSES; None for an empty class).
    """

    tau: float
    degree: tuple[int, ...]
    neighbor_mean_degree: tuple[float, ...]
    activity_ratio: tuple[float, ...]
    score: tuple[float, ...]
    classes: tuple[str, ...]
    class_counts: dict[str, int]
    marginal_popular_ratio: float | None
    mixing: dict[str, tuple[float, float, float] | None]


def personality_report(g: Graph, tau: float = 0.05) -> PersonalityReport:
    """Classify nodes by the balance between their own and their neighbors' degrees.

    Requires minimum degree 1 (every node needs at least one neighbor) and
    tau >= 0.
    """
    if tau < 0:
        raise ValueError("tau must be >= 0")
    n = g.node_count
    if n == 0:
        raise ValueError("personality of an empty graph is undefined")
    deg = np.diff(g.indptr)
    if not deg.all():
        raise ValueError("isolated node present; every node needs degree >= 1")

    degs, sums = deg.tolist(), _row_sums(g, deg).tolist()
    nmd: list[float] = []
    ratio: list[float] = []
    score: list[float] = []
    classes: list[str] = []
    for v in range(n):
        m = sums[v] / degs[v]
        nmd.append(m)
        ratio.append(m / degs[v])
        s = math.log10(m) - math.log10(degs[v])
        score.append(s)
        if s < -tau:
            classes.append("popular")
        elif s > tau:
            classes.append("marginal")
        else:
            classes.append("neutral")

    counts = {c: 0 for c in PERSONALITY_CLASSES}
    for c in classes:
        counts[c] += 1
    mp_ratio = counts["marginal"] / counts["popular"] if counts["popular"] else None

    idx = {c: i for i, c in enumerate(PERSONALITY_CLASSES)}
    code = np.array([idx[c] for c in classes])
    # pool[i][j]: neighbour endpoints of class j seen from the nodes of class i
    pool = np.bincount(np.repeat(code, deg) * 3 + code[g.indices], minlength=9).reshape(3, 3).tolist()
    mixing: dict[str, tuple[float, float, float] | None] = {}
    for c, row in zip(PERSONALITY_CLASSES, pool):
        t = sum(row)
        mixing[c] = tuple(x / t for x in row) if t else None

    return PersonalityReport(
        tau=tau,
        degree=tuple(degs),
        neighbor_mean_degree=tuple(nmd),
        activity_ratio=tuple(ratio),
        score=tuple(score),
        classes=tuple(classes),
        class_counts=counts,
        marginal_popular_ratio=mp_ratio,
        mixing=mixing,
    )

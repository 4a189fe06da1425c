"""Structure of a connected graph at the scale between single nodes and the
whole graph: dense-core extraction with pendant-chain ("tentacle") and
attached-chain ("fiber") inventories, node depth maps, depth-density profiles
and neighbor-degree ("personality") classification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _PUBLIC
from .graph import (
    Graph,
    _component_graphs,
    _component_ids,
    _core_blocks,
    _distance_blocks,
    _Forest,
    _induced,
    _level_blocks,
    _peel,
    _require_connected,
    _row_sums,
    _sources,
)
from .stats import Histogram, _popcounts

__all__ = ["PERSONALITY_CLASSES", *_PUBLIC["structure"]]

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


def _find_fibers(core: Graph) -> tuple[list[Fiber], list[tuple[int, ...]]]:
    """Locate degree-2 chains and pure cycles in ``core``, the dense core that
    ``decompose`` cuts, and list them by the ids of its ``origin_nodes``.

    From each unseen node of degree 2, one walk runs to a terminal (a node of
    another degree) or all the way round a pure cycle; from that terminal, one
    walk runs back across the whole chain. A fiber is listed from whichever
    end gives the smaller (endpoint, inner nodes). The cut numbers its nodes
    in the order of their origin ids, so every walk and comparison goes the
    same way in either numbering.
    """
    deg_array = np.diff(core.indptr)
    deg, origin = deg_array.tolist(), core.origin_nodes
    seen = bytearray(core.node_count)
    fibers: list[Fiber] = []
    cycles: list[tuple[int, ...]] = []

    def walk(prev: int, cur: int) -> tuple[list[int], int]:
        """Step from prev to cur and on through nodes of core degree 2; return
        those nodes and where the walk stops: at a terminal, or back at the
        first node after a pure cycle."""
        run: list[int] = []
        while deg[cur] == 2:
            run.append(cur)
            a, b = core.neighbors(cur)
            prev, cur = cur, b if a == prev else a
            if cur == run[0]:
                break
        return run, cur

    for v in np.flatnonzero(deg_array == 2).tolist():
        if seen[v]:
            continue
        _, right = core.neighbors(v)
        run, end = walk(right, v)  # from v toward its smaller core neighbour
        if end == v:
            cycles.append(tuple(origin[u] for u in run))
        else:  # the walk back from the terminal runs the whole chain
            run, far = walk(end, run[-1])
            if (far, run[::-1]) < (end, run):
                end, far, run = far, end, run[::-1]
            fibers.append(Fiber(inner=tuple(origin[u] for u in run), endpoints=(origin[end], origin[far])))
        for u in run:
            seen[u] = 1
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
    dense = _induced(gc, np.flatnonzero(core))
    fibers, cycles = _find_fibers(dense)
    return Decomposition(
        roles=tuple(np.where(core, "core", "tentacle").tolist()),
        tentacles=tuple(_split_chains(forest)),
        fibers=tuple(fibers),
        cycles=tuple(cycles),
        dense_core=dense,
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
    sums = np.zeros(n, dtype=np.int64)
    for _, levels in _level_blocks(g, chosen):
        for level, (hit, words) in enumerate(levels):
            sums[hit] += level * _popcounts(words)
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
    # each piece is one component, so _depth_map need not check it
    return [(sub, _depth_map(sub, mode, anchors, seed)) for sub in _component_graphs(g, *_component_ids(g))]


def depth_density_profile(
    g: Graph, dm: DepthMap, bin_width: float = 0.25
) -> list[tuple[float, float, int]]:
    """Mean degree as a function of depth, binned.

    Returns rows (bin start, mean degree of nodes in the bin, node count),
    sorted by bin start. Bin b covers depths [b, b + bin_width).
    """
    if not 0 < bin_width < math.inf:  # NaN fails it
        raise ValueError(f"bin_width must be finite and > 0, got {bin_width!r}")
    if len(dm.depths) != g.node_count:
        raise ValueError("depth map does not match graph")
    if not math.isfinite(max(dm.depths, default=0.0) / bin_width):
        raise ValueError(f"bin_width {bin_width!r} is too small: depth / bin_width overflows")
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
    if not tau >= 0:  # NaN fails it
        raise ValueError("tau must be >= 0")
    if g.node_count == 0:
        raise ValueError("personality of an empty graph is undefined")
    deg = np.diff(g.indptr)
    if not deg.all():
        raise ValueError("isolated node present; every node needs degree >= 1")

    nmd = _row_sums(g, deg) / deg
    # math.log10 of each Python float and int: np.log10 rounds some values differently
    log_mean, log_deg = (np.array(list(map(math.log10, a.tolist()))) for a in (nmd, deg))
    score = log_mean - log_deg
    code = np.where(score < -tau, 0, np.where(score > tau, 2, 1))  # index into PERSONALITY_CLASSES
    counts = dict(zip(PERSONALITY_CLASSES, np.bincount(code, minlength=3).tolist()))
    # pool[i][j]: neighbour endpoints of class j seen from the nodes of class i, from the row sums of class j
    members = [code == j for j in range(3)]
    seen = [_row_sums(g, member) for member in members]
    pool = [[int(s[member].sum()) for s in seen] for member in members]
    return PersonalityReport(
        tau=tau,
        degree=tuple(deg.tolist()),
        neighbor_mean_degree=tuple(nmd.tolist()),
        activity_ratio=tuple((nmd / deg).tolist()),
        score=tuple(score.tolist()),
        classes=tuple(np.array(PERSONALITY_CLASSES)[code].tolist()),
        class_counts=counts,
        marginal_popular_ratio=counts["marginal"] / counts["popular"] if counts["popular"] else None,
        mixing=dict(zip(PERSONALITY_CLASSES, (tuple(x / sum(r) for x in r) if sum(r) else None for r in pool))),
    )

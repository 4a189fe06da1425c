"""Immutable undirected simple graphs with the traversal primitives used everywhere else.

Nodes are dense integer ids 0..n-1. Graphs loaded from edge-list text keep the
original string labels in first-appearance order; graphs derived from other
graphs keep a mapping back to their parent's indices in ``origin_nodes``.

Every hop distance comes from one kernel, ``_distance_blocks``: a
level-synchronous BFS that runs 64 sources at once, one bit per source in a
uint64 word per node (Then et al., *The More the Merrier: Efficient Multi-Source
Graph Traversal*, PVLDB 8(4), 2014). ``bfs``, depth, path lengths and the full
embedding are folds over its blocks of distance rows.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "EdgeListParseError",
    "ComponentLabeling",
    "DistanceMap",
    "load_edge_list",
    "components",
    "giant_core",
    "induced_subgraph",
    "bfs",
]

UNREACHABLE = -1


class EdgeListParseError(ValueError):
    """Raised for malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Undirected simple graph. Adjacency is sorted and immutable after construction.

    Attributes
    ----------
    labels : tuple[str, ...] | None
        External node labels (edge-list token per node), if known.
    origin_nodes : tuple[int, ...] | None
        For induced subgraphs, the parent-graph index of each node.
    self_loops_dropped / duplicate_edges_dropped : int
        Counts of input edges discarded during construction.
    """

    __slots__ = ("_adj", "labels", "origin_nodes", "self_loops_dropped", "duplicate_edges_dropped")

    def __init__(
        self,
        adjacency: Sequence[Sequence[int]],
        labels: tuple[str, ...] | None = None,
        origin_nodes: tuple[int, ...] | None = None,
        self_loops_dropped: int = 0,
        duplicate_edges_dropped: int = 0,
    ):
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(nbrs)) for nbrs in adjacency)
        n = len(self._adj)
        deg, v = _csr(self._adj)
        u = np.repeat(np.arange(n), deg)
        fwd = u * n + v
        for bad, what in (((v < 0) | (v >= n), f"out of range 0..{n - 1}"), (u == v, "a self-loop"),
                          (np.r_[False, fwd[1:] <= fwd[:-1]], "repeated")):  # rows are sorted
            if bad.any():
                i = np.argmax(bad)
                raise ValueError(f"neighbor {v[i]} of node {u[i]} is {what}")
        rev = v * n + u
        rev.sort()
        if not np.array_equal(fwd, rev):
            a, b = divmod(int(np.setxor1d(fwd, rev)[0]), n)
            raise ValueError(f"edge ({a}, {b}) is listed by only one of its end nodes")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length does not match node count")
        if origin_nodes is not None and len(origin_nodes) != n:
            raise ValueError("origin_nodes length does not match node count")
        self.labels = labels
        self.origin_nodes = origin_nodes
        self.self_loops_dropped = self_loops_dropped
        self.duplicate_edges_dropped = duplicate_edges_dropped

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        labels: tuple[str, ...] | None = None,
        origin_nodes: tuple[int, ...] | None = None,
    ) -> "Graph":
        """Build a graph from (u, v) pairs, dropping and counting self-loops and duplicates."""
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        seen: set[tuple[int, int]] = set()
        self_loops = 0
        duplicates = 0
        adj: list[list[int]] = [[] for _ in range(node_count)]
        for u, v in edges:
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise ValueError(f"edge ({u}, {v}) out of range 0..{node_count - 1}")
            if u == v:
                self_loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                duplicates += 1
                continue
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        del seen  # free it before the constructor's invariant check allocates
        return cls(
            adj,
            labels=labels,
            origin_nodes=origin_nodes,
            self_loops_dropped=self_loops,
            duplicate_edges_dropped=duplicates,
        )

    @property
    def node_count(self) -> int:
        return len(self._adj)

    @property
    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self._adj]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v, in sorted order."""
        for u, nbrs in enumerate(self._adj):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj and self.labels == other.labels

    def __hash__(self) -> int:
        return hash((self._adj, self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


@dataclass(frozen=True)
class ComponentLabeling:
    """Connected-component assignment: ids are dense, in first-appearance order."""

    component_id: tuple[int, ...]
    sizes: tuple[int, ...]
    giant_index: int

    @property
    def count(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class DistanceMap:
    """BFS hop distances from one source; UNREACHABLE (-1) marks unreachable nodes."""

    source: int
    dist: tuple[int, ...]

    @property
    def eccentricity(self) -> int:
        return max(self.dist)

    @property
    def reachable_count(self) -> int:
        return sum(1 for d in self.dist if d != UNREACHABLE)


def load_edge_list(lines: Iterable[str]) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    One edge per line as two tokens. Lines starting with '#' and blank lines are
    ignored. Node labels map to dense integer ids in first-appearance order.
    Self-loop lines and duplicate edges are dropped but counted on the result.

    Raises EdgeListParseError (with the line number) for lines that do not have
    exactly two tokens.
    """
    index: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(tokens)}: {raw.rstrip()!r}")
        pairs.append((index.setdefault(tokens[0], len(index)), index.setdefault(tokens[1], len(index))))
    return Graph.from_edges(len(index), pairs, labels=tuple(index))


def _csr(adj: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Degrees and the concatenated neighbour lists of an adjacency tuple."""
    deg = np.fromiter(map(len, adj), dtype=np.int64, count=len(adj))
    return deg, np.fromiter(chain.from_iterable(adj), dtype=np.int64, count=int(deg.sum()))


def _sources(n: int, mode: str, k: int | None, seed: int, name: str) -> Sequence[int]:
    """Every node for mode "exact"; for "sampled", ``k`` distinct nodes drawn with ``seed``, sorted."""
    if mode == "exact":
        return range(n)
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if k is None or k < 1:
        raise ValueError(f"sampled mode needs {name} >= 1")
    return tuple(sorted(np.random.default_rng(seed).choice(n, size=min(k, n), replace=False).tolist()))


def _distance_blocks(g: Graph, sources: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield hop distances from ``sources`` in order, as int32 blocks of up to 64 rows.

    Bit i of ``frontier[v]`` marks node v as reached at the current level from
    the block's source i. A level ORs the words of each node's neighbours with
    one ``reduceat`` over the CSR rows of the nodes that have neighbours.
    """
    n = g.node_count
    deg, nbrs = _csr(g._adj)
    linked = np.flatnonzero(deg)
    starts = (np.cumsum(deg) - deg)[linked]
    for b in range(0, len(sources), 64):
        block = np.asarray(sources[b : b + 64], dtype=np.intp)
        dist = np.full((len(block), n), UNREACHABLE, dtype=np.int32)
        frontier = np.zeros(n, dtype=np.uint64)
        np.bitwise_or.at(frontier, block, np.uint64(1) << np.arange(len(block), dtype=np.uint64))
        seen, level = frontier.copy(), 0
        while (hit := np.flatnonzero(frontier)).size:
            # new[i, j] is bit i, least significant first, of hit node j's word
            words = frontier[hit].astype("<u8").view(np.uint8)
            new = np.unpackbits(words, bitorder="little").reshape(-1, 64).T[: len(block)]
            dist[:, hit] = np.where(new, level, dist[:, hit])
            reach = np.zeros(n, dtype=np.uint64)
            reach[linked] = np.bitwise_or.reduceat(frontier[nbrs], starts)
            frontier = reach & ~seen
            seen |= frontier
            level += 1
        yield dist


def bfs(g: Graph, source: int) -> DistanceMap:
    """Breadth-first hop distances from ``source``."""
    if not 0 <= source < g.node_count:
        raise ValueError(f"source {source} out of range 0..{g.node_count - 1}")
    (dist,) = next(_distance_blocks(g, [source]))
    return DistanceMap(source=source, dist=tuple(dist.tolist()))


def components(g: Graph) -> ComponentLabeling:
    """Label connected components; the giant index picks the largest component.

    Ties on size resolve to the component containing the smallest node index
    (which is also the first-appearing component id).
    """
    n = g.node_count
    comp = [-1] * n
    sizes: list[int] = []
    adj = g._adj
    for start in range(n):
        if comp[start] != -1:
            continue
        cid = len(sizes)
        comp[start] = cid
        size = 1
        queue: deque[int] = deque((start,))
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if comp[w] == -1:
                    comp[w] = cid
                    size += 1
                    queue.append(w)
        sizes.append(size)
    giant = max(range(len(sizes)), key=lambda i: (sizes[i], -i)) if sizes else -1
    return ComponentLabeling(component_id=tuple(comp), sizes=tuple(sizes), giant_index=giant)


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph induced on ``nodes`` (deduplicated, kept in sorted order).

    The result's ``origin_nodes`` maps each new index to its index in ``g``;
    labels are inherited where ``g`` has them.
    """
    keep = sorted(set(nodes))
    for v in keep:
        if not 0 <= v < g.node_count:
            raise ValueError(f"node {v} out of range 0..{g.node_count - 1}")
    remap = {old: new for new, old in enumerate(keep)}
    adj = [[remap[w] for w in g.neighbors(old) if w in remap] for old in keep]
    labels = tuple(g.labels[v] for v in keep) if g.labels is not None else None
    return Graph(adj, labels=labels, origin_nodes=tuple(keep))


def giant_core(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component.

    Size ties break toward the component with the smallest minimum node index.
    Raises ValueError on an empty graph.
    """
    if g.node_count == 0:
        raise ValueError("giant_core of an empty graph is undefined")
    lab = components(g)
    keep = [v for v in range(g.node_count) if lab.component_id[v] == lab.giant_index]
    return induced_subgraph(g, keep)

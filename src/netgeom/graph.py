"""Immutable undirected simple graphs with the traversal primitives used everywhere else.

Nodes are dense integer ids 0..n-1. Graphs loaded from edge-list text keep the
original string labels in first-appearance order; graphs derived from other
graphs keep a mapping back to their parent's indices in ``origin_nodes``.

A graph is stored as CSR arrays (``indptr``, ``indices``), and this module
alone builds one, by one of two ways in. Raw edges go to ``_from_pairs``: the
parser, ``from_edges`` and both generators hand it integer arrays of end-node
pairs, whose sorted unique edge keys ``min * n + max`` it writes as arcs
straight into their rows, counting the self-loops and duplicates it drops.
Sorted rows go to ``Graph._set``: ``Graph(adjacency)`` sorts its lists and
checks them with ``_csr._check_csr``, the one check of the CSR invariants, in a
module that no CLI subcommand loads; and subgraphs are cut from the parent's
rows (``_induced``, ``_component_graphs``), a kept node's new id its rank among
the kept nodes, so no edge key is made or sorted again. The edge walks,
``Graph.edges`` and the edge-file writer, read the u < v arcs of ranges of rows
(``Graph._edge_slices``).

An edge list is parsed by ``_edgelist``, a module of its own, which hands
``_from_pairs`` one array of node ids per piece of the text.

Every hop distance comes from one kernel, ``_level_blocks``: a
level-synchronous BFS that runs 64 sources at once, one bit per source in a
uint64 word per node (Then et al., *The More the Merrier: Efficient Multi-Source
Graph Traversal*, PVLDB 8(4), 2014), and yields its levels. Sampled depth and
path lengths add up the popcounts of each level's words; ``_distance_block``
folds the levels into bit planes, one per bit of the level number, and builds
int32 rows from them once, for ``bfs``, the exact modes and the embeddings.
Analyses defined on one component call ``_require_connected`` before any
traversal, except on a giant core that ``_component_summary`` cut.

Node ids are int32 up to ``_ID32_NODES`` nodes, from the parse to ``indices``.
No reduction over rows makes a temporary with one int64 per arc, and a gather
through ids (``_take``) casts them to intp a piece at a time. A reduction over
each node's neighbours (degree sums, the hooking minima of ``_component_ids``,
the kernel's level ORs) is one row fold, ``_row_fold``: a ``reduceat`` over
ranges of consecutive rows of at most ``_ARC_BUDGET`` arcs, a longer row in a
range of its own, so what a fold gathers is bounded whatever the graph's size.
The kernel's int32 blocks are counted a row at a time, since ``bincount`` copies
its input to intp. No plain ``np.unique``: numpy 2 imports ``numpy.ma`` on its
first call, which adds to every process that makes one.

Exact depth and exact path lengths traverse only the 2-core. ``_peel``, the
one peel of degree-1 nodes, splits a graph into the core and the pendant
trees hanging from it; ``_core_blocks`` runs the kernel from the core nodes
over the core edges, and a tree node's distances follow from its root's by
integer arithmetic (the degree-1 removal of Sariyuce et al., *Graph
Manipulations for Fast Centrality Computation*, ACM TKDD 11(3), 2017).
Sampled modes and the embeddings traverse every node.
"""
from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Collection, Iterable, Iterator, Sequence

import numpy as np

from . import _ARC_BUDGET, _PUBLIC, InputError

__all__ = list(_PUBLIC["graph"])

UNREACHABLE = -1

_ID32_NODES = 1 << 31  # most nodes whose ids a graph holds in int32


class EdgeListParseError(InputError):
    """Raised for malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Undirected simple graph in CSR form, immutable after construction.

    The neighbours of node v are ``indices[indptr[v]:indptr[v + 1]]``, in
    increasing order. Both arrays are read-only: ``indptr`` int64, ``indices``
    int32 up to 2**31 nodes, else int64. A loop that walks
    neighbours node by node (``_peel``, the random crawl) slices one row out
    of ``indices`` at a time and makes only that row a list.

    ``Graph(adjacency)`` takes one neighbour list per node and rejects ids that are
    not integers or out of range, self-loops, repeats and asymmetric lists with ``ValueError``:
    the range before any int64 cast, the rest by ``_check_csr`` on the sorted rows.
    ``from_edges``, ``load_edge_list`` and the generators take raw edges
    instead, dropping and counting self-loops and duplicates; a
    configuration-model graph so counts the stub pairs it erased.

    Attributes
    ----------
    indptr, indices : np.ndarray
        CSR row offsets (length n + 1) and concatenated sorted neighbour rows.
    labels : tuple[str, ...] | None
        External node labels (edge-list token per node), if known.
    origin_nodes : tuple[int, ...] | None
        For induced subgraphs, the parent-graph index of each node.
    self_loops_dropped / duplicate_edges_dropped : int
        Counts of raw input edges discarded during construction, such as the
        stub pairs a configuration model erased; 0 for a subgraph.
    """

    __slots__ = ("indptr", "indices", "labels", "origin_nodes", "self_loops_dropped", "duplicate_edges_dropped",
                 "_connected")  # True only on a giant core _component_summary cut; not in __eq__ or __hash__

    def __init__(self, adjacency: Sequence[Sequence[int]], labels: tuple[str, ...] | None = None,
                 origin_nodes: tuple[int, ...] | None = None, self_loops_dropped: int = 0,
                 duplicate_edges_dropped: int = 0):
        rows = [tuple(row) for row in adjacency]
        n = len(rows)
        flat = list(_node_ids(chain.from_iterable(rows)))
        if flat and not (0 <= min(flat) and max(flat) < n):  # checked before any int64 conversion
            for u, row in enumerate(rows):
                if bad := [w for w in row if not 0 <= w < n]:
                    raise ValueError(f"neighbor {min(bad)} of node {u} is out of range 0..{n - 1}")
        deg = np.fromiter(map(len, rows), dtype=np.int64, count=n)
        arcs = np.repeat(np.arange(n, dtype=np.int64), deg) * n + np.array(flat, dtype=np.int64)
        arcs.sort()  # sorts each row: the arcs u * n + v, so v is the rows' neighbours in order
        indptr, indices = np.concatenate(([0], np.cumsum(deg))), (arcs % n).astype(_id_dtype(n))
        from ._csr import _check_csr  # a module apart, which no CLI subcommand loads

        _check_csr(indptr, indices)
        self._set(indptr, indices, labels, origin_nodes, self_loops_dropped, duplicate_edges_dropped)

    def _set(self, indptr: np.ndarray, indices: np.ndarray, labels: Collection[str] | None = None,
             origin_nodes: tuple[int, ...] | None = None, self_loops_dropped: int = 0,
             duplicate_edges_dropped: int = 0) -> "Graph":
        """The way in for sorted CSR rows, which ``Graph(adjacency)`` and the subgraph cuts hold, and
        the last step of ``_from_pairs``: take int64 ``indptr`` and ``indices`` of ``_id_dtype``, made
        read-only here, and the other attributes, whose lengths are checked; returns ``self``."""
        for name, value in (("labels", labels), ("origin_nodes", origin_nodes)):
            if value is not None and len(value) != len(indptr) - 1:
                raise ValueError(f"{name} length does not match node count")
        indptr.flags.writeable = indices.flags.writeable = False
        self.indptr, self.indices = indptr, indices
        self.labels = None if labels is None else tuple(labels)
        self.origin_nodes = origin_nodes
        self.self_loops_dropped = self_loops_dropped
        self.duplicate_edges_dropped = duplicate_edges_dropped
        self._connected = False
        return self

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]],
                   labels: tuple[str, ...] | None = None,
                   origin_nodes: tuple[int, ...] | None = None) -> "Graph":
        """Build a graph from (u, v) pairs, dropping and counting self-loops and duplicates."""
        if node_count < 0:
            raise ValueError("node_count must be >= 0")
        edges = list(edges)
        if any(len(e) != 2 for e in edges):
            raise ValueError("edges must be (u, v) pairs")
        try:
            ids = map(operator.index, chain.from_iterable(edges))
            flat = np.fromiter(ids, dtype=np.int64, count=2 * len(edges))
            fits = flat.size == 0 or (flat.min() >= 0 and flat.max() < node_count)
        except OverflowError:
            fits = False
        except TypeError:
            list(_node_ids(chain.from_iterable(edges)))  # raises ValueError naming the id
            raise
        if not fits:
            for u, v in edges:
                if not (0 <= u < node_count and 0 <= v < node_count):
                    raise ValueError(f"edge ({u}, {v}) out of range 0..{node_count - 1}")
        return _from_pairs(node_count, [flat], labels, origin_nodes)

    @property
    def node_count(self) -> int:
        return len(self.indptr) - 1

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def degree(self, v: int) -> int:
        v = range(self.node_count)[v]  # sequence indexing: negative ids count from the end
        return int(self.indptr[v + 1] - self.indptr[v])

    def degrees(self) -> list[int]:
        return np.diff(self.indptr).tolist()

    def neighbors(self, v: int) -> tuple[int, ...]:
        v = range(self.node_count)[v]
        return tuple(self.indices[self.indptr[v] : self.indptr[v + 1]].tolist())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as (u, v) with u < v, in sorted order."""
        for lo, hi in self._edge_slices():
            yield from zip(lo.tolist(), hi.tolist())

    def _edge_slices(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The edges (u, v), u < v, in sorted order, as array pairs: per range of ``_row_ranges``,
        the u < v arcs of its rows, of at most ``_ARC_BUDGET`` arcs or one longer row."""
        for lo, hi, rows, starts in _row_ranges(self):
            u, v = np.repeat(rows, np.diff(starts, append=hi - lo)), self.indices[lo:hi].astype(np.intp)
            up = u < v
            yield u[up], v[up]

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)
                and self.labels == other.labels)

    def __hash__(self) -> int:
        return hash((self.indptr.tobytes(), self.indices.tobytes(), self.labels))

    def __repr__(self) -> str:
        return f"Graph(n={self.node_count}, m={self.edge_count})"


def _node_ids(ids: Iterable, n: int | None = None, name: str = "node") -> Iterator[int]:
    """Each of ``ids`` through ``operator.index``, so that an id that is not an integer, which an
    int64 cast would truncate or parse (a float, a string), raises ``ValueError`` naming it; given
    ``n``, so does an id outside 0..n-1, called ``name`` in the message."""
    for v in ids:
        try:
            v = operator.index(v)
        except TypeError:
            raise ValueError(f"node id {v!r} is not an integer") from None
        if n is not None and not 0 <= v < n:
            raise ValueError(f"{name} {v} out of range 0..{n - 1}")
        yield v


def _id_dtype(n: int) -> type:
    """The dtype of the node ids of a graph of ``n`` nodes."""
    return np.int32 if n <= _ID32_NODES else np.int64


def _take(values: np.ndarray, ids: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``values[ids]``, into ``out`` (which may be ``ids``), ``ids`` cast to intp in pieces: numpy
    gathers by int32 several times slower."""
    out = np.empty(len(ids), dtype=values.dtype) if out is None else out
    step = max(1, _ARC_BUDGET >> 3)
    for at in range(0, len(ids), step):
        np.take(values, ids[at : at + step].astype(np.intp), out=out[at : at + step], mode="clip")
    return out


def _from_pairs(n: int, pairs: list[np.ndarray], labels: Collection[str] | None = None,
                origin_nodes: tuple[int, ...] | None = None) -> Graph:
    """The one builder from raw edges: a graph on ``n`` nodes from integer arrays that each
    interleave the end nodes of their edges, self-loops and duplicates dropped and counted.

    It empties ``pairs``, freeing each array once its edges are int64 keys ``min * n + max``,
    which it sorts and deduplicates in place. Row v holds the mins of the keys whose max is v,
    then the maxes of those whose min is v, so key i's forward arc goes straight to ``indices``
    at i plus the reverse arcs of rows up to its min; reversed in place to ``max * n + min`` and
    sorted, key j's reverse arc goes to j plus the forward arcs of rows before its max. No arc
    array is made: 16 bytes per edge with int32 ids, and pieces of at most ``_ARC_BUDGET`` keys.
    """
    keys = np.empty(sum(map(len, pairs)) // 2, dtype=np.int64)
    at, loops = len(keys), 0
    while pairs:
        u, v = (ends := pairs.pop())[0::2], ends[1::2]
        at -= len(u)
        part = keys[at : at + len(u)]
        np.minimum(u, v, out=part)
        part *= n - 1
        part += u
        part += v  # min * n + max, with no array for the max
        loops += int(np.count_nonzero(loop := u == v))
        part[loop] = n * n  # past every edge key, so it sorts last
    u = v = ends = part = loop = None  # views of the pairs and the keys, which would keep them alive
    keys.sort()
    # pieces of at most a sixteenth of the keys, so that a small build's temporaries stay small
    total, m, step = len(keys), 0, max(1, min(_ARC_BUDGET, max(1 << 10, len(keys) >> 4)))
    for at in range(0, total, step):  # the distinct keys of each piece move down to keys[:m]
        part = keys[at : at + step]
        kept = part[part != np.r_[keys[m - 1] if m else -1, part[:-1]]]
        keys[m : m + len(kept)] = kept
        m += len(kept)
    m -= loops > 0  # the self-loops' sentinel
    keys, indices = keys[:m], np.empty(2 * m, dtype=_id_dtype(n))
    fwd = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)  # forward arcs of the rows before v
    rev = np.zeros(n + 1, dtype=np.int64)  # reverse arcs of the rows before v
    span = max(step, n)  # a bincount is O(n), so in pieces of at least n keys
    for at in range(0, m, span):
        rev[1:] += np.bincount(keys[at : at + span] % n, minlength=n)
    np.cumsum(rev, out=rev)
    for reverse, rows in enumerate((rev[1:], fwd)):
        if reverse:
            keys.sort()
        for at in range(0, m, step):
            part = keys[at : at + step]
            lo = part // n  # floor division by a scalar is several times faster than divmod
            hi = part - lo * n
            indices[rows[lo] + np.arange(at, at + len(part))] = hi
            if not reverse:  # the key reversed in place: max * n + min
                part[:] = hi * n + lo
    keys = part = lo = hi = None
    # the labels tuple is made last, by _set: made before the build, a large one could sit
    # above the build's freed temporaries in the malloc heap and keep them resident
    return Graph.__new__(Graph)._set(fwd + rev, indices, labels, origin_nodes, loops, total - loops - m)


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


def load_edge_list(source: Iterable[str] | BinaryIO) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    ``source`` is an iterable of text lines, such as a file opened in text
    mode, or a file opened in binary mode. A binary file is read as
    ``open(path, encoding="utf-8-sig")`` would read it: as UTF-8 with
    universal newlines, a leading byte-order mark dropped.

    One edge per line as two tokens. Lines starting with '#' and blank lines are
    ignored. Node labels map to dense integer ids in first-appearance order.
    Self-loop lines and duplicate edges are dropped but counted on the result.
    The parser is ``_edgelist.parse``: a 1 MiB block's tokens take about 20
    bytes each while it is read, and its id arrays are freed one by one as
    ``_from_pairs`` turns them into edge keys.

    Raises UnicodeDecodeError if the source is not UTF-8, and otherwise
    EdgeListParseError, with its line number, for the first data line that does
    not have exactly two tokens. That line is remembered and raised only once the
    whole source is read, every later piece decoded but not parsed, so a binary
    file and its text read name the same error.
    """
    from ._edgelist import parse

    return parse(source)


def _row_ranges(g: Graph) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """The rows of ``g`` that have arcs, in ranges of consecutive rows of at most
    ``_ARC_BUDGET`` arcs, a longer row in a range of its own: per range, its first
    arc, the arc past its last, its rows with arcs and where each starts in the range."""
    indptr, n, a = g.indptr, g.node_count, 0
    while a < n:
        b = max(a + 1, int(np.searchsorted(indptr, indptr[a] + _ARC_BUDGET, side="right")) - 1)
        ptr = indptr[a : b + 1]
        if ptr[-1] > ptr[0]:
            rows = a + np.flatnonzero(np.diff(ptr))
            yield int(ptr[0]), int(ptr[-1]), rows, indptr[rows] - ptr[0]
        a = b


def _row_fold(g: Graph, ufunc: np.ufunc, values: np.ndarray, out: np.ndarray,
              ranges: Iterable[tuple[int, int, np.ndarray, np.ndarray]] | None = None) -> np.ndarray:
    """``out``, where each node v with neighbours now holds ``ufunc`` folded over ``values[w]``
    of its neighbours w, in ``out``'s dtype; a node with none keeps its entry.

    One ``reduceat`` per range of ``_row_ranges``, which a caller that folds many
    times may pass as a list, so the gathered values and their cast to ``out``'s
    dtype are at most ``_ARC_BUDGET`` long and no array as long as ``indices`` is made.
    """
    for lo, hi, rows, starts in _row_ranges(g) if ranges is None else ranges:
        out[rows] = ufunc.reduceat(_take(values, g.indices[lo:hi]), starts, dtype=out.dtype)
    return out


def _row_sums(g: Graph, values: np.ndarray) -> np.ndarray:
    """Per node, the sum of ``values[w]`` over its neighbours w (0 for an isolated node), as int64."""
    return _row_fold(g, np.add, values, np.zeros(g.node_count, dtype=np.int64))


def _sources(n: int, mode: str, k: int | None, seed: int, name: str) -> tuple[int, ...]:
    """For mode "sampled", ``k`` distinct nodes drawn with ``seed``, sorted.

    Exact modes do not come here: they traverse the 2-core from every core node.
    """
    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if k is None or k < 1:
        raise ValueError(f"sampled mode needs {name} >= 1")
    return tuple(sorted(_rng(seed).choice(n, size=min(k, n), replace=False).tolist()))


def _rng(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``: the one place netgeom makes a numpy generator.

    numpy.random imports secrets -> hmac -> hashlib, and hashlib's ``_hashlib`` maps 3.4 MiB of
    libcrypto that no draw uses. So when neither numpy.random nor ``_hashlib`` is loaded yet, the
    first ``import numpy.random`` runs with ``_hashlib`` blocked, and the hashlib and hmac modules
    it made are dropped again: a later ``import hashlib`` loads OpenSSL as usual. In any other
    state nothing is touched, so a caller's own hashlib and hmac stay the modules they are.
    """
    mods = sys.modules
    if "numpy.random" not in mods and "_hashlib" not in mods:
        made = {"hashlib", "hmac"} - mods.keys()
        mods["_hashlib"] = None  # import _hashlib raises ImportError, which both modules handle
        try:
            import numpy.random  # noqa: F401
        finally:
            del mods["_hashlib"]
            for name in made:
                mods.pop(name, None)
    return np.random.default_rng(seed)


def _level_blocks(g: Graph, sources: Sequence[int]) -> Iterator[tuple[int, Iterator]]:
    """Per block of up to 64 of ``sources``, in order, its size and its ``_levels``."""
    ranges = list(_row_ranges(g))
    for b in range(0, len(sources), 64):
        yield min(64, len(sources) - b), _levels(g, np.asarray(sources[b : b + 64], dtype=np.intp), ranges)


def _levels(g: Graph, block: np.ndarray, ranges: list) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The BFS levels from ``block``, from 0: per level, the nodes it reaches and their words, bit i
    set if source i reaches the node at that level. A level is one ``_row_fold`` of ORs, O(m)."""
    frontier = np.zeros(g.node_count, dtype=np.uint64)
    np.bitwise_or.at(frontier, block, np.uint64(1) << np.arange(len(block), dtype=np.uint64))
    seen = frontier.copy()
    while (hit := np.flatnonzero(frontier)).size:
        yield hit, frontier[hit]
        frontier = _row_fold(g, np.bitwise_or, frontier, np.zeros(g.node_count, dtype=np.uint64), ranges)
        frontier &= ~seen
        seen |= frontier


def _distance_blocks(g: Graph, sources: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield hop distances from ``sources`` in order, as C-contiguous int32 blocks
    of up to 64 rows, UNREACHABLE where a source does not reach a node."""
    for rows, levels in _level_blocks(g, sources):
        yield _distance_block(g.node_count, rows, levels)


def _distance_block(n: int, rows: int, levels: Iterator) -> np.ndarray:
    """One block of ``_distance_blocks``, from its ``levels``; ``n`` nodes, ``rows`` sources.

    No distance is written while the BFS runs. Plane k is a uint64 word per
    node whose bit i says that bit k of the level at which source i reached
    the node is set, so a level ORs its frontier words into the planes of its
    set bits only. The block is built once at the end, so that it and the O(n)
    words are all that is alive when it is yielded.
    """
    seen, planes = np.zeros(n, dtype=np.uint64), []
    for level, (hit, words) in enumerate(levels):
        seen[hit] |= words
        if level and level & (level - 1) == 0:
            planes.append(np.zeros(n, dtype=np.uint64))
        for k, plane in enumerate(planes):
            if level >> k & 1:
                plane[hit] |= words
    # the levels in the narrowest unsigned dtype that holds the top one, node-major
    acc = np.zeros((n, rows), dtype=np.min_scalar_type((1 << len(planes)) - 1))
    for k, plane in enumerate(planes):
        acc |= np.multiply(_bit_columns(plane, rows), 1 << k, dtype=acc.dtype)  # a uint8 shift is slower
    dist = np.ascontiguousarray(acc.T, dtype=np.int32)
    del acc
    if (seen != np.uint64((1 << rows) - 1)).any():
        np.copyto(dist, UNREACHABLE, where=_bit_columns(~seen, rows).T.view(bool))
    return dist


def _bit_columns(words: np.ndarray, rows: int) -> np.ndarray:
    """(len(words), rows) uint8 array whose column i holds bit i, least
    significant first, of every word."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=rows, bitorder="little")


@dataclass(frozen=True)
class _Forest:
    """The pendant trees of a graph, as iterated removal of degree-1 nodes leaves them.

    ``order`` lists the peeled nodes in removal order, so a node comes before
    the node it hung from. ``parent[v]`` is that node, the next one toward v's
    root, or -1 for a root. The roots, ``core`` (sorted), are the 2-core plus
    the last peeled node of each component that peels away completely (a tree,
    a lone node included), which acts as a 1-node core. Per node,
    ``anchor`` is its root, ``height`` its hop count to the root and ``size``
    the node count of its subtree, itself included, so at a root ``size`` counts
    the root and the whole tree hanging from it.
    """

    order: list[int]
    parent: list[int]
    core: np.ndarray
    anchor: np.ndarray
    height: np.ndarray
    size: np.ndarray


def _peel(g: Graph) -> _Forest:
    """Peel degree-1 nodes until none is left; the one peel behind decompose, depth and paths."""
    n = g.node_count
    indptr, nbrs = g.indptr, g.indices
    deg = np.diff(indptr)
    stack = np.flatnonzero(deg <= 1).tolist()
    deg = deg.tolist()  # live neighbours; 0 once a node is peeled
    parent, size = [-1] * n, [1] * n
    order: list[int] = []
    while stack:  # a node enters the stack once: when its degree is at most 1, or falls to 1
        u = stack.pop()
        deg[u] = 0
        order.append(u)
        for w in nbrs[indptr[u] : indptr[u + 1]].tolist():
            if deg[w]:
                parent[u] = w
                size[w] += size[u]  # u's children were all peeled before u
                deg[w] -= 1
                if deg[w] == 1:
                    stack.append(w)
    anchor, height = np.arange(n), np.zeros(n, dtype=np.int64)
    for u in reversed(order):  # a parent is peeled after its children
        if (p := parent[u]) >= 0:
            anchor[u], height[u] = anchor[p], height[p] + 1
    core = np.flatnonzero(np.array(parent) < 0)
    return _Forest(order, parent, core, anchor, height, np.array(size, dtype=np.int64))


def _core_blocks(g: Graph, forest: _Forest) -> Iterator[np.ndarray]:
    """``_distance_blocks`` from every root of ``forest`` to every root, in
    order, traversing only the subgraph the roots induce.

    A path that enters a pendant tree can only leave it the way it came, so
    no shortest path between two roots uses a peeled node, and these are the
    roots' distances in ``g``.
    """
    core = _induced(g, forest.core)
    return _distance_blocks(core, range(core.node_count))


def bfs(g: Graph, source: int) -> DistanceMap:
    """Breadth-first hop distances from ``source``."""
    (source,) = _node_ids((source,), g.node_count, "source")
    (dist,) = next(_distance_blocks(g, [source]))
    return DistanceMap(source=source, dist=tuple(dist.tolist()))


def _component_ids(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """Component id per node, numbered by each component's smallest node, and the sizes.

    Min-label hooking with pointer jumping (Shiloach and Vishkin, J. Algorithms 3(1), 1982) over the
    CSR rows: every round points each tree root at the smallest root across its nodes' rows, by one
    row fold of ``minimum``, then shortcuts every node to its root; round one is O(n), since a node's
    smallest neighbour heads its sorted row. A tree hooks or is hooked within two rounds, so the trees
    per component at least halve every two rounds. Roots only point to smaller nodes, so a
    component's root is its smallest node.
    """
    n = g.node_count
    linked = np.flatnonzero(np.diff(g.indptr))
    root = np.arange(n)
    root[linked] = np.minimum(linked, g.indices[g.indptr[linked]])
    ranges, linked = list(_row_ranges(g)), None
    while True:
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        low = _row_fold(g, np.minimum, root, root.copy(), ranges)  # the smallest root across each row
        hook = np.flatnonzero(low < root)
        if not hook.size:
            break
        np.minimum.at(root, root[hook], low[hook])
    first = root == np.arange(n)
    cid = (np.cumsum(first) - 1)[root]
    return cid, np.bincount(cid, minlength=int(first.sum()))


def components(g: Graph) -> ComponentLabeling:
    """Label connected components; the giant index picks the largest component.

    Ties on size resolve to the component containing the smallest node index
    (which is also the first-appearing component id).
    """
    cid, sizes = _component_ids(g)
    giant = int(np.argmax(sizes)) if sizes.size else -1  # argmax takes the first of equal sizes
    return ComponentLabeling(component_id=tuple(cid.tolist()), sizes=tuple(sizes.tolist()), giant_index=giant)


def _require_connected(g: Graph, hint: str) -> None:
    """Raise ValueError, naming the component count and then ``hint``, if ``g`` is disconnected."""
    if not g._connected and (count := len(_component_ids(g)[1])) > 1:
        raise ValueError(f"graph is disconnected ({count} components); {hint}")


def _induced(g: Graph, keep: np.ndarray) -> Graph:
    """Subgraph induced on the sorted distinct node ids ``keep``, cut from ``g``'s rows.

    An arc is kept when both its ends are; a kept node's new id is the number of
    kept nodes before it, so the renumbering keeps every row sorted and no edge
    key is made or sorted. With every node kept, ``g``'s arrays and labels carry over.
    """
    k, indptr, indices, labels = len(keep), g.indptr, g.indices, g.labels
    if k < g.node_count:
        kept = np.zeros(g.node_count, dtype=bool)
        kept[keep] = True
        arcs = np.repeat(kept, np.diff(indptr))
        arcs &= _take(kept, indices)
        rank = np.cumsum(kept, dtype=_id_dtype(k))
        rank -= 1
        indices = indices[arcs].astype(rank.dtype, copy=False)
        _take(rank, indices, out=indices)  # the kept arcs renumbered in place
        # kept arcs per kept row: the span from one kept row with arcs to the next adds only rows
        # with no kept arc; reduceat casts all of arcs first, and int32 holds a count below n
        linked = np.flatnonzero(np.diff(indptr)[keep])  # places in keep of the kept rows with arcs
        counts = np.zeros(k + 1, dtype=np.int64)
        counts[linked + 1] = np.add.reduceat(arcs, indptr[keep[linked]], dtype=np.int32)
        indptr = np.cumsum(counts, out=counts)
        arcs = kept = linked = rank = None  # freed before the node tuple is made
    origin = tuple(keep.tolist())  # made last: its int objects would outweigh the arrays
    if k < g.node_count and labels is not None:
        labels = [labels[v] for v in origin]
    return Graph.__new__(Graph)._set(indptr, indices, labels, origin)


def _component_graphs(g: Graph, cid: np.ndarray, sizes: np.ndarray) -> Iterator[Graph]:
    """The subgraph of each component of ``g``, given as ``_component_ids`` labels them, in order.

    The nodes are renumbered once into component order, each component's in
    ascending order, so a component is a range of consecutive rows of one
    renumbered copy and is cut from it in time linear in its own size.
    """
    order = np.argsort(cid, kind="stable")
    ends = np.cumsum(sizes)
    local = np.empty(len(order), dtype=g.indices.dtype)
    local[order] = np.arange(len(order)) - np.repeat(ends - sizes, sizes)  # each node's id in its component
    deg = np.diff(g.indptr)[order]
    ptr = np.concatenate(([0], np.cumsum(deg)))
    at = np.repeat(g.indptr[order] - ptr[:-1], deg) + np.arange(ptr[-1])  # each renumbered arc's place in g
    nbrs = g.indices[at]
    _take(local, nbrs, out=nbrs)
    for a, b in zip((ends - sizes).tolist(), ends.tolist()):
        nodes = order[a:b].tolist()
        labels = None if g.labels is None else [g.labels[v] for v in nodes]
        ids = nbrs[ptr[a] : ptr[b]].astype(_id_dtype(b - a), copy=False)
        yield Graph.__new__(Graph)._set(ptr[a : b + 1] - ptr[a], ids, labels, tuple(nodes))


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph induced on ``nodes`` (deduplicated, kept in sorted order).

    The result's ``origin_nodes`` maps each new index to its index in ``g``;
    labels are inherited where ``g`` has them.
    """
    keep = sorted(set(_node_ids(nodes, g.node_count)))
    return _induced(g, np.array(keep, dtype=np.int64))


def giant_core(g: Graph) -> Graph:
    """Induced subgraph on the largest connected component.

    Size ties break toward the component with the smallest minimum node index.
    Raises ValueError on an empty graph.
    """
    if g.node_count == 0:
        raise ValueError("giant_core of an empty graph is undefined")
    return _component_summary(g, core=True)[2]


def _component_summary(g: Graph, core: bool) -> tuple[int, int, Graph | None]:
    """Component count, giant size and, if ``core``, the ``giant_core`` of a
    non-empty ``g``, all from one labeling."""
    cid, sizes = _component_ids(g)
    giant = int(np.argmax(sizes))
    sub = _induced(g, np.flatnonzero(cid == giant)) if core else None
    if core:
        sub._connected = True  # one component by construction: _require_connected need not label it
    return len(sizes), int(sizes[giant]), sub

"""Immutable undirected simple graphs with the traversal primitives used everywhere else.

Nodes are dense integer ids 0..n-1. Graphs loaded from edge-list text keep the
original string labels in first-appearance order; graphs derived from other
graphs keep a mapping back to their parent's indices in ``origin_nodes``.

A graph is stored as CSR arrays (``indptr``, ``indices``), and this module
alone builds one, by one of two ways in. Raw edges go to ``_from_pairs``: the
parser, ``from_edges`` and both generators hand it int64 arrays of end-node
pairs, which it reduces with numpy to sorted unique edge keys
``min * n + max`` and turns into rows, counting the self-loops and duplicates
it drops, so no per-edge Python object is made on the way in. Rows that are
already sorted go to ``Graph._set``: ``Graph(adjacency)`` sorts and checks its
lists as arcs, which are its rows, and subgraphs are cut from the parent's rows
(``_induced``, ``_component_graphs``): a kept node's new id is its rank among
the kept nodes, so every row stays sorted and no edge key is made or sorted
again. The edge walks, ``Graph.edges`` and the edge-file writer, read the
u < v arcs of the row folds' ranges of rows (``Graph._edge_slices``).

An edge list is parsed by one loop over its pieces (``_pieces``): the blocks
of whole lines of a binary file, their line ends made ``\\n``, or chunks of
text lines joined by NUL. Each is offered to one tokenizer, ``_byte_tokens``:
it splits ASCII bytes into tokens in numpy and tells labels apart by a uint64
key of each token's bytes. ``_Labels.of_keys`` ranks a piece's keys with one
sort, and only a label not seen before becomes a Python string, read from its
key. A piece it cannot take (non-ASCII text, a NUL, a token over 8 bytes, a
malformed line) is decoded alone and split as Python strings by one line loop,
``_line_tokens``, which also names a malformed line; the next piece goes to
the tokenizer again. Both paths number labels in first-appearance order through
one table, so they may alternate. A malformed line is reported only once the
whole source is read, so input that is not UTF-8 anywhere is named as such.

Every hop distance comes from one kernel, ``_distance_blocks``: a
level-synchronous BFS that runs 64 sources at once, one bit per source in a
uint64 word per node (Then et al., *The More the Merrier: Efficient Multi-Source
Graph Traversal*, PVLDB 8(4), 2014). It writes no distance while it runs: a
node's levels go into uint64 bit planes, one per bit of the level number, and
each block's int32 rows are built from them once, when its BFS ends. ``bfs``,
depth, path lengths and the full embedding are folds over its blocks of
distance rows. Analyses defined on one component call ``_require_connected``
before any traversal, except on a giant core that ``_component_summary`` cut.

No reduction over rows makes a temporary with one int64 per arc. A reduction
over each node's neighbours (degree sums, the hooking minima of
``_component_ids``, the kernel's level ORs) is one row fold, ``_row_fold``: a
``reduceat`` over ranges of consecutive rows of at most ``_ARC_BUDGET`` arcs, a
longer row in a range of its own, so what a fold gathers is bounded whatever
the graph's size. The kernel's int32 blocks are counted a row at a time, since
``bincount`` copies its input to intp. No plain ``np.unique``: numpy 2 imports
``numpy.ma`` on its first call, which adds to every process that makes one.
The subgraph cuts (``_induced``, ``_component_graphs``) still gather their
kept arcs in one piece.

Exact depth and exact path lengths traverse only the 2-core. ``_peel``, the
one peel of degree-1 nodes, splits a graph into the core and the pendant
trees hanging from it; ``_core_blocks`` runs the kernel from the core nodes
over the core edges, and a tree node's distances follow from its root's by
integer arithmetic (the degree-1 removal of Sariyuce et al., *Graph
Manipulations for Fast Centrality Computation*, ACM TKDD 11(3), 2017).
Sampled modes and the embeddings traverse every node.
"""
from __future__ import annotations

import codecs
import io
import operator
from dataclasses import dataclass
from itertools import chain, islice
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

from . import _ARC_BUDGET, _PUBLIC, InputError

__all__ = list(_PUBLIC["graph"])

UNREACHABLE = -1


class EdgeListParseError(InputError):
    """Raised for malformed edge-list text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Graph:
    """Undirected simple graph in CSR form, immutable after construction.

    The neighbours of node v are ``indices[indptr[v]:indptr[v + 1]]``, in
    increasing order. Both arrays are read-only int64. A loop that walks
    neighbours node by node (``_peel``, the random crawl) slices one row out
    of ``indices`` at a time and makes only that row a list.

    ``Graph(adjacency)`` takes one neighbour list per node and rejects ids that are
    not integers or out of range, self-loops, repeats and asymmetric lists with ``ValueError``.
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
        fwd = np.repeat(np.arange(n, dtype=np.int64), deg) * n + np.array(flat, dtype=np.int64)
        fwd.sort()  # sorts each row
        u, v = np.divmod(fwd, n)
        for bad, what in ((u == v, "a self-loop"), (np.r_[False, fwd[1:] == fwd[:-1]], "repeated")):
            if bad.any():
                i = np.argmax(bad)
                raise ValueError(f"neighbor {v[i]} of node {u[i]} is {what}")
        rev = v * n + u
        rev.sort()
        if not np.array_equal(fwd, rev):
            a, b = divmod(int(np.setxor1d(fwd, rev)[0]), n)
            raise ValueError(f"edge ({a}, {b}) is listed by only one of its end nodes")
        # fwd holds the arcs u * n + v sorted, so v is the rows' neighbours in order
        self._set(np.concatenate(([0], np.cumsum(deg))), v, labels, origin_nodes, self_loops_dropped,
                  duplicate_edges_dropped)

    def _set(self, indptr: np.ndarray, indices: np.ndarray, labels: Collection[str] | None = None,
             origin_nodes: tuple[int, ...] | None = None, self_loops_dropped: int = 0,
             duplicate_edges_dropped: int = 0) -> "Graph":
        """The way in for sorted CSR rows, which ``Graph(adjacency)`` and the subgraph cuts hold, and
        the last step of ``_from_pairs``: take int64 CSR arrays, made read-only here, and the other
        attributes, whose lengths are checked against the node count; returns ``self``."""
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
            flat = np.fromiter(_node_ids(chain.from_iterable(edges)), dtype=np.int64, count=2 * len(edges))
            fits = flat.size == 0 or (flat.min() >= 0 and flat.max() < node_count)
        except OverflowError:
            fits = False
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
            u, v = np.repeat(rows, np.diff(starts, append=hi - lo)), self.indices[lo:hi]
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


def _node_ids(ids: Iterable) -> Iterator[int]:
    """Each of ``ids`` through ``operator.index``, so that an id that is not an integer, which an
    int64 cast would truncate or parse (a float, a string), raises ``ValueError`` naming it."""
    for v in ids:
        try:
            yield operator.index(v)
        except TypeError:
            raise ValueError(f"node id {v!r} is not an integer") from None


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sort ``keys`` in place and return its distinct values.

    Not ``np.unique``: on int64 keys it takes a hash path that is about 40x
    slower than one sort plus an adjacent-difference mask.
    """
    keys.sort()
    return keys[np.r_[True, keys[1:] != keys[:-1]]] if keys.size else keys


def _from_pairs(n: int, pairs: list[np.ndarray], labels: Collection[str] | None = None,
                origin_nodes: tuple[int, ...] | None = None) -> Graph:
    """The one builder from raw edges: a graph on ``n`` nodes from int64 arrays that each
    interleave the end nodes of their edges, self-loops and duplicates dropped and counted.

    It empties ``pairs``, freeing each array once its edges are keys ``min * n + max``,
    so it holds one key array at a time. Besides the sorted unique keys it holds one 2m
    array: the keys and their reverses ``max * n + min``, sorted once into the arcs of
    every row, then made ``indices`` in place and handed to ``Graph._set``.
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
    part = None  # a view of the unsorted keys, which would keep them alive
    keys, total = _sorted_unique(keys), len(keys)  # rebinding frees the sorted keys
    m = len(keys) - (loops > 0)  # all but the self-loops' sentinel
    keys = keys[:m]
    arcs = np.empty(2 * m, dtype=np.int64)
    # floor_divide by a scalar is several times faster than divmod or remainder
    lo, rev = np.floor_divide(keys, n, out=arcs[:m]), arcs[m:]
    np.subtract(keys, np.multiply(lo, n, out=rev), out=rev)  # rev holds max for now
    rev *= n
    rev += lo
    lo[:] = keys
    arcs.sort()
    indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)  # row v starts at key v * n
    # arcs % n in place, a step at a time: the one temporary is a sixteenth of arcs, or 32 KiB,
    # and few steps leave few small allocations behind the build's freed temporaries
    step = max(1 << 12, len(arcs) >> 4)
    quot = np.empty(min(step, len(arcs)), dtype=np.int64)
    for at in range(0, len(arcs), step):
        part = arcs[at : at + step]
        q = np.floor_divide(part, n, out=quot[: len(part)])
        part -= np.multiply(q, n, out=q)
    # the labels tuple is made last, by _set: made before the build, a large one could sit
    # above the build's freed temporaries in the malloc heap and keep them resident
    return Graph.__new__(Graph)._set(indptr, arcs, labels, origin_nodes, loops, total - loops - m)


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


_CHUNK_LINES = 1 << 16  # text lines parsed per step; bounds the token strings alive at once
_BLOCK_BYTES = 1 << 20  # bytes read per step from a binary file, then cut back to its last line end

# translation of a piece's bytes to 0 where a token cannot be: ASCII whitespace as
# str.split() sees it (\x1c-\x1f included) and NUL, which joins the lines of a text chunk
_IN_TOKEN = bytes(0 if c == 0 or (c < 128 and chr(c).isspace()) else 1 for c in range(256))
# _LOW_BYTES[k] keeps the k low bytes of a little-endian key
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)


def load_edge_list(source: Iterable[str] | BinaryIO) -> Graph:
    """Parse whitespace-separated edge-list text into a Graph.

    ``source`` is an iterable of text lines, such as a file opened in text
    mode, or a file opened in binary mode. A binary file is read as
    ``open(path, encoding="utf-8-sig")`` would read it: as UTF-8 with
    universal newlines, a leading byte-order mark dropped.

    One edge per line as two tokens. Lines starting with '#' and blank lines are
    ignored. Node labels map to dense integer ids in first-appearance order.
    Self-loop lines and duplicate edges are dropped but counted on the result.

    One loop reads the pieces of ``_pieces``: the blocks of whole lines of a
    binary file, or chunks of ``_CHUNK_LINES`` text lines. A piece of ASCII with
    no NUL inside a line goes to the byte tokenizer ``_byte_tokens``, each token
    read as one uint64 key, so only labels not seen before become Python strings.
    Any other piece, or one the tokenizer turns down (a data token over 8 bytes,
    a malformed line), is decoded alone and goes to the line loop
    ``_line_tokens``, which also names a malformed line; the next piece is
    offered to the tokenizer again. Both number labels through one ``_Labels``.

    The id arrays of the pieces are freed one by one as ``_from_pairs`` turns
    them into edge keys, so the build holds one 2m key array at a time.

    Raises UnicodeDecodeError if the source is not UTF-8, and otherwise
    EdgeListParseError, with its line number, for the first data line that does
    not have exactly two tokens. That line is remembered and raised only once the
    whole source is read, every later piece decoded but not parsed, so a binary
    file and its text read name the same error.
    """
    labels, ids, error = _Labels(), [], None
    for first_line, data, sep, lines in _pieces(source):
        if error is None and data is not None and (keys := _byte_tokens(data, sep)) is not None:
            ids.append(labels.of_keys(keys))
        elif error is None:
            try:
                ids.append(labels.of_tokens(_line_tokens(lines(), first_line=first_line)))
            except EdgeListParseError as e:
                error = e
        else:
            lines()  # decodes a binary block, so that bytes that are not UTF-8 win
    if error is not None:
        raise error
    return _from_pairs(len(labels.index), ids, labels=labels.index)


def _pieces(source: Iterable[str] | BinaryIO) -> Iterator[tuple[int, bytes | None, int, Callable]]:
    """The pieces of ``source`` in order, each as (the number of its first line,
    its bytes for ``_byte_tokens`` or None if a NUL is inside a line, the byte
    that ends its lines there, a call that gives its lines as strings).

    A binary file's pieces are its blocks of ``_whole_lines`` as a ``utf-8-sig``
    text read sees them before decoding: a leading byte-order mark dropped (a
    file that is only the start of one reads as empty) and ``\\r\\n`` and a lone
    ``\\r`` made ``\\n``. No block splits a ``\\r\\n``, and ``\\r`` is in no
    multi-byte UTF-8 sequence, so bytes that are not UTF-8 stay as they were and
    a block decodes alone. Text lines come ``_CHUNK_LINES`` at a time, joined by NUL.
    """
    line = 1
    if isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        lead = codecs.BOM_UTF8
        for block in _whole_lines(source):
            block, lead = (b"" if lead.startswith(block) else block.removeprefix(lead)), b""
            block = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block
            yield (line, None if b"\0" in block else block, ord("\n"),
                   lambda block=block: block.decode().removesuffix("\n").split("\n"))
            line += block.count(b"\n")
        return
    lines = iter(source)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        data = "\0".join(chunk).encode()
        yield line, data if data.count(b"\0") == len(chunk) - 1 else None, 0, chunk.copy
        line += len(chunk)


def _whole_lines(fh: BinaryIO) -> Iterator[bytes]:
    """The bytes of ``fh`` in blocks that end where a line does: each read of
    ``_BLOCK_BYTES`` ends at its last ``\\r`` or ``\\n``, so lone-CR line ends bound
    a block as ``\\n`` does, and the rest starts the next block. A ``\\r`` that is
    the last byte of a read waits for the next one, which may start with its
    ``\\n``. A line longer than a read spans as many reads as it needs."""
    parts: list[bytes | memoryview] = []  # what was read since the last line end
    while block := fh.read(_BLOCK_BYTES):
        end = max(block.rfind(b"\n"), block.rfind(b"\r", 0, len(block) - 1)) + 1
        if not end:
            parts.append(block)
            continue
        rest = block[end:]
        parts.append(block if end == len(block) else memoryview(block)[:end])
        # one bytes part joins to itself, uncopied; the read is dropped before the
        # yield, so it does not live on beside the block the caller parses
        whole, parts, block = b"".join(parts), [rest], b""
        yield whole
    if tail := b"".join(parts):
        yield tail


class _Labels:
    """Label -> id numbering in first-appearance order, shared by every parsing path.

    ``index`` holds every label. ``keys`` (sorted) and ``ids`` cache the ids of
    the labels the byte tokenizer has met, by their uint64 key.
    """

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.keys = np.zeros(0, dtype=np.uint64)
        self.ids = np.zeros(0, dtype=np.int64)

    def of_tokens(self, tokens: list[str]) -> np.ndarray:
        for label in dict.fromkeys(tokens):
            self.index.setdefault(label, len(self.index))
        return np.fromiter(map(self.index.__getitem__, tokens), dtype=np.int64, count=len(tokens))

    def of_keys(self, keys: np.ndarray) -> np.ndarray:
        """Ids of the tokens whose keys are ``keys``, which it sorts in place as ``key << shift | index``
        if the largest key leaves the index room (labels of up to 5 bytes in a 1 MiB block), else
        by ``argsort``. A label not met before is read from its key: its bytes, NUL-padded."""
        if not keys.size:
            return np.zeros(0, dtype=np.int64)
        shift = (len(keys) - 1).bit_length()
        if packed := int(keys.max()).bit_length() + shift <= 64:
            keys <<= np.uint64(shift)
            keys |= np.arange(len(keys), dtype=np.uint64)
            keys.sort()
            ranked = keys >> np.uint64(shift)
            order = np.bitwise_and(keys, np.uint64((1 << shift) - 1), out=keys).view(np.int64)
        else:
            order = np.argsort(keys)
            ranked = keys[order]
        heads = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])  # where each run of a key starts
        distinct, first = ranked[heads], order[heads] if packed else np.minimum.reduceat(order, heads)
        at = np.searchsorted(self.keys, distinct)
        known = np.zeros(len(distinct), dtype=bool)
        if self.keys.size:
            known = self.keys[np.minimum(at, len(self.keys) - 1)] == distinct
        uid = np.zeros(len(distinct), dtype=np.int64)
        uid[known] = self.ids[at[known]]
        if (new := np.flatnonzero(~known)).size:
            seen = new[np.argsort(first[new])]  # in first-appearance order
            # "S8" drops the NUL padding, no token holds a space, and the line loop may have numbered a label
            labels = b" ".join(distinct[seen].astype("<u8", copy=False).view("S8").tolist()).decode().split(" ")
            uid[seen] = [self.index.setdefault(label, len(self.index)) for label in labels]
            at = at[new]  # distinct is sorted, so inserting each new key before at keeps the table sorted
            self.keys, self.ids = np.insert(self.keys, at, distinct[new]), np.insert(self.ids, at, uid[new])
        out = ranked.view(np.int64)  # spent: its buffer takes each token's id
        out[order] = np.repeat(uid, np.diff(heads, append=len(keys)))
        return out


def _byte_tokens(data: bytes, sep: int) -> np.ndarray | None:
    """The data tokens of the lines of ``data`` that byte ``sep`` separates,
    in order, as uint64 keys; None unless ``data`` is ASCII, every data token
    has at most 8 bytes and each data line has exactly two tokens. The caller
    sees to it that ``sep`` is the only line break in ``data`` and that no NUL
    is inside a line.

    A key is the token's bytes read little-endian from a zero-padded 8-byte
    window, so distinct tokens of 1 to 8 non-NUL bytes have distinct keys.
    """
    if not data.isascii():
        return None
    padded = b"\0" + data + bytes(8)  # a NUL before the first token, and room for the last window
    # a block of long labels is turned down by its first 4 KiB alone, before its lines are counted;
    # a comment's tokens may be longer, and a long data token further on fails the last check
    if b"#" not in data and _token_spans(padded[:4096] + b"\0")[1].max(initial=0) > 8:
        return None
    starts, width = _token_spans(padded)
    raw = np.frombuffer(padded, dtype=np.uint8, offset=1)
    breaks = np.flatnonzero(raw[: len(data)] == sep)
    tokens = np.diff(np.searchsorted(starts, breaks), prepend=0, append=len(starts))  # per line
    if b"#" in data:  # drop the lines whose first token starts with '#'
        has = tokens > 0
        lead = (np.cumsum(tokens) - tokens)[has]  # the first token of each line that has one
        comment = np.zeros(len(tokens), dtype=bool)
        comment[has] = raw[starts[lead]] == ord("#")
        keep = ~np.repeat(comment, tokens)
        starts, width, tokens = starts[keep], width[keep], np.where(comment, 0, tokens)
    if not ((tokens == 0) | (tokens == 2)).all() or width.max(initial=0) > 8:
        return None
    windows = np.ndarray(len(data), dtype="<u8", buffer=raw, strides=(1,))
    keys = windows[starts]
    return np.bitwise_and(keys, _LOW_BYTES[width], out=keys)


def _token_spans(padded: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The start and the width of each token of ``padded``, whose first and last bytes are NUL."""
    inside = np.frombuffer(padded.translate(_IN_TOKEN), dtype=bool)
    flips = np.flatnonzero(inside[1:] != inside[:-1])
    return flips[0::2], flips[1::2] - flips[0::2]


def _line_tokens(lines: list[str], first_line: int = 1) -> list[str]:
    """Every data token in order, raising EdgeListParseError at the first data
    line that does not have exactly two tokens."""
    tokens: list[str] = []
    for line_no, pair in enumerate(map(str.split, lines), start=first_line):
        if len(pair) == 2 and pair[0][0] != "#":
            tokens += pair
        elif pair and pair[0][0] != "#":  # a data line, neither blank nor a comment
            raw = lines[line_no - first_line]
            raise EdgeListParseError(line_no, f"expected 2 tokens, got {len(pair)}: {raw.rstrip()!r}")
    return tokens


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
        out[rows] = ufunc.reduceat(values[g.indices[lo:hi]], starts, dtype=out.dtype)
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
    return tuple(sorted(np.random.default_rng(seed).choice(n, size=min(k, n), replace=False).tolist()))


def _distance_blocks(g: Graph, sources: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield hop distances from ``sources`` in order, as C-contiguous int32 blocks
    of up to 64 rows, UNREACHABLE where a source does not reach a node.

    Bit i of ``frontier[v]`` marks node v as reached at the current level from
    the block's source i. A level ORs the words of each node's neighbours by
    one row fold (``_row_fold``) over the CSR rows, and
    records the level only as bit planes (``_distance_block``), so it costs
    O(m) plus O(|frontier|) word ORs per set bit of the level number.
    """
    ranges = list(_row_ranges(g))
    for b in range(0, len(sources), 64):
        yield _distance_block(g, np.asarray(sources[b : b + 64], dtype=np.intp), ranges)


def _distance_block(g: Graph, block: np.ndarray, ranges: list) -> np.ndarray:
    """One block of ``_distance_blocks``, from the sources ``block``.

    No distance is written while the BFS runs. Plane k is a uint64 word per
    node whose bit i says that bit k of the level at which source i reached
    the node is set, so a level ORs its frontier words into the planes of its
    set bits only. The block is built once at the end, so that it and the O(n)
    words are all that is alive when it is yielded.
    """
    n = g.node_count
    frontier = np.zeros(n, dtype=np.uint64)
    np.bitwise_or.at(frontier, block, np.uint64(1) << np.arange(len(block), dtype=np.uint64))
    seen, level, planes = frontier.copy(), 0, []
    while (hit := np.flatnonzero(frontier)).size:
        if level:
            if level & (level - 1) == 0:
                planes.append(np.zeros(n, dtype=np.uint64))
            words = frontier[hit]
            for k, plane in enumerate(planes):
                if level >> k & 1:
                    plane[hit] |= words
        reach = _row_fold(g, np.bitwise_or, frontier, np.zeros(n, dtype=np.uint64), ranges)
        frontier = reach & ~seen
        seen |= frontier
        level += 1
    rows = len(block)
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
    if not 0 <= source < g.node_count:
        raise ValueError(f"source {source} out of range 0..{g.node_count - 1}")
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
        arcs &= kept[indices]
        indices = (np.cumsum(kept) - 1)[indices[arcs]]
        # kept arcs per kept row: the span from one kept row with arcs to the next adds only rows
        # with no kept arc; reduceat casts all of arcs first, and int32 holds a count below n
        linked = np.flatnonzero(np.diff(indptr)[keep])  # places in keep of the kept rows with arcs
        counts = np.zeros(k + 1, dtype=np.int64)
        counts[linked + 1] = np.add.reduceat(arcs, indptr[keep[linked]], dtype=np.int32)
        indptr = np.cumsum(counts, out=counts)
        arcs = kept = linked = None  # freed before the node tuple is made
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
    local = np.empty_like(order)
    local[order] = np.arange(len(order)) - np.repeat(ends - sizes, sizes)  # each node's id in its component
    deg = np.diff(g.indptr)[order]
    ptr = np.concatenate(([0], np.cumsum(deg)))
    at = np.repeat(g.indptr[order] - ptr[:-1], deg) + np.arange(ptr[-1])  # each renumbered arc's place in g
    nbrs = local[g.indices[at]]
    for a, b in zip((ends - sizes).tolist(), ends.tolist()):
        nodes = order[a:b].tolist()
        labels = None if g.labels is None else [g.labels[v] for v in nodes]
        yield Graph.__new__(Graph)._set(ptr[a : b + 1] - ptr[a], nbrs[ptr[a] : ptr[b]], labels, tuple(nodes))


def induced_subgraph(g: Graph, nodes: Sequence[int]) -> Graph:
    """Subgraph induced on ``nodes`` (deduplicated, kept in sorted order).

    The result's ``origin_nodes`` maps each new index to its index in ``g``;
    labels are inherited where ``g`` has them.
    """
    keep = sorted(set(_node_ids(nodes)))
    for v in keep:
        if not 0 <= v < g.node_count:
            raise ValueError(f"node {v} out of range 0..{g.node_count - 1}")
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

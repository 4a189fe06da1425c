"""Hop-distance coordinate embeddings and reference-set reduction.

Every node gets a coordinate vector of BFS distances to a set of reference
nodes; the Chebyshev (max-component) distance between two coordinate vectors
never exceeds the true hop distance, and with the full reference set it equals
it exactly. Reduction trims the reference set while keeping every pairwise
Chebyshev distance within a hop tolerance of the truth. That is a landmark set
cover (Khuller, Raghavachari and Rosenfeld, *Landmarks in Graphs*, 1996), solved
by one incremental greedy pass: per-reference cover counts are built once over
blocks of node pairs, and each round subtracts only the pairs it newly covers.
The cover table is over the full embedding, where pair (p, q) is always covered
by both column p and column q, so no reference is ever a pair's sole cover and
greedy selection alone decides the kept set.

There is one distance table: ``embed``, and through it ``embed_full(g)``,
writes the traversal's blocks straight into a table of the narrowest signed
dtype that holds the largest distance so far (int8 up to 127 hops, then int16),
widened when a later block reaches past it, so no int32 n x n matrix is held
and a coordinate difference cannot overflow. A block is written as columns of
the table, or as contiguous rows when the references are every node in node
order: the full table is symmetric. The pass reads that table as it
is; a table a library caller builds in another dtype goes through ``_narrow``,
which copies it. Only ``embed_full(g, consume)`` streams the kernel's int32
blocks, for a consumer that never holds the table. Cover counts sum the 0/1
bytes of at most 255 pair rows at a time in uint8, which cannot overflow and is
about three times as fast as a sum into int32. Pair index arrays use the
smallest unsigned dtype that holds n - 1, and every gather through them is a
``take`` of at most 32 K indices: numpy turns a narrow index array into an intp
copy, and the chunks bound that copy. A pendant leaf's column equals its
neighbour's plus one on every row but its own, so it covers every pair its
neighbour covers except the pairs it is an end of: only the other columns are
counted cell by cell, and a leaf's count is its neighbour's plus a correction
over its own pairs (the degree-1 removal of Sariyuce et al., TKDD 11(3), 2017,
which exact depth and paths use too). The identity is checked on the matrix, so
a matrix that is no graph metric is still counted exactly. The closing
distortion check of ``reduce_references`` and the report of
``embedding_distortion`` are one function, ``_distortion``; it and
``chebyshev_matrix`` compare each node's coordinate row with the rows after it
(``_chebyshev_rows``), so they hold no pair index arrays and no per-pair
temporaries.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from . import _PUBLIC
from .graph import Graph, _distance_blocks, _node_ids, _require_connected
from .stats import Histogram

T = TypeVar("T")

__all__ = list(_PUBLIC["embedding"])


@dataclass(frozen=True)
class Embedding:
    """Coordinates ``coords[v, i]`` = hop distance from node v to references[i]."""

    references: tuple[int, ...]
    coords: np.ndarray
    full: bool

    def __post_init__(self):
        if len(self.references) == 0:
            raise ValueError("an embedding needs at least one reference")
        if self.coords.shape != (self.coords.shape[0], len(self.references)):
            raise ValueError("coords shape does not match references")

    @property
    def node_count(self) -> int:
        return int(self.coords.shape[0])

    def subset(self, references: Sequence[int]) -> "Embedding":
        """Embedding restricted to the given reference nodes (must be present)."""
        pos = {r: i for i, r in enumerate(self.references)}
        try:
            cols = [pos[r] for r in references]
        except KeyError as e:
            raise ValueError(f"reference {e.args[0]} not in embedding") from None
        refs = tuple(references)
        return Embedding(
            references=refs,
            coords=self.coords[:, cols].copy(),
            full=self.full and set(refs) == set(self.references),
        )


def embed(g: Graph, references: Sequence[int]) -> Embedding:
    """Embedding of a connected graph against the given reference nodes.

    References keep their order and repeats; the embedding is full when they
    name every node. One traversal runs from each reference, so no n x n
    matrix is built for a short list. Each block of the traversal is written
    as columns into coords, or as rows when the references are every node in
    node order, since that table is symmetric. coords is int8 while every
    distance so far fits and is widened (int16 past 127 hops) when a block
    reaches past its dtype: the dtype ``_narrow`` gives the whole table.
    Raises ValueError if the graph is empty or disconnected, or the references
    are empty, out of range or not integers.
    """
    refs = _connected_references(g, references)
    n = g.node_count
    coords = np.empty((n, len(refs)), dtype=np.int8)
    in_order, col = refs == tuple(range(n)), 0
    for block in _distance_blocks(g, refs):
        if (top := int(block.max(initial=0))) > np.iinfo(coords.dtype).max:
            coords = coords.astype(_narrow_dtype(top))
        if in_order:  # the full table is symmetric: its rows are the blocks' rows
            coords[col : col + len(block)] = block
        else:
            coords[:, col : col + len(block)] = block.T
        col += len(block)
    return Embedding(references=refs, coords=coords, full=set(refs) == set(range(n)))


def _references(g: Graph, references: Sequence[int]) -> tuple[int, ...]:
    """``references`` as ints, checked against ``g`` before anything is traversed."""
    n = g.node_count
    if n == 0:
        raise ValueError("cannot embed an empty graph")
    refs = tuple(_node_ids(references, n, "reference"))
    if not refs:
        raise ValueError("an embedding needs at least one reference")
    return refs


def _connected_references(g: Graph, references: Sequence[int]) -> tuple[int, ...]:
    """``_references``, then the check that ``g`` is connected."""
    refs = _references(g, references)
    _require_connected(g, "embed one component at a time")
    return refs


def embed_full(g: Graph,
               consume: Callable[[Iterator[np.ndarray]], T] | None = None) -> Embedding | T:
    """Full embedding of a connected graph: every node is a reference.

    coords is the complete hop-distance matrix, in the narrow dtype that
    ``embed`` gives it. Given ``consume``, the matrix is never built:
    ``consume`` is called once with an iterator over its rows in node order, as
    the kernel's int32 blocks of up to 64 rows (the graph is undirected, so row
    v is the distance row from source v), and its result is returned. Raises
    ValueError, before any traversal, if the graph is empty or disconnected.
    """
    if consume is None:
        return embed(g, range(g.node_count))
    return consume(_distance_blocks(g, _connected_references(g, range(g.node_count))))


def chebyshev_distance(e: Embedding, p: int, q: int) -> int:
    """Max coordinate difference between nodes p and q (a hop-distance lower bound)."""
    p, q = _node_ids((p, q), e.node_count)  # a bool would index coords as a mask
    return int(np.max(np.abs(np.subtract(e.coords[p], e.coords[q], dtype=np.int64))))


def chebyshev_matrix(e: Embedding) -> np.ndarray:
    """All-pairs Chebyshev distances under the embedding's reference set, in
    the coordinates' dtype, widened when it cannot hold every difference."""
    coords = _narrow(e.coords)
    n = e.node_count
    out = np.zeros((n, n), dtype=np.promote_types(e.coords.dtype, coords.dtype))
    for p, row in enumerate(_chebyshev_rows(coords)):
        out[p, p + 1 :] = out[p + 1 :, p] = row
    return out


@dataclass(frozen=True)
class CoverMatrix:
    """Implicit pair/reference cover table at a given hop tolerance.

    Row (p, q) is covered by reference column k when the coordinate difference
    |coords[p, k] - coords[q, k]| is at least max(0, d(p, q) - tolerance),
    i.e. when reference k alone pins the pair's distance to within the
    tolerance. Rows are generated on demand, never stored.
    """

    embedding: Embedding
    tolerance: int

    def __post_init__(self):
        e = self.embedding
        if not e.full or e.references != tuple(range(e.node_count)):
            raise ValueError("cover matrix needs the full embedding, references in node order")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")

    @property
    def node_count(self) -> int:
        return self.embedding.node_count

    @property
    def pair_count(self) -> int:
        n = self.node_count
        return n * (n - 1) // 2

    def pairs(self) -> Iterator[tuple[int, int]]:
        n = self.node_count
        for p in range(n):
            for q in range(p + 1, n):
                yield (p, q)

    def row_mask(self, p: int, q: int) -> np.ndarray:
        """Boolean cover row for the pair (p, q), one entry per reference."""
        c = self.embedding.coords
        need = max(0, int(c[p, q]) - self.tolerance)
        return np.abs(c[p] - c[q]) >= need

    def covering_columns(self, p: int, q: int) -> tuple[int, ...]:
        """Reference nodes that cover the pair (p, q)."""
        mask = self.row_mask(p, q)
        return tuple(int(self.embedding.references[i]) for i in np.nonzero(mask)[0])

    def rows(self) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
        """Yield ((p, q), covering reference nodes) for every pair."""
        for p, q in self.pairs():
            yield (p, q), self.covering_columns(p, q)


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of reference reduction, with its verified distortion profile.

    ``essential`` is always empty: every pair has at least two covering
    references (its own endpoints), so none is a sole cover. The field stays
    for compatibility; ``greedy`` equals ``kept``.
    """

    kept: tuple[int, ...]
    essential: tuple[int, ...]
    greedy: tuple[int, ...]
    tolerance: int
    max_distortion: int
    distortion_histogram: Histogram


def build_cover_matrix(e: Embedding, tolerance: int) -> CoverMatrix:
    """Cover table of ``e`` at the given hop tolerance (see CoverMatrix)."""
    return CoverMatrix(embedding=e, tolerance=tolerance)


# At most _SUM_ROWS rows of 0/1 bytes are summed at once, so the sum fits in uint8;
# gathers take at most _TAKE indices at once, which bounds the intp copy that
# ``take`` makes of a narrow index array
_SUM_ROWS = 255
_TAKE = 1 << 15


def _narrow_dtype(span: int) -> type:
    return next(t for t in (np.int8, np.int16, np.int32, np.int64) if span <= np.iinfo(t).max)


def _narrow(coords: np.ndarray) -> np.ndarray:
    """Integer coordinates in the narrowest signed dtype (int8 up) that holds
    every value and every difference of two values: a copy, unless they are in
    that dtype already.

    For hop distances that bound is the largest distance, so a graph of diameter
    at most 127 is compared in int8, a quarter of the memory traffic of int32.
    """
    span = int(coords.max(initial=0)) - min(int(coords.min(initial=0)), 0)
    return coords.astype(_narrow_dtype(span), copy=False)


def _upper(m: np.ndarray) -> np.ndarray:
    """Entries m[p, q], p < q, of a square array in row-major order."""
    rows = [m[p, p + 1 :] for p in range(len(m))]
    return np.concatenate(rows) if rows else np.empty(0, dtype=m.dtype)


def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs p < q of n nodes in row-major order, in the smallest unsigned dtype holding n - 1."""
    idx = np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0)))
    return np.repeat(idx, np.arange(n - 1, -1, -1)), _upper(np.broadcast_to(idx, (n, n)))


def _check_max_pairs(n: int, max_pairs: int | None) -> None:
    pairs = n * (n - 1) // 2
    if max_pairs is not None and pairs > max_pairs:
        raise ValueError(f"pair count {pairs} exceeds max_pairs={max_pairs}")


def _cover_counts(coords: np.ndarray, I: np.ndarray, J: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Per-reference count of the pairs (I[r], J[r]) that each column covers.

    ``coords`` must come from ``_narrow``, so the differences cannot overflow.
    They are taken over row blocks of about 256 K cells, which stay in cache,
    so no pair x column table is held whole.
    """
    counts = np.zeros(coords.shape[1], dtype=np.int64)
    block = max(1, min(_TAKE, (1 << 18) // max(1, coords.shape[1])))
    for s in range(0, I.size, block):
        diff = coords.take(I[s : s + block], axis=0)
        np.subtract(diff, coords.take(J[s : s + block], axis=0), out=diff)
        covered = np.abs(diff, out=diff) >= thresh[s : s + len(diff), None]
        # a uint8 sum of 0/1 bytes is about three times as fast as one into int32
        for r in range(0, len(covered), _SUM_ROWS):
            counts += np.add.reduce(covered[r : r + _SUM_ROWS].view(np.uint8), axis=0, dtype=np.uint8)
    return counts


def _derived_columns(coords: np.ndarray) -> np.ndarray:
    """``nbr[k] = u`` for each column k that equals column u plus one on every
    row but k, where u is not such a column itself; -1 for every other column.

    On a distance matrix these are the pendant leaves k and their neighbours u
    (the degree-1 removal of Sariyuce et al., TKDD 11(3), 2017), but the
    identity is checked on the matrix, not assumed: a candidate is a row with
    exactly one entry 1, whose column is then compared with the column its 1
    names. Neither scan holds more than about 256 K cells at once.
    """
    n = len(coords)
    nbr = np.full(n, -1, dtype=np.intp)
    block = max(1, (1 << 18) // max(1, n))
    for s in range(0, n, block):
        ones = coords[s : s + block] == 1
        single = np.flatnonzero(np.add.reduce(ones, axis=1, dtype=np.intp) == 1)
        nbr[s + single] = ones[single].argmax(axis=1)
    cand = np.flatnonzero(nbr >= 0)
    for s in range(0, cand.size, block):
        k = cand[s : s + block]
        diff = coords.take(k, axis=1) - coords.take(nbr[k], axis=1)
        diff[k, np.arange(k.size)] = 1  # row k of column k is not compared
        nbr[k[~(diff == 1).all(axis=0)]] = -1
    k = np.flatnonzero(nbr >= 0)
    nbr[k[nbr[nbr[k]] >= 0]] = -1  # a neighbour that is derived itself is not counted by cells
    return nbr


def _leaf_deltas(coords: np.ndarray, nbr: np.ndarray, I: np.ndarray, J: np.ndarray,
                 thresh: np.ndarray) -> np.ndarray:
    """Per derived column k (``nbr[k] >= 0``), the sum of cover(r; k) - cover(r; nbr[k])
    over the pairs r among (I, J) that have k as an end; 0 for every other column.

    A derived column covers every other pair exactly when its neighbour does,
    so its count is its neighbour's plus this sum.
    """
    n = len(coords)
    flat = coords.reshape(-1)
    deltas = np.zeros(n, dtype=np.int64)
    step = max(1, _TAKE // 4)  # both ends of a pair are gathered, into several index arrays
    for s in range(0, I.size, step):
        i, j = I[s : s + step], J[s : s + step]
        ends = np.concatenate((i, j))
        r = np.flatnonzero(nbr.take(ends) >= 0)
        k = ends.take(r).astype(np.intp)
        x = np.concatenate((j, i)).take(r).astype(np.intp)
        t = thresh[s : s + step].take(r % i.size)
        kn, xn, u = k * n, x * n, nbr.take(k)
        k_covers = np.abs(flat.take(kn + k) - flat.take(xn + k)) >= t
        u_covers = np.abs(flat.take(kn + u) - flat.take(xn + u)) >= t
        deltas += np.bincount(k, k_covers.view(np.int8) - u_covers.view(np.int8), n).astype(np.int64)
    return deltas


def _chebyshev_rows(coords: np.ndarray) -> Iterator[np.ndarray]:
    """For each node p in order, max_k |coords[q, k] - coords[p, k]| over the nodes q > p.

    ``coords`` must come from ``_narrow``, so no difference can overflow. The
    differences go into one buffer of ``coords``' shape, and each row yielded
    is a view that the next step overwrites.
    """
    diff, out = np.empty_like(coords), np.empty(len(coords), dtype=coords.dtype)
    for p in range(len(coords)):
        d = np.subtract(coords[p + 1 :], coords[p], out=diff[p + 1 :])
        yield np.abs(d, out=d).max(axis=1, initial=0, out=out[p + 1 :])


def _covered_pairs(row: np.ndarray, I: np.ndarray, J: np.ndarray,
                   thresh: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (I, J, thresh) of the pairs that the distance ``row`` covers, in
    batches of about ``_TAKE`` pairs, and mark each one covered in place: it
    becomes (q, q) at threshold 1, which no column covers.

    The scan gathers at most ``_TAKE`` pairs at once.
    """
    batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    size = 0
    for s in range(0, I.size, _TAKE):
        i, j, t = I[s : s + _TAKE], J[s : s + _TAKE], thresh[s : s + _TAKE]
        diff = row.take(i)
        np.subtract(diff, row.take(j), out=diff)
        at = np.flatnonzero(np.abs(diff, out=diff) >= t)
        if at.size:
            batch.append((i.take(at), j.take(at), t.take(at)))
            i[at], t[at] = batch[-1][1], 1
            size += at.size
        if batch and (size >= _TAKE or s + _TAKE >= I.size):
            pairs = tuple(np.concatenate(ends) for ends in zip(*batch))
            batch, size = [], 0  # the pieces are freed before the batch is counted
            yield pairs


def _greedy_picks(coords: np.ndarray, tolerance: int) -> list[int]:
    """The references that greedy set cover picks, in pick order (see
    ``reduce_references``), on a symmetric table from ``_narrow`` at a
    tolerance that the table's dtype holds.

    The columns that ``_derived_columns`` names get their counts each round
    from their neighbour's count and their correction; the others lose, each
    round, the cover counts of the pairs that the round covers.
    """
    n = len(coords)
    I, J = _pair_arrays(n)
    thresh = _upper(coords)
    np.maximum(np.subtract(thresh, tolerance, out=thresh), 0, out=thresh)

    nbr = _derived_columns(coords)
    derived = np.flatnonzero(nbr >= 0)
    hubs = nbr[derived]
    cells = np.flatnonzero(nbr < 0)
    table = np.ascontiguousarray(coords[:, cells])
    counts = np.zeros(n, dtype=np.int64)
    counts[cells] = _cover_counts(table, I, J, thresh)
    deltas = _leaf_deltas(coords, nbr, I, J, thresh)

    picks: list[int] = []
    live = I.size
    while live:
        counts[derived] = counts[hubs] + deltas[derived]
        col = int(np.argmax(counts))
        picks.append(col)
        expected, before = int(counts[col]), live
        # the table is symmetric, so column col is read as the contiguous row col
        for i, j, t in _covered_pairs(coords[col], I, J, thresh):
            counts[cells] -= _cover_counts(table, i, j, t)
            deltas -= _leaf_deltas(coords, nbr, i, j, t)
            live -= i.size
        if before - live != expected:  # exact counts; and as expected >= 1, the loop ends
            raise AssertionError(f"reference {col} covered {before - live} pairs, not its count {expected}")
        if 2 * live <= I.size:  # pack the uncovered pairs to the front, in order
            w = 0
            for s in range(0, I.size, _TAKE):
                at = np.flatnonzero(I[s : s + _TAKE] != J[s : s + _TAKE])
                for a in (I, J, thresh):
                    a[w : w + at.size] = a[s : s + _TAKE].take(at)
                w += at.size
            I, J, thresh = I[:w], J[:w], thresh[:w]
    return picks


def reduce_references(cm: CoverMatrix, max_pairs: int | None = None) -> ReductionResult:
    """Shrink the reference set while covering every node pair (greedy set cover).

    One blocked pass over the pairs counts, per reference, the pairs it
    covers. Each round then keeps the reference with the largest count (ties
    to the smallest node index), finds the still-uncovered pairs it covers and
    subtracts only those pairs' rows from the counts. Terminates because each
    pair is always covered by its own two endpoints. No reference is ever the
    sole cover of a pair for the same reason, so there is no essential phase
    and ``essential`` is always empty. The final max distortion is verified
    against the tolerance before returning, by ``_distortion`` on the kept
    columns, the check ``embedding_distortion`` runs too.

    All of it runs on the one distance table (see the module docstring): the
    table ``embed_full`` fills is narrow already and is read as it is; a table
    in a wider dtype is copied by ``_narrow``. ``cm.embedding`` is unchanged.
    Cover counts sum 0/1 bytes in uint8 over at most ``_SUM_ROWS`` pair rows at
    a time. Only the columns that ``_derived_columns`` does not derive (all but
    the pendant leaves) are counted cell by cell, from a table of those
    columns; a derived column's count is its neighbour's plus a correction over
    the pairs it is an end of, kept exact round by round, so every count is
    exact. Every gather, the per-round scan and the selection of a round's
    covered pairs take at most ``_TAKE`` indices at once; a covered pair is
    marked in place, and the pairs still uncovered are packed to the front once
    they fill at most half of the pair arrays.

    ``max_pairs`` aborts up front when the pair count exceeds the budget.
    """
    _check_max_pairs(cm.node_count, max_pairs)
    coords = _narrow(cm.embedding.coords)
    # A tolerance beyond the diameter changes nothing, and clamped it fits the
    # narrow dtype: under numpy 2 casting, int8 - 1000 raises OverflowError.
    kept = tuple(sorted(_greedy_picks(coords, min(cm.tolerance, int(coords.max())))))
    report = _distortion(coords, kept)
    if report.max_hops > cm.tolerance:
        raise AssertionError(f"reduction exceeded tolerance: {report.max_hops} > {cm.tolerance}")
    return ReductionResult(
        kept=kept,
        essential=(),
        greedy=kept,
        tolerance=cm.tolerance,
        max_distortion=report.max_hops,
        distortion_histogram=report.histogram,
    )


@dataclass(frozen=True)
class DistortionReport:
    """How far below the true hop distances an embedding's estimates sit."""

    max_hops: int
    histogram: Histogram
    max_relative: float | None


def embedding_distortion(g: Graph, references: Sequence[int]) -> DistortionReport:
    """Distortion of the reference set on ``g``: true distance minus estimate.

    Reported per unordered pair as a histogram of hop shortfalls plus the
    maximum; the maximum relative shortfall (d_true / d_estimate - 1) is
    computed over pairs with a nonzero estimate, None if there are none.
    """
    refs = _references(g, references)  # before the n x n table is built
    return _distortion(embed_full(g).coords, refs)


def _distortion(table: np.ndarray, refs: Sequence[int]) -> DistortionReport:
    """The shortfalls below the full distance ``table`` (from ``_narrow``) of the
    Chebyshev estimates from its columns ``refs``, over the pairs p < q. With
    ``refs`` every node in order, those columns are the table itself, read with
    no copy: the table is symmetric.

    Node by node, the reference coordinates of the nodes after it are compared
    with its own (``_chebyshev_rows``). Each row's shortfalls are counted into
    one histogram, and the largest true distance met at each estimate is kept,
    which gives the largest ratio after the loop. Raises AssertionError if an
    estimate exceeds its true distance.
    """
    top = int(table.max(initial=0))
    counts = np.zeros(top + 1, dtype=np.int64)
    reach = np.zeros(top + 1, dtype=table.dtype)  # the largest true distance at each estimate
    refs = list(refs)
    cols = table if refs == list(range(len(table))) else table[:, refs]  # every node in order: no copy
    for p, row in enumerate(_chebyshev_rows(np.ascontiguousarray(cols))):
        true = table[p, p + 1 :]
        shortfall = true - row
        if shortfall.min(initial=0) < 0:
            raise AssertionError("estimate exceeded true distance; embedding is corrupt")
        np.maximum.at(reach, row, true)
        counts += np.bincount(shortfall, minlength=counts.size)
    # at most one ratio per hop count, divided in Python floats: numpy's float
    # division would add about 0.2 MiB of resident code to a reduce run
    ratio = max((t / e for e, t in enumerate(reach.tolist()) if e and t), default=None)
    return DistortionReport(
        max_hops=int(np.flatnonzero(counts).max(initial=0)),
        histogram=Histogram(dict(enumerate(counts.tolist()))),
        # subtracting 1 rounds monotonically, so it commutes with the max
        max_relative=None if ratio is None else ratio - 1.0,
    )

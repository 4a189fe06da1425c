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

The pass runs on a copy of the distance matrix in the narrowest signed dtype
that holds the diameter (int8 up to 127 hops, then int16), where a coordinate
difference cannot overflow, and counts covers by summing the 0/1 bytes of each
block into int32. Pair index arrays use the smallest unsigned dtype that holds
n - 1. One blocked max-abs-difference kernel serves the cover counts, the
closing distortion check, ``chebyshev_matrix`` and ``embedding_distortion``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .graph import Graph, _distance_blocks, _require_connected
from .stats import Histogram

T = TypeVar("T")

__all__ = [
    "Embedding",
    "CoverMatrix",
    "ReductionResult",
    "DistortionReport",
    "embed",
    "embed_full",
    "chebyshev_distance",
    "chebyshev_matrix",
    "build_cover_matrix",
    "reduce_references",
    "embedding_distortion",
]


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
    matrix is built for a short list. Raises ValueError if the graph is empty
    or disconnected, or the references are empty or out of range.
    """
    refs = _connected_references(g, references)
    n = g.node_count
    coords = np.empty((n, len(refs)), dtype=np.int32)
    col = 0
    for block in _distance_blocks(g, refs):
        coords[:, col : col + len(block)] = block.T
        col += len(block)
    return Embedding(references=refs, coords=coords, full=set(refs) == set(range(n)))


def _references(g: Graph, references: Sequence[int]) -> tuple[int, ...]:
    """``references`` as ints, checked against ``g`` before anything is traversed."""
    n = g.node_count
    if n == 0:
        raise ValueError("cannot embed an empty graph")
    refs = tuple(int(r) for r in references)
    if not refs:
        raise ValueError("an embedding needs at least one reference")
    if bad := [r for r in refs if not 0 <= r < n]:
        raise ValueError(f"reference {bad[0]} out of range 0..{n - 1}")
    return refs


def _connected_references(g: Graph, references: Sequence[int]) -> tuple[int, ...]:
    """``_references``, then the check that ``g`` is connected."""
    refs = _references(g, references)
    _require_connected(g, "embed one component at a time")
    return refs


def embed_full(g: Graph,
               consume: Callable[[Iterator[np.ndarray]], T] | None = None) -> Embedding | T:
    """Full embedding of a connected graph: every node is a reference.

    coords is the complete hop-distance matrix. Given ``consume``, the matrix is
    never built: ``consume`` is called once with an iterator over its rows in
    node order, as the kernel's int32 blocks of up to 64 rows (the graph is
    undirected, so row v is the distance row from source v), and its result is
    returned. Raises ValueError, before any traversal, if the graph is empty or
    disconnected.
    """
    if consume is None:
        return embed(g, range(g.node_count))
    return consume(_distance_blocks(g, _connected_references(g, range(g.node_count))))


def chebyshev_distance(e: Embedding, p: int, q: int) -> int:
    """Max coordinate difference between nodes p and q (a hop-distance lower bound)."""
    n = e.node_count
    if not (0 <= p < n and 0 <= q < n):
        raise ValueError(f"node out of range 0..{n - 1}")
    return int(np.max(np.abs(e.coords[p] - e.coords[q])))


def chebyshev_matrix(e: Embedding) -> np.ndarray:
    """All-pairs Chebyshev distances under the embedding's reference set."""
    n = e.node_count
    I, J = _pair_arrays(n)
    out = np.zeros((n, n), dtype=e.coords.dtype)
    out[I, J] = out[J, I] = _chebyshev_pairs(_narrow(e.coords), I, J)
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


def _narrow(coords: np.ndarray) -> np.ndarray:
    """Copy of integer coordinates in the narrowest signed dtype (int8 up) that
    holds every value and every difference of two values.

    For hop distances that bound is the largest distance, so a graph of diameter
    at most 127 is compared in int8, a quarter of the memory traffic of int32.
    """
    span = int(coords.max(initial=0)) - min(int(coords.min(initial=0)), 0)
    dtype = next(t for t in (np.int8, np.int16, np.int32, np.int64) if span <= np.iinfo(t).max)
    return coords.astype(dtype)


def _pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs p < q of n nodes in row-major order, in the smallest unsigned dtype holding n - 1."""
    idx = np.arange(n, dtype=np.min_scalar_type(max(n - 1, 0)))
    upper = idx[:, None] < idx
    return np.broadcast_to(idx[:, None], (n, n))[upper], np.broadcast_to(idx, (n, n))[upper]


def _check_max_pairs(n: int, max_pairs: int | None) -> None:
    pairs = n * (n - 1) // 2
    if max_pairs is not None and pairs > max_pairs:
        raise ValueError(f"pair count {pairs} exceeds max_pairs={max_pairs}")


def _abs_diff_blocks(coords: np.ndarray, I: np.ndarray, J: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (s, |coords[I[s:t]] - coords[J[s:t]]|) over row blocks of about 256 K cells.

    ``coords`` must come from ``_narrow``, so the differences cannot overflow.
    Blocks this small stay in cache, and no pair x column table is held whole.
    """
    block = max(1, (1 << 18) // max(1, coords.shape[1]))
    for s in range(0, I.size, block):
        diff = coords[I[s : s + block]]
        np.subtract(diff, coords[J[s : s + block]], out=diff)
        np.abs(diff, out=diff)
        yield s, diff


def _cover_counts(coords: np.ndarray, I: np.ndarray, J: np.ndarray, thresh: np.ndarray) -> np.ndarray:
    """Per-reference count of the pairs (I[r], J[r]) that each column covers."""
    counts = np.zeros(coords.shape[1], dtype=np.int64)
    for s, diff in _abs_diff_blocks(coords, I, J):
        covered = diff >= thresh[s : s + len(diff), None]
        # summing the 0/1 bytes into int32 is about twice as fast as bool.sum
        counts += np.add.reduce(covered.view(np.int8), axis=0, dtype=np.int32)
    return counts


def _chebyshev_pairs(coords: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """Chebyshev distance max_k |coords[I[r], k] - coords[J[r], k]| of every pair r."""
    out = np.empty(I.size, dtype=coords.dtype)
    for s, diff in _abs_diff_blocks(coords, I, J):
        diff.max(axis=1, initial=0, out=out[s : s + len(diff)])
    return out


def _pair_distances(coords: np.ndarray, columns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """True distance and Chebyshev estimate of every pair p < q, in row-major order.

    ``coords`` must be the full distance matrix from ``_narrow``; the estimate
    uses only the given reference columns.
    """
    I, J = _pair_arrays(coords.shape[0])
    sub = np.ascontiguousarray(coords[:, list(columns)])  # a column gather is laid out F-order
    return coords[I, J], _chebyshev_pairs(sub, I, J)


def _shortfall_histogram(shortfall: np.ndarray) -> Histogram:
    return Histogram({int(v): int(c) for v, c in enumerate(np.bincount(shortfall)) if c > 0})


def reduce_references(cm: CoverMatrix, max_pairs: int | None = None) -> ReductionResult:
    """Shrink the reference set while covering every node pair (greedy set cover).

    One blocked pass over the pairs counts, per reference, the pairs it
    covers. Each round then keeps the reference with the largest count (ties
    to the smallest node index), finds the still-uncovered pairs it covers and
    subtracts only those pairs' rows from the counts. Terminates because each
    pair is always covered by its own two endpoints. No reference is ever the
    sole cover of a pair for the same reason, so there is no essential phase
    and ``essential`` is always empty. The final max distortion is verified
    against the tolerance before returning. All of it runs on a narrow copy of
    the coordinates (see the module docstring); ``cm.embedding`` is unchanged.

    ``max_pairs`` aborts up front when the pair count exceeds the budget.
    """
    n = cm.node_count
    _check_max_pairs(n, max_pairs)
    coords = _narrow(cm.embedding.coords)
    # A tolerance beyond the diameter changes nothing, and clamped it fits the
    # narrow dtype: under numpy 2 casting, int8 - 1000 raises OverflowError.
    tolerance = min(cm.tolerance, int(coords.max()))
    I, J = _pair_arrays(n)
    thresh = np.maximum(coords[I, J] - tolerance, 0)
    counts = _cover_counts(coords, I, J, thresh)

    greedy: list[int] = []
    while I.size:
        col = int(np.argmax(counts))
        greedy.append(col)
        # the table is symmetric, so column col is read as the contiguous row col
        row = coords[col]
        hit = np.abs(row[I] - row[J]) >= thresh
        counts -= _cover_counts(coords, I[hit], J[hit], thresh[hit])
        miss = ~hit
        I, J, thresh = I[miss], J[miss], thresh[miss]

    kept = tuple(sorted(greedy))
    true, estimate = _pair_distances(coords, kept)
    distortion = true - estimate
    max_d = int(distortion.max()) if distortion.size else 0
    if max_d > cm.tolerance:
        raise AssertionError(f"reduction exceeded tolerance: {max_d} > {cm.tolerance}")
    return ReductionResult(
        kept=kept,
        essential=(),
        greedy=kept,
        tolerance=cm.tolerance,
        max_distortion=max_d,
        distortion_histogram=_shortfall_histogram(distortion),
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
    refs = _references(g, references)  # before the n x n embedding is built
    dm, dv = _pair_distances(_narrow(embed_full(g).coords), refs)
    distortion = dm - dv
    if distortion.size and distortion.min() < 0:
        raise AssertionError("estimate exceeded true distance; embedding is corrupt")
    max_hops = int(distortion.max()) if distortion.size else 0
    nz = dv > 0
    max_rel = float(np.max(dm[nz] / dv[nz] - 1.0)) if nz.any() else None
    return DistortionReport(
        max_hops=max_hops, histogram=_shortfall_histogram(distortion), max_relative=max_rel
    )

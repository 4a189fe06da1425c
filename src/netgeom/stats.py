"""Whole-graph statistics: degree histograms, two-segment power-law fits,
high-degree ("senior") cohort reports and shortest-path length distributions.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import _PUBLIC
from .graph import (
    Graph,
    _core_blocks,
    _distance_blocks,
    _Forest,
    _level_blocks,
    _peel,
    _require_connected,
    _row_sums,
    _sources,
)

__all__ = list(_PUBLIC["stats"])


class Histogram:
    """Integer-valued distribution as value -> count, plus derived summaries.

    Stored bins always have count >= 1. Text form is two whitespace-separated
    columns (value count), one bin per line, sorted by value; '#' comment lines
    are permitted and skipped when reading back.
    """

    __slots__ = ("_bins",)

    def __init__(self, bins: dict[int, int] | None = None):
        clean: dict[int, int] = {}
        for v, c in (bins or {}).items():
            if c < 0:
                raise ValueError(f"negative count for value {v}")
            if c > 0:
                clean[int(v)] = int(c)
        self._bins = dict(sorted(clean.items()))

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "Histogram":
        bins: dict[int, int] = {}
        for v in values:
            bins[int(v)] = bins.get(int(v), 0) + 1
        return cls(bins)

    @property
    def bins(self) -> dict[int, int]:
        return dict(self._bins)

    @property
    def total(self) -> int:
        return sum(self._bins.values())

    @property
    def mean(self) -> float:
        t = self.total
        if t == 0:
            raise ValueError("mean of an empty histogram is undefined")
        return sum(v * c for v, c in self._bins.items()) / t

    @property
    def max_value(self) -> int:
        if not self._bins:
            raise ValueError("empty histogram has no max value")
        return max(self._bins)

    def count(self, value: int) -> int:
        return self._bins.get(value, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._bins.items())

    def __len__(self) -> int:
        return len(self._bins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self._bins == other._bins

    def __repr__(self) -> str:
        return f"Histogram({self._bins!r})"

    def to_text(self) -> str:
        return "".join(f"{v} {c}\n" for v, c in self._bins.items())

    @classmethod
    def from_text(cls, text: str) -> "Histogram":
        bins: dict[int, int] = {}
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected 'value count', got {raw!r}")
            v, c = int(parts[0]), int(parts[1])
            bins[v] = bins.get(v, 0) + c
        return cls(bins)

    def as_dict(self) -> dict:
        out: dict = {"bins": {str(v): c for v, c in self._bins.items()}, "total": self.total}
        out["mean"] = self.mean if self.total else None
        return out


@dataclass(frozen=True)
class DoubleParetoFit:
    """Two log-log line segments joined at ``break_degree`` (shared bin)."""

    alpha_left: float
    alpha_right: float
    break_degree: int
    intercept_left: float
    intercept_right: float
    sse_left: float
    sse_right: float
    weighted: bool

    @property
    def sse(self) -> float:
        return self.sse_left + self.sse_right


@dataclass(frozen=True)
class SeniorReport:
    """Cohort of nodes at or above a degree threshold, and how they interlink."""

    threshold: int
    count: int
    fraction: float
    no_senior_neighbor_count: int
    mean_senior_neighbors: float
    neighbor_histogram: Histogram


@dataclass(frozen=True)
class PathLengthReport:
    """Shortest-path length distribution.

    Exact mode counts each unordered node pair once. Sampled mode counts
    (source, other) pairs from ``source_count`` BFS sources and is flagged as an
    estimate via mode == "sampled".
    """

    histogram: Histogram
    mean: float
    diameter: int
    mode: str
    total_pairs: int
    source_count: int | None = None
    seed: int | None = None


def degree_histogram(g: Graph) -> Histogram:
    """Histogram of node degrees (isolated nodes contribute to bin 0)."""
    return Histogram.from_values(g.degrees())


_TAIL_FRACTION = 5e-4
_MIN_SEGMENT_MASS = 0.03


def fit_double_pareto(h: Histogram, weighted: bool = True) -> DoubleParetoFit:
    """Fit two power-law segments to a degree histogram on log-log axes.

    Every admissible break degree is swept (each segment keeps at least 3
    distinct bins; the break bin belongs to both segments) and the break with
    the smallest total squared error wins, earliest break on ties. Points are
    (log degree, log count) for occupied bins with degree >= 1; zero-count
    degrees are skipped, not interpolated.

    Three guards keep the near-empty far tail (whose log-counts sit on the
    count >= 1 floor and carry no slope information) from hijacking a segment:
    bins with a count below ``_TAIL_FRACTION`` (5e-4) of the positive-degree
    total are dropped (relaxed as needed so at least 6 bins always remain);
    breaks that would leave either segment with less than
    ``_MIN_SEGMENT_MASS`` (3%) of the kept sample mass are skipped (unless no
    break qualifies); and with ``weighted=True`` (default) every remaining
    point is weighted by its count. All guards are invariant under uniform
    scaling of all counts, and so is the whole fit.

    Raises ValueError when fewer than 6 distinct positive-degree bins exist.
    """
    from ._linefit import _line_fits  # here, so that a stats run that fits nothing loads no more modules

    all_points = [(v, c) for v, c in h.items() if v >= 1]
    if len(all_points) < 6:
        raise ValueError(f"need at least 6 distinct positive-degree bins, got {len(all_points)}")
    total = sum(c for _, c in all_points)
    floor = max(1, int(_TAIL_FRACTION * total))
    points = [(v, c) for v, c in all_points if c >= floor]
    if len(points) < 6:
        floor = sorted((c for _, c in all_points), reverse=True)[5]
        points = [(v, c) for v, c in all_points if c >= floor]
    deg = np.array([v for v, _ in points], dtype=np.float64)
    cnt = np.array([c for _, c in points], dtype=np.float64)
    x = np.log(deg)
    y = np.log(cnt)
    w = cnt if weighted else np.ones_like(cnt)
    if weighted:
        w = w / w.sum()  # scale invariance, and keeps the sums well conditioned

    last = len(points) - 1
    # A segment whose bins hold almost none of the sample carries no slope
    # signal; restrict the sweep to breaks where both sides keep a real share
    # of the mass. When nothing qualifies, fall back to the full range.
    breaks = np.arange(2, last - 1)
    mass = np.cumsum(cnt)
    need = _MIN_SEGMENT_MASS * mass[-1]
    heavy = (mass[breaks] >= need) & (mass[-1] - mass[breaks - 1] >= need)
    if heavy.any():
        breaks = breaks[heavy]
    left = _line_fits(x, y, w, 0, breaks)
    right = _line_fits(x, y, w, breaks, last)
    totals = (left[2] + right[2]).tolist()
    best = 0
    for i, sse_total in enumerate(totals):
        if sse_total < totals[best] - 1e-15:
            best = i
    slope_l, icpt_l, sse_l = (a[best] for a in left)
    slope_r, icpt_r, sse_r = (a[best] for a in right)
    return DoubleParetoFit(
        alpha_left=-slope_l,
        alpha_right=-slope_r,
        break_degree=int(deg[breaks[best]]),
        intercept_left=icpt_l,
        intercept_right=icpt_r,
        sse_left=sse_l,
        sse_right=sse_r,
        weighted=weighted,
    )


def senior_stats(g: Graph, threshold: int = 25) -> SeniorReport:
    """Report the cohort of nodes with degree >= threshold.

    The fraction is relative to ``g``'s node count, so pass the giant core (or
    whatever population the cohort should be measured against) directly.
    """
    if not threshold >= 0:  # NaN fails it
        raise ValueError("threshold must be >= 0")
    if g.node_count == 0:
        raise ValueError("senior stats of an empty graph are undefined")
    is_senior = np.diff(g.indptr) >= threshold
    neighbor_counts = _row_sums(g, is_senior)[is_senior].tolist()
    count = len(neighbor_counts)
    return SeniorReport(
        threshold=threshold,
        count=count,
        fraction=count / g.node_count,
        no_senior_neighbor_count=sum(1 for c in neighbor_counts if c == 0),
        mean_senior_neighbors=(sum(neighbor_counts) / count) if count else 0.0,
        neighbor_histogram=Histogram.from_values(neighbor_counts),
    )


def path_length_report(
    g: Graph,
    mode: str = "exact",
    sources: int | None = None,
    seed: int = 0,
) -> PathLengthReport:
    """Distribution of shortest-path hop lengths over a connected graph.

    mode="exact" counts each unordered pair once. It runs BFS only from the
    nodes of the 2-core, over its edges, and counts the pairs that involve
    the pendant trees by integer arithmetic (see ``_pair_counts``).
    mode="sampled" runs BFS on the whole graph from ``sources`` distinct
    uniformly chosen nodes and counts ordered (source, other) pairs; the
    result is an estimate and is flagged by its mode. Raises ValueError for a
    disconnected graph (the message names the component count) or one of
    fewer than 2 nodes.
    """
    n = g.node_count
    if n < 2:
        raise ValueError("path lengths need at least 2 nodes")
    _require_connected(g, "reduce to one component first")
    if mode == "exact":
        counts = _pair_counts(g) // 2  # every unordered pair was counted from both ends
        total, source_count = n * (n - 1) // 2, None
    else:
        chosen = _sources(n, mode, sources, seed, "sources")
        counts = np.zeros(n, dtype=np.int64)
        for _, levels in _level_blocks(g, chosen):
            for level, (_, words) in enumerate(levels):
                counts[level] += _popcounts(words).sum()
        counts[0] -= len(chosen)  # drop each source's zero distance to itself
        total, source_count = len(chosen) * (n - 1), len(chosen)
    hist = Histogram(dict(enumerate(counts.tolist())))
    mean = float(np.dot(np.arange(n), counts) / total)
    return PathLengthReport(
        histogram=hist,
        mean=mean,
        diameter=hist.max_value,
        mode=mode,
        total_pairs=int(total),
        source_count=source_count,
        seed=None if mode == "exact" else seed,
    )


def _pair_counts(g: Graph) -> np.ndarray:
    """Ordered pairs of distinct nodes of connected ``g`` by hop distance, as
    an int64 array of length n.

    The kernel runs from the roots of the pendant forest over the core they
    induce. A node x in the tree of root a and a node y in the tree of another
    root b are h_x + d(a, b) + h_y hops apart, h being the height above the
    root. These pairs are the pairs of two roots, which the kernel counts; the
    pairs of a root and a tree node of another root, counted from both ends;
    and the pairs of two tree nodes. Per root a with a tree, the last two are
    a's profile of heights convolved with a's distances to the other roots
    (twice) and to the tree nodes outside a's tree. Pairs inside one tree come
    from ``_tree_pairs``.
    """
    n = g.node_count
    forest = _peel(g)
    core, height = forest.core, forest.height
    column = np.searchsorted(core, forest.anchor)  # each node's root, as a kernel column
    tree = np.flatnonzero(height)
    tree = tree[np.argsort(column[tree], kind="stable")]
    tree_column, tree_height = column[tree], height[tree]
    counts = np.zeros(n + int(height.max()), dtype=np.int64)
    counts[:n] = 2 * _tree_pairs(forest, n)
    counts[0] -= len(core)  # each root's zero distance to itself
    start = 0
    for block in _core_blocks(g, forest):
        _count_rows(counts, block)
        lo, hi = np.searchsorted(tree_column, (start, start + len(block)))
        if lo < hi:  # some of these roots carry trees
            roots, slot = np.unique(tree_column[lo:hi], return_inverse=True)
            tall = int(tree_height[lo:hi].max()) + 1
            profile = np.bincount(slot * tall + tree_height[lo:hi], minlength=len(roots) * tall)
            profile = profile.reshape(len(roots), tall)
            to_roots = block[roots - start]
            to_trees = to_roots[:, tree_column] + tree_height
            width = int(max(to_roots.max(), to_trees.max())) + 1
            line = 2 * _row_histograms(to_roots, width) + _row_histograms(to_trees, width)
            line[:, 0] -= 2  # not the root itself
            line[:, :tall] -= profile  # nor its own tree
            for h in range(1, tall):
                counts[h : h + width] += profile[:, h] @ line
        start += len(block)
    return counts[:n]


_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)  # set bits per byte value


def _popcounts(words: np.ndarray) -> np.ndarray:
    """The set bits of each of the contiguous uint64 ``words``, as int64; numpy 1.24 has no popcount."""
    return _BYTE_BITS[words.view(np.uint8)].reshape(-1, 8).sum(axis=1, dtype=np.int64)


def _count_rows(counts: np.ndarray, block: np.ndarray) -> None:
    """Add to ``counts`` the count of each value of the non-negative int ``block``, a row
    at a time: ``bincount`` copies int32 values to intp, and a row's copy is 1/64 of a block's."""
    for row in block:
        seen = np.bincount(row)
        counts[: len(seen)] += seen


def _row_histograms(rows: np.ndarray, width: int) -> np.ndarray:
    """Per row of a 2-D array of ints in 0..width - 1, the count of each value, as int64."""
    flat = (rows + width * np.arange(len(rows))[:, None]).ravel()
    return np.bincount(flat, minlength=len(rows) * width).reshape(len(rows), width)


def _tree_pairs(forest: _Forest, n: int) -> np.ndarray:
    """Unordered pairs of distinct nodes of one pendant tree, root included, by hop distance.

    In peel order each node's histogram of depths below it is merged into its
    parent's; before the merge, the two convolved count the pairs that meet at
    the parent. Leaves are merged in bulk first.
    """
    parent, size = forest.parent, forest.size.tolist()
    fan = Counter(parent[u] for u in forest.order if parent[u] >= 0 and size[u] == 1)
    counts = np.zeros(n + 1, dtype=np.int64)
    counts[1] = sum(fan.values())  # a node meets each of its leaves at 1 hop
    counts[2] = sum(k * (k - 1) // 2 for k in fan.values())  # and they meet each other at 2
    below = {p: np.array([1, k], dtype=np.int64) for p, k in fan.items()}
    one = np.ones(1, dtype=np.int64)
    for u in forest.order:
        if (p := parent[u]) < 0 or size[u] == 1:
            continue
        down = np.concatenate(([0], below.pop(u)))  # depths below p through u
        have = below.get(p, one)
        met = np.convolve(have, down)
        counts[: len(met)] += met
        if len(have) < len(down):
            have, down = down, have
        merged = have.copy()
        merged[: len(down)] += down
        below[p] = merged
    return counts[:n]

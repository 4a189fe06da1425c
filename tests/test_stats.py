"""Histograms, path-length reports, senior cohorts, and the two-segment fit."""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgeom.crawl import CrawlTrace, estimate_derivative

from netgeom.generators import DoubleParetoSpec, generate_double_pareto_degrees
from netgeom.graph import Graph
from netgeom.stats import (
    Histogram,
    degree_histogram,
    fit_double_pareto,
    path_length_report,
    senior_stats,
)

from util import (
    complete_graph,
    from_edges,
    fw_distances,
    line_fit_oracle,
    path_graph,
    random_connected,
    senior_neighbor_counts,
    star_graph,
)


class TestHistogram:
    def test_from_values_and_accessors(self):
        h = Histogram.from_values([3, 1, 3, 3, 7])
        assert h.bins == {1: 1, 3: 3, 7: 1}
        assert h.total == 5
        assert h.mean == (1 + 9 + 7) / 5
        assert h.max_value == 7
        assert h.count(3) == 3
        assert h.count(99) == 0
        assert len(h) == 3

    def test_zero_counts_are_dropped_negative_rejected(self):
        assert Histogram({2: 0, 5: 1}).bins == {5: 1}
        with pytest.raises(ValueError):
            Histogram({2: -1})

    def test_empty_histogram_statistics_are_undefined(self):
        h = Histogram()
        assert h.total == 0
        with pytest.raises(ValueError):
            _ = h.mean
        with pytest.raises(ValueError):
            _ = h.max_value

    def test_text_round_trip_with_comments(self):
        h = Histogram({1: 10, 4: 2, 30: 1})
        text = h.to_text()
        assert text == "1 10\n4 2\n30 1\n"
        assert Histogram.from_text("# degrees\n" + text) == h
        with pytest.raises(ValueError):
            Histogram.from_text("1 2 3\n")

    def test_degree_histogram_examples(self):
        assert degree_histogram(complete_graph(4)).bins == {3: 4}
        assert degree_histogram(star_graph(5)).bins == {1: 5, 5: 1}


class TestPathLengthReport:
    def test_path_of_five_nodes(self):
        rep = path_length_report(path_graph(5))
        assert rep.mean == 2.0
        assert rep.diameter == 4
        assert rep.total_pairs == 10
        assert rep.histogram.bins == {1: 4, 2: 3, 3: 2, 4: 1}
        assert rep.mode == "exact"

    def test_complete_graph_is_all_ones(self):
        rep = path_length_report(complete_graph(6))
        assert rep.mean == 1.0
        assert rep.diameter == 1
        assert rep.total_pairs == 15
        assert rep.histogram.bins == {1: 15}

    def test_exact_histogram_matches_floyd_warshall(self):
        rng = random.Random(17)
        g = random_connected(60, 90, rng)
        oracle = Counter()
        dist = fw_distances(g)
        n = g.node_count
        for u in range(n):
            for v in range(u + 1, n):
                oracle[int(dist[u][v])] += 1
        rep = path_length_report(g)
        assert rep.histogram.bins == dict(oracle)
        total = sum(oracle.values())
        assert rep.mean == pytest.approx(
            sum(k * c for k, c in oracle.items()) / total, rel=1e-12)

    def test_disconnected_graph_error_names_component_count(self):
        g = from_edges([(0, 1), (2, 3), (4, 5)])
        with pytest.raises(ValueError, match="3 components"):
            path_length_report(g)

    def test_sampled_mode_counts_ordered_pairs(self):
        rng = random.Random(23)
        g = random_connected(40, 50, rng)
        n = g.node_count
        rep = path_length_report(g, mode="sampled", sources=7, seed=3)
        assert rep.mode == "sampled"
        assert rep.source_count == 7
        assert rep.seed == 3
        assert rep.total_pairs == 7 * (n - 1)
        assert rep.histogram.total == rep.total_pairs

    def test_sampling_every_node_doubles_the_exact_histogram(self):
        rng = random.Random(29)
        # the 150-node graph's sources fill three 64-source traversal blocks
        for size, extra in ((35, 40), (150, 120)):
            g = random_connected(size, extra, rng)
            n = g.node_count
            exact = path_length_report(g)
            sampled = path_length_report(g, mode="sampled", sources=n, seed=0)
            assert sampled.histogram.bins == {k: 2 * c for k, c in exact.histogram.bins.items()}
            assert sampled.total_pairs == 2 * exact.total_pairs
            assert sampled.mean == pytest.approx(exact.mean, rel=1e-12)

    def test_tiny_and_invalid_inputs(self):
        with pytest.raises(ValueError):
            path_length_report(from_edges([]))
        with pytest.raises(ValueError):
            path_length_report(path_graph(4), mode="turbo")
        with pytest.raises(ValueError):
            path_length_report(path_graph(4), mode="sampled", sources=0)


class TestSeniorStats:
    def test_complete_graph_cohort(self):
        rep = senior_stats(complete_graph(10), threshold=9)
        assert rep.count == 10
        assert rep.fraction == 1.0
        assert rep.mean_senior_neighbors == 9.0
        assert rep.no_senior_neighbor_count == 0
        assert rep.neighbor_histogram.bins == {9: 10}

    def test_star_hub_is_isolated_in_its_cohort(self):
        rep = senior_stats(star_graph(30), threshold=25)
        assert rep.count == 1
        assert rep.fraction == pytest.approx(1 / 31)
        assert rep.mean_senior_neighbors == 0.0
        assert rep.no_senior_neighbor_count == 1

    def test_threshold_zero_includes_everyone(self):
        rep = senior_stats(star_graph(30), threshold=0)
        assert rep.count == 31
        assert rep.fraction == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            senior_stats(star_graph(3), threshold=-1)


class TestDoubleParetoFit:
    def test_planted_two_segment_law_is_recovered(self):
        spec = DoubleParetoSpec(size=100_000, alpha_left=1.0, alpha_right=3.0,
                                break_degree=25, min_degree=1, max_degree=10_000,
                                seed=0)
        h = Histogram.from_values(generate_double_pareto_degrees(spec))
        fit = fit_double_pareto(h)
        assert fit.alpha_left == pytest.approx(1.0, abs=0.3)
        assert fit.alpha_right == pytest.approx(3.0, abs=0.3)
        assert 18 <= fit.break_degree <= 34

    def test_fit_is_invariant_under_count_scaling(self):
        spec = DoubleParetoSpec(size=30_000, alpha_left=1.5, alpha_right=2.5,
                                break_degree=20, min_degree=1, max_degree=5_000,
                                seed=3)
        h = Histogram.from_values(generate_double_pareto_degrees(spec))
        scaled = Histogram({v: 9 * c for v, c in h.items()})
        f1 = fit_double_pareto(h)
        f9 = fit_double_pareto(scaled)
        assert f1.alpha_left == pytest.approx(f9.alpha_left, rel=1e-9)
        assert f1.alpha_right == pytest.approx(f9.alpha_right, rel=1e-9)
        assert f1.break_degree == f9.break_degree

    def test_pure_power_law_yields_equal_slopes(self):
        spec = DoubleParetoSpec(size=50_000, alpha_left=2.0, alpha_right=2.0,
                                break_degree=100, min_degree=1, max_degree=10_000,
                                seed=1)
        h = Histogram.from_values(generate_double_pareto_degrees(spec))
        fit = fit_double_pareto(h)
        assert fit.alpha_left == pytest.approx(2.0, abs=0.2)
        assert fit.alpha_right == pytest.approx(2.0, abs=0.2)

    def test_unweighted_variant_also_recovers_planted_law(self):
        spec = DoubleParetoSpec(size=100_000, alpha_left=1.0, alpha_right=3.0,
                                break_degree=25, min_degree=1, max_degree=10_000,
                                seed=2)
        h = Histogram.from_values(generate_double_pareto_degrees(spec))
        fit = fit_double_pareto(h, weighted=False)
        assert fit.weighted is False
        assert fit.alpha_left == pytest.approx(1.0, abs=0.3)
        assert fit.alpha_right == pytest.approx(3.0, abs=0.3)

    def test_needs_six_distinct_bins(self):
        with pytest.raises(ValueError):
            fit_double_pareto(Histogram({1: 5, 2: 4, 3: 3, 4: 2, 5: 1}))

    def test_exact_line_has_zero_error(self):
        # counts follow value**-2 exactly, so both segments fit one line
        bins = {v: max(1, round(1e6 * v ** -2.0)) for v in range(1, 40)}
        fit = fit_double_pareto(Histogram(bins))
        assert fit.alpha_left == pytest.approx(2.0, abs=0.05)
        assert fit.alpha_right == pytest.approx(2.0, abs=0.05)


def noisy_power_law(seed: int) -> dict[int, int]:
    """Seeded two-slope histogram with multiplicative noise and ~10% empty bins."""
    rng = random.Random(seed)
    a1, a2, brk = rng.uniform(0.5, 2.0), rng.uniform(1.5, 3.5), rng.randrange(5, 40)
    bins = {}
    for v in range(1, rng.randrange(60, 400)):
        base = v ** -a1 if v <= brk else brk ** (a2 - a1) * v ** -a2
        c = int(1e6 * base * rng.uniform(0.5, 1.5))
        if c and rng.random() < 0.9:
            bins[v] = c
    return bins


PINNED_HISTOGRAMS = {
    **{f"seed{s}": noisy_power_law(s) for s in range(4)},
    # the tail floor keeps one bin, so it is relaxed to keep all six
    "relaxed-floor": {1: 10**6, **{v: 1 for v in range(2, 7)}},
    # no break leaves 3% of the mass on the right, so every break is swept
    "no-massive-break": {1: 10**6, **{v: 100 for v in range(2, 9)}},
}

# (alpha_left, alpha_right, break_degree, intercept_left, intercept_right,
# sse_left, sse_right), floats as float.hex, recorded from the per-segment
# prefix-sum fitter; any change of rounding shows up here.
PINNED_FITS = {
    ("seed0", True): ("0x1.92a7ed7d997cdp+0", "0x1.f6b668c6837bbp+0", 6, "0x1.b141ce1ed9d77p+3",
                      "0x1.cfa1606f55e50p+3", "0x1.9bc44e83b8800p-9", "0x1.09145443ac800p-7"),
    ("seed0", False): ("0x1.7c71fa0199973p+0", "0x1.026442e3ee3bdp+1", 10, "0x1.af3160f89d414p+3",
                       "0x1.d1faa35a86d35p+3", "0x1.7dada36370000p-4", "0x1.49819407d5800p+1"),
    ("seed1", True): ("0x1.4ed4056abb92fp-2", "0x1.4c33eb5a6e2b4p+1", 7, "0x1.ac813b855e832p+3",
                      "0x1.19adcf2f3eed5p+4", "0x1.64a0c0cb13e80p-6", "0x1.5136fcd7ad400p-6"),
    ("seed1", False): ("0x1.56ae01e0ff511p-2", "0x1.63a8b0da6c50dp+1", 7, "0x1.abe888638ee39p+3",
                       "0x1.205fb770f62d7p+4", "0x1.8b43b74519b00p-3", "0x1.fa5dfb2475000p+0"),
    ("seed2", True): ("0x1.5ba85650840f6p+0", "0x1.4460283bb2bdbp+1", 4, "0x1.ab078db3f0bb9p+3",
                      "0x1.d67c44a3ae87ap+3", "0x1.3ac3cbf2a4700p-5", "0x1.2033de91e0200p-7"),
    ("seed2", False): ("0x1.e4b55a69a3682p+0", "0x1.5aa158b75a70cp+1", 9, "0x1.b2e4c422b6dffp+3",
                       "0x1.de828290410f0p+3", "0x1.0f734e3484100p-1", "0x1.5a93e1f14ce00p+0"),
    ("seed3", True): ("0x1.b9e8dc1b5b1c8p-1", "0x1.2bfb8c12ed6f3p+1", 28, "0x1.b896abe02bd93p+3",
                      "0x1.28e8fca1625efp+4", "0x1.824d19ed3d500p-5", "0x1.3d0a8958c3800p-7"),
    ("seed3", False): ("0x1.cd5eea663aa75p-1", "0x1.1857fa6a8df6bp+1", 33, "0x1.b82955807e2edp+3",
                       "0x1.1ddb3a49ea457p+4", "0x1.258a8b3c00d00p+1", "0x1.cc50d2b712000p+1"),
    ("relaxed-floor", True): ("0x1.d57011c975bcap+3", "-0x0.0p+0", 3, "0x1.ba18a6c65ac67p+3",
                              "0x0.0p+0", "0x1.37fd501800000p-16", "0x0.0p+0"),
    ("relaxed-floor", False): ("0x1.abc2ed2f6f719p+3", "-0x0.0p+0", 3, "0x1.92d8e96309a8bp+3",
                               "0x0.0p+0", "0x1.0f1f675eed500p+4", "0x0.0p+0"),
    ("no-massive-break", True): ("0x1.38f49b5d334dcp+3", "0x1.d91cc3dd1cf0ep-34", 3,
                                 "0x1.ba17ed691c301p+3", "0x1.26bb1bbb88278p+2",
                                 "0x1.b1037d59b6630p-11", "0x0.0p+0"),
    ("no-massive-break", False): ("0x1.1d2c9e1f9fa13p+3", "0x1.7fa6f4acfa240p-45", 3,
                                  "0x1.9fee2975066e8p+3", "0x1.26bb1bbb55567p+2",
                                  "0x1.e1fef0a8c24f0p+2", "0x0.0p+0"),
}


class TestPinnedFits:
    @pytest.mark.parametrize("case", sorted(PINNED_FITS), ids=lambda c: f"{c[0]}-{'w' if c[1] else 'u'}")
    def test_fit_matches_its_recorded_bits(self, case):
        name, weighted = case
        f = fit_double_pareto(Histogram(PINNED_HISTOGRAMS[name]), weighted=weighted)
        got = (f.alpha_left.hex(), f.alpha_right.hex(), f.break_degree, f.intercept_left.hex(),
               f.intercept_right.hex(), float(f.sse_left).hex(), float(f.sse_right).hex())
        assert got == PINNED_FITS[case]
        assert f.weighted is weighted


def admissible_points_and_breaks(bins: dict[int, int]) -> tuple[list[tuple[int, int]], list[int]]:
    """The fit's kept (degree, count) points and the breaks it may pick, restated by plain loops."""
    points = sorted((v, c) for v, c in bins.items() if v >= 1)
    total = sum(c for _, c in points)
    kept = [(v, c) for v, c in points if c >= max(1, int(5e-4 * total))]
    if len(kept) < 6:
        sixth = sorted((c for _, c in points), reverse=True)[5]
        kept = [(v, c) for v, c in points if c >= sixth]
    counts = [c for _, c in kept]
    need = 0.03 * sum(counts)
    every = list(range(2, len(kept) - 2))
    heavy = [b for b in every if sum(counts[: b + 1]) >= need and sum(counts[b:]) >= need]
    return kept, heavy or every


class TestLineFitOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10**4), st.integers(0, 10**5)), min_size=1, max_size=60),
           st.integers(2, 70))
    def test_windowed_slope_matches_direct_sums(self, steps, window):
        # p stays below 6e5, so every prefix sum is an exact integer in float64
        p = list(itertools.accumulate(s for s, _ in steps))
        d = [v for _, v in steps]
        trace = CrawlTrace(p=tuple(p), d=tuple(d), policy="fifo", stride=1, seed=0, start=0,
                           true_size=10**9, complete=False)
        der = estimate_derivative(trace, window)
        filled = max(0, len(p) - window + 1)
        assert np.isnan(der[: len(p) - filled]).all()
        expected = [line_fit_oracle(p[e - window + 1: e + 1], d[e - window + 1: e + 1], [1] * window)[0]
                    for e in range(window - 1, len(p))]
        np.testing.assert_allclose(der[len(p) - filled:], expected, rtol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.dictionaries(st.integers(1, 500), st.integers(1, 10**6), min_size=6, max_size=18),
           st.booleans())
    def test_picked_break_has_the_least_total_error(self, bins, weighted):
        kept, breaks = admissible_points_and_breaks(bins)
        x = [math.log(v) for v, _ in kept]
        y = [math.log(c) for _, c in kept]
        w = [c for _, c in kept] if weighted else [1] * len(kept)

        def total_sse(b: int) -> float:
            return line_fit_oracle(x[: b + 1], y[: b + 1], w[: b + 1])[2] + line_fit_oracle(x[b:], y[b:], w[b:])[2]

        fit = fit_double_pareto(Histogram(bins), weighted=weighted)
        picked = [v for v, _ in kept].index(fit.break_degree)
        assert picked in breaks
        sse = {b: total_sse(b) for b in breaks}
        # the fitter's error is a difference of prefix sums over every point,
        # so it carries rounding of order epsilon times these whole-table sums
        slack = 1e-10 * sum(a * (1 + abs(b) + abs(c)) ** 2 for a, b, c in zip(w, x, y))
        assert sse[picked] <= min(sse.values()) * (1 + 1e-9) + slack
        scale = sum(w) if weighted else 1  # the fitter normalises the weights to sum 1
        assert fit.sse * scale == pytest.approx(sse[picked], rel=1e-9, abs=slack)


class TestSeniorReference:
    def test_neighbor_counts_match_the_plain_loop(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randrange(1, 50)
            g = Graph.from_edges(n + 2, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(4 * n))])
            threshold = rng.randrange(0, 8)
            counts = senior_neighbor_counts(g, threshold)
            rep = senior_stats(g, threshold=threshold)
            assert rep.count == len(counts)
            assert rep.no_senior_neighbor_count == counts.count(0)
            assert rep.mean_senior_neighbors == (sum(counts) / len(counts) if counts else 0.0)
            assert rep.neighbor_histogram.bins == Histogram.from_values(counts).bins

"""Histograms, path-length reports, senior cohorts, and the two-segment fit."""
from __future__ import annotations

import random
from collections import Counter

import pytest

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

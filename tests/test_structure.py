"""Core/chain decomposition, depth maps, and degree-balance personalities."""
from __future__ import annotations

import math
import random

import pytest

import netgeom.graph as graph_module
import netgeom.structure as structure_module
from netgeom.generators import AppendageSpec, generate_appendage_graph
from netgeom.graph import Graph, giant_core, induced_subgraph, load_edge_list
from netgeom.stats import path_length_report
from netgeom.structure import (
    PERSONALITY_CLASSES,
    Fiber,
    Tentacle,
    decompose,
    depth_density_profile,
    depth_map,
    depth_map_per_component,
    fiber_histogram,
    personality_report,
    tentacle_histogram,
)

from util import (
    complete_graph,
    cycle_graph,
    from_edges,
    oracle_two_core,
    path_graph,
    personality_oracle,
    random_connected,
    random_graph,
    star_graph,
    uf_components,
)


def barbell_graph() -> "tuple":
    """Two K10 cliques joined by a 6-node path; returns (graph, label->id)."""
    import itertools

    edges = list(itertools.combinations(range(10), 2))
    edges += list(itertools.combinations(range(16, 26), 2))
    edges += [(i, i + 1) for i in range(9, 16)]
    g = from_edges(edges)
    return g, {lab: i for i, lab in enumerate(g.labels)}


class TestDecompose:
    def test_triangle_with_pendant_chain(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        d = decompose(g)
        assert d.roles == ("core", "core", "core", "tentacle", "tentacle")
        assert d.tentacles == (Tentacle(nodes=(4, 3), attached_to=2),)
        assert d.node_labels() == ("core", "core", "core", "tentacle", "loner")
        assert d.dense_core.origin_nodes == (0, 1, 2)
        assert d.core_size == 3
        assert d.tentacle_node_count == 2
        assert d.fibers == ()

    def test_pure_cycle_is_core_not_fiber(self):
        d = decompose(cycle_graph(6))
        assert set(d.roles) == {"core"}
        assert d.cycles == ((0, 1, 2, 3, 4, 5),)
        assert d.fibers == ()
        assert d.tentacles == ()

    def test_fiber_between_two_attachment_nodes(self):
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (0, 4), (4, 5), (5, 1)])
        d = decompose(g)
        assert d.fibers == (Fiber(inner=(4, 5), endpoints=(0, 1)),)
        assert d.fibers[0].hops == 3
        assert not d.fibers[0].is_loop
        assert d.node_labels()[4] == d.node_labels()[5] == "fiber"

    def test_loop_fiber_back_to_the_same_node(self):
        g = from_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                        (0, 4), (4, 5), (5, 0)])
        d = decompose(g)
        assert d.fibers == (Fiber(inner=(4, 5), endpoints=(0, 0)),)
        assert d.fibers[0].is_loop

    def test_tree_peels_to_a_trunk(self):
        d = decompose(path_graph(4))
        assert d.core_size == 0
        assert d.tentacles == (Tentacle(nodes=(3, 2, 1, 0), attached_to=None),)
        assert d.node_labels() == ("tentacle", "tentacle", "tentacle", "loner")

    def test_star_peels_to_trunk_plus_branches(self):
        d = decompose(star_graph(4))
        assert d.core_size == 0
        assert len(d.tentacles) == 3
        trunks = [t for t in d.tentacles if t.attached_to is None]
        assert len(trunks) == 1

    def test_two_core_matches_naive_removal_oracle(self):
        rng = random.Random(77)
        for trial in range(60):
            n = rng.randrange(3, 61)
            m = rng.randrange(n - 1, min(3 * n, n * (n - 1) // 2) + 1)
            g = giant_core(random_graph(n, m, rng))
            d = decompose(g)
            labels = d.node_labels()
            core_like = {v for v in range(g.node_count)
                         if labels[v] in ("core", "fiber")}
            assert core_like == oracle_two_core(g), trial

    def test_decomposing_the_dense_core_is_a_fixpoint(self):
        rng = random.Random(41)
        for trial in range(20):
            g = giant_core(random_graph(40, 70, rng))
            d = decompose(g)
            if d.core_size == 0:
                continue
            inner = decompose(giant_core(d.dense_core))
            assert inner.tentacles == ()

    def test_generated_roles_are_recovered_exactly(self):
        rng = random.Random(13)
        for trial in range(15):
            spec = AppendageSpec(
                core_size=rng.randrange(5, 12),
                tentacle_lengths=tuple(rng.randrange(1, 5)
                                       for _ in range(rng.randrange(0, 4))),
                fiber_inner_counts=tuple(rng.randrange(1, 4)
                                         for _ in range(rng.randrange(0, 3))),
                seed=trial,
            )
            g, roles = generate_appendage_graph(spec)
            assert decompose(g).node_labels() == roles, trial

    def test_planted_chain_lengths_come_back_as_a_multiset(self):
        rng = random.Random(123)
        lengths = [int(rng.expovariate(math.log(2))) + 1 for _ in range(40)]
        spec = AppendageSpec(core_size=12, tentacle_lengths=tuple(lengths), seed=5)
        g, _ = generate_appendage_graph(spec)
        d = decompose(g)
        assert sorted(t.length for t in d.tentacles) == sorted(lengths)

    def test_disconnected_input_rejected(self):
        with pytest.raises(ValueError, match="2 components"):
            decompose(from_edges([(0, 1), (2, 3)]))


class TestChainHistograms:
    def test_small_tentacle_set(self):
        spec = AppendageSpec(core_size=5, tentacle_lengths=(1, 1, 2), seed=0)
        g, _ = generate_appendage_graph(spec)
        h, fit = tentacle_histogram(decompose(g))
        assert h.bins == {1: 2, 2: 1}
        assert h.mean == pytest.approx(4 / 3)
        assert fit is not None
        assert fit.p == pytest.approx(0.75)
        assert fit.count == 3

    def test_geometric_lengths_give_consistent_rate(self):
        rng = random.Random(2024)
        lengths = tuple(int(rng.expovariate(math.log(2))) + 1 for _ in range(300))
        spec = AppendageSpec(core_size=20, tentacle_lengths=lengths, seed=9)
        g, _ = generate_appendage_graph(spec)
        h, fit = tentacle_histogram(decompose(g))
        assert h.total == 300
        assert fit.p == pytest.approx(1 / h.mean)
        assert 0.4 <= fit.p <= 0.6

    def test_no_fibers_yields_empty_histogram_and_no_fit(self):
        d = decompose(from_edges([(0, 1), (1, 2), (0, 2), (2, 3)]))
        h, fit = fiber_histogram(d)
        assert h.bins == {}
        assert fit is None


class TestDepth:
    def test_star_depths_in_closed_form(self):
        dm = depth_map(star_graph(4))
        assert dm.depths == (1.0, 1.75, 1.75, 1.75, 1.75)
        assert dm.mode == "exact"

    def test_complete_graph_depth_is_one(self):
        dm = depth_map(complete_graph(5))
        assert dm.depths == (1.0,) * 5
        assert dm.mean_depth == 1.0

    def test_mean_depth_equals_mean_path_length(self):
        rng = random.Random(31)
        for _ in range(10):
            n = rng.randrange(5, 80)
            g = random_connected(n, rng.randrange(0, 2 * n), rng)
            dm = depth_map(g)
            rep = path_length_report(g)
            assert dm.mean_depth == pytest.approx(rep.mean, rel=1e-9)

    def test_sampling_every_anchor_rescales_exact_depth(self):
        rng = random.Random(37)
        g = random_connected(40, 55, rng)
        n = g.node_count
        exact = depth_map(g)
        sampled = depth_map(g, mode="sampled", anchors=n, seed=0)
        assert sampled.anchors == tuple(range(n))
        for s, e in zip(sampled.depths, exact.depths):
            assert s == pytest.approx(e * (n - 1) / n, rel=1e-12)

    def test_sampled_anchor_set_is_shared_and_recorded(self):
        g = random_connected(30, 40, random.Random(4))
        dm = depth_map(g, mode="sampled", anchors=5, seed=42)
        assert dm.mode == "sampled"
        assert dm.seed == 42
        assert len(dm.anchors) == 5
        again = depth_map(g, mode="sampled", anchors=5, seed=42)
        assert again.depths == dm.depths

    def test_disconnected_input_rejected_with_component_count(self):
        g = from_edges([(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="2 components"):
            depth_map(g)

    def test_per_component_maps_cover_everything(self):
        g = from_edges([(0, 1), (1, 2), (3, 4)])
        pieces = depth_map_per_component(g)
        assert len(pieces) == 2
        covered = sorted(v for sub, _ in pieces for v in sub.origin_nodes)
        assert covered == list(range(5))
        sub, dm = pieces[1]
        assert dm.depths == (1.0, 1.0)
        # 1 000 paths of 1-4 nodes and one 40-node component, node ids shuffled
        rng = random.Random(5)
        edges, n = list(random_connected(40, 30, rng).edges()), 40
        for _ in range(1000):
            size = rng.randrange(1, 5)
            edges += [(n + i, n + i + 1) for i in range(size - 1)]
            n += size
        perm = rng.sample(range(n), n)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
        pieces = depth_map_per_component(g)
        comps = sorted(uf_components(g), key=min)
        assert len(pieces) == len(comps) == 1001
        for (sub, dm), comp in zip(pieces, comps):
            want = induced_subgraph(g, comp)
            assert sub == want and sub.origin_nodes == want.origin_nodes
            assert dm == depth_map(want)

    def test_per_component_runs_one_component_pass(self, monkeypatch):
        # every piece is a component by construction, so it is not checked again
        calls = []
        real = graph_module._component_ids

        def counted(g):
            calls.append(g.node_count)
            return real(g)

        monkeypatch.setattr(graph_module, "_component_ids", counted)
        monkeypatch.setattr(structure_module, "_component_ids", counted)
        pieces = depth_map_per_component(from_edges([(2 * i, 2 * i + 1) for i in range(50)]))
        assert len(pieces) == 50 and all(dm.depths == (1.0, 1.0) for _, dm in pieces)
        assert calls == [100]

    def test_invalid_modes_and_anchors(self):
        g = path_graph(4)
        with pytest.raises(ValueError):
            depth_map(g, mode="other")
        with pytest.raises(ValueError):
            depth_map(g, mode="sampled", anchors=0)


class TestDepthProfile:
    def test_star_profile_rows(self):
        g = star_graph(4)
        rows = depth_density_profile(g, depth_map(g), bin_width=0.25)
        assert rows == [(1.0, 4.0, 1), (1.75, 1.0, 4)]

    def test_row_counts_partition_the_nodes(self):
        rng = random.Random(11)
        g = random_connected(60, 80, rng)
        rows = depth_density_profile(g, depth_map(g), bin_width=0.5)
        assert sum(c for _, _, c in rows) == g.node_count
        assert [r[0] for r in rows] == sorted(r[0] for r in rows)

    def test_bridge_nodes_sit_shallower_than_clique_interiors(self):
        g, lab2id = barbell_graph()
        dm = depth_map(g)
        bridge = [dm.depths[lab2id[str(v)]] for v in range(10, 16)]
        interiors = [dm.depths[lab2id[str(v)]]
                     for v in list(range(9)) + list(range(17, 26))]
        assert max(bridge) < min(interiors)
        # and the profile therefore pairs small depth with small degree
        rows = depth_density_profile(g, dm, bin_width=0.25)
        shallow = rows[0]
        deep = rows[-1]
        assert shallow[1] < deep[1]

    def test_bin_width_validation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            depth_density_profile(g, depth_map(g), bin_width=0)


def star_of_stars() -> "object":
    """Hub 0 over subhubs 1..10, each carrying 8 private leaves."""
    edges = [(0, h) for h in range(1, 11)]
    nid = 11
    for h in range(1, 11):
        for _ in range(8):
            edges.append((h, nid))
            nid += 1
    return from_edges(edges)


class TestPersonality:
    def test_star_scores_are_symmetric_log_degrees(self):
        for leaves in (4, 10, 100):
            rep = personality_report(star_graph(leaves))
            assert rep.score[0] == pytest.approx(-math.log10(leaves), abs=1e-12)
            for leaf in range(1, leaves + 1):
                assert rep.score[leaf] == pytest.approx(math.log10(leaves), abs=1e-12)
            assert rep.classes[0] == "popular"
            assert set(rep.classes[1:]) == {"marginal"}

    def test_regular_graphs_are_entirely_neutral(self):
        for g in (complete_graph(5), cycle_graph(8)):
            rep = personality_report(g)
            assert rep.score == (0.0,) * g.node_count
            assert rep.class_counts == {"popular": 0,
                                        "neutral": g.node_count,
                                        "marginal": 0}
            assert rep.marginal_popular_ratio is None
            assert rep.mixing == {"popular": None,
                                  "neutral": (0.0, 1.0, 0.0),
                                  "marginal": None}

    def test_two_level_star_class_counts(self):
        g = star_of_stars()
        rep = personality_report(g, tau=0.0)
        assert rep.class_counts == {"popular": 11, "neutral": 0, "marginal": 80}
        assert rep.marginal_popular_ratio == pytest.approx(80 / 11)
        # the hub's tiny score falls inside the default neutral band
        rep_band = personality_report(g, tau=0.05)
        assert abs(rep_band.score[0]) < 0.05
        assert rep_band.class_counts == {"popular": 10, "neutral": 1, "marginal": 80}

    def test_activity_ratio_is_mean_neighbor_degree_over_degree(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        rep = personality_report(g)
        for v in range(g.node_count):
            assert rep.activity_ratio[v] == pytest.approx(
                rep.neighbor_mean_degree[v] / rep.degree[v])
            assert rep.score[v] == pytest.approx(
                math.log10(rep.activity_ratio[v]))

    def test_mixing_rows_are_distributions_over_all_edge_endpoints(self):
        rng = random.Random(55)
        g = random_connected(50, 70, rng)
        rep = personality_report(g)
        pooled = 0
        for cls in PERSONALITY_CLASSES:
            row = rep.mixing[cls]
            if row is None:
                assert rep.class_counts[cls] == 0
                continue
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
            pooled += sum(g.degree(v) for v in range(g.node_count)
                          if rep.classes[v] == cls)
        assert pooled == 2 * g.edge_count

    def test_validation(self):
        with pytest.raises(ValueError):
            personality_report(star_graph(3), tau=-0.1)
        lonely = load_edge_list(["0 1", "2 2"])  # node 2 ends up isolated
        with pytest.raises(ValueError, match="isolated"):
            personality_report(lonely)

    def test_class_order_constant(self):
        assert PERSONALITY_CLASSES == ("popular", "neutral", "marginal")


class TestPersonalityReference:
    def test_report_matches_the_plain_loop(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randrange(2, 60)
            g = giant_core(random_graph(n, rng.randrange(1, 3 * n), rng))
            tau = rng.choice([0.0, 0.05, 0.2])
            rep = personality_report(g, tau=tau)
            nmd, classes, pool = personality_oracle(g, tau)
            assert list(rep.neighbor_mean_degree) == nmd
            assert list(rep.classes) == classes
            for c, row in zip(PERSONALITY_CLASSES, pool):
                assert rep.mixing[c] == (tuple(x / sum(row) for x in row) if sum(row) else None)

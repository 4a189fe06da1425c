"""Synthetic graph generators: appendage graphs, degree sampler, stub matching."""
from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netgeom.generators import (
    AppendageSpec,
    DoubleParetoSpec,
    configuration_model,
    generate_appendage_graph,
    generate_double_pareto_degrees,
)
from netgeom.graph import components, induced_subgraph
from netgeom.structure import decompose
from util import appendage_oracle, uf_components

CORE_SIZES = st.integers(4, 40)
EDGE_PROBS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
SEEDS = st.integers(0, 2**32 - 1)


def core_of(spec: AppendageSpec):
    """The appendage graph of ``spec``, with its core: the induced subgraph on nodes 0..m-1."""
    g, roles = generate_appendage_graph(spec)
    assert roles[:spec.core_size] == ("core",) * spec.core_size
    return g, induced_subgraph(g, range(spec.core_size))


class TestAppendageGraphs:
    def test_twelve_node_example_has_exact_shape(self):
        spec = AppendageSpec(
            core_size=6,
            tentacle_lengths=(1, 2),
            fiber_inner_counts=(3,),
            seed=1,
        )
        g, roles = generate_appendage_graph(spec)
        assert g.node_count == 12
        # K6 has 15 edges; tentacles add 1 + 2, the fiber adds inner + 1 = 4
        assert g.edge_count == 15 + 3 + 4
        assert Counter(roles) == {"core": 6, "loner": 2, "tentacle": 1, "fiber": 3}
        assert components(g).count == 1

    def test_role_degrees_follow_their_definitions(self):
        rng = random.Random(321)
        for trial in range(25):
            kind = rng.choice(["complete", "random"])
            spec = AppendageSpec(
                core_size=rng.randrange(5, 15) if kind == "complete" else rng.randrange(6, 15),
                core_kind=kind,
                edge_prob=0.4,
                tentacle_lengths=tuple(rng.randrange(1, 5) for _ in range(rng.randrange(0, 4))),
                fiber_inner_counts=tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 3))),
                seed=trial,
            )
            g, roles = generate_appendage_graph(spec)
            assert len(roles) == g.node_count
            assert components(g).count == 1
            core_nodes = [v for v, r in enumerate(roles) if r == "core"]
            assert len(core_nodes) == spec.core_size
            for v, role in enumerate(roles):
                if role == "loner":
                    assert g.degree(v) == 1
                elif role in ("tentacle", "fiber"):
                    assert g.degree(v) == 2
            # every attachment point keeps core degree >= 3
            core_set = set(core_nodes)
            for v in core_nodes:
                inside = sum(1 for w in g.neighbors(v) if w in core_set)
                outside = g.degree(v) - inside
                if outside:
                    assert inside >= 3

    def test_tentacle_and_fiber_node_counts_match_spec(self):
        spec = AppendageSpec(
            core_size=8,
            tentacle_lengths=(3, 1, 2),
            fiber_inner_counts=(2, 2),
            seed=5,
        )
        g, roles = generate_appendage_graph(spec)
        c = Counter(roles)
        assert c["loner"] == 3
        assert c["tentacle"] == (3 - 1) + 0 + (2 - 1)
        assert c["fiber"] == 4

    def test_loop_fibers_allowed_only_when_requested(self):
        spec = AppendageSpec(
            core_size=5,
            fiber_inner_counts=(2,),
            allow_fiber_loops=True,
            seed=3,
        )
        g, roles = generate_appendage_graph(spec)
        assert Counter(roles)["fiber"] == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            generate_appendage_graph(AppendageSpec(core_size=2))
        with pytest.raises(ValueError):
            generate_appendage_graph(AppendageSpec(core_size=5, core_kind="weird"))
        with pytest.raises(ValueError):
            generate_appendage_graph(AppendageSpec(core_size=5, tentacle_lengths=(0,)))
        with pytest.raises(ValueError):
            generate_appendage_graph(
                AppendageSpec(core_size=3, core_kind="random", edge_prob=0.5)
            )

    def test_same_seed_reproduces_graph(self):
        spec = AppendageSpec(core_size=7, core_kind="random", edge_prob=0.3,
                             tentacle_lengths=(2, 2), seed=11)
        g1, r1 = generate_appendage_graph(spec)
        g2, r2 = generate_appendage_graph(spec)
        assert g1 == g2
        assert r1 == r2


class TestCoreProperties:
    @settings(max_examples=150, deadline=None)
    @given(CORE_SIZES, EDGE_PROBS, SEEDS, st.lists(st.integers(1, 3), max_size=3),
           st.lists(st.integers(1, 3), max_size=2))
    def test_random_core_is_simple_connected_with_min_degree_three(self, m, p, seed,
                                                                    tentacles, fibers):
        spec = AppendageSpec(core_size=m, core_kind="random", edge_prob=p,
                             tentacle_lengths=tuple(tentacles),
                             fiber_inner_counts=tuple(fibers), seed=seed)
        g, core = core_of(spec)
        assert g.self_loops_dropped == g.duplicate_edges_dropped == 0
        assert len(uf_components(core)) == 1
        assert min(core.degrees()) >= 3

    @settings(max_examples=40, deadline=None)
    @given(CORE_SIZES, SEEDS)
    def test_complete_core_is_every_pair(self, m, seed):
        _, core = core_of(AppendageSpec(core_size=m, tentacle_lengths=(2,), seed=seed))
        assert sorted(core.edges()) == list(itertools.combinations(range(m), 2))

    @settings(max_examples=40, deadline=None)
    @given(CORE_SIZES, SEEDS)
    def test_empty_random_core_links_every_node_to_node_zero_then_repairs(self, m, seed):
        # G(m, 0) has m singleton components: m - 1 links join them to node 0,
        # then every other node needs two more edges, one or two nodes at a time
        _, core = core_of(AppendageSpec(core_size=m, core_kind="random", edge_prob=0.0,
                                        seed=seed))
        assert core.neighbors(0) == tuple(range(1, m))
        assert 2 * (m - 1) <= core.edge_count <= 3 * (m - 1)
        assert min(core.degrees()) >= 3


class TestAppendageOracle:
    @settings(max_examples=150, deadline=None)
    # sparse G(m, p) draws too, whose several components the repair joins in drawn order
    @given(st.sampled_from(["complete", "random"]), st.integers(3, 25),
           EDGE_PROBS | st.integers(0, 300).map(lambda k: k / 1000), SEEDS,
           st.lists(st.integers(1, 5), max_size=4), st.lists(st.integers(1, 4), max_size=4), st.booleans())
    @example("complete", 6, 0.0, 1, [1, 2], [3], False)  # test_twelve_node_example_has_exact_shape
    @example("random", 4, 0.0, 0, [1], [1, 1, 1, 1], True)  # one-node loop fibers: a second end drawn again
    @example("complete", 3, 0.0, 0, [1], [], False)  # K3 hosts no attachment
    def test_generator_equals_the_edge_list_loop(self, kind, m, p, seed, tentacles, fibers, loops):
        if kind == "random":
            m = max(m, 4)
        spec = AppendageSpec(core_size=m, core_kind=kind, edge_prob=p, tentacle_lengths=tuple(tentacles),
                             fiber_inner_counts=tuple(fibers), allow_fiber_loops=loops, seed=seed)
        try:
            want = appendage_oracle(spec)
        except ValueError as e:
            with pytest.raises(ValueError, match=re.escape(str(e))):
                generate_appendage_graph(spec)
            return
        g, roles = generate_appendage_graph(spec)
        assert (g, roles) == want
        assert g.self_loops_dropped == want[0].self_loops_dropped == 0
        # a one-node fiber never closes on its attachment node, so no edge repeats
        assert g.duplicate_edges_dropped == want[0].duplicate_edges_dropped == 0


class TestAppendageRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["complete", "random"]), st.integers(4, 14), EDGE_PROBS, SEEDS,
           st.lists(st.integers(1, 6), max_size=5), st.lists(st.integers(1, 5), max_size=5), st.booleans())
    @example("random", 6, 0.3, 0, [1, 2, 3], [1, 1, 2, 3], True)  # a one-node fiber drew b = a before
    @example("complete", 4, 0.0, 10, [], [1], True)  # so did this one
    def test_decompose_recovers_the_planted_roles(self, kind, m, p, seed, tentacles, fibers, loops):
        spec = AppendageSpec(core_size=m, core_kind=kind, edge_prob=p, tentacle_lengths=tuple(tentacles),
                             fiber_inner_counts=tuple(fibers), allow_fiber_loops=loops, seed=seed)
        g, roles = generate_appendage_graph(spec)
        d = decompose(g)
        assert d.node_labels() == roles
        assert Counter(len(t.nodes) for t in d.tentacles) == Counter(tentacles)
        assert Counter(len(f.inner) for f in d.fibers) == Counter(fibers)


class TestDegreeSampler:
    def test_sum_is_always_even(self):
        for seed in range(10):
            spec = DoubleParetoSpec(size=101, alpha_left=1.0, alpha_right=3.0,
                                    break_degree=10, seed=seed)
            assert sum(generate_double_pareto_degrees(spec)) % 2 == 0

    def test_single_sample_is_forced_even(self):
        spec = DoubleParetoSpec(size=1, alpha_left=1.0, alpha_right=1.0,
                                break_degree=3, min_degree=3, max_degree=3, seed=0)
        degrees = generate_double_pareto_degrees(spec)
        assert degrees == [4]  # the only possible draw is 3, bumped to even

    def test_samples_respect_degree_bounds(self):
        spec = DoubleParetoSpec(size=5000, alpha_left=1.0, alpha_right=3.0,
                                break_degree=20, min_degree=4, max_degree=90, seed=2)
        degrees = generate_double_pareto_degrees(spec)
        # the even-sum fix may push exactly one sample one past the cap
        assert all(4 <= d <= 91 for d in degrees)
        assert sum(1 for d in degrees if d == 91) <= 1

    def test_realized_mean_matches_closed_form(self):
        lo, hi, xb, a_left, a_right = 10, 100_000, 50, 1.0, 3.0
        ks = np.arange(lo, hi + 1, dtype=float)
        w = np.where(ks <= xb, ks ** -a_left, xb ** (a_right - a_left) * ks ** -a_right)
        expected = float((ks * w).sum() / w.sum())
        spec = DoubleParetoSpec(size=200_000, alpha_left=a_left, alpha_right=a_right,
                                break_degree=xb, min_degree=lo, max_degree=hi, seed=4)
        realized = np.mean(generate_double_pareto_degrees(spec))
        assert abs(realized - expected) / expected < 0.05

    def test_log_log_slope_of_pure_power_law(self):
        spec = DoubleParetoSpec(size=50_000, alpha_left=2.0, alpha_right=2.0,
                                break_degree=100, min_degree=1, max_degree=10_000,
                                seed=9)
        counts = Counter(generate_double_pareto_degrees(spec))
        pts = [(math.log10(k), math.log10(c)) for k, c in counts.items() if c >= 30]
        assert len(pts) >= 10
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        slope = np.polyfit(x, y, 1)[0]
        assert abs(slope - (-2.0)) < 0.2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            generate_double_pareto_degrees(DoubleParetoSpec(size=0, alpha_left=1,
                                                            alpha_right=3, break_degree=5))
        with pytest.raises(ValueError):
            generate_double_pareto_degrees(DoubleParetoSpec(size=5, alpha_left=-1,
                                                            alpha_right=3, break_degree=5))
        with pytest.raises(ValueError):
            generate_double_pareto_degrees(DoubleParetoSpec(size=5, alpha_left=1,
                                                            alpha_right=3, break_degree=5,
                                                            min_degree=10, max_degree=4))


class TestConfigurationModel:
    def test_forced_triangle(self):
        g = configuration_model([2, 2, 2], seed=0)
        assert g.node_count == 3
        assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_a_repeated_edge_is_redrawn_like_a_self_loop(self):
        # K4 is the one simple graph on [3, 3, 3, 3]; a matching that repeats an edge
        # and has no self-loop is erased into fewer edges unless it is redrawn
        for seed in range(20):
            g = configuration_model([3, 3, 3, 3], seed=seed)
            assert sorted(g.edges()) == list(itertools.combinations(range(4), 2))
            assert g.self_loops_dropped == g.duplicate_edges_dropped == 0

    def test_forced_single_edge(self):
        g = configuration_model([1, 1], seed=5)
        assert sorted(g.edges()) == [(0, 1)]

    def test_isolated_nodes_survive(self):
        g = configuration_model([0, 0], seed=1)
        assert g.node_count == 2
        assert g.edge_count == 0

    def test_odd_degree_sum_rejected(self):
        with pytest.raises(ValueError):
            configuration_model([1, 1, 1], seed=0)
        with pytest.raises(ValueError):
            configuration_model([-2, 2], seed=0)

    def test_degrees_preserved_when_nothing_erased(self):
        rng = random.Random(6)
        preserved = 0
        for seed in range(10):
            degrees = [rng.randrange(1, 4) for _ in range(200)]
            if sum(degrees) % 2:
                degrees[0] += 1
            g = configuration_model(degrees, seed=seed)
            assert all(g.degree(v) <= degrees[v] for v in range(200))
            if g.self_loops_dropped == 0 and g.duplicate_edges_dropped == 0:
                assert g.degrees() == degrees
                preserved += 1
        assert preserved >= 1

    def test_same_seed_reproduces_graph(self):
        degrees = generate_double_pareto_degrees(
            DoubleParetoSpec(size=500, alpha_left=1.0, alpha_right=3.0,
                             break_degree=15, seed=8))
        assert configuration_model(degrees, seed=3) == configuration_model(degrees, seed=3)

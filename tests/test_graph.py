"""Graph construction, parsing, BFS, and component extraction."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netgeom.graph import (
    UNREACHABLE,
    EdgeListParseError,
    Graph,
    bfs,
    components,
    giant_core,
    induced_subgraph,
    load_edge_list,
    _distance_blocks,
)

from util import (
    INF,
    from_edges,
    fw_distances,
    random_connected,
    random_graph,
    uf_components,
)


class TestParsing:
    def test_labels_get_dense_ids_in_first_appearance_order(self):
        g = load_edge_list(["alice bob", "bob carol", "dave alice"])
        assert g.labels == ("alice", "bob", "carol", "dave")
        assert g.node_count == 4
        assert g.edge_count == 3
        assert g.label_of(2) == "carol"

    def test_comments_and_blank_lines_are_skipped(self):
        g = load_edge_list(["# header", "", "  ", "1 2", "# mid", "2 3"])
        assert g.node_count == 3
        assert g.edge_count == 2

    def test_self_loops_and_duplicates_are_dropped_and_counted(self):
        g = load_edge_list(["1 2", "2 1", "1 1", "1 2", "2 3", "3 3"])
        assert g.edge_count == 2
        assert g.duplicate_edges_dropped == 2
        assert g.self_loops_dropped == 2

    def test_malformed_line_reports_its_line_number(self):
        with pytest.raises(EdgeListParseError) as exc:
            load_edge_list(["1 2", "whoops", "3 4"])
        assert exc.value.line_no == 2
        with pytest.raises(EdgeListParseError):
            load_edge_list(["1 2 3"])

    def test_parse_error_is_a_value_error(self):
        assert issubclass(EdgeListParseError, ValueError)

    def test_large_parse_matches_independent_recount(self):
        rng = random.Random(42)
        lines = []
        ref_edges: set[tuple[int, int]] = set()
        ref_nodes: set[int] = set()
        loops = dups = 0
        for _ in range(10_000):
            a, b = rng.randrange(400), rng.randrange(400)
            lines.append(f"{a} {b}")
            ref_nodes.update((a, b))
            if a == b:
                loops += 1
            else:
                key = (min(a, b), max(a, b))
                if key in ref_edges:
                    dups += 1
                else:
                    ref_edges.add(key)
        g = load_edge_list(lines)
        assert g.node_count == len(ref_nodes)
        assert g.edge_count == len(ref_edges)
        assert g.self_loops_dropped == loops
        assert g.duplicate_edges_dropped == dups
        got = {(g.label_of(a), g.label_of(b)) for a, b in g.edges()}
        want = set()
        for a, b in ref_edges:
            la, lb = str(a), str(b)
            want.add((la, lb) if (la, lb) in got else (lb, la))
        assert got == want


class TestGraphBasics:
    def test_adjacency_is_sorted_and_degree_coherent(self):
        g = Graph.from_edges(4, [(0, 3), (0, 1), (0, 2), (2, 3)])
        assert g.neighbors(0) == (1, 2, 3)
        assert g.degree(0) == 3
        assert g.degrees() == [3, 1, 2, 2]
        assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (2, 3)]

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_adjacency_constructor_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph([(1,), (1,)])

    def test_adjacency_constructor_rejects_asymmetry(self):
        # node 0 lists 1 but node 1 does not list 0: edge_count and edges() would disagree
        with pytest.raises(ValueError, match=r"edge \(0, 1\)"):
            Graph([[1], []])
        with pytest.raises(ValueError, match=r"edge \(1, 2\)"):
            Graph([[2], [], [0, 1]])

    def test_adjacency_constructor_rejects_duplicate_neighbors(self):
        with pytest.raises(ValueError, match="neighbor 1 of node 0 is repeated"):
            Graph([[1, 1], [0, 0]])

    def test_equality_ignores_origin_nodes(self):
        g = from_edges([(0, 1), (1, 2)])
        h = induced_subgraph(g, [0, 1, 2])
        assert g == h
        assert h.origin_nodes == (0, 1, 2)


class TestBfs:
    def test_distances_match_floyd_warshall(self):
        rng = random.Random(7)
        for n in (100, 150):
            g = random_connected(n, 2 * n, rng)
            oracle = fw_distances(g)
            for src in range(0, n, 17):
                dm = bfs(g, src)
                assert list(dm.dist) == [int(x) for x in oracle[src]]

    def test_unreachable_is_minus_one(self):
        g = load_edge_list(["0 1", "2 3"])
        dm = bfs(g, 0)
        assert dm.dist[2] == UNREACHABLE == -1
        assert dm.reachable_count == 2
        assert dm.eccentricity == 1

    def test_source_out_of_range(self):
        g = from_edges([(0, 1)])
        with pytest.raises(ValueError):
            bfs(g, 5)

    def test_triangle_inequality_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(5):
            n = rng.randrange(10, 41)
            g = random_connected(n, n, rng)
            dist = [bfs(g, s).dist for s in range(n)]
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        assert dist[u][w] <= dist[u][v] + dist[v][w]


@st.composite
def graphs_with_sources(draw):
    """A graph of up to 40 nodes (isolated ones included, possibly with no edge
    at all or with isolated nodes at the end of the CSR rows) and 1, 63, 64, 65
    or 129 sources, drawn with repetition."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=2 * n))
    trailing = draw(st.integers(0, 3))
    g = Graph.from_edges(n + trailing, edges)
    count = draw(st.sampled_from([1, 63, 64, 65, 129]))
    sources = draw(st.lists(st.integers(0, n + trailing - 1), min_size=count, max_size=count))
    return g, sources


def oracle_rows(g: Graph) -> list[list[int]]:
    return [[UNREACHABLE if d == INF else int(d) for d in row] for row in fw_distances(g)]


class TestDistanceKernel:
    @settings(max_examples=60, deadline=None)
    @given(graphs_with_sources())
    @example((Graph([[1], [0], []]), [2, 0, 2, 2]))  # trailing isolated node, repeats
    @example((Graph([[], [], []]), [1] * 65))  # no edges; a repeated source in two blocks
    def test_blocks_match_floyd_warshall(self, case):
        g, sources = case
        blocks = list(_distance_blocks(g, sources))
        assert [len(b) for b in blocks] == [min(64, len(sources) - i) for i in range(0, len(sources), 64)]
        assert all(b.dtype == np.int32 for b in blocks)
        oracle = oracle_rows(g)
        assert np.concatenate(blocks).tolist() == [oracle[s] for s in sources]

    @settings(max_examples=30, deadline=None)
    @given(graphs_with_sources())
    def test_bfs_matches_floyd_warshall(self, case):
        g, _ = case
        oracle = oracle_rows(g)
        assert [list(bfs(g, s).dist) for s in range(g.node_count)] == oracle


class TestComponents:
    def test_partition_matches_union_find(self):
        rng = random.Random(99)
        for _ in range(30):
            n = rng.randrange(2, 80)
            g = random_graph(n, rng.randrange(1, 2 * n), rng)
            lab = components(g)
            oracle = uf_components(g)
            assert lab.count == len(oracle)
            assert sorted(lab.sizes) == sorted(len(c) for c in oracle)
            for group in oracle:
                ids = {lab.component_id[v] for v in group}
                assert len(ids) == 1

    def test_giant_index_prefers_largest_then_first(self):
        g = load_edge_list(["0 1", "2 3", "3 4"])
        lab = components(g)
        assert lab.sizes == (2, 3)
        assert lab.giant_index == 1
        tie = load_edge_list(["0 1", "2 3"])
        assert components(tie).giant_index == 0


class TestSubgraphs:
    def test_induced_subgraph_restricts_edges_and_keeps_labels(self):
        g = load_edge_list(["a b", "b c", "c d", "d a", "a c"])
        sub = induced_subgraph(g, [0, 1, 2])
        assert sub.labels == ("a", "b", "c")
        assert sub.origin_nodes == (0, 1, 2)
        assert sorted(sub.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_giant_core_is_idempotent(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(2, 60)
            g = random_graph(n, rng.randrange(1, n + 10), rng)
            core = giant_core(g)
            assert components(core).count == 1
            assert giant_core(core) == core

    def test_giant_core_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            giant_core(Graph([]))

"""Exact depth, exact path lengths and decompose on a 2-core with pendant trees.

Depth and path lengths traverse only the 2-core and add the trees by integer
arithmetic, so every case is checked for equality against Floyd-Warshall on
the whole graph. decompose reads its chains and fibers off the same peel and
is checked against oracles written from the definitions.
"""
from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import netgeom.graph as graph_module
import netgeom.stats as stats_module
import netgeom.structure as structure_module
from netgeom.generators import AppendageSpec, generate_appendage_graph
from netgeom.graph import Graph, induced_subgraph
from netgeom.stats import path_length_report
from netgeom.structure import decompose, depth_map, depth_map_per_component

from util import (
    chains_oracle,
    complete_graph,
    cycle_graph,
    fibers_oracle,
    fw_distances,
    oracle_two_core,
    path_graph,
    random_connected,
    star_graph,
    uf_components,
)


def hang_trees(edges: list[tuple[int, int]], n: int, trees: list[tuple[int, list[int]]]) -> int:
    """Append to ``edges`` one tree per (anchor, links) and return the new node count.

    The tree's nodes are numbered from ``n`` on; its first node hangs from
    ``anchor``, and node i > 0 from its node ``links[i] % i``. ``chain(k)``
    makes a chain, all zeros a star.
    """
    for anchor, links in trees:
        top = n
        for i, link in enumerate(links):
            edges.append((anchor if i == 0 else top + link % i, n))
            n += 1
    return n


def chain(k: int) -> list[int]:
    return [i - 1 for i in range(k)]


@st.composite
def graphs_with_trees(draw, core_max: int = 12) -> Graph:
    """A random connected graph with branched trees and chains hung on random
    nodes, several per anchor possible, node ids shuffled. The base graph may
    have a single node, and some draws hang no tree."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(1, core_max))
    edges = list(random_connected(base, rng.randrange(0, 2 * base + 1), rng).edges()) if base > 1 else []
    count = draw(st.integers(0, 8))
    trees = []
    for _ in range(count):
        anchor = rng.randrange(base)  # repeats hang several trees on one anchor
        shape = draw(st.sampled_from(["chain", "star", "random"]))
        size = draw(st.integers(1, 12))
        if shape == "chain":
            links = chain(size)
        elif shape == "star":
            links = [0] * size
        else:
            links = [rng.randrange(1 << 16) for _ in range(size)]
        trees.append((anchor, links))
    n = hang_trees(edges, base, trees)
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def tied(fan: int, depth: int, spider: bool) -> list[int]:
    """Links (see ``hang_trees``) of a tree whose siblings all have one height:
    a complete ``fan``-ary tree of ``depth`` levels below its top, or a spider
    of ``fan`` legs of ``depth`` nodes each."""
    if spider:
        # the first node of each leg hangs from the centre, the others from the node before
        return [-1] + [i - 1 if (i - 1) % depth else 0 for i in range(1, fan * depth + 1)]
    size = sum(fan**level for level in range(depth + 1))
    return [(i - 1) // fan for i in range(size)]


@st.composite
def hung_trees(draw, anchors: int) -> list[tuple[int, list[int]]]:
    """Up to 6 (anchor, links) pairs for ``hang_trees``, anchors below
    ``anchors``: chains, stars, random trees and trees of equal-height siblings."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        anchor = draw(st.integers(0, anchors - 1))
        shape = draw(st.sampled_from(["chain", "star", "random", "tied", "spider"]))
        if shape == "tied":
            links = tied(draw(st.integers(2, 3)), draw(st.integers(1, 3)), False)
        elif shape == "spider":
            links = tied(draw(st.integers(2, 4)), draw(st.integers(1, 4)), True)
        else:
            size = draw(st.integers(1, 10))
            links = {"chain": chain(size), "star": [0] * size,
                     "random": draw(st.lists(st.integers(0, 99), min_size=size, max_size=size))}[shape]
        out.append((anchor, links))
    return out


def shuffled(draw, n: int, edges: list[tuple[int, int]]) -> Graph:
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def cores_with_fibers(draw) -> Graph:
    """A clique or a random connected core with fibers and loop fibers strung
    on it, and trees hung on any node, fiber nodes included; ids shuffled."""
    base = draw(st.integers(3, 8))
    if draw(st.booleans()):
        edges = [(u, v) for u in range(base) for v in range(u + 1, base)]
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        edges = list(random_connected(base, 2 * base, rng).edges())
    n = base
    for _ in range(draw(st.integers(1, 5))):
        a, b = draw(st.integers(0, base - 1)), draw(st.integers(0, base - 1))
        inner = draw(st.integers(2 if a == b else 1, 5))  # a loop needs 2 to stay simple
        path = [a, *range(n, n + inner), b]
        edges += zip(path, path[1:])
        n += inner
    n = hang_trees(edges, n, draw(hung_trees(n)))
    return shuffled(draw, n, edges)


@st.composite
def cycles_with_trees(draw) -> Graph:
    """A lone cycle of 3 to 10 nodes with trees hung on it; ids shuffled."""
    base = draw(st.integers(3, 10))
    edges = [(i, (i + 1) % base) for i in range(base)]
    n = hang_trees(edges, base, draw(hung_trees(base)))
    return shuffled(draw, n, edges)


@st.composite
def tied_graphs(draw) -> Graph:
    """A lone node or a random connected graph carrying trees of equal-height
    siblings; ids shuffled."""
    base = draw(st.integers(1, 8))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    edges = list(random_connected(base, rng.randrange(2 * base), rng).edges()) if base > 1 else []
    trees = [(rng.randrange(base), tied(draw(st.integers(2, 3)), draw(st.integers(1, 3)),
                                        draw(st.booleans())))
             for _ in range(draw(st.integers(1, 4)))]
    n = hang_trees(edges, base, trees)
    return shuffled(draw, n, edges)


@st.composite
def trees(draw) -> Graph:
    """A random tree of 1 to 40 nodes, node ids shuffled."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[i], perm[rng.randrange(i)]) for i in range(1, n)])


def assert_matches_floyd_warshall(g: Graph) -> None:
    n = g.node_count
    dist = [[int(d) for d in row] for row in fw_distances(g)]
    assert depth_map(g).depths == tuple(sum(row) / max(n - 1, 1) for row in dist)
    assert_paths_match_floyd_warshall(g, dist)


def assert_paths_match_floyd_warshall(g: Graph, dist: list[list[int]] | None = None) -> None:
    n = g.node_count
    if n < 2:
        return
    dist = dist or [[int(d) for d in row] for row in fw_distances(g)]
    pairs = Counter(dist[u][v] for u in range(n) for v in range(u + 1, n))
    total = n * (n - 1) // 2
    rep = path_length_report(g)
    assert rep.histogram.bins == dict(sorted(pairs.items()))
    assert rep.mean == sum(k * c for k, c in pairs.items()) / total
    assert rep.diameter == max(pairs)
    assert rep.total_pairs == total


def appendage_graph(core: int, tentacles: tuple[int, ...]) -> Graph:
    return generate_appendage_graph(AppendageSpec(core_size=core, tentacle_lengths=tentacles, seed=0))[0]


class TestExactWithPendantTrees:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_trees())
    def test_cored_graphs_match_floyd_warshall(self, g):
        assert_matches_floyd_warshall(g)

    @settings(max_examples=80, deadline=None)
    @given(trees())
    @example(Graph([[]]))
    @example(Graph([[1], [0]]))
    def test_trees_match_floyd_warshall(self, g):
        assert_matches_floyd_warshall(g)

    @pytest.mark.parametrize("g", [path_graph(2), path_graph(3), path_graph(30), star_graph(1),
                                   star_graph(2), star_graph(25), cycle_graph(3), cycle_graph(9),
                                   complete_graph(2), complete_graph(7)],
                             ids=["P2", "P3", "P30", "S1", "S2", "S25", "C3", "C9", "K2", "K7"])
    def test_paths_stars_cycles_and_cliques(self, g):
        assert_matches_floyd_warshall(g)

    @staticmethod
    def several_blocks_with_tall_trees() -> Graph:
        """A 70-node core, which takes two 64-source blocks, whose trees carry long chains."""
        rng = random.Random(3)
        edges = list(random_connected(70, 40, rng).edges())
        forest = [(5, chain(20)), (5, [0] * 6), (66, [rng.randrange(99) for _ in range(15)]),
                  (69, chain(9)), (0, [0])]
        n = hang_trees(edges, 70, forest)
        return Graph.from_edges(n, edges)

    def test_core_of_several_kernel_blocks_with_tall_trees(self):
        assert_matches_floyd_warshall(self.several_blocks_with_tall_trees())

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(graphs_with_trees(), trees(), cycles_with_trees()))
    def test_paths_one_root_a_chunk_match_floyd_warshall(self, g):
        # a cell budget of 1 counts each root's tree pairs in a chunk of its own
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats_module, "_CELL_BUDGET", 1)
            assert_paths_match_floyd_warshall(g)

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_core_of_several_kernel_blocks_in_chunks(self, monkeypatch, chunk):
        # chunks of 1 or 3 roots across the two blocks of a 70-node core with tall trees
        g = self.several_blocks_with_tall_trees()
        forest = graph_module._peel(g)
        cells = max(len(forest.core), int((forest.height > 0).sum()))
        monkeypatch.setattr(stats_module, "_CELL_BUDGET", chunk * cells)
        assert_paths_match_floyd_warshall(g)

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_trees())
    def test_decompose_keeps_the_naive_two_core(self, g):
        labels = decompose(g).node_labels()
        assert {v for v in range(g.node_count) if labels[v] in ("core", "fiber")} == oracle_two_core(g)


def assert_matches_oracles(g: Graph) -> None:
    d = decompose(g)
    core = oracle_two_core(g)
    assert d.roles == tuple("core" if v in core else "tentacle" for v in range(g.node_count))
    # where a tree peels away completely is the peel's choice; the oracle takes it
    root = next((t.nodes[-1] for t in d.tentacles if t.attached_to is None), None)
    assert [(t.nodes, t.attached_to) for t in d.tentacles] == chains_oracle(g, root)
    fibers, cycles = fibers_oracle(g)
    assert [(f.inner, f.endpoints) for f in d.fibers] == fibers
    assert list(d.cycles) == cycles


class TestDecomposeMatchesOracles:
    @settings(max_examples=150, deadline=None)
    @given(graphs_with_trees())
    def test_graphs_with_trees(self, g):
        assert_matches_oracles(g)

    @settings(max_examples=100, deadline=None)
    @given(tied_graphs())
    def test_equal_height_siblings(self, g):
        assert_matches_oracles(g)

    @settings(max_examples=150, deadline=None)
    @given(cores_with_fibers())
    def test_cores_with_fibers_and_loop_fibers(self, g):
        assert_matches_oracles(g)

    @settings(max_examples=60, deadline=None)
    @given(cycles_with_trees())
    def test_lone_cycle_with_trees(self, g):
        assert_matches_oracles(g)

    def test_two_equal_branches_go_to_the_smaller_index(self):
        # 4 has two branches of height 2; the chain from the core follows 5
        g = Graph.from_edges(10, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (4, 6),
                                  (5, 7), (6, 8), (1, 9)])
        assert_matches_oracles(g)
        assert [(t.nodes, t.attached_to) for t in decompose(g).tentacles] == [
            ((7, 5, 4), 0), ((8, 6), 4), ((9,), 1)]


class TestPerComponent:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(trees(), graphs_with_trees(core_max=8)), min_size=1, max_size=5))
    def test_tree_and_cored_components_match_floyd_warshall(self, parts):
        edges, n = [], 0
        for part in parts:
            edges += [(n + u, n + v) for u, v in part.edges()]
            n += part.node_count
        g = Graph.from_edges(n, edges)
        pieces = depth_map_per_component(g)
        comps = sorted(uf_components(g), key=min)
        assert len(pieces) == len(comps)
        for (sub, dm), comp in zip(pieces, comps):
            assert sub == induced_subgraph(g, comp)
            dist = fw_distances(sub)
            assert dm.depths == tuple(sum(map(int, row)) / max(len(comp) - 1, 1) for row in dist)


class TestPrunedTraversal:
    """The exact analyses call the kernel on the 2-core alone."""

    @pytest.fixture
    def kernel_graph_sizes(self, monkeypatch) -> list[int]:
        # the exact modes read distance rows; the sampled modes fold the BFS levels themselves
        sizes: list[int] = []

        def spy(real):
            def call(g, sources):
                sizes.append(g.node_count)
                return real(g, sources)
            return call

        monkeypatch.setattr(graph_module, "_distance_blocks", spy(graph_module._distance_blocks))
        for module in (structure_module, stats_module):  # graph_module's rows are built from its own levels
            monkeypatch.setattr(module, "_level_blocks", spy(graph_module._level_blocks))
        return sizes

    def test_exact_modes_traverse_only_the_core(self, kernel_graph_sizes):
        g = appendage_graph(12, (40, 40))
        assert g.node_count == 92
        depth_map(g)
        path_length_report(g)
        assert kernel_graph_sizes == [12, 12]

    def test_sampled_modes_traverse_the_whole_graph(self, kernel_graph_sizes):
        g = appendage_graph(12, (40, 40))
        depth_map(g, mode="sampled", anchors=8, seed=1)
        path_length_report(g, mode="sampled", sources=8, seed=1)
        assert kernel_graph_sizes == [92, 92]

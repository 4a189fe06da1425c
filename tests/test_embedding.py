"""Hop-distance embeddings, Chebyshev estimates, and reference reduction."""
from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgeom.embedding as embedding_module
from netgeom.embedding import (
    Embedding,
    build_cover_matrix,
    chebyshev_distance,
    chebyshev_matrix,
    embed,
    embed_full,
    embedding_distortion,
    reduce_references,
)
from netgeom.graph import Graph, bfs

from util import (
    brute_force_min_cover,
    complete_graph,
    cycle_graph,
    distortion_oracle,
    from_edges,
    fw_distances,
    greedy_cover,
    path_graph,
    random_connected,
    star_graph,
)


class TestEmbedding:
    def test_full_coordinates_are_the_distance_matrix(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randrange(2, 50)
            g = random_connected(n, rng.randrange(0, 2 * n), rng)
            e = embed_full(g)
            oracle = fw_distances(g)
            assert e.full
            assert e.references == tuple(range(n))
            for u in range(n):
                assert list(e.coords[u]) == [int(x) for x in oracle[u]]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_full_embedding_across_blocks_of_64(self, n):
        g = random_connected(n, n, random.Random(n)) if n > 1 else from_edges([(0, 0)])
        oracle = [[int(x) for x in row] for row in fw_distances(g)]
        e = embed_full(g)
        assert e.full and e.references == tuple(range(n))
        assert e.coords.dtype == np.int8  # the table is narrow; the streamed blocks are the kernel's
        assert e.coords.tolist() == oracle
        blocks = embed_full(g, list)  # the rows streamed to a consumer, in node order
        assert [len(b) for b in blocks] == [min(64, n - s) for s in range(0, n, 64)]
        assert all(b.dtype == np.int32 for b in blocks)
        assert np.vstack(blocks).tolist() == oracle

    def test_full_chebyshev_distance_is_exact(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randrange(2, 60)
            g = random_connected(n, rng.randrange(0, 3 * n), rng)
            e = embed_full(g)
            assert np.array_equal(chebyshev_matrix(e), np.asarray(e.coords))

    def test_subset_estimates_never_exceed_truth(self):
        rng = random.Random(10)
        g = random_connected(40, 60, rng)
        e = embed_full(g)
        refs = tuple(sorted(rng.sample(range(40), 5)))
        sub = e.subset(refs)
        assert not sub.full
        cm = chebyshev_matrix(sub)
        assert (cm <= np.asarray(e.coords)).all()
        assert chebyshev_distance(sub, 3, 17) == cm[3, 17]

    def test_chebyshev_matrix_matches_the_pairwise_distance(self):
        # a path of 200 nodes has differences beyond int8
        for g, refs in ((random_connected(30, 40, random.Random(13)), (4, 0, 17, 4)),
                        (path_graph(200), (150, 3, 199))):
            sub = embed_full(g).subset(refs)
            cm = chebyshev_matrix(sub)
            assert cm.dtype == sub.coords.dtype
            n = sub.node_count
            assert [[int(x) for x in r] for r in cm] == [
                [chebyshev_distance(sub, p, q) for q in range(n)] for p in range(n)
            ]

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16])
    def test_narrow_coordinates_do_not_wrap(self, dtype):
        # e.g. int8 rows -100 and 100 differ by 200, which int8 wraps to -56
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        wide = np.random.default_rng(np.iinfo(dtype).bits).integers(lo, hi, (12, 3), endpoint=True)
        wide[:2, 0] = lo, hi  # the widest difference the dtype allows
        e = Embedding(references=(0, 1, 2), coords=wide.astype(dtype), full=False)
        oracle = [[int(np.abs(wide[p] - wide[q]).max()) for q in range(12)] for p in range(12)]
        assert chebyshev_matrix(e).tolist() == oracle
        assert [[chebyshev_distance(e, p, q) for q in range(12)] for p in range(12)] == oracle

    def test_reference_embedding_equals_the_full_subset(self):
        rng = random.Random(11)
        for _ in range(10):
            n = rng.randrange(2, 90)
            g = random_connected(n, rng.randrange(0, 2 * n), rng)
            full = embed_full(g)
            for refs in (rng.choices(range(n), k=rng.randrange(1, 70)),  # repeats, any order
                         rng.sample(range(n), n)):
                e = embed(g, refs)
                sub = full.subset(refs)
                assert e.references == sub.references
                assert e.full == sub.full
                assert e.coords.dtype == np.int8
                assert np.array_equal(e.coords, sub.coords)

    def test_reference_embedding_rejects_bad_input(self):
        with pytest.raises(ValueError, match=r"^graph is disconnected \(2 components\); embed one component at a time$"):
            embed(from_edges([(0, 1), (2, 3)]), [0])
        with pytest.raises(ValueError, match="out of range"):
            embed(path_graph(3), [3])

    def test_subset_rejects_unknown_reference(self):
        e = embed_full(path_graph(4))
        sub = e.subset((2, 0))
        with pytest.raises(ValueError):
            sub.subset((1,))

    def test_disconnected_and_empty_graphs_rejected(self):
        with pytest.raises(ValueError):
            embed_full(from_edges([(0, 1), (2, 3)]))
        with pytest.raises(ValueError):
            embed_full(from_edges([]))


class TestCoverMatrix:
    def test_path_rows_by_hand(self):
        # P3 coords are |i - j|; the middle node cannot separate the two ends
        e = embed_full(path_graph(3))
        cm = build_cover_matrix(e, 0)
        assert list(cm.row_mask(0, 1)) == [True, True, True]
        assert list(cm.row_mask(0, 2)) == [True, False, True]
        assert list(cm.row_mask(1, 2)) == [True, True, True]
        assert cm.covering_columns(0, 2) == (0, 2)
        assert cm.pair_count == 3

    def test_rows_iterate_every_pair(self):
        e = embed_full(cycle_graph(5))
        cm = build_cover_matrix(e, 0)
        rows = list(cm.rows())
        assert len(rows) == 10
        for (p, q), cols in rows:
            assert p < q
            assert cols  # each pair is covered by its own endpoints

    def test_tolerance_relaxes_coverage_monotonically(self):
        e = embed_full(cycle_graph(7))
        strict = build_cover_matrix(e, 0)
        loose = build_cover_matrix(e, 2)
        for p, q in strict.pairs():
            s = strict.row_mask(p, q)
            l = loose.row_mask(p, q)
            assert (l | ~s).all()  # anything covered strictly stays covered

    def test_validation(self):
        e = embed_full(path_graph(3))
        with pytest.raises(ValueError):
            build_cover_matrix(e, -1)
        with pytest.raises(ValueError):
            build_cover_matrix(e.subset((0, 1)), 0)

    def test_permuted_full_embedding_rejected(self):
        # coords[p, q] is only the true distance when column q is node q
        e = embed_full(path_graph(4)).subset((3, 2, 1, 0))
        assert e.full
        with pytest.raises(ValueError, match="node order"):
            build_cover_matrix(e, 0)


class TestReduction:
    def test_path_needs_a_single_end_reference(self):
        for n in (2, 5, 16, 33):
            e = embed_full(path_graph(n))
            r = reduce_references(build_cover_matrix(e, 0))
            assert len(r.kept) == 1
            assert r.max_distortion == 0

    def test_cycle_and_clique_minima_match_brute_force(self):
        for g, expect in ((cycle_graph(4), 2), (cycle_graph(5), 3),
                          (complete_graph(4), 3), (complete_graph(5), 4),
                          (complete_graph(6), 5)):
            e = embed_full(g)
            assert brute_force_min_cover(e.coords, 0) == expect
            r = reduce_references(build_cover_matrix(e, 0))
            assert len(r.kept) == expect
            assert embedding_distortion(g, r.kept).max_hops == 0

    def test_five_node_fixture_shrinks_further_as_tolerance_grows(self):
        g = from_edges([(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
        e = embed_full(g)
        exact = reduce_references(build_cover_matrix(e, 0))
        loose = reduce_references(build_cover_matrix(e, 1))
        assert len(exact.kept) == brute_force_min_cover(e.coords, 0) == 2
        assert len(loose.kept) == brute_force_min_cover(e.coords, 1) == 1
        assert exact.max_distortion == 0
        assert loose.max_distortion <= 1

    def test_tolerance_at_diameter_keeps_one_reference(self):
        rng = random.Random(12)
        g = random_connected(30, 45, rng)
        e = embed_full(g)
        diameter = int(np.asarray(e.coords).max())
        # tolerances past the int8 range are clamped to the diameter, not cast
        for tol in (diameter, diameter + 1, 200, 1000):
            r = reduce_references(build_cover_matrix(e, tol))
            assert r.kept == (0,)
            assert r.tolerance == tol
            assert r.max_distortion <= diameter

    def test_greedy_result_is_within_reach_of_the_true_minimum(self):
        rng = random.Random(14)
        for trial in range(40):
            n = rng.randrange(3, 8)
            g = random_connected(n, rng.randrange(0, 2 * n), rng)
            e = embed_full(g)
            best = brute_force_min_cover(e.coords, 0)
            r = reduce_references(build_cover_matrix(e, 0))
            assert best <= len(r.kept) <= max(best + 2, 2 * best), trial

    def test_kept_is_essential_plus_greedy_and_verified(self):
        rng = random.Random(15)
        for trial in range(15):
            n = rng.randrange(4, 40)
            g = random_connected(n, rng.randrange(0, 3 * n), rng)
            e = embed_full(g)
            for tol in (0, 1, 2):
                r = reduce_references(build_cover_matrix(e, tol))
                assert sorted(r.essential + r.greedy) == list(r.kept)
                assert r.tolerance == tol
                assert r.max_distortion <= tol
                report = embedding_distortion(g, r.kept)
                assert report.max_hops == r.max_distortion
                assert report.histogram == r.distortion_histogram

    def test_distortion_histogram_covers_every_pair(self):
        g = random_connected(25, 40, random.Random(16))
        e = embed_full(g)
        r = reduce_references(build_cover_matrix(e, 1))
        assert r.distortion_histogram.total == 25 * 24 // 2

    def test_reduction_past_its_tolerance_is_refused(self, monkeypatch):
        # the middle of P5 alone estimates d(0, 4) = 4 as 0
        monkeypatch.setattr(embedding_module, "_greedy_picks", lambda coords, tolerance: [2])
        with pytest.raises(AssertionError, match=r"^reduction exceeded tolerance: 4 > 1$"):
            reduce_references(build_cover_matrix(embed_full(path_graph(5)), 1))

    def test_max_pairs_budget_aborts(self):
        e = embed_full(path_graph(30))
        with pytest.raises(ValueError, match="max_pairs"):
            reduce_references(build_cover_matrix(e, 0), max_pairs=100)


def caterpillar(legs) -> Graph:
    """A spine path with legs[i] pendant leaves hung on spine node i."""
    edges = [(i, i + 1) for i in range(len(legs) - 1)]
    n = len(legs)
    for i, k in enumerate(legs):
        edges += [(i, v) for v in range(n, n + k)]
        n += k
    return Graph.from_edges(n, edges)


@st.composite
def graphs_with_leaves(draw) -> Graph:
    """A random connected graph of 1 to 10 nodes with 1 to 12 pendant nodes
    hung one by one on random earlier nodes, so that several leaves share a
    neighbour and some leaves grow into chains; node ids shuffled."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(1, 10))
    edges = list(random_connected(base, rng.randrange(0, 2 * base + 1), rng).edges()) if base > 1 else []
    n = base + draw(st.integers(1, 12))
    edges += [(rng.randrange(v), v) for v in range(base, n)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def counted_columns(g: Graph) -> list[int]:
    """Nodes whose cover columns are counted cell by cell: all but the leaves
    whose neighbour is not a leaf too."""
    return [v for v in range(g.node_count)
            if not (g.degree(v) == 1 and g.degree(g.neighbors(v)[0]) > 1)]


def assert_reduction_matches_oracles(e: Embedding, tolerances=range(4)) -> None:
    """``kept`` and ``greedy`` equal plain greedy set cover, and the distortion
    profile equals one computed in int64 from the kept columns."""
    d = e.coords.astype(np.int64)
    upper = np.triu_indices(e.node_count, k=1)
    for tol in tolerances:
        cm = build_cover_matrix(e, tol)
        picks = tuple(sorted(greedy_cover(cm.rows())))
        r = reduce_references(cm)
        assert r.kept == r.greedy == picks, tol
        cols = d[:, list(r.kept)]
        shortfall = (d - np.abs(cols[:, None, :] - cols[None, :, :]).max(axis=2))[upper]
        assert r.max_distortion == int(shortfall.max()) <= tol
        assert r.distortion_histogram.bins == {
            int(v): int(c) for v, c in zip(*np.unique(shortfall, return_counts=True))
        }


def pendant_triangle_path(diameter: int):
    """A path of diameter + 1 nodes with a triangle hanging off its middle node."""
    mid, a, b = diameter // 2, diameter + 1, diameter + 2
    return from_edges([(i, i + 1) for i in range(diameter)] + [(mid, a), (mid, b), (a, b)])


class TestNarrowDtype:
    """reduce_references counts in int8 up to diameter 127 and in int16 above."""

    @pytest.mark.parametrize("diameter", [127, 128])
    def test_reduction_across_the_int8_boundary(self, diameter):
        g = pendant_triangle_path(diameter)
        e = embed_full(g)
        coords = e.coords.copy()
        assert int(coords.max()) == diameter
        for tol in (0, 1, 2):
            cm = build_cover_matrix(e, tol)
            picks = tuple(sorted(greedy_cover(cm.rows())))
            r = reduce_references(cm)
            assert r.kept == r.greedy == picks, tol
            # distortion in plain int64, independent of the narrow kernels
            d = coords.astype(np.int64)
            cols = d[:, list(r.kept)]
            estimate = np.abs(cols[:, None, :] - cols[None, :, :]).max(axis=2)
            upper = np.triu_indices(g.node_count, k=1)
            shortfall = (d - estimate)[upper]
            assert r.max_distortion == int(shortfall.max()) <= tol
            assert r.distortion_histogram.bins == {
                int(v): int(c) for v, c in zip(*np.unique(shortfall, return_counts=True))
            }
            report = embedding_distortion(g, r.kept)
            assert report.max_hops == r.max_distortion
            assert report.histogram == r.distortion_histogram
        assert e.coords.dtype == (np.int8 if diameter == 127 else np.int16)
        assert np.array_equal(e.coords, coords)

    @pytest.mark.parametrize("diameter", [127, 128])
    def test_table_from_the_kernel_blocks(self, diameter):
        g = pendant_triangle_path(diameter)
        table = embed_full(g).coords
        assert table.dtype == (np.int8 if diameter == 127 else np.int16)
        assert np.array_equal(table, np.vstack(embed_full(g, list)))

    def test_table_is_widened_by_a_later_block(self):
        # the first block of 64 sources reaches 100 hops, the second 200
        g, refs = path_graph(201), (100,) * 64 + (0,)
        assert embed(g, refs[:64]).coords.dtype == np.int8
        e = embed(g, refs)
        assert e.coords.dtype == np.int16
        assert all(e.coords[:, i].tolist() == list(bfs(g, r).dist) for i, r in enumerate(refs))


class TestGreedyOracle:
    def test_reduction_matches_plain_greedy_set_cover(self):
        rng = random.Random(21)
        for trial in range(20):
            n = rng.randrange(4, 41)
            g = random_connected(n, rng.randrange(0, 3 * n), rng)
            e = embed_full(g)
            for tol in (0, 1, 2):
                cm = build_cover_matrix(e, tol)
                picks = tuple(sorted(greedy_cover(cm.rows())))
                r = reduce_references(cm)
                assert r.kept == picks, (trial, tol)
                assert r.greedy == picks, (trial, tol)
                assert r.essential == ()

    def test_oracle_breaks_ties_to_the_lowest_reference(self):
        rows = [((0, 1), (3, 5)), ((0, 2), (5, 3)), ((1, 2), (2, 4))]
        assert greedy_cover(rows) == [3, 2]

    @staticmethod
    def spy_on_cover_counts(monkeypatch) -> list[np.ndarray]:
        """The tables that ``_cover_counts`` is given, from here on."""
        seen = []
        real = embedding_module._cover_counts

        def spy(table, I, J, thresh):
            seen.append(table.copy())
            return real(table, I, J, thresh)

        monkeypatch.setattr(embedding_module, "_cover_counts", spy)
        return seen

    @pytest.mark.parametrize("g", [
        star_graph(1), star_graph(2), star_graph(9), path_graph(2), path_graph(3), path_graph(7),
        caterpillar([3, 0, 2, 4]), caterpillar([0, 5, 0]), caterpillar([1, 1, 1, 1, 1, 1]),
        *(random_connected(n, 0, random.Random(n)) for n in (5, 12, 30)),
    ], ids=["S1", "S2", "S9", "P2", "P3", "P7", "cat-3024", "cat-050", "cat-111111",
            "tree5", "tree12", "tree30"])
    def test_leaves_on_one_neighbour_are_counted_from_it(self, monkeypatch, g):
        seen = self.spy_on_cover_counts(monkeypatch)
        e = embed_full(g)
        assert_reduction_matches_oracles(e)
        # only the columns of nodes that are not leaves hung on a non-leaf are counted by cells
        cells = counted_columns(g)
        assert seen and all(np.array_equal(table, e.coords[:, cells]) for table in seen)

    def test_leaves_of_p2_and_p3(self):
        # in P2 each node is the other's leaf: neither may be derived from the other
        assert list(embedding_module._derived_columns(embed_full(path_graph(2)).coords)) == [-1, -1]
        assert list(embedding_module._derived_columns(embed_full(path_graph(3)).coords)) == [1, -1, 1]

    def test_identity_is_checked_on_the_matrix(self, monkeypatch):
        d = embed_full(path_graph(5)).coords.copy()
        assert list(embedding_module._derived_columns(d)) == [1, -1, -1, -1, 3]
        # d(0, 4) = 2 is no graph metric: rows 0 and 4 still hold a single 1 each, but
        # column 4 is no longer column 3 plus one, nor column 0 column 1 plus one
        d[0, 4] = d[4, 0] = 2
        assert list(embedding_module._derived_columns(d)) == [-1] * 5
        seen = self.spy_on_cover_counts(monkeypatch)
        assert_reduction_matches_oracles(Embedding(references=tuple(range(5)), coords=d, full=True))
        assert seen and all(np.array_equal(table, d) for table in seen)

    @pytest.mark.parametrize("sum_rows, take", [(1, 1), (7, 7), (1, 7), (7, 1)])
    def test_sums_and_gathers_across_chunk_edges(self, monkeypatch, sum_rows, take):
        monkeypatch.setattr(embedding_module, "_SUM_ROWS", sum_rows)
        monkeypatch.setattr(embedding_module, "_TAKE", take)
        rng = random.Random(22)
        for g in (star_graph(9), caterpillar([2, 0, 3, 1]), random_connected(24, 20, rng),
                  random_connected(30, 0, rng)):
            assert_reduction_matches_oracles(embed_full(g))

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_leaves(), st.integers(0, 3))
    def test_graphs_with_pendant_leaves_match_plain_greedy(self, g, tol):
        assert_reduction_matches_oracles(embed_full(g), [tol])


def assert_distortion_matches_oracle(g: Graph, refs) -> None:
    max_hops, bins, rel = distortion_oracle(g, refs)
    report = embedding_distortion(g, refs)
    assert report.max_hops == max_hops
    assert report.histogram.bins == bins
    assert (report.max_relative is None) == (rel is None)
    if rel is not None:  # bit for bit
        assert type(report.max_relative) is float and report.max_relative.hex() == rel.hex()


class TestDistortionReport:
    def test_random_graphs_match_the_plain_python_oracle(self):
        rng = random.Random(23)
        for g in (Graph([[]]), path_graph(2), path_graph(3)):
            for refs in ([0], [g.node_count - 1, 0, 0]):
                assert_distortion_matches_oracle(g, refs)
        for _ in range(20):
            n = rng.randrange(4, 41)
            g = random_connected(n, rng.randrange(0, 3 * n), rng)
            refs = rng.choices(range(n), k=rng.randrange(1, n + 5))  # repeats, any order
            assert_distortion_matches_oracle(g, refs)

    def test_path_beyond_int8_matches_the_oracle(self):
        g = path_graph(129)  # diameter 128: the table is int16
        assert embed_full(g).coords.dtype == np.int16
        for refs in ([64], [100, 3, 128, 3], [128, 0]):
            assert_distortion_matches_oracle(g, refs)

    @settings(max_examples=100, deadline=None)
    @given(graphs_with_leaves(), st.data())
    def test_graphs_with_pendant_leaves_match_the_oracle(self, g, data):
        refs = data.draw(st.lists(st.integers(0, g.node_count - 1), min_size=1, max_size=2 * g.node_count))
        assert_distortion_matches_oracle(g, refs)

    def test_full_reference_set_has_zero_distortion(self):
        g = random_connected(20, 30, random.Random(18))
        report = embedding_distortion(g, range(20))
        assert report.max_hops == 0
        assert report.max_relative == 0.0

    def test_single_far_reference_underestimates(self):
        # on a star, the hub reference gives every leaf pair estimate 0
        g = star_graph(4)
        report = embedding_distortion(g, [0])
        assert report.max_hops == 2
        assert report.histogram.bins == {0: 4, 2: 6}
        assert report.max_relative is None or report.max_relative >= 0

    def test_estimate_above_the_true_distance_is_refused(self):
        # the table says d(0, 1) = 0, but column 2 tells nodes 0 and 1 one hop apart
        table = np.array([[0, 0, 2], [0, 0, 1], [2, 1, 0]], dtype=np.int8)
        with pytest.raises(AssertionError, match="estimate exceeded true distance"):
            embedding_module._distortion(table, [2])

    def test_references_are_checked_before_the_embedding(self, monkeypatch):
        def no_embedding(g):
            raise AssertionError("embed_full ran before the references were checked")

        monkeypatch.setattr("netgeom.embedding.embed_full", no_embedding)
        g = path_graph(4)
        for refs, message in (([4], "reference 4 out of range 0..3"), ([0, -1], "reference -1 out of range 0..3"),
                              ([], "an embedding needs at least one reference")):
            with pytest.raises(ValueError) as e:
                embedding_distortion(g, refs)
            assert str(e.value) == message

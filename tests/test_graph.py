import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import (Graph, MalformedInputError, UNREACHABLE,
                       all_pairs_distances, bfs_shortest_paths, knn_graph,
                       load_edge_list, load_features_csv, load_labels_csv,
                       neighbor_subsample)
from graphtsne import affinity
from graphtsne.graph import rank_blocks
from graphtsne.synthetic import random_dataset

from oracles import (brute_knn_pairs, floyd_warshall, receptive_field_sizes,
                     stable_rank_orders)


class TestGraphConstruction:
    def test_self_loops_and_duplicates_dropped(self, caplog):
        with caplog.at_level(logging.WARNING):
            g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)])
        assert g.edge_pairs.shape[0] == 1
        assert tuple(g.edge_pairs[0]) == (0, 1)

    def test_adjacency_symmetric(self, rng):
        ds = random_dataset(30, 80, seed=3)
        g = ds.graph
        for i in range(g.num_nodes):
            for j in g.adj(i):
                assert i in g.adj(j)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_from_edges_idempotent_property(self, data):
        n = data.draw(st.integers(1, 15))
        node = st.integers(0, n - 1)
        g = Graph.from_edges(n, data.draw(st.lists(st.tuples(node, node),
                                                   max_size=3 * n)))
        pairs = [tuple(p) for p in g.edge_pairs.tolist()]
        again = [*pairs, *((j, i) for i, j in pairs)]  # every edge, both ways
        if pairs:
            again += data.draw(st.lists(st.sampled_from(pairs), max_size=10))
        again += [(v, v) for v in data.draw(st.lists(node, max_size=5))]
        h = Graph.from_edges(n, data.draw(st.permutations(again)))
        for name in ("edge_pairs", "offsets", "neighbors"):
            want, got = getattr(g, name), getattr(h, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    def test_endpoint_bounds_checked(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(-1, 1)])


class TestLoadEdgeList:
    def test_basic_file_with_comments(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("# comment line\n0 1\n\n1 2  # trailing comment\n")
        g = load_edge_list(p, 3)
        assert g.num_nodes == 3
        assert g.edge_pairs.shape[0] == 2

    def test_empty_file_gives_edgeless_graph(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("")
        g = load_edge_list(p, 5)
        assert g.num_nodes == 5
        assert g.edge_pairs.shape[0] == 0

    def test_reverse_duplicate_deduped(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 0\n")
        g = load_edge_list(p, 2)
        assert g.edge_pairs.shape[0] == 1

    def test_out_of_range_id_names_line(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 7\n")
        with pytest.raises(MalformedInputError, match=r"line 2"):
            load_edge_list(p, 3)

    def test_non_integer_names_line(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n1 x\n")
        with pytest.raises(MalformedInputError, match=r"line 2"):
            load_edge_list(p, 3)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_edge_list(tmp_path / "absent.txt", 3)


class TestLoadCsv:
    def test_single_row(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,3\n")
        x = load_features_csv(p)
        assert x.shape == (1, 3)
        assert np.array_equal(x, [[1.0, 2.0, 3.0]])

    def test_non_numeric_cell_names_row(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3,abc\n")
        with pytest.raises(MalformedInputError, match=r"row 2"):
            load_features_csv(p)

    def test_ragged_row_names_row(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n3,4,5\n")
        with pytest.raises(MalformedInputError, match=r"row 2"):
            load_features_csv(p)

    def test_non_finite_value_names_row(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2\n\n3,inf\n")  # blank lines still count
        with pytest.raises(MalformedInputError, match=r"row 3: non-finite"):
            load_features_csv(p)

    def test_cells_parse_as_python_floats(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text(" 1.5e3, -0 ,7\n2,0.1,1_000\n")
        x = load_features_csv(p)
        assert x.dtype == np.float64
        assert np.array_equal(x, [[1500.0, -0.0, 7.0], [2.0, 0.1, 1000.0]])

    def test_labels_roundtrip(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0\n2\n1\n")
        assert np.array_equal(load_labels_csv(p), [0, 2, 1])

    def test_non_integer_label_names_row(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0\n1.5\n")
        with pytest.raises(MalformedInputError, match=r"row 2"):
            load_labels_csv(p)


class TestBfsShortestPaths:
    def test_path_graph_distances(self, path_graph):
        d = bfs_shortest_paths(path_graph, [0], [2])
        assert d[0, 0] == 2.0

    def test_unreachable_sentinel(self, two_component_graph):
        d = bfs_shortest_paths(two_component_graph, [0], [4])
        assert d[0, 0] == UNREACHABLE

    def test_matches_floyd_warshall_on_random_graph(self):
        ds = random_dataset(30, 50, seed=11)
        mine = all_pairs_distances(ds.graph)
        oracle = floyd_warshall(30, ds.graph.edge_pairs)
        assert np.array_equal(mine, oracle)

    def test_matches_floyd_warshall_at_limit_size(self):
        ds = random_dataset(100, 220, seed=13)
        mine = all_pairs_distances(ds.graph)
        oracle = floyd_warshall(100, ds.graph.edge_pairs)
        assert np.array_equal(mine, oracle)

    def test_zero_diagonal_and_symmetry(self):
        ds = random_dataset(40, 90, seed=17)
        d = all_pairs_distances(ds.graph)
        assert np.array_equal(np.diag(d), np.zeros(40))
        assert np.array_equal(d, d.T)

    def test_hop_cap_truncates(self, path_graph):
        d = bfs_shortest_paths(path_graph, [0], [1, 2, 3, 4], hop_cap=2)
        assert list(d[0]) == [1.0, 2.0, UNREACHABLE, UNREACHABLE]

    def test_subset_slice_matches_full(self):
        ds = random_dataset(40, 90, seed=19)
        full = all_pairs_distances(ds.graph)
        src = np.array([3, 7, 20])
        tgt = np.array([1, 5, 30, 39])
        sliced = bfs_shortest_paths(ds.graph, src, tgt)
        assert np.array_equal(sliced, full[np.ix_(src, tgt)])

    def test_source_bounds_validated(self, path_graph):
        with pytest.raises(ValueError):
            bfs_shortest_paths(path_graph, [9], [0])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_floyd_warshall_property(self, data):
        linked = data.draw(st.integers(1, 20))
        n = linked + data.draw(st.integers(0, 4))  # trailing isolated nodes
        node = st.integers(0, linked - 1)
        g = Graph.from_edges(n, data.draw(st.lists(st.tuples(node, node),
                                                   max_size=3 * linked)))
        ids = st.integers(0, n - 1)
        # short lists can be empty; long ones span several 64-source blocks
        sources = data.draw(st.lists(ids, max_size=6)
                            | st.lists(ids, min_size=65, max_size=140))
        targets = data.draw(st.lists(ids, max_size=2 * n))
        hop_cap = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
        want = floyd_warshall(n, g.edge_pairs)[np.ix_(sources, targets)]
        if hop_cap is not None:
            want[want > hop_cap] = UNREACHABLE
        got = bfs_shortest_paths(g, sources, targets, hop_cap=hop_cap)
        assert np.array_equal(got, want)


class TestKnnGraph:
    def test_collinear_points(self):
        x = np.array([[0.0], [1.0], [10.0]])
        pairs = set(map(tuple, knn_graph(x, 1)))
        assert pairs == {(0, 1), (1, 0), (2, 1)}

    def test_tie_goes_to_smaller_index(self):
        x = np.array([[0.0], [5.0], [5.0], [5.0]])
        pairs = dict(map(tuple, knn_graph(x, 1)))
        assert pairs[0] == 1   # three equidistant candidates; lowest index wins
        assert pairs[2] == 1
        assert pairs[3] == 1

    def test_matches_brute_force_oracle(self, rng):
        x = rng.normal(size=(50, 5))
        mine = set(map(tuple, knn_graph(x, 5)))
        oracle = set(map(tuple, brute_knn_pairs(x, 5)))
        assert mine == oracle

    def test_matches_brute_force_at_limit_size(self, rng):
        x = rng.normal(size=(200, 3))
        mine = set(map(tuple, knn_graph(x, 4)))
        oracle = set(map(tuple, brute_knn_pairs(x, 4)))
        assert mine == oracle

    def test_exactly_k_out_edges_per_node(self, rng):
        x = rng.normal(size=(30, 4))
        pairs = knn_graph(x, 6)
        counts = np.bincount(pairs[:, 0], minlength=30)
        assert np.array_equal(counts, np.full(30, 6))

    def test_k_too_large_rejected(self, rng):
        x = rng.normal(size=(5, 2))
        with pytest.raises(ValueError):
            knn_graph(x, 5)


class TestRankBlocks:
    @settings(max_examples=120, deadline=None)
    @given(n=st.integers(1, 200),
           palette=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf,
                                             -np.inf, np.nan]), min_size=1, max_size=4),
           share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_orders_match_stable_argsort(self, n, palette, share, seed):
        rng = np.random.default_rng(seed)
        # all values distinct, then a share of them replaced from a small palette:
        # share 1 gives small-integer rows, all-equal rows (one value), -0.0 beside
        # +0.0, inf and NaN; share 0.01 leaves some rows of a block without a tie
        d = rng.permutation(n * n).reshape(n, n) + 0.5
        cut = rng.random((n, n)) < share
        d[cut] = np.array(palette)[rng.integers(0, len(palette), size=int(cut.sum()))]
        want = stable_rank_orders(d)
        for block in (affinity._ROW_BLOCK, 1, 3, n + 1):
            with mock.patch.object(affinity, "_ROW_BLOCK", block):
                covered = 0
                for rows, order in rank_blocks(d):
                    assert rows.start == covered
                    assert np.array_equal(order, want[rows])
                    covered = rows.stop
            assert covered == n


class TestNeighborSubsample:
    def test_same_seed_identical_frontiers(self):
        ds = random_dataset(60, 240, seed=23)
        batch = np.arange(0, 12)
        a = neighbor_subsample(ds.graph, batch, (3, 4), seed=5)
        b = neighbor_subsample(ds.graph, batch, (3, 4), seed=5)
        for fa, fb in zip(a.frontiers, b.frontiers):
            assert np.array_equal(fa, fb)
        for (da, sa), (db, sb) in zip(a.layer_edges, b.layer_edges):
            assert np.array_equal(da, db) and np.array_equal(sa, sb)

    def test_frontiers_nested(self):
        ds = random_dataset(60, 240, seed=23)
        sample = neighbor_subsample(ds.graph, np.arange(8), (3, 4), seed=9)
        for small, big in zip(sample.frontiers, sample.frontiers[1:]):
            assert np.array_equal(big[:small.size], small)

    def test_fanout_respected_per_destination(self):
        ds = random_dataset(60, 500, seed=29)
        fanouts = (3, 4)
        sample = neighbor_subsample(ds.graph, np.arange(10), fanouts, seed=1)
        num_layers = len(fanouts)
        for step, (dst, _src) in enumerate(reversed(sample.layer_edges)):
            # expansion step k uses the fanout of conv layer (num_layers - k)
            cap = fanouts[num_layers - 1 - step]
            _, counts = np.unique(dst, return_counts=True)
            assert counts.max() <= cap

    def test_undersized_neighborhood_kept_whole(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
        sample = neighbor_subsample(g, np.array([0]), (10,), seed=2)
        dst, src = sample.layer_edges[0]
        assert np.array_equal(np.sort(src), [1, 2, 3])
        assert np.array_equal(dst, [0, 0, 0])

    def test_receptive_field_bounded_by_fanout_product(self):
        ds = random_dataset(500, 8000, seed=31)
        sample = neighbor_subsample(ds.graph, np.arange(40), (10, 15), seed=3)
        assert receptive_field_sizes(sample).max() <= 150

    def test_sampled_edges_exist_in_graph(self):
        ds = random_dataset(60, 240, seed=37)
        sample = neighbor_subsample(ds.graph, np.arange(10), (3, 4), seed=4)
        for dst, src in sample.layer_edges:
            for d, s in zip(dst, src):
                assert s in ds.graph.adj(int(d))

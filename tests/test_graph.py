import logging
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import (Graph, MalformedInputError, UNREACHABLE,
                       all_pairs_distances, bfs_shortest_paths, knn_graph,
                       load_edge_list, load_features_csv, load_labels_csv,
                       neighbor_subsample)
from graphtsne import affinity, graph
from graphtsne.graph import rank_prefix
from graphtsne.synthetic import random_dataset

from conftest import PADDING, assert_loads_like_oracle, draw_input_file, draw_sampled_batch
from oracles import (adjacency_sets, brute_knn_pairs, edge_list_oracle,
                     features_csv_oracle, floyd_warshall, from_edges_oracle,
                     labels_csv_oracle, receptive_field_sizes, stable_rank_orders)


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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_pair_oracle_bit_for_bit(self, data):
        n = data.draw(st.integers(0, 12))
        node = st.integers(0, n - 1) if n else st.nothing()
        pairs = data.draw(st.lists(st.tuples(node, node), max_size=4 * n))
        g = Graph.from_edges(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
        got = (g.edge_pairs, g.offsets, g.neighbors)
        for want, have in zip(from_edges_oracle(n, pairs), got):
            assert have.dtype == want.dtype and have.shape == want.shape
            assert have.tobytes() == want.tobytes()

    def test_node_count_whose_edge_keys_overflow_rejected(self):
        # edges are sorted as i * N + j, which fits in int64 up to this N
        assert graph._MAX_NODES ** 2 < 2 ** 63 <= (graph._MAX_NODES + 1) ** 2
        with pytest.raises(ValueError, match="at most"):
            Graph.from_edges(graph._MAX_NODES + 1, [])


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
        for text in ("1,2\n3,abc\n", "1,2\n3,\x1c4\n"):  # float() strips no \x1c
            p.write_text(text)
            with pytest.raises(MalformedInputError, match=r"row 2: non-numeric"):
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
        # over 64 KiB, so the chunks before the one with 1_000 are read by NumPy
        rows = ["0.5,1,2"] * 20_000
        rows[-3] = "1_000,-0,7"
        p.write_text("\n".join(rows) + "\n")
        want = np.tile([0.5, 1.0, 2.0], (20_000, 1))
        want[-3] = [1000.0, -0.0, 7.0]
        assert load_features_csv(p).tobytes() == want.tobytes()

    def test_cell_the_reader_warns_about_is_read_by_float(self, tmp_path, monkeypatch):
        # a NumPy that reads a cell only with a warning, say by truncating it,
        # does not decide that cell
        def truncating_loadtxt(texts, **kwargs):
            warnings.warn("conversion of 1.5 is deprecated", DeprecationWarning)
            return np.array([[1.0, 2.0]])

        monkeypatch.setattr(graph.np, "loadtxt", truncating_loadtxt)
        p = tmp_path / "f.csv"
        p.write_text("1.5,2\n")
        assert np.array_equal(load_features_csv(p), [[1.5, 2.0]])

    def test_labels_roundtrip(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0\n2\n1\n")
        assert np.array_equal(load_labels_csv(p), [0, 2, 1])

    def test_non_integer_label_names_row(self, tmp_path):
        p = tmp_path / "labels.csv"
        p.write_text("0\n1.5\n")
        with pytest.raises(MalformedInputError, match=r"row 2"):
            load_labels_csv(p)

    @pytest.mark.parametrize("text, want", [
        ("9007199254740993\n", [9007199254740993]),   # 2**53 + 1: float() reads ...992
        ("2.0\n9007199254740993\n", [2, 9007199254740993]),
        ("9223372036854775807\n", [9223372036854775807])])  # float() reads 2**63
    def test_integer_label_loads_exactly(self, tmp_path, text, want):
        p = tmp_path / "labels.csv"
        p.write_text(text)
        labels = load_labels_csv(p)
        assert labels.dtype == np.int64 and labels.tolist() == want

    @pytest.mark.parametrize("label", ["1e20", "-1e300", "9223372036854775808"])
    def test_label_beyond_int64_names_row(self, tmp_path, label):
        p = tmp_path / "labels.csv"
        p.write_text(f"0\n-9223372036854775808\n{label}\n")
        with pytest.raises(MalformedInputError,
                           match=rf"row 3: label {label} out of the int64 range"):
            load_labels_csv(p)


#: Digits int() and float() read that NumPy's text reader does not.
ARABIC_INDIC, FULLWIDTH = (str.maketrans("0123456789", digits)
                           for digits in ("٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９"))


def ids_as_written(i):
    """Spellings int() reads as the node id ``i``."""
    return st.sampled_from([str(i), f"+{i}", f"0{i}", f"{i:_}", f"0_{i}",
                            str(i).translate(ARABIC_INDIC), f"+{i}".translate(FULLWIDTH)])


cell = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
        | st.integers(-10**6, 10**6).map(str)
        | st.sampled_from(["1_000", "1_0", " 1.5e3", "-0", "+.5", "5.", "1e-400",
                           "٣", "５", "-٣.５e1"]))
# str.isspace() counts \x1c-\x1f, float() strips none of them
bad_cell = st.sampled_from(["abc", "", "inf", "-Infinity", "nan", "1e999", "1__0",
                            "0x10", "1,5", "\x1c1", "1\x1f", "1\U00010134"])
#: Padding around a cell: PADDING and white space beyond ASCII.
CELL_PADDING = PADDING | st.sampled_from(["\xa0", "\u2003", " \xa0"])


class TestLoadersMatchOracles:
    """The chunked loaders against the former line-by-line ones, with chunks
    of a line or a few so that line numbers run across chunk boundaries."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_list(self, data):
        n = data.draw(st.integers(1, 8), label="num_nodes")

        @st.composite
        def edge(draw):
            i, j = (draw(ids_as_written(draw(st.integers(0, n - 1)))) for _ in range(2))
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t ", "\xa0", "\u2003", "\x1c"]))
            note = draw(st.sampled_from(["", " # note", "#x", "\t#"]))
            return draw(PADDING) + i + sep + j + note + draw(PADDING)

        def load(path):
            g = load_edge_list(path, n)
            return g.edge_pairs, g.offsets, g.neighbors

        # \U00010134 is a numeral but no digit, so int() rejects 1\U00010134
        bad = st.sampled_from(["3", "1 2 3 # note", "1.5 2", "a b", f"{n} 0", f"0 {n}",
                               "-1 0", "99999999999999999999 0", "99999999999999999999 x",
                               "x 99999999999999999999", "0 -99999999999999999999",
                               "1\U00010134 0", "0 1__0"])
        comment = st.sampled_from(["# comment", "  #x 1 2", "#"])
        lines = draw_input_file(data, data.draw(st.lists(edge() | comment, max_size=12)), bad)
        assert_loads_like_oracle(data, lines, load,
                                 lambda p: from_edges_oracle(n, edge_list_oracle(p, n)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_features(self, data):
        ncols = data.draw(st.integers(1, 4), label="columns")

        padded = cell.flatmap(lambda c: CELL_PADDING.map(lambda pad: pad + c + pad))

        @st.composite
        def with_bad_cell(draw):
            cells = draw(st.lists(padded, min_size=ncols - 1, max_size=ncols - 1))
            cells.insert(draw(st.integers(0, ncols - 1)), draw(bad_cell))
            return ",".join(cells)

        good = st.lists(padded, min_size=ncols, max_size=ncols).map(",".join)
        ragged = st.lists(padded, min_size=1, max_size=5).filter(lambda r: len(r) != ncols)
        bad = ragged.map(",".join) | with_bad_cell()
        lines = draw_input_file(data, data.draw(st.lists(good, max_size=12)), bad)
        assert_loads_like_oracle(data, lines, load_features_csv, features_csv_oracle)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_labels(self, data):
        good = (st.integers(-10**6, 10**6).map(str)
                | st.sampled_from(["2.0", "1e2", "-0", "1_0", "-9223372036854775808",
                                   "9223372036854774784", "9223372036854775807",
                                   "9007199254740993"]))
        bad = st.sampled_from(["1.5", "x", "inf", "-inf", "nan", "1e400", "1e20", "-1e300",
                               "1,2", "9223372036854775808"])
        good = good.flatmap(lambda v: PADDING.map(lambda p: p + v + p))
        lines = draw_input_file(data, data.draw(st.lists(good, max_size=12)), bad)
        assert_loads_like_oracle(data, lines, load_labels_csv, labels_csv_oracle)


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_oracle_row_order_on_ties(self, data):
        # few distinct small-integer coordinates: most distances tie
        n = data.draw(st.integers(2, 24), label="n")
        dim = data.draw(st.integers(1, 3), label="dim")
        cells = st.lists(st.integers(0, 2), min_size=dim, max_size=dim)
        x = np.array(data.draw(st.lists(cells, min_size=n, max_size=n), label="x"),
                     dtype=np.float64)
        for k in range(1, n):
            assert np.array_equal(knn_graph(x, k), brute_knn_pairs(x, k))


class TestRankPrefix:
    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 200),
           palette=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, np.inf,
                                             -np.inf, np.nan]), min_size=1, max_size=4),
           share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_prefix_matches_stable_argsort(self, n, palette, share, seed):
        rng = np.random.default_rng(seed)
        # all values distinct, then a share of them replaced from a small palette:
        # share 1 gives small-integer rows, all-equal rows (one value), -0.0 beside
        # +0.0, inf and NaN, and ties at each cut m; share 0.01 leaves some rows of
        # a block without a tie
        d = rng.permutation(n * n).reshape(n, n) + 0.5
        cut = rng.random((n, n)) < share
        d[cut] = np.array(palette)[rng.integers(0, len(palette), size=int(cut.sum()))]
        want = stable_rank_orders(d)
        # every m on small rows, else the first, a middle one and the whole order;
        # a 1-point row has only m = 0
        ms = (range(1, n) if n <= 40 else (1, n // 2, n - 1)) or (0,)
        for block in (affinity._ROW_BLOCK, 1, 3, n + 1):
            with mock.patch.object(affinity, "_ROW_BLOCK", block):
                for m in ms:
                    covered = 0
                    for rows in affinity.row_blocks(n):
                        assert rows.start == covered
                        assert np.array_equal(rank_prefix(rows, d[rows].copy(), m),
                                              want[rows, :m])
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

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_expansion_properties_against_adjacency_sets(self, data):
        pairs, graph, batch, fanouts, seed, sample = draw_sampled_batch(data)
        adj = adjacency_sets(graph.num_nodes, pairs)

        assert np.array_equal(sample.frontiers[0], batch)
        assert len(sample.frontiers) == len(fanouts) + 1
        # expansion step k grows frontiers[k] with the fanout of conv layer L - k
        for step, (dst, src) in enumerate(reversed(sample.layer_edges)):
            current, grown = sample.frontiers[step], sample.frontiers[step + 1]
            fanout = fanouts[len(fanouts) - 1 - step]
            assert np.array_equal(grown[:current.size], current)   # prefix-nested
            assert grown[current.size:].tolist() == sorted(
                set(src.tolist()) - set(current.tolist()))
            # each node of the frontier, in order, with min(degree, fanout)
            # distinct sampled neighbors, all of them graph edges
            want_dst = [v for v in current.tolist()
                        for _ in range(min(len(adj[v]), fanout))]
            assert dst.tolist() == want_dst
            for v in current.tolist():
                picked = src[dst == v].tolist()
                assert len(set(picked)) == len(picked)
                assert set(picked) <= adj[v]
                if len(adj[v]) <= fanout:
                    assert set(picked) == adj[v]

        again = neighbor_subsample(graph, batch, fanouts, seed=seed)
        for a, b in zip(sample.frontiers, again.frontiers):
            assert a.tobytes() == b.tobytes()
        for (da, sa), (db, sb) in zip(sample.layer_edges, again.layer_edges):
            assert da.tobytes() == db.tobytes() and sa.tobytes() == sb.tobytes()

    def test_sampled_edges_exist_in_graph(self):
        ds = random_dataset(60, 240, seed=37)
        sample = neighbor_subsample(ds.graph, np.arange(10), (3, 4), seed=4)
        for dst, src in sample.layer_edges:
            for d, s in zip(dst, src):
                assert s in ds.graph.adj(int(d))

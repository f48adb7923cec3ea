"""Metric suite and alpha-sweep tests, checked against brute-force oracles."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne.errors import TrainingError
from graphtsne.graph import Graph, LabeledDataset
from graphtsne.metrics import (MetricsReport, alpha_sweep, distance_metrics,
                               evaluate_layout, feature_trustworthiness,
                               graph_trustworthiness, knn_1_accuracy, knn_graph,
                               standardize_map)
from graphtsne.synthetic import random_dataset, sbm_dataset
from graphtsne.trainer import TrainConfig

from conftest import child_env
from oracles import (brute_knn_pairs, distance_metrics_oracle, knn_1_oracle,
                     standardize_oracle, trust_feature_oracle,
                     trust_graph_oracle)


class TestStandardizeMap:
    def test_zero_mean_unit_mean_square(self, rng):
        y = rng.normal(size=(40, 2)) * 13.0 + 5.0
        s = standardize_map(y)
        assert np.allclose(s.mean(axis=0), 0.0, atol=1e-12)
        assert abs(np.mean(np.sum(s * s, axis=1)) - 1.0) < 1e-12

    def test_coincident_points_returned_unchanged(self):
        y = np.full((7, 2), 3.25)
        s = standardize_map(y)
        assert np.array_equal(s, y)

    def test_matches_oracle(self, rng):
        y = rng.normal(size=(25, 2))
        assert np.allclose(standardize_map(y), standardize_oracle(y), atol=1e-12)


class TestFeatureTrustworthiness:
    def test_perfect_preservation_is_one(self, rng):
        y = rng.normal(size=(30, 2))
        assert feature_trustworthiness(y, y.copy(), 5) == pytest.approx(1.0)

    def test_map_scale_and_shift_invariant(self, rng):
        x = rng.normal(size=(24, 6))
        y = rng.normal(size=(24, 2))
        base = feature_trustworthiness(x, y, 4)
        moved = feature_trustworthiness(x, 3.0 * y + 11.0, 4)
        assert moved == pytest.approx(base, abs=1e-12)

    def test_small_case_against_oracle(self, rng):
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 2))
        assert feature_trustworthiness(x, y, 1) == pytest.approx(
            trust_feature_oracle(x, y, 1), abs=1e-12)

    def test_random_case_against_oracle(self, rng):
        x = rng.normal(size=(40, 8))
        y = rng.normal(size=(40, 2))
        for k in (1, 6, 12):
            assert feature_trustworthiness(x, y, k) == pytest.approx(
                trust_feature_oracle(x, y, k), abs=1e-12)

    def test_k_too_large_rejected(self, rng):
        x = rng.normal(size=(10, 3))
        y = rng.normal(size=(10, 2))
        # need 3k + 1 < 2N = 20, so k = 7 is out of range
        with pytest.raises(ValueError, match="too large"):
            feature_trustworthiness(x, y, 7)
        with pytest.raises(ValueError):
            feature_trustworthiness(x, y, 0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_1_rejected_as_such(self, rng, k):
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(12, 2))
        with pytest.raises(ValueError, match=rf"^trustworthiness k must be >= 1, got {k}$"):
            feature_trustworthiness(x, y, k)

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            feature_trustworthiness(rng.normal(size=(8, 3)),
                                    rng.normal(size=(9, 2)), 2)


class TestGraphTrustworthiness:
    def test_path_embedded_in_order_is_one(self, path_graph):
        y = np.column_stack([np.arange(5.0), np.zeros(5)])
        assert graph_trustworthiness(path_graph, y, 1) == pytest.approx(1.0)

    def test_isolated_node_counts_as_one(self, two_component_graph, rng):
        y = rng.normal(size=(6, 2))
        got = graph_trustworthiness(two_component_graph, y, 1)
        oracle = trust_graph_oracle(6, two_component_graph.edge_pairs, y, 1)
        assert got == pytest.approx(oracle, abs=1e-12)

    def test_random_graph_against_oracle(self, rng):
        n = 40
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.08]
        g = Graph.from_edges(n, edges)
        y = rng.normal(size=(n, 2))
        for r in (1, 2):
            assert graph_trustworthiness(g, y, r) == pytest.approx(
                trust_graph_oracle(n, g.edge_pairs, y, r), abs=1e-12)

    def test_rotation_invariant(self, small_sbm, rng):
        y = rng.normal(size=(45, 2))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        base = graph_trustworthiness(small_sbm.graph, y, 1)
        rotated = graph_trustworthiness(small_sbm.graph, y @ rot.T, 1)
        assert rotated == pytest.approx(base, abs=1e-9)

    def test_radius_zero_rejected(self, path_graph):
        with pytest.raises(ValueError, match=">= 1"):
            graph_trustworthiness(path_graph, np.zeros((5, 2)), 0)


class TestDistanceMetrics:
    def test_coincident_map_gives_zero(self, path_graph):
        y = np.ones((5, 2))
        knn_pairs = np.array([(0, 1), (1, 0)])
        assert distance_metrics(path_graph, knn_pairs, y) == (0.0, 0.0)

    def test_single_edge_standardizes_to_four(self):
        g = Graph.from_edges(2, [(0, 1)])
        y = np.array([[0.0, 0.0], [5.0, 0.0]])
        # standardized endpoints are (-1, 0) and (1, 0)
        p_g, p_x = distance_metrics(g, np.array([(0, 1), (1, 0)]), y)
        assert p_g == pytest.approx(4.0, abs=1e-12)
        assert p_x == pytest.approx(4.0, abs=1e-12)

    def test_matches_oracle(self, small_sbm, rng):
        y = rng.normal(size=(45, 2)) * 4.0 + 2.0
        knn_pairs = brute_knn_pairs(small_sbm.features, 5)
        got = distance_metrics(small_sbm.graph, knn_pairs, y)
        want = distance_metrics_oracle(small_sbm.graph.edge_pairs, knn_pairs, y)
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)

    def test_scale_and_shift_invariant(self, small_sbm, rng):
        y = rng.normal(size=(45, 2))
        knn_pairs = knn_graph(small_sbm.features, 3)
        base = distance_metrics(small_sbm.graph, knn_pairs, y)
        moved = distance_metrics(small_sbm.graph, knn_pairs, -2.5 * y + 9.0)
        assert moved[0] == pytest.approx(base[0], abs=1e-9)
        assert moved[1] == pytest.approx(base[1], abs=1e-9)

    def test_edgeless_graph_rejected(self, rng):
        g = Graph.from_edges(4, [])
        with pytest.raises(ValueError, match="no edges"):
            distance_metrics(g, np.array([(0, 1)]), rng.normal(size=(4, 2)))

    def test_empty_knn_pairs_rejected(self, path_graph, rng):
        with pytest.raises(ValueError, match="k-NN"):
            distance_metrics(path_graph, np.empty((0, 2), dtype=np.int64),
                             rng.normal(size=(5, 2)))

    @pytest.mark.parametrize("pairs, message", [
        ([[0, -1], [1, 2]], r"k-NN pair id -1 out of range \[0, 10\)"),  # not node 9
        ([[0, 99]], r"k-NN pair id 99 out of range \[0, 10\)"),
        ([0, 1], r"shape \(M, 2\), got \(2,\)")], ids=["negative", "beyond", "1-D"])
    def test_pair_outside_the_nodes_rejected(self, pairs, message):
        data = sbm_dataset([5, 5], 0.8, 0.1, feature_dim=3, seed=1)
        y = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(ValueError, match=message):
            distance_metrics(data.graph, np.array(pairs), y)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_layout_rejected(self, value):
        data = random_dataset(60, 200, seed=0)
        y = np.random.default_rng(1).normal(size=(60, 2))
        y[3, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            distance_metrics(data.graph, knn_graph(data.features, 5), y)

    @pytest.mark.parametrize("rows", [59, 61])
    def test_row_mismatch_rejected(self, rows):
        data = random_dataset(60, 200, seed=0)
        y = np.random.default_rng(1).normal(size=(rows, 2))
        with pytest.raises(ValueError, match=f"layout has {rows} rows for a graph of 60"):
            distance_metrics(data.graph, knn_graph(data.features, 5), y)


class TestKnn1Accuracy:
    def test_separated_clusters_are_perfect(self):
        y = np.vstack([np.random.default_rng(0).normal(size=(10, 2)) * 0.01,
                       np.random.default_rng(1).normal(size=(10, 2)) * 0.01 + 100.0])
        labels = np.array([0] * 10 + [1] * 10)
        assert knn_1_accuracy(y, labels, folds=5, seed=3) == pytest.approx(1.0)

    def test_single_class_is_perfect(self, rng):
        y = rng.normal(size=(12, 2))
        assert knn_1_accuracy(y, np.zeros(12, dtype=int), folds=4) == pytest.approx(1.0)

    def test_matches_oracle(self, rng):
        y = rng.normal(size=(30, 2))
        labels = rng.integers(0, 3, size=30)
        got = knn_1_accuracy(y, labels, folds=6, seed=11)
        assert got == pytest.approx(knn_1_oracle(y, labels, 6, 11), abs=1e-12)

    def test_bad_fold_counts_rejected(self, rng):
        y = rng.normal(size=(6, 2))
        labels = np.zeros(6, dtype=int)
        with pytest.raises(ValueError, match="folds"):
            knn_1_accuracy(y, labels, folds=1)
        with pytest.raises(ValueError, match="at least"):
            knn_1_accuracy(y, labels, folds=7)

    def test_label_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            knn_1_accuracy(rng.normal(size=(8, 2)), np.zeros(7, dtype=int))


class TestMetricsReport:
    def test_combined_is_sum_of_distance_metrics(self):
        rep = MetricsReport(alpha=0.4, t_feature={6: 0.9}, t_graph={1: 0.8},
                            p_graph=1.5, p_feature=2.25, knn_accuracy=0.7,
                            runtime_s=0.1)
        assert rep.combined == pytest.approx(3.75)

    def test_dict_roundtrip_restores_int_keys(self):
        rep = MetricsReport(alpha=0.4, t_feature={6: 0.9, 12: 0.85},
                            t_graph={1: 0.8, 2: 0.75}, p_graph=1.5,
                            p_feature=2.25, knn_accuracy=None, runtime_s=0.1)
        back = json.loads(json.dumps(rep.to_dict()))
        assert {int(k): v for k, v in back["t_feature"].items()} == rep.t_feature
        assert {int(r): v for r, v in back["t_graph"].items()} == rep.t_graph
        assert back["alpha"] == rep.alpha
        assert back["combined"] == pytest.approx(rep.combined)
        assert back["knn_accuracy"] is None


class TestEvaluateLayout:
    def test_reports_requested_neighborhood_sizes(self, small_sbm, rng):
        y = rng.normal(size=(45, 2))
        rep = evaluate_layout(small_sbm, y, alpha=0.5, t_ks=(3, 5), t_rs=(1,),
                              knn_k=4, folds=5)
        assert sorted(rep.t_feature) == [3, 5]
        assert sorted(rep.t_graph) == [1]
        assert rep.knn_accuracy is not None
        assert rep.runtime_s >= 0.0

    def test_unlabeled_dataset_skips_accuracy(self, small_sbm, rng):
        data = LabeledDataset(graph=small_sbm.graph, features=small_sbm.features)
        rep = evaluate_layout(data, rng.normal(size=(45, 2)), t_ks=(3,), t_rs=(1,))
        assert rep.knn_accuracy is None

    def test_row_mismatch_rejected(self, small_sbm, rng):
        with pytest.raises(ValueError, match="44"):
            evaluate_layout(small_sbm, rng.normal(size=(44, 2)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_layout_rejected(self, value):
        data = random_dataset(60, 200, seed=0)
        y = np.random.default_rng(1).normal(size=(60, 2))
        y[3, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            evaluate_layout(data, y)
        with pytest.raises(ValueError, match="non-finite"):
            knn_1_accuracy(y, data.labels)

    def test_equals_single_metric_functions(self, small_sbm, rng):
        y = rng.normal(size=(45, 2))
        rep = evaluate_layout(small_sbm, y, t_ks=(3, 5, 12), t_rs=(1, 2, 3),
                              knn_k=4, folds=5, seed=3)
        x, g = small_sbm.features, small_sbm.graph
        assert rep.t_feature == {k: feature_trustworthiness(x, y, k)
                                 for k in (3, 5, 12)}
        assert rep.t_graph == {r: graph_trustworthiness(g, y, r)
                               for r in (1, 2, 3)}
        assert (rep.p_graph, rep.p_feature) == distance_metrics(
            g, knn_graph(x, 4), y)
        assert rep.knn_accuracy == knn_1_accuracy(y, small_sbm.labels,
                                                  folds=5, seed=3)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_oracles_property(self, data):
        linked = data.draw(st.integers(4, 24))
        n = linked + data.draw(st.integers(0, 3))  # trailing isolated nodes
        node = st.integers(0, linked - 1)
        edges = data.draw(st.lists(st.tuples(node, node).filter(
            lambda e: e[0] != e[1]), min_size=1, max_size=2 * linked))
        g = Graph.from_edges(n, edges)
        # small integer coordinates: exact distances, many ties and
        # duplicated map points
        dim = data.draw(st.integers(1, 4))
        x = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=dim,
                                                 max_size=dim),
                                        min_size=n, max_size=n)), dtype=float)
        y = np.array(data.draw(st.lists(st.tuples(st.integers(-2, 2),
                                                  st.integers(-2, 2)),
                                        min_size=n, max_size=n)), dtype=float)
        labels = np.array(data.draw(st.lists(st.integers(0, 2), min_size=n,
                                             max_size=n)))
        t_ks = data.draw(st.lists(st.integers(1, (2 * n - 2) // 3), min_size=1,
                                  max_size=3, unique=True))
        t_rs = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2,
                                  unique=True))
        knn_k = data.draw(st.integers(1, min(5, n - 1)))
        folds = data.draw(st.integers(2, min(5, n)))
        seed = data.draw(st.integers(0, 100))
        block = data.draw(st.integers(1, n + 1))  # often several row blocks
        dataset = LabeledDataset(graph=g, features=x, labels=labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("graphtsne.affinity._ROW_BLOCK", block)
            rep = evaluate_layout(dataset, y, knn_k=knn_k, t_ks=t_ks,
                                  t_rs=t_rs, folds=folds, seed=seed)
            alone = knn_1_accuracy(y, labels, folds=folds, seed=seed)
        assert rep.t_feature == {k: trust_feature_oracle(x, y, k) for k in t_ks}
        assert rep.t_graph == {r: trust_graph_oracle(n, g.edge_pairs, y, r)
                               for r in t_rs}
        assert rep.p_feature == distance_metrics(
            g, brute_knn_pairs(x, knn_k), y)[1]
        assert rep.knn_accuracy == knn_1_oracle(y, labels, folds, seed) == alone


# Prints, as JSON, the hash of each rank order evaluate_layout makes (the map's,
# then the features') on a 2-D layout rounded to 0.1, whose distances tie, the
# report, and the losses of a short full-batch fit.
BLAS_CHILD = """
import hashlib, json
import numpy as np
from graphtsne import (TrainConfig, citation_dataset, evaluate_layout, metrics,
                       random_dataset, train_full_batch)
hashes, rank_blocks = [], metrics.rank_blocks
def hashed(*args):
    sha = hashlib.sha256()
    for rows, order in rank_blocks(*args):
        sha.update(np.ascontiguousarray(order, dtype=np.int64).tobytes())
        yield rows, order
    hashes.append(sha.hexdigest())
metrics.rank_blocks = hashed
data = citation_dataset()
layout = np.round(np.random.default_rng(2).normal(size=(data.graph.num_nodes, 2)), 1)
report = evaluate_layout(data, layout).to_dict()
del report["runtime_s"]
_, fit = train_full_batch(random_dataset(1500, 6000, feature_dim=16, seed=0),
                          TrainConfig(alpha=0.5, epochs=5, hidden_dim=64, mode="full"))
print(json.dumps({"orders": hashes, "report": report, "losses": fit.total_losses}))
"""


def test_scores_do_not_depend_on_blas_thread_count():
    """One child process per OpenBLAS thread count, set in its environment only:
    a layout's rank orders and report are byte-identical, and training, whose
    products the thread count splits differently, agrees at rounding level."""
    runs = []
    for threads in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", BLAS_CHILD], capture_output=True,
                              text=True, env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout))
    one, two = runs
    assert len(one["orders"]) == 2 and one["orders"] == two["orders"]
    assert one["report"] == two["report"]  # floats read back from their exact repr
    assert np.allclose(one["losses"], two["losses"], rtol=1e-12, atol=0.0)


@pytest.fixture(scope="module")
def sweep_result():
    data = sbm_dataset([15, 15, 15], p_intra=0.5, p_inter=0.04,
                       feature_dim=6, seed=7)
    cfg = TrainConfig(alpha=0.5, epochs=3, hidden_dim=8, mode="full",
                      perplexity=10.0, seed=2)
    return alpha_sweep(data, cfg, [0.0, 0.5, 1.0], t_ks=(3,), t_rs=(1,),
                       knn_k=4, folds=5)


class TestAlphaSweep:
    def test_one_report_per_grid_point(self, sweep_result):
        assert [r.alpha for r in sweep_result.reports] == [0.0, 0.5, 1.0]
        assert sorted(sweep_result.embeddings) == [0.0, 0.5, 1.0]
        for y in sweep_result.embeddings.values():
            assert y.shape == (45, 2)

    def test_alpha_star_minimizes_combined(self, sweep_result):
        best = min(r.combined for r in sweep_result.reports)
        star = next(r for r in sweep_result.reports
                    if r.alpha == sweep_result.alpha_star)
        assert star.combined == pytest.approx(best)

    def test_singleton_grid(self):
        data = sbm_dataset([10, 10], p_intra=0.6, p_inter=0.05,
                           feature_dim=4, seed=1)
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="full",
                          perplexity=6.0, seed=0)
        res = alpha_sweep(data, cfg, [0.3], t_ks=(2,), t_rs=(1,), knn_k=3,
                          folds=4)
        assert res.alpha_star == 0.3
        assert len(res.reports) == 1

    def test_combined_tie_prefers_smaller_alpha(self, small_sbm, monkeypatch, rng):
        fixed = rng.normal(size=(45, 2))
        monkeypatch.setattr("graphtsne.metrics.train",
                            lambda data, cfg: (None, None))
        monkeypatch.setattr("graphtsne.metrics.embed",
                            lambda model, data: fixed.copy())
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full", seed=0)
        res = alpha_sweep(small_sbm, cfg, [0.7, 0.2], t_ks=(3,), t_rs=(1,),
                          knn_k=4, folds=5)
        assert res.alpha_star == 0.2

    def test_empty_grid_rejected(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full", seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            alpha_sweep(small_sbm, cfg, [])

    def test_out_of_range_grid_rejected(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full", seed=0)
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            alpha_sweep(small_sbm, cfg, [0.5, 1.2])

    def test_repeated_grid_value_rejected(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full", seed=0)
        with pytest.raises(ValueError, match="lists 0.5 more than once"):
            alpha_sweep(small_sbm, cfg, [0.5, 0.2, 0.5])

    def test_training_failure_names_the_alpha(self, small_sbm, monkeypatch):
        def boom(data, cfg):
            raise TrainingError("synthetic failure")
        monkeypatch.setattr("graphtsne.metrics.train", boom)
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full", seed=0)
        with pytest.raises(TrainingError, match="alpha=0.4.*synthetic failure"):
            alpha_sweep(small_sbm, cfg, [0.4])

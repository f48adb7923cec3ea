"""Acceptance suite: one printed verdict line per criterion.

Each test records a "criterion N [PASS|FAIL] ..." line that the conftest
terminal-summary hook prints at the end of the run, so verdicts stay visible
under output capture. Numeric tolerances are pinned as module constants.

Set GRAPHTSNE_CORA_DIR to a directory holding edges.txt, features.csv and
labels.csv to run the end-to-end citation benchmark on real data instead of
the built-in synthetic stand-in.
"""

import json
import os
import time

import numpy as np
import pytest

from graphtsne.affinity import joint_p, pairwise_sq_euclidean
from graphtsne.cli import main, read_layout_csv
from graphtsne.gcn import backward, build_full_plan, forward, init_model
from graphtsne.graph import Graph, all_pairs_distances
from graphtsne.metrics import (alpha_sweep, distance_metrics,
                               feature_trustworthiness, graph_trustworthiness,
                               knn_1_accuracy, knn_graph)
from graphtsne.synthetic import citation_dataset, random_dataset, sbm_dataset
from graphtsne.trainer import TrainConfig, composite_loss_and_grad, train_minibatch

import conftest
from conftest import finite_difference_grads, max_relative_error
from oracles import (brute_knn_pairs, distance_metrics_oracle, floyd_warshall,
                     knn_1_oracle, receptive_field_sizes, studentt_q,
                     trust_feature_oracle, trust_graph_oracle)

GRAD_TOL = 1e-5          # criterion 1: max relative error vs central differences
GRAD_TIME_LIMIT_S = 10.0
SUM_TOL = 1e-9           # criterion 2: affinity normalization, KL(Q || Q)
PERPLEXITY_TOL = 1e-3    # criterion 2: calibrated rows vs target 30
ORACLE_TOL = 1e-10       # criterion 3: metric oracle agreement
SWEEP_TIME_LIMIT_S = 300.0   # criterion 4
LOSS_RATIO_LIMIT = 0.5       # criterion 6: final vs epoch-1 composite loss
CITATION_TIME_LIMIT_S = 3600.0
RECEPTIVE_FIELD_LIMIT = 150  # criterion 7: fanouts (10, 15)


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    return ok


def write_dataset_files(root, ds):
    lines = [f"{i} {j}" for i, j in ds.graph.edge_pairs if i < j]
    (root / "edges.txt").write_text("\n".join(lines) + "\n")
    (root / "features.csv").write_text(
        "\n".join(",".join(repr(float(v)) for v in row)
                  for row in ds.features) + "\n")
    if ds.labels is not None:
        (root / "labels.csv").write_text(
            "\n".join(str(int(v)) for v in ds.labels) + "\n")


class TestCriterion1GradientCorrectness:
    def test_full_pipeline_matches_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(11)
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                                 (0, 5), (1, 4)])
        x = rng.normal(size=(6, 4))
        p_graph = joint_p(all_pairs_distances(g), 3.0)
        p_feat = joint_p(pairwise_sq_euclidean(x), 3.0)
        model = init_model(4, 8, seed=1)
        plan = build_full_plan(g, num_layers=2)

        def loss():
            y, _ = forward(model, plan, x, mode="train")
            return composite_loss_and_grad(p_graph, p_feat, y, 0.5).total

        y, trace = forward(model, plan, x, mode="train")
        comp = composite_loss_and_grad(p_graph, p_feat, y, 0.5)
        grads = backward(model, trace, comp.grad)
        names = [name for name, _ in model.named_parameters()]
        params = [p for _, p in model.named_parameters()]
        fds = finite_difference_grads(loss, params)
        err = max(max_relative_error(grads[name], fd)
                  for name, fd in zip(names, fds))
        elapsed = time.perf_counter() - start
        ok = err <= GRAD_TOL and elapsed < GRAD_TIME_LIMIT_S
        assert verdict(1, "gradient correctness", ok,
                       f"max rel err {err:.2e} (tol {GRAD_TOL}), "
                       f"{elapsed:.1f}s (limit {GRAD_TIME_LIMIT_S:.0f}s)")


class TestCriterion2AffinityContracts:
    def test_100_random_instances(self):
        rng = np.random.default_rng(22)
        worst_p = worst_kl = worst_grad = worst_perp = 0.0
        checked_rows = 0
        for case in range(100):
            b = int(rng.integers(5, 51))
            if case % 2 == 0:
                x = rng.normal(size=(b, int(rng.integers(2, 6)))) * 3.0
                d = pairwise_sq_euclidean(x)
            else:
                prob = rng.uniform(0.05, 0.4)
                iu, ju = np.triu_indices(b, k=1)
                keep = rng.random(iu.size) < prob
                edges = np.stack([iu[keep], ju[keep]], axis=1)
                if edges.shape[0] == 0:
                    edges = np.array([[0, 1]])
                d = all_pairs_distances(Graph.from_edges(b, edges))
            aff = joint_p(d, 30.0)
            worst_p = max(worst_p, abs(aff.p.sum() - 1.0))
            # the loss's own Q: KL(Q || Q) and its gradient vanish only if
            # the loss normalizes the same Student-t weights to sum 1
            y = rng.normal(size=(b, 2))
            q = studentt_q(y).q
            kl = composite_loss_and_grad(q, q, y, 0.5)
            worst_kl = max(worst_kl, abs(kl.total))
            worst_grad = max(worst_grad, float(np.abs(kl.grad).max()))
            off_diag = d.copy()
            np.fill_diagonal(off_diag, np.inf)
            for i in range(b):
                row = off_diag[i][np.isfinite(off_diag[i])]
                if row.size < 32 or not np.isfinite(aff.sigmas[i]):
                    continue
                w = np.exp(-(row - row.min()) / (2.0 * aff.sigmas[i] ** 2))
                cond = w / w.sum()
                nz = cond[cond > 0]
                perp = float(np.exp(-np.sum(nz * np.log(nz))))
                worst_perp = max(worst_perp, abs(perp - 30.0))
                checked_rows += 1
        ok = (worst_p <= SUM_TOL and worst_kl <= SUM_TOL and worst_grad <= SUM_TOL
              and worst_perp <= PERPLEXITY_TOL and checked_rows > 0)
        assert verdict(2, "affinity contracts", ok,
                       f"|P sum - 1| {worst_p:.1e}, |KL(Q||Q)| {worst_kl:.1e}, "
                       f"|its grad| {worst_grad:.1e} (tol {SUM_TOL}); "
                       f"perplexity err {worst_perp:.1e} over "
                       f"{checked_rows} rows (tol {PERPLEXITY_TOL})")


class TestCriterion3OracleEquivalence:
    def test_all_oracles_agree(self):
        rng = np.random.default_rng(33)
        failures = []

        n = 100
        iu, ju = np.triu_indices(n, k=1)
        keep = rng.random(iu.size) < 0.03
        g = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))
        bfs = all_pairs_distances(g, hop_cap=n)
        fw = floyd_warshall(n, g.edge_pairs)
        if not np.array_equal(bfs, fw):
            failures.append("bfs")

        x = rng.normal(size=(200, 8))
        got = knn_graph(x, 10)
        want = brute_knn_pairs(x, 10)
        if not np.array_equal(np.sort(got.view("i8,i8"), axis=0),
                              np.sort(want.view("i8,i8"), axis=0)):
            failures.append("knn")

        m = 50
        ds = sbm_dataset([17, 17, 16], p_intra=0.3, p_inter=0.05,
                         feature_dim=5, seed=4)
        y = rng.normal(size=(m, 2))
        if abs(feature_trustworthiness(ds.features, y, 6)
               - trust_feature_oracle(ds.features, y, 6)) > ORACLE_TOL:
            failures.append("t_feature")
        if abs(graph_trustworthiness(ds.graph, y, 1)
               - trust_graph_oracle(m, ds.graph.edge_pairs, y, 1)) > ORACLE_TOL:
            failures.append("t_graph")
        knn_pairs = knn_graph(ds.features, 5)
        got_pg, got_px = distance_metrics(ds.graph, knn_pairs, y)
        want_pg, want_px = distance_metrics_oracle(ds.graph.edge_pairs,
                                                   knn_pairs, y)
        if abs(got_pg - want_pg) > ORACLE_TOL or abs(got_px - want_px) > ORACLE_TOL:
            failures.append("distance_metrics")
        if abs(knn_1_accuracy(y, ds.labels, folds=5, seed=2)
               - knn_1_oracle(y, ds.labels, 5, 2)) > ORACLE_TOL:
            failures.append("knn_1")

        ok = not failures
        assert verdict(3, "oracle equivalence", ok,
                       "bfs, knn, trustworthiness, distances, 1-nn all match"
                       if ok else f"mismatches: {', '.join(failures)}")


SWEEP_GRID = [0.0, 0.25, 0.5, 0.75, 1.0]
SWEEP_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def sbm_sweep():
    """Three seeded sweeps over the 300-node SBM shared by criteria 4 and 5."""
    start = time.perf_counter()
    runs = []
    for seed in SWEEP_SEEDS:
        ds = sbm_dataset([220, 50, 30], p_intra=0.1, p_inter=0.005,
                         feature_dim=10, separation=1.0, noise=1.0, seed=seed)
        cfg = TrainConfig(alpha=0.5, epochs=150, hidden_dim=32, mode="full",
                          lr=0.01, seed=seed)
        res = alpha_sweep(ds, cfg, SWEEP_GRID, t_ks=(12,), t_rs=(1,))
        runs.append({
            "t_graph": [r.t_graph[1] for r in res.reports],
            "t_feature": [r.t_feature[12] for r in res.reports],
            "accuracy": [r.knn_accuracy for r in res.reports],
        })
    return runs, time.perf_counter() - start


def count_inversions(seq, rising):
    return sum(1 for a, b in zip(seq, seq[1:]) if ((b < a) if rising else (b > a)))


class TestCriterion4TrendReproduction:
    def test_trustworthiness_tradeoff_across_alpha(self, sbm_sweep):
        runs, wall = sbm_sweep
        good = sum(1 for r in runs
                   if count_inversions(r["t_graph"], rising=True) <= 1
                   and count_inversions(r["t_feature"], rising=False) <= 1)
        ok = good >= 2 and wall < SWEEP_TIME_LIMIT_S
        assert verdict(4, "trend reproduction", ok,
                       f"monotone trade-off in {good}/3 seeds, sweeps took "
                       f"{wall:.0f}s (limit {SWEEP_TIME_LIMIT_S:.0f}s)")


class TestCriterion5InteriorOptimum:
    def test_best_accuracy_at_interior_alpha(self, sbm_sweep):
        runs, _ = sbm_sweep
        good = sum(1 for r in runs
                   if max(r["accuracy"][1:4]) > max(r["accuracy"][0],
                                                    r["accuracy"][4]))
        ok = good >= 2
        assert verdict(5, "interior 1-NN optimum", ok,
                       f"interior alpha beats both endpoints in {good}/3 seeds")


class TestCriterion6CitationBenchmark:
    def test_preset_run_halves_loss(self, tmp_path):
        start = time.perf_counter()
        cora_dir = os.environ.get("GRAPHTSNE_CORA_DIR")
        if cora_dir:
            data_dir = cora_dir
        else:
            write_dataset_files(tmp_path, citation_dataset(seed=7))
            data_dir = tmp_path
        out = tmp_path / "out"
        code = main(["fit",
                     "--edges", str(os.path.join(data_dir, "edges.txt")),
                     "--features", str(os.path.join(data_dir, "features.csv")),
                     "--labels", str(os.path.join(data_dir, "labels.csv")),
                     "--num-nodes", "2708", "--alpha", "0.5", "--seed", "0",
                     "--out-dir", str(out)])
        wall = time.perf_counter() - start
        manifest = json.loads((out / "manifest.json").read_text())
        losses = manifest["losses"]
        ratio = losses[-1] / losses[0]
        rows = read_layout_csv(out / "layout.csv", 2708).shape[0]
        preset_ok = (manifest["config"]["hidden_dim"] == 128
                     and manifest["config"]["epochs"] == 360
                     and manifest["config"]["perplexity"] == 30.0
                     and manifest["config"]["lr"] == 0.00075)
        ok = (code == 0 and preset_ok and rows == 2708
              and ratio <= LOSS_RATIO_LIMIT and wall < CITATION_TIME_LIMIT_S)
        assert verdict(6, "citation benchmark", ok,
                       f"loss {losses[0]:.3f} -> {losses[-1]:.3f} "
                       f"(ratio {ratio:.3f}, limit {LOSS_RATIO_LIMIT}), "
                       f"{rows} layout rows, {wall / 60:.1f} min "
                       f"(limit {CITATION_TIME_LIMIT_S / 60:.0f} min)")


class TestCriterion7MinibatchPath:
    def test_receptive_field_bound_and_loss_decrease(self):
        ds = random_dataset(15000, 45000, feature_dim=16, seed=5)
        cfg = TrainConfig(alpha=0.5, epochs=3, hidden_dim=32, mode="minibatch",
                          batch_count=100, fanouts=(10, 15), seed=5)
        worst = 0

        def on_batch(epoch, batch_index, sample, loss):
            nonlocal worst
            worst = max(worst, max(receptive_field_sizes(sample)))

        _, report = train_minibatch(ds, cfg, on_batch=on_batch)
        decreased = report.total_losses[2] < report.total_losses[0]
        ok = worst <= RECEPTIVE_FIELD_LIMIT and decreased
        assert verdict(7, "mini-batch path", ok,
                       f"max receptive field {worst} "
                       f"(limit {RECEPTIVE_FIELD_LIMIT}), epoch losses "
                       f"{report.total_losses[0]:.3f} -> "
                       f"{report.total_losses[2]:.3f}")


class TestCriterion8Determinism:
    def test_fixed_seed_layouts_byte_identical(self, tmp_path):
        ds = sbm_dataset([15, 15, 15], p_intra=0.5, p_inter=0.04,
                         feature_dim=6, seed=7)
        write_dataset_files(tmp_path, ds)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["fit", "--edges", str(tmp_path / "edges.txt"),
                         "--features", str(tmp_path / "features.csv"),
                         "--num-nodes", "45", "--alpha", "0.5", "--seed", "9",
                         "--epochs", "40", "--out-dir", str(out)])
            assert code == 0
            blobs.append((out / "layout.csv").read_bytes())
        ok = blobs[0] == blobs[1]
        # byte-identical for the same NumPy, BLAS and BLAS thread count; across
        # thread counts training moves at rounding level, while the rank orders
        # and scores of a given layout file do not move
        # (test_metrics.py::test_scores_do_not_depend_on_blas_thread_count)
        assert verdict(8, "determinism", ok,
                       f"two fixed-seed runs wrote identical layout.csv "
                       f"({len(blobs[0])} bytes; same NumPy, BLAS and BLAS thread "
                       f"count; other thread counts train within rounding, and "
                       f"score a layout file the same)" if ok else
                       "fixed-seed layout.csv bytes differ")

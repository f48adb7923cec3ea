import logging
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import (Graph, LabeledDataset, MalformedInputError,
                       TrainingError, TrainConfig, composite_loss_and_grad,
                       default_config, embed, joint_p, pairwise_sq_euclidean,
                       train_full_batch, train_minibatch)
from graphtsne import affinity, gcn, trainer
from graphtsne.affinity import AffinityMatrix
from graphtsne.gcn import init_model
from graphtsne.graph import all_pairs_distances
from graphtsne.trainer import read_config_file
from graphtsne.synthetic import random_dataset, sbm_dataset

from oracles import dense_composite_loss, kl_oracle


def affinity_pair(rng, n=12):
    pg = joint_p(all_pairs_distances(random_dataset(n, 4 * n, seed=1).graph), 4.0)
    px = joint_p(pairwise_sq_euclidean(rng.normal(size=(n, 3))), 4.0)
    return pg, px


def random_cases(rng, count=50):
    """(p_graph, p_feat, y) triples of varied size and map scale."""
    for _ in range(count):
        n = int(rng.integers(4, 16))
        pg = joint_p(all_pairs_distances(random_dataset(
            n, 3 * n, seed=int(rng.integers(1 << 30))).graph), 3.0)
        px = joint_p(pairwise_sq_euclidean(rng.normal(size=(n, 3))), 3.0)
        yield pg, px, rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0)


def assert_same_loss(a, b):
    assert a.total == b.total
    assert np.array_equal(a.grad, b.grad)


class TestCompositeLoss:
    def test_alpha_zero_equals_feature_loss(self, rng):
        pg, px = affinity_pair(rng)
        y = rng.normal(size=(12, 2))
        combo = composite_loss_and_grad(pg, px, y, alpha=0.0)
        loss_x, grad_x = kl_oracle(px.p, y)
        assert abs(combo.total - loss_x) <= 1e-12
        assert np.abs(combo.grad - grad_x).max() <= 1e-12
        # the graph affinity has no effect at alpha = 0
        for pg, px, y in random_cases(rng):
            assert_same_loss(composite_loss_and_grad(pg, px, y, 0.0),
                             composite_loss_and_grad(px, px, y, 0.0))

    def test_alpha_one_equals_graph_loss(self, rng):
        pg, px = affinity_pair(rng)
        y = rng.normal(size=(12, 2))
        combo = composite_loss_and_grad(pg, px, y, alpha=1.0)
        loss_g, grad_g = kl_oracle(pg.p, y)
        assert abs(combo.total - loss_g) <= 1e-12
        assert np.abs(combo.grad - grad_g).max() <= 1e-12
        # the feature affinity has no effect at alpha = 1
        for pg, px, y in random_cases(rng):
            assert_same_loss(composite_loss_and_grad(pg, px, y, 1.0),
                             composite_loss_and_grad(pg, pg, y, 1.0))

    def test_zero_matrix_for_zero_weight_term_changes_only_its_term(self, rng):
        # training passes an all-zero P for a term with weight 0
        for pg, px, y in random_cases(rng):
            zero = np.zeros_like(pg.p)
            for alpha, built, skipped in ((0.0, (pg, px), (zero, px)),
                                          (1.0, (pg, px), (pg, zero))):
                a = composite_loss_and_grad(*built, y, alpha)
                b = composite_loss_and_grad(*skipped, y, alpha)
                assert_same_loss(a, b)
                assert (b.graph_term if alpha == 0.0 else b.feature_term) == 0.0

    def test_midpoint_matches_independent_recomposition(self, rng):
        pg, px = affinity_pair(rng)
        y = rng.normal(size=(12, 2))
        combo = composite_loss_and_grad(pg, px, y, alpha=0.5)
        loss_g, grad_g = kl_oracle(pg.p, y)
        loss_x, grad_x = kl_oracle(px.p, y)
        assert abs(combo.total - 0.5 * (loss_g + loss_x)) <= 1e-12
        assert np.abs(combo.grad - 0.5 * (grad_g + grad_x)).max() <= 1e-12

    def test_exactly_linear_in_alpha(self, rng):
        pg, px = affinity_pair(rng)
        y = rng.normal(size=(12, 2))
        at = [composite_loss_and_grad(pg, px, y, a).total
              for a in (0.0, 0.5, 1.0)]
        assert abs(at[1] - 0.5 * (at[0] + at[2])) <= 1e-12

    def test_alpha_out_of_range_rejected(self, rng):
        pg, px = affinity_pair(rng)
        y = rng.normal(size=(12, 2))
        with pytest.raises(ValueError):
            composite_loss_and_grad(pg, px, y, alpha=1.5)

    def test_size_mismatch_rejected(self, rng):
        pg, px = affinity_pair(rng)
        with pytest.raises(ValueError):
            composite_loss_and_grad(pg, px, rng.normal(size=(5, 2)), alpha=0.5)

    def test_fewer_than_two_points_rejected(self):
        with pytest.raises(ValueError):
            composite_loss_and_grad(np.zeros((1, 1)), np.zeros((1, 1)),
                                    np.zeros((1, 2)), alpha=0.5)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_row_blocks_match_dense_oracle(self, data):
        """The triangle walk against the dense oracle on symmetric P's, stored
        in row blocks of any height; a raw P that is not symmetric is rejected."""
        # from 3 points: any symmetric P on 2 points is 0 or Q, whose gradient is
        # a rounding of 0 that a relative bound cannot measure
        n = data.draw(st.integers(3, 200), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        block = data.draw(st.sampled_from([1, 3, n + 1]), label="block")

        def affinity():
            kind = data.draw(st.sampled_from(["dense", "zero rows", "all zero"]))
            p = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
            p = p + p.T
            if kind == "zero rows":  # e.g. nodes no other node reaches
                dead = rng.random(n) < 0.3
                p[dead] = 0.0
                p[:, dead] = 0.0
            if kind == "all zero":  # a term with weight 0
                p[:] = 0.0
            np.fill_diagonal(p, 0.0)
            if p.any():
                p /= p.sum()
            if data.draw(st.booleans()):
                return AffinityMatrix(p, sigmas=np.full(n, np.nan))
            return p

        alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                          label="alpha")
        y = rng.normal(size=(n, 2)) * 10.0 ** data.draw(st.floats(-3.0, 1.0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("graphtsne.affinity._ROW_BLOCK", block)
            pg, px = affinity(), affinity()
            fused = composite_loss_and_grad(pg, px, y, alpha)
            if data.draw(st.booleans(), label="asymmetric"):
                i, j = data.draw(st.sampled_from(
                    [(i, j) for i in range(n) for j in range(n) if i != j]), label="pair")
                p = pg.p if isinstance(pg, AffinityMatrix) else pg.copy()
                p[i, j] = 2.0 * p[j, i] + 1.0 / n**2
                with pytest.raises(ValueError, match="symmetric"):
                    composite_loss_and_grad(p, px, y, alpha)
        dense = dense_composite_loss(pg, px, y, alpha)
        for name in ("total", "graph_term", "feature_term"):
            assert type(getattr(fused, name)) is float
            # a KL near 0 is a difference of terms of order log N^2
            assert getattr(fused, name) == pytest.approx(getattr(dense, name),
                                                         rel=1e-12, abs=1e-13)
        assert (np.abs(fused.grad - dense.grad).max()
                <= 1e-12 * np.abs(dense.grad).max())

    def test_one_call_holds_no_n_by_n_temporary(self):
        n = 1500
        rng = np.random.default_rng(0)
        pg, px = (p + p.T for p in (rng.random((n, n)), rng.random((n, n))))
        for p in (pg, px):
            np.fill_diagonal(p, 0.0)
            p /= p.sum()
        pg, px = (AffinityMatrix(p, sigmas=np.ones(n)) for p in (pg, px))
        y = rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            composite_loss_and_grad(pg, px, y, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


def accepts(cfg, num_nodes) -> bool:
    try:
        cfg.validate(num_nodes)
    except ValueError:
        return False
    return True


def perplexities(size):
    """Valid perplexities, often at or next to size - 1, the most that a row
    calibrated among size nodes reaches."""
    edge = float(size - 1)
    near = [edge - 0.5, np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
            edge + 0.5]
    return st.one_of(st.sampled_from([max(2.0, float(p)) for p in near]),
                     st.floats(2.0, 300.0))


class TestTrainConfig:
    def test_validation_catches_bad_fields(self):
        good = dict(alpha=0.5, epochs=5, hidden_dim=8, mode="full")
        TrainConfig(**good).validate(45)
        for bad in (dict(alpha=-0.1), dict(perplexity=1.0), dict(epochs=-1),
                    dict(mode="bogus"), dict(lr=0.0), dict(lr=float("nan")),
                    dict(lr=float("inf")), dict(perplexity=float("nan")),
                    dict(perplexity=float("inf")), dict(seed=-1)):
            cfg = TrainConfig(**{**good, **bad})
            with pytest.raises(ValueError):
                cfg.validate(45)

    @given(n=st.integers(0, 300), batch_count=st.integers(1, 400), data=st.data())
    def test_minibatch_accepted_exactly_when_every_batch_reaches_it(
            self, n, batch_count, data):
        parts = np.array_split(np.arange(n), batch_count)
        perplexity = data.draw(perplexities(min(len(part) for part in parts)))
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="minibatch",
                          batch_count=batch_count, perplexity=perplexity)
        # a batch reaches the perplexity when it holds at least perplexity + 1 nodes
        fits = all(len(part) - 1 >= perplexity for part in parts)
        assert accepts(cfg, n) == fits

    @given(n=st.integers(0, 300), data=st.data())
    def test_full_batch_accepted_exactly_when_the_graph_reaches_it(self, n, data):
        perplexity = data.draw(perplexities(n))
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full",
                          perplexity=perplexity)
        assert accepts(cfg, n) == (n - 1 >= perplexity)

    def test_preset_split_by_size(self):
        small = default_config(10000)
        assert (small.mode, small.hidden_dim, small.epochs) == ("full", 128, 360)
        large = default_config(10001)
        assert (large.mode, large.hidden_dim, large.epochs) == ("minibatch", 256, 5)
        assert large.batch_count == 200   # min(1000, N // 50)
        assert default_config(12000).batch_count == 240
        assert default_config(50000).batch_count == 1000
        # the full-batch preset sets the same count, for a --mode minibatch run
        assert small.batch_count == 200
        assert default_config(2708).batch_count == 54
        assert default_config(49).batch_count == 1
        assert large.fanouts == (10, 15)
        assert small.lr == large.lr == 0.00075
        assert small.perplexity == 30.0

    @pytest.mark.parametrize("n", [10001, 12000, 31999, 50000])
    def test_preset_batches_hold_room_for_the_perplexity(self, n):
        cfg = default_config(n)
        batches = np.array_split(np.arange(n), cfg.batch_count)
        assert min(b.size for b in batches) > cfg.perplexity + 1


class TestTrainFullBatch:
    def test_zero_epochs_returns_initial_model(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=0, hidden_dim=8, mode="full", seed=5)
        model, report = train_full_batch(small_sbm, cfg)
        reference = init_model(small_sbm.features.shape[1], 8, seed=5)
        for (_, a), (_, b) in zip(model.named_state(), reference.named_state()):
            assert np.array_equal(a, b)
        assert len(report.total_losses) == 0

    def test_unreachable_perplexity_rejected_before_distances(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("distances were built for a config validate rejects")

        for name in ("all_pairs_distances", "pairwise_sq_euclidean"):
            monkeypatch.setattr(trainer, name, fail)
        complete = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        data = LabeledDataset(graph=Graph.from_edges(6, complete),
                              features=np.random.default_rng(0).normal(size=(6, 3)))
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="full",
                          perplexity=5.5)
        with pytest.raises(ValueError, match="^perplexity 5.5 is out of reach: the "
                           "graph has 6 nodes, so no row reaches more than 5$"):
            train_full_batch(data, cfg)
        monkeypatch.undo()
        train_full_batch(data, replace(cfg, perplexity=5.0))  # N - 1 itself trains

    def test_sbm_loss_halves_in_200_epochs(self):
        ds = sbm_dataset([30, 30, 30], p_intra=0.5, p_inter=0.005,
                         feature_dim=6, seed=3)
        cfg = TrainConfig(alpha=0.5, epochs=200, hidden_dim=16, mode="full",
                          lr=0.02, seed=4)
        _, report = train_full_batch(ds, cfg)
        assert report.total_losses[-1] <= 0.5 * report.total_losses[0]

    def test_same_seed_identical_loss_sequences(self, small_sbm):
        cfg = TrainConfig(alpha=0.3, epochs=8, hidden_dim=8, mode="full", seed=6)
        _, r1 = train_full_batch(small_sbm, cfg)
        _, r2 = train_full_batch(small_sbm, cfg)
        assert r1.total_losses == r2.total_losses
        assert r1.graph_losses == r2.graph_losses

    def test_edge_walks_made_only_when_a_plan_is_built(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=3, hidden_dim=8, mode="full", seed=2)
        with mock.patch.object(gcn, "_edge_walk", wraps=gcn._edge_walk) as walks, \
                mock.patch.object(trainer, "build_full_plan",
                                  wraps=trainer.build_full_plan) as plans:
            model, _ = train_full_batch(small_sbm, cfg)
            embed(model, small_sbm)
        # one plan for the 3 epochs, one for embed; the full plan's layers
        # share one LayerPlan, which holds a walk by destination and one by source
        assert plans.call_count == 2
        assert walks.call_count == 2 * plans.call_count

    def test_report_has_one_record_per_epoch(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=7, hidden_dim=8, mode="full", seed=1)
        _, report = train_full_batch(small_sbm, cfg)
        assert (len(report.total_losses) == len(report.graph_losses)
                == len(report.feature_losses) == 7)
        assert report.final_lr > 0 and report.wall_time_s >= 0

    def test_hop_cap_zeroes_graph_affinity_beyond_cap(self, monkeypatch):
        n, cap = 12, 3
        g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        data = LabeledDataset(graph=g,
                              features=np.random.default_rng(0).normal(size=(n, 3)))
        built = []
        calibrate = trainer.joint_p

        def spy(distances, perplexity):
            built.append(calibrate(distances, perplexity))
            return built[-1]

        monkeypatch.setattr(trainer, "joint_p", spy)
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="full",
                          perplexity=2.0, hop_cap=cap)
        train_full_batch(data, cfg)
        hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        p = built[0].p    # the graph affinity is built first
        assert np.all(p[hops > cap] == 0.0)
        assert np.all(p[hops == 1] > 0.0)

    def test_joint_p_calls_reach_its_trainer_name(self, small_sbm, monkeypatch):
        """Wrappers of trainer.joint_p, like the benchmark's row counts and
        span names, see both calibrations, called as (distances, perplexity):
        the graph one first, on the array all_pairs_distances returned."""
        hops, calls = [], []
        distances_of, calibrate = trainer.all_pairs_distances, trainer.joint_p

        def hops_spy(*args, **kwargs):
            hops.append(distances_of(*args, **kwargs))
            return hops[-1]

        def joint_p_spy(distances, perplexity):
            calls.append((distances, distances.copy(), perplexity,
                          calibrate(distances, perplexity)))
            return calls[-1][-1]

        monkeypatch.setattr(trainer, "all_pairs_distances", hops_spy)
        monkeypatch.setattr(trainer, "joint_p", joint_p_spy)
        train_full_batch(small_sbm, TrainConfig(alpha=0.5, epochs=1, hidden_dim=4,
                                                mode="full", perplexity=5.0))
        assert len(hops) == 1 and len(calls) == 2
        assert calls[0][0] is hops[0]
        for distances, copy, perplexity, result in calls:
            assert result.n_converged > 0
            # each distance matrix is only read, and P lives in arrays of its own
            assert distances.tobytes() == copy.tobytes()
            assert not any(np.shares_memory(b, distances) for b in result.blocks)
        assert calibrate is affinity.joint_p  # the one kernel, under its trainer name

    def test_joint_p_reads_a_read_only_distance_matrix(self, rng):
        d = pairwise_sq_euclidean(rng.normal(size=(100, 3)))
        frozen = d.copy()
        frozen.flags.writeable = False
        assert trainer.joint_p(frozen, 10.0).p.tobytes() == joint_p(d, 10.0).p.tobytes()

    def test_identical_features_raise_named_training_error(self):
        # uniform feature rows: no bandwidth can hit the target perplexity
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        data = LabeledDataset(graph=g, features=np.ones((6, 3)))
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="full",
                          perplexity=3.0)
        with pytest.raises(TrainingError, match="feature"):
            train_full_batch(data, cfg)

    def test_edgeless_graph_raises_named_training_error(self):
        g = Graph.from_edges(6, [])
        data = LabeledDataset(graph=g,
                              features=np.random.default_rng(0).normal(size=(6, 3)))
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="full",
                          perplexity=3.0)
        with pytest.raises(TrainingError, match="graph"):
            train_full_batch(data, cfg)

    @pytest.mark.parametrize("alpha, skipped", [(0.0, "all_pairs_distances"),
                                                (1.0, "pairwise_sq_euclidean")])
    def test_zero_weight_term_is_not_built(self, small_sbm, monkeypatch, alpha,
                                           skipped):
        def fail(*args, **kwargs):
            raise AssertionError(f"{skipped} called for a term with weight 0")

        monkeypatch.setattr(trainer, skipped, fail)
        cfg = TrainConfig(alpha=alpha, epochs=3, hidden_dim=8, mode="full", seed=2)
        _, report = train_full_batch(small_sbm, cfg)
        assert (report.graph_losses if alpha == 0.0 else report.feature_losses) == [0.0] * 3
        assert np.isfinite(report.total_losses).all()

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_zero_weight_term_is_an_all_zero_affinity(self, alpha):
        cfg = TrainConfig(alpha=alpha, epochs=1, hidden_dim=4, mode="full",
                          perplexity=2.0)
        x = np.random.default_rng(3).normal(size=(6, 3))
        terms = trainer._affinities(cfg, 6, lambda: pairwise_sq_euclidean(x),
                                    lambda: pairwise_sq_euclidean(x))[:2]
        zero = terms[0] if alpha == 0.0 else terms[1]
        assert isinstance(zero, AffinityMatrix)
        assert not zero.p.any() and zero.p.shape == (6, 6)
        assert np.isnan(zero.sigmas).all()
        assert zero.n_converged == zero.n_degenerate == 0
        assert zero.p_log_p_and_sum == (0.0, 0.0)

    def test_non_finite_weights_after_last_step_raise(self, small_sbm,
                                                      monkeypatch):
        step = trainer.adam_step

        def poisoned(state, model, grads):
            step(state, model, grads)
            model.out_w[0, 0] = np.inf  # after the loss of the only step

        monkeypatch.setattr(trainer, "adam_step", poisoned)
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=8, mode="full", seed=1)
        with pytest.raises(TrainingError, match="weights are not finite"):
            train_full_batch(small_sbm, cfg)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_layout_raises_in_embed(self, small_sbm):
        # one step at lr 1e308 leaves finite weights near 1e308, whose
        # forward pass overflows
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=8, mode="full", lr=1e308)
        model, report = train_full_batch(small_sbm, cfg)
        assert np.isfinite(report.total_losses).all()
        with pytest.raises(TrainingError, match="layout .* not finite"):
            embed(model, small_sbm)

    def test_wrong_mode_rejected(self, small_sbm):
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=8, mode="minibatch")
        with pytest.raises(ValueError, match="requires cfg.mode == 'full'"):
            train_full_batch(small_sbm, cfg)


class TestTrainMinibatch:
    def test_toy_loss_decreases_by_epoch_three(self):
        ds = random_dataset(300, 1200, feature_dim=8, seed=9)
        cfg = TrainConfig(alpha=0.5, epochs=3, hidden_dim=16, mode="minibatch",
                          batch_count=8, fanouts=(4, 6), seed=10)
        _, report = train_minibatch(ds, cfg)
        assert report.total_losses[2] < report.total_losses[0]

    @pytest.mark.parametrize("alpha, skipped", [(0.0, "bfs_shortest_paths"),
                                                (1.0, "pairwise_sq_euclidean")])
    def test_zero_weight_term_is_not_built(self, monkeypatch, alpha, skipped):
        def fail(*args, **kwargs):
            raise AssertionError(f"{skipped} called for a term with weight 0")

        monkeypatch.setattr(trainer, skipped, fail)
        ds = random_dataset(60, 240, feature_dim=5, seed=18)
        cfg = TrainConfig(alpha=alpha, epochs=2, hidden_dim=8, mode="minibatch",
                          batch_count=3, fanouts=(3, 3), seed=19, perplexity=5.0)
        _, report = train_minibatch(ds, cfg)
        assert (report.graph_losses if alpha == 0.0 else report.feature_losses) == [0.0] * 2
        assert np.isfinite(report.total_losses).all()

    def test_single_batch_partition_contains_all_nodes(self):
        ds = random_dataset(40, 160, feature_dim=5, seed=12)
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=8, mode="minibatch",
                          batch_count=1, fanouts=(3, 4), seed=13)
        seen = []
        _, report = train_minibatch(
            ds, cfg, on_batch=lambda e, b, sample, loss:
            seen.append(np.sort(sample.batch_nodes)))
        assert len(seen) == 1
        assert np.array_equal(seen[0], np.arange(40))

    def test_tiny_batches_rejected_before_sampling(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a batch was sampled for a config validate rejects")

        for name in ("neighbor_subsample", "bfs_shortest_paths"):
            monkeypatch.setattr(trainer, name, fail)
        ds = random_dataset(8, 30, feature_dim=4, seed=14)
        # 8 nodes over 5 batches: sizes 2,2,2,1,1, none above the lowest perplexity
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="minibatch",
                          batch_count=5, fanouts=(2, 2), seed=15, perplexity=2.0)
        with pytest.raises(ValueError, match="^perplexity 2.0 is out of reach: the "
                           "smallest mini-batch has 1 nodes"):
            train_minibatch(ds, cfg)

    def test_mixed_batch_sizes_executes_large_ones(self, caplog):
        ds = random_dataset(11, 40, feature_dim=4, seed=16)
        # 11 nodes over 3 batches: sizes 4,4,3 -> all execute
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="minibatch",
                          batch_count=3, fanouts=(2, 2), seed=17, perplexity=2.0)
        counted = []
        _, report = train_minibatch(ds, cfg,
                                    on_batch=lambda e, b, s, l: counted.append(b))
        assert len(counted) == 6
        assert len(report.total_losses) == 2

    def test_unconverged_batches_counted_once_per_epoch(self, caplog):
        ds = random_dataset(11, 40, feature_dim=4, seed=16)
        # hops cut at 1 make each graph row uniform over its in-batch
        # neighbors, so its perplexity is a whole number and never 2.5
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="minibatch",
                          batch_count=2, fanouts=(2, 2), seed=17, perplexity=2.5,
                          hop_cap=1)
        with caplog.at_level(logging.WARNING, logger="graphtsne.trainer"):
            train_minibatch(ds, cfg)
        assert [rec.message for rec in caplog.records] == [
            f"epoch {epoch}: 2 executed batch(es) have a graph or feature "
            f"affinity with no row at perplexity 2.5" for epoch in (0, 1)]

    def test_no_unconverged_warning_when_batches_converge(self, caplog):
        ds = random_dataset(60, 240, feature_dim=5, seed=18)
        cfg = TrainConfig(alpha=0.4, epochs=2, hidden_dim=8, mode="minibatch",
                          batch_count=4, fanouts=(3, 3), seed=19, perplexity=5.0)
        with caplog.at_level(logging.WARNING, logger="graphtsne.trainer"):
            train_minibatch(ds, cfg)
        assert caplog.records == []

    def test_determinism(self):
        ds = random_dataset(60, 240, feature_dim=5, seed=18)
        cfg = TrainConfig(alpha=0.4, epochs=2, hidden_dim=8, mode="minibatch",
                          batch_count=4, fanouts=(3, 3), seed=19, perplexity=5.0)
        _, r1 = train_minibatch(ds, cfg)
        _, r2 = train_minibatch(ds, cfg)
        assert r1.total_losses == r2.total_losses

    def test_fanout_count_must_match_layers(self):
        ds = random_dataset(30, 100, feature_dim=4, seed=20)
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=8, mode="minibatch",
                          batch_count=2, fanouts=(3,), seed=21)
        with pytest.raises(ValueError, match="fanout"):
            train_minibatch(ds, cfg)
        with pytest.raises(ValueError, match="fanouts"):
            replace(cfg, fanouts=(3, 3, 3)).validate(30)


class Stop(Exception):
    pass


def count_adam_steps(monkeypatch):
    calls = []
    step = trainer.adam_step

    def counted(*args):
        calls.append(args)
        step(*args)

    monkeypatch.setattr(trainer, "adam_step", counted)
    return calls


class TestStepCallbacks:
    """An exception raised by a step callback ends training right after that
    step and reaches the caller."""

    def test_on_epoch_exception_propagates(self, small_sbm, monkeypatch):
        steps = count_adam_steps(monkeypatch)
        seen = []

        def on_epoch(epoch, loss):
            seen.append(epoch)
            if epoch == 2:
                raise Stop

        cfg = TrainConfig(alpha=0.5, epochs=6, hidden_dim=8, mode="full", seed=1)
        with pytest.raises(Stop):
            train_full_batch(small_sbm, cfg, on_epoch=on_epoch)
        assert seen == [0, 1, 2]
        assert len(steps) == 3

    def test_on_batch_exception_propagates(self, monkeypatch):
        ds = random_dataset(60, 240, feature_dim=5, seed=18)
        steps = count_adam_steps(monkeypatch)
        seen = []

        def on_batch(epoch, batch, sample, loss):
            seen.append((epoch, batch))
            if len(seen) == 6:
                raise Stop

        cfg = TrainConfig(alpha=0.4, epochs=3, hidden_dim=8, mode="minibatch",
                          batch_count=4, fanouts=(3, 3), seed=19, perplexity=5.0)
        with pytest.raises(Stop):
            train_minibatch(ds, cfg, on_batch=on_batch)
        assert seen == [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1)]
        assert len(steps) == 6


class TestEmbed:
    def test_output_shape(self, small_sbm):
        model = init_model(small_sbm.features.shape[1], 8, seed=22)
        y = embed(model, small_sbm)
        assert y.shape == (small_sbm.graph.num_nodes, 2)

    def test_two_calls_bit_identical(self, small_sbm):
        model = init_model(small_sbm.features.shape[1], 8, seed=23)
        assert np.array_equal(embed(model, small_sbm), embed(model, small_sbm))

    def test_automorphism_equivariance_on_cycle(self):
        # a 4-cycle with identical features is vertex-transitive: rotating
        # node identity must permute coordinates, so the multiset of
        # coordinates (up to ordering) is invariant
        edges_a = [(0, 1), (1, 2), (2, 3), (0, 3)]
        edges_b = [(1, 2), (2, 3), (3, 0), (1, 0)]   # same cycle, relabeled
        x = np.ones((4, 3))
        ga = Graph.from_edges(4, edges_a)
        gb = Graph.from_edges(4, edges_b)
        model = init_model(3, 6, seed=24)
        ya = embed(model, LabeledDataset(graph=ga, features=x))
        yb = embed(model, LabeledDataset(graph=gb, features=x))
        sa = sorted(map(tuple, np.round(ya, 12)))
        sb = sorted(map(tuple, np.round(yb, 12)))
        assert sa == sb

    def test_feature_dim_mismatch_rejected(self, small_sbm):
        model = init_model(small_sbm.features.shape[1] + 1, 8, seed=25)
        with pytest.raises(ValueError):
            embed(model, small_sbm)


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(
            "# training setup\n"
            "alpha = 0.25\n"
            "epochs = 12\n"
            "fanouts = 5,9\n"
            "mode = minibatch   # regime\n"
            "lr = 0.001\n")
        overrides = read_config_file(p)
        assert overrides == {"alpha": 0.25, "epochs": 12, "fanouts": (5, 9),
                             "mode": "minibatch", "lr": 0.001}
        cfg = replace(default_config(100), **overrides)
        assert cfg.alpha == 0.25 and cfg.fanouts == (5, 9)

    def test_every_field_is_a_key(self, tmp_path):
        cfg = replace(default_config(20000), alpha=0.25, lr=0.002, seed=9)
        want = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}
        p = tmp_path / "run.cfg"
        p.write_text("".join(
            f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else value}"
            f"  # {key}\n" for key, value in want.items()))
        assert read_config_file(p) == want

    # more than one 64 KiB chunk of comment lines: a line after them is line 1202
    COMMENTS = "".join(f"# note {i:04d} {'x' * 50}\n" for i in range(1200))

    def assert_names_line(self, tmp_path, line, reason):
        """The bad line as line 2 of a short file and as line 1202, past the first chunk."""
        assert len(self.COMMENTS) > 1 << 16
        p = tmp_path / "run.cfg"
        for head, lineno in (("", 2), (self.COMMENTS, 1202)):
            p.write_text(f"alpha = 0.5\n{head}{line}  # why\nseed = 1\n")
            with pytest.raises(MalformedInputError) as exc:
                read_config_file(p)
            assert str(exc.value) == f"{p}: line {lineno}: {reason}"

    def test_unknown_key_names_line(self, tmp_path):
        self.assert_names_line(tmp_path, "wat = 3", "unknown config key 'wat'")

    def test_bad_value_names_line(self, tmp_path):
        self.assert_names_line(tmp_path, "epochs = soon", "bad value for 'epochs': 'soon'")

    def test_missing_equals_rejected(self, tmp_path):
        self.assert_names_line(tmp_path, "alpha 0.5", "expected 'key = value', got 'alpha 0.5'")

    def test_rules_apply_in_order(self, tmp_path):
        # '=' first, then a known key, then a parsable value
        p = tmp_path / "run.cfg"
        for text, reason in (("wat 3", "expected 'key = value'"),
                             ("wat = soon", "unknown config key 'wat'")):
            p.write_text(text + "\n")
            with pytest.raises(MalformedInputError, match=reason):
                read_config_file(p)

    def test_non_utf8_names_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(self.COMMENTS.encode() + b"seed = \xff\n")
        with pytest.raises(MalformedInputError) as exc:
            read_config_file(p)
        assert str(exc.value) == f"{p}: not UTF-8 text"

    def test_repeated_key_keeps_last_value(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(f"seed = 1\nalpha = 0.25\n{self.COMMENTS}seed = 2\n")
        assert read_config_file(p) == {"seed": 2, "alpha": 0.25}

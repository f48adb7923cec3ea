import logging
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import (Graph, LabeledDataset, MalformedInputError,
                       TrainingError, TrainConfig, composite_loss_and_grad,
                       default_config, embed, joint_p, pairwise_sq_euclidean,
                       train_full_batch, train_minibatch)
from graphtsne import trainer
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
        n = data.draw(st.integers(2, 200), label="n")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

        def affinity():
            kind = data.draw(st.sampled_from(["dense", "zero rows", "all zero"]))
            p = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 1.0))
            if kind == "zero rows":  # e.g. nodes no other node reaches
                dead = rng.random(n) < 0.3
                p[dead] = 0.0
                p[:, dead] = 0.0
            if kind == "all zero":  # a term with weight 0
                p[:] = 0.0
            # a symmetric P on 2 points equals Q: its KL is a rounding of 0
            if n > 2 and data.draw(st.booleans()):
                p = p + p.T
            np.fill_diagonal(p, 0.0)
            if p.any():
                p /= p.sum()
            if data.draw(st.booleans()):
                return AffinityMatrix(p=p, sigmas=np.full(n, np.nan))
            return p

        pg, px = affinity(), affinity()
        alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                          label="alpha")
        y = rng.normal(size=(n, 2)) * 10.0 ** data.draw(st.floats(-3.0, 1.0))
        block = data.draw(st.sampled_from([1, 3, n + 1]), label="block")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("graphtsne.affinity._ROW_BLOCK", block)
            fused = composite_loss_and_grad(pg, px, y, alpha)
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
        pg, px = rng.random((n, n)), rng.random((n, n))
        for p in (pg, px):
            np.fill_diagonal(p, 0.0)
            p /= p.sum()
        pg, px = (AffinityMatrix(p=p, sigmas=np.ones(n)) for p in (pg, px))
        y = rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            composite_loss_and_grad(pg, px, y, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestTrainConfig:
    def test_validation_catches_bad_fields(self):
        good = dict(alpha=0.5, epochs=5, hidden_dim=8, mode="full")
        TrainConfig(**good).validate()
        for bad in (dict(alpha=-0.1), dict(perplexity=1.0), dict(epochs=-1),
                    dict(mode="bogus"), dict(lr=0.0), dict(lr=float("nan")),
                    dict(lr=float("inf")), dict(perplexity=float("nan")),
                    dict(perplexity=float("inf")), dict(seed=-1)):
            cfg = TrainConfig(**{**good, **bad})
            with pytest.raises(ValueError):
                cfg.validate()

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
            calls.append((distances, calibrate(distances, perplexity)))
            return calls[-1][1]

        monkeypatch.setattr(trainer, "all_pairs_distances", hops_spy)
        monkeypatch.setattr(trainer, "joint_p", joint_p_spy)
        train_full_batch(small_sbm, TrainConfig(alpha=0.5, epochs=1, hidden_dim=4,
                                                mode="full", perplexity=5.0))
        assert len(hops) == 1 and len(calls) == 2
        assert calls[0][0] is hops[0]
        for distances, result in calls:
            assert result.n_converged > 0
            assert result.p is distances  # each distance matrix became its P

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
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="full")
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
        with pytest.raises(ValueError):
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

    def test_tiny_batches_skipped_with_warning(self, caplog):
        ds = random_dataset(8, 30, feature_dim=4, seed=14)
        # 8 nodes over 5 batches: sizes 2,2,2,1,1 -> all below 3, except none
        cfg = TrainConfig(alpha=0.5, epochs=1, hidden_dim=4, mode="minibatch",
                          batch_count=5, fanouts=(2, 2), seed=15)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(TrainingError, match="skipped"):
                train_minibatch(ds, cfg)
        assert any("skipping batch" in rec.message for rec in caplog.records)

    def test_mixed_batch_sizes_executes_large_ones(self, caplog):
        ds = random_dataset(11, 40, feature_dim=4, seed=16)
        # 11 nodes over 3 batches: sizes 4,4,3 -> all execute
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="minibatch",
                          batch_count=3, fanouts=(2, 2), seed=17)
        counted = []
        _, report = train_minibatch(ds, cfg,
                                    on_batch=lambda e, b, s, l: counted.append(b))
        assert len(counted) == 6
        assert len(report.total_losses) == 2

    def test_unconverged_batches_counted_once_per_epoch(self, caplog):
        ds = random_dataset(11, 40, feature_dim=4, seed=16)
        # batches of 3-4 nodes can never reach perplexity 30
        cfg = TrainConfig(alpha=0.5, epochs=2, hidden_dim=4, mode="minibatch",
                          batch_count=3, fanouts=(2, 2), seed=17)
        with caplog.at_level(logging.WARNING, logger="graphtsne.trainer"):
            train_minibatch(ds, cfg)
        assert [rec.message for rec in caplog.records] == [
            f"epoch {epoch}: 3 executed batch(es) have a graph or feature "
            f"affinity with no row at perplexity 30" for epoch in (0, 1)]

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
                          batch_count=4, fanouts=(3, 3), seed=19)
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
            replace(cfg, fanouts=(3, 3, 3)).validate()


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

    def test_unknown_key_names_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha = 0.5\nwat = 3\n")
        with pytest.raises(MalformedInputError, match=r"2"):
            read_config_file(p)

    def test_bad_value_names_line(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = soon\n")
        with pytest.raises(MalformedInputError, match=r"1"):
            read_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha 0.5\n")
        with pytest.raises(MalformedInputError):
            read_config_file(p)

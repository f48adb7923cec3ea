import copy
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtsne import Graph, affinity, gcn, init_model, load_model, save_model
from graphtsne.gcn import (LR_DECAY_FACTOR, LR_PATIENCE, AdamState, GcnModel,
                           _block_sum, _gate, adam_step, backward, build_batch_plan,
                           build_full_plan, forward, init_adam, maybe_decay_lr,
                           CHECKPOINT_MAGIC)
from graphtsne.graph import neighbor_subsample
from graphtsne.synthetic import random_dataset

from conftest import draw_sampled_batch, finite_difference_grads, max_relative_error
from oracles import (adam_scalar_reference, batch_plan_oracle, whole_array_backward,
                     whole_array_forward)


def tiny_instance(seed=3, n_nodes=6, in_dim=4, hidden=8):
    ds = random_dataset(n_nodes, n_nodes * 3, feature_dim=in_dim, seed=seed)
    model = init_model(in_dim, hidden, seed=seed + 1)
    plan = build_full_plan(ds.graph, model.num_layers)
    return ds, model, plan


class TestInitModel:
    def test_projection_shapes(self):
        model = init_model(1433, 128, seed=0)
        assert model.in_w.shape == (128, 1433)   # maps 1433 features to 128 units
        assert model.in_b.shape == (128,)
        assert model.out_w.shape == (2, 128)
        assert len(model.layers) == 2
        for layer in model.layers:
            for attr in ("self_w", "msg_w", "gate_dst_w", "gate_src_w"):
                assert getattr(layer, attr).shape == (128, 128)

    def test_same_seed_bit_identical(self):
        a = init_model(7, 16, seed=42)
        b = init_model(7, 16, seed=42)
        for (_, pa), (_, pb) in zip(a.named_state(), b.named_state()):
            assert np.array_equal(pa, pb)

    def test_xavier_variance(self):
        model = init_model(1000, 1000, seed=1)
        target = 2.0 / (1000 + 1000)
        assert abs(model.in_w.var() - target) / target < 0.1

    def test_bias_zero_bn_identity(self):
        model = init_model(5, 8, seed=2)
        assert np.array_equal(model.in_b, np.zeros(8))
        for layer in model.layers:
            assert np.array_equal(layer.bn_scale, np.ones(8))
            assert np.array_equal(layer.bn_shift, np.zeros(8))
            assert np.array_equal(layer.bn_mean, np.zeros(8))
            assert np.array_equal(layer.bn_var, np.ones(8))

    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            init_model(0, 8, seed=0)


class TestForward:
    def test_full_plan_reads_c_ordered_features_in_place(self):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features)
        assert trace.x_sub is ds.features
        for other in (np.asfortranarray(ds.features), ds.features[::-1]):
            _, trace = forward(model, plan, other)
            assert trace.x_sub.flags.c_contiguous and np.array_equal(trace.x_sub, other)
        batch = build_batch_plan(neighbor_subsample(ds.graph, np.array([4, 1]), (2, 2),
                                                    seed=0))
        _, trace = forward(model, batch, ds.features)
        assert np.array_equal(trace.x_sub, ds.features[batch.node_ids])

    def test_zero_conv_weights_residual_passthrough(self, rng):
        ds, model, plan = tiny_instance()
        for layer in model.layers:
            for attr in ("self_w", "msg_w", "msg_b", "gate_dst_w", "gate_dst_b",
                         "gate_src_w", "gate_src_b", "bn_scale", "bn_shift"):
                getattr(layer, attr)[:] = 0.0
        y, trace = forward(model, plan, ds.features, mode="train")
        expected_h = ds.features @ model.in_w.T + model.in_b
        assert np.allclose(trace.h_final, expected_h, atol=1e-12)
        assert np.allclose(y, expected_h @ model.out_w.T, atol=1e-12)

    def test_isolated_node_zero_aggregation(self):
        g = Graph.from_edges(3, [(0, 1)])   # node 2 isolated
        model = init_model(4, 8, seed=5)
        for layer in model.layers:
            layer.msg_b[:] = 1.0            # every edge carries a message
        plan = build_full_plan(g, model.num_layers)
        x = np.random.default_rng(0).normal(size=(3, 4))
        y, _ = forward(model, plan, x, mode="train")
        assert np.isfinite(y).all()
        # eval mode normalizes each row on its own, so a row's output moves
        # with the messages only through its own aggregation term
        y, _ = forward(model, plan, x, mode="eval")
        silent = copy.deepcopy(model)
        for layer in silent.layers:
            layer.msg_w[:] = 0.0
            layer.msg_b[:] = 0.0            # every aggregation term is 0.0
        y_silent, _ = forward(silent, plan, x, mode="eval")
        assert y[2].tobytes() == y_silent[2].tobytes()
        assert not np.array_equal(y[:2], y_silent[:2])

    def test_two_node_instance_matches_direct_formula(self):
        g = Graph.from_edges(2, [(0, 1)])
        model = init_model(2, 2, seed=9)
        rng = np.random.default_rng(11)
        for _, param in model.named_parameters():
            param[:] = rng.normal(size=param.shape) * 0.5
        x = rng.normal(size=(2, 2))
        plan = build_full_plan(g, model.num_layers)
        y, _ = forward(model, plan, x, mode="eval")

        # direct evaluation of the propagation rule with running stats
        def sigmoid(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = x @ model.in_w.T + model.in_b
        for layer in model.layers:
            nxt = np.zeros_like(h)
            for i in range(2):
                j = 1 - i   # sole neighbor
                gate = sigmoid(layer.gate_dst_w @ h[i] + layer.gate_dst_b
                               + layer.gate_src_w @ h[j] + layer.gate_src_b)
                agg = gate * (layer.msg_w @ h[j] + layer.msg_b)
                s = layer.self_w @ h[i] + agg
                xhat = (s - layer.bn_mean) / np.sqrt(layer.bn_var + 1e-5)
                z = layer.bn_scale * xhat + layer.bn_shift
                nxt[i] = np.maximum(z, 0.0) + h[i]
            h = nxt
        expected = h @ model.out_w.T
        assert np.abs(y - expected).max() <= 1e-6

    def test_eval_mode_deterministic_and_pure(self):
        ds, model, plan = tiny_instance()
        before = [np.copy(p) for _, p in model.named_state()]
        y1, _ = forward(model, plan, ds.features, mode="eval")
        y2, _ = forward(model, plan, ds.features, mode="eval")
        assert np.array_equal(y1, y2)
        for (_, after), orig in zip(model.named_state(), before):
            assert np.array_equal(after, orig)   # eval leaves running stats alone

    def test_train_mode_updates_running_stats(self):
        ds, model, plan = tiny_instance()
        before = np.copy(model.layers[0].bn_mean)
        forward(model, plan, ds.features, mode="train")
        assert not np.array_equal(model.layers[0].bn_mean, before)

    def test_gates_strictly_inside_unit_interval(self):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features, mode="train")
        for lp, lt in zip(plan.layers, trace.layers):
            gate = _gate(lt.gate_dst, lt.gate_src, lp.dst, lp.src)
            assert gate.shape == (lp.dst.size, 8)
            assert np.all(gate > 0.0) and np.all(gate < 1.0)

    def test_feature_dim_mismatch_rejected(self):
        ds, model, plan = tiny_instance()
        with pytest.raises(ValueError):
            forward(model, plan, ds.features[:, :2], mode="train")

    def test_trace_layer_count_matches_model(self):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features, mode="train")
        assert len(trace.layers) == model.num_layers


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features, mode="train")
        grads = backward(model, trace, np.zeros((ds.graph.num_nodes, 2)))
        for g in grads.values():
            assert np.array_equal(g, np.zeros_like(g))

    def test_linear_in_upstream_gradient(self, rng):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features, mode="train")
        gy = rng.normal(size=(ds.graph.num_nodes, 2))
        g1 = backward(model, trace, gy)
        g2 = backward(model, trace, 2.0 * gy)
        for name in g1:
            assert np.allclose(2.0 * g1[name], g2[name], atol=1e-12)

    def test_matches_finite_differences_full_plan(self, rng):
        ds, model, plan = tiny_instance(seed=8)
        gy = rng.normal(size=(ds.graph.num_nodes, 2))

        def loss():
            y, _ = forward(model, plan, ds.features, mode="train")
            return float((gy * y).sum())

        _, trace = forward(model, plan, ds.features, mode="train")
        grads = backward(model, trace, gy)
        names = [name for name, _ in model.named_parameters()]
        params = [p for _, p in model.named_parameters()]
        fds = finite_difference_grads(loss, params)
        for name, fd in zip(names, fds):
            assert max_relative_error(grads[name], fd) <= 1e-5, name

    def test_matches_finite_differences_subsampled_plan(self, rng):
        ds = random_dataset(20, 60, feature_dim=3, seed=14)
        model = init_model(3, 5, seed=15)
        sample = neighbor_subsample(ds.graph, np.array([0, 3, 7, 11]), (2, 3),
                                    seed=16)
        plan = build_batch_plan(sample)
        gy = rng.normal(size=(4, 2))

        def loss():
            y, _ = forward(model, plan, ds.features, mode="train")
            return float((gy * y).sum())

        _, trace = forward(model, plan, ds.features, mode="train")
        grads = backward(model, trace, gy)
        params = dict(model.named_parameters())
        assert ({name: g.shape for name, g in grads.items()}
                == {name: p.shape for name, p in params.items()})
        fds = finite_difference_grads(loss, list(params.values()))
        for name, fd in zip(params, fds):
            assert max_relative_error(grads[name], fd) <= 1e-5, name

    @pytest.mark.parametrize("batched", [False, True])
    def test_matches_finite_differences_features_wider_than_hidden(self, rng, batched):
        # 6 features to 3 hidden units: layer 1 projects its inputs, unfolded
        ds = random_dataset(20, 60, feature_dim=6, seed=17)
        model = init_model(6, 3, seed=18)
        assert not gcn._folds(model)
        if batched:
            sample = neighbor_subsample(ds.graph, np.array([1, 4, 9, 13]), (2, 3), seed=19)
            plan = build_batch_plan(sample)
        else:
            plan = build_full_plan(ds.graph, model.num_layers)
        gy = rng.normal(size=(plan.batch_size, 2))

        def loss():
            y, _ = forward(model, plan, ds.features, mode="train")
            return float((gy * y).sum())

        _, trace = forward(model, plan, ds.features, mode="train")
        grads = backward(model, trace, gy)
        params = dict(model.named_parameters())
        fds = finite_difference_grads(loss, list(params.values()))
        for name, fd in zip(params, fds):
            assert max_relative_error(grads[name], fd) <= 1e-5, name

    @pytest.mark.parametrize("in_dim, hidden", [(3, 5), (5, 3)])
    def test_no_conv_layers_is_the_projections(self, rng, in_dim, hidden):
        model = init_model(in_dim, hidden, seed=2, num_layers=0)
        plan = build_full_plan(Graph.from_edges(4, [(0, 1)]), 0)
        x = rng.normal(size=(4, in_dim))
        gy = rng.normal(size=(4, 2))
        y, trace = forward(model, plan, x)
        h = x @ model.in_w.T + model.in_b
        assert y.tobytes() == (h @ model.out_w.T).tobytes()
        grads = backward(model, trace, gy)
        assert grads.keys() == {"in_w", "in_b", "out_w"}
        assert np.allclose(grads["in_w"], (gy @ model.out_w).T @ x, atol=1e-12)

    def test_eval_trace_rejected(self):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features, mode="eval")
        with pytest.raises(ValueError):
            backward(model, trace, np.zeros((ds.graph.num_nodes, 2)))

    def test_wrong_grad_shape_rejected(self):
        ds, model, plan = tiny_instance()
        _, trace = forward(model, plan, ds.features, mode="train")
        with pytest.raises(ValueError):
            backward(model, trace, np.zeros((2, 2)))


class TestBatchPlan:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_dict_oracle(self, data):
        _, _, batch, fanouts, _, sample = draw_sampled_batch(data)
        plan = build_batch_plan(sample)
        ids = plan.node_ids
        assert np.array_equal(ids, sample.frontiers[-1])
        assert plan.batch_size == batch.size and np.array_equal(ids[:batch.size], batch)
        num_layers = len(fanouts)
        for l, (lp, (dst, src, inv_deg), (dst_g, src_g)) in enumerate(
                zip(plan.layers, batch_plan_oracle(sample), sample.layer_edges)):
            assert lp.out_size == sample.frontiers[num_layers - 1 - l].size
            assert lp.in_size == sample.frontiers[num_layers - l].size
            assert lp.dst.tolist() == dst and lp.src.tolist() == src
            # local ids map back to the sampled global ids
            assert np.array_equal(ids[lp.dst], dst_g) and np.array_equal(ids[lp.src], src_g)
            assert lp.inv_deg.tolist() == inv_deg


class TestEdgeWalks:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_each_walk_lists_every_edge_once_by_end_then_edge(self, data):
        _, graph, _, fanouts, _, sample = draw_sampled_batch(data)
        block = data.draw(st.integers(1, graph.num_nodes + 1), label="block")
        with mock.patch.object(affinity, "_ROW_BLOCK", block):
            for plan in (build_batch_plan(sample), build_full_plan(graph, len(fanouts))):
                for lp in plan.layers:
                    for walk, ends, size in ((lp.by_dst, lp.dst, lp.out_size),
                                             (lp.by_src, lp.src, lp.in_size)):
                        assert [rows for rows, _ in walk] == list(affinity.row_blocks(size))
                        for rows, edges in walk:
                            assert np.all((rows.start <= ends[edges])
                                          & (ends[edges] < rows.stop))
                        listed = [int(e) for _, edges in walk for e in edges]
                        assert listed == sorted(range(ends.size),
                                                key=lambda e: (ends[e], e))


class TestBlockSum:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_add_at_bit_for_bit(self, data):
        start = data.draw(st.integers(0, 100))  # first node of the block
        size = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 4))
        edges = data.draw(st.integers(0, 15))  # > size repeats indices
        index = np.array(data.draw(st.lists(st.integers(0, size - 1),
                                            min_size=edges, max_size=edges)),
                         dtype=np.int64)
        value = st.one_of(st.just(-0.0), st.floats(-1e6, 1e6))
        values = np.array(data.draw(st.lists(value, min_size=edges * cols,
                                             max_size=edges * cols)),
                          dtype=np.float64).reshape(edges, cols)
        # a second array summed over the same cells gets its own sums
        both = (values, -2.5 * values[::-1])
        rows = slice(start, start + size)
        for got, v in zip(_block_sum(index + start, rows, *both), both):
            expected = np.zeros((size, cols))
            np.add.at(expected, index, v)
            assert got.dtype == np.float64 and got.shape == (size, cols)
            assert got.tobytes() == expected.tobytes()  # tells -0.0 from 0.0
        [alone] = _block_sum(index + start, rows, both[1])
        assert alone.tobytes() == got.tobytes()

    def test_no_edges_give_float64_zeros(self):
        sums = list(_block_sum(np.zeros(0, dtype=np.int64), slice(64, 68),
                               np.zeros((0, 3)), np.zeros((0, 3))))
        assert len(sums) == 2
        for got in sums:
            assert got.dtype == np.float64
            assert np.array_equal(got, np.zeros((4, 3)))

    def test_edgeless_graph_forward_and_backward_finite(self, rng):
        model = init_model(3, 8, seed=1)
        plan = build_full_plan(Graph.from_edges(7, []), model.num_layers)
        y, trace = forward(model, plan, rng.normal(size=(7, 3)), mode="train")
        grads = backward(model, trace, rng.normal(size=y.shape))
        for arr in (y, *grads.values()):
            assert arr.dtype == np.float64 and np.isfinite(arr).all()


def draw_graph_and_model(data, hidden=st.integers(2, 5)):
    """A hypothesis-drawn graph of 1-90 nodes, maybe with a hub of degree
    n - 1, and a model of 3 features to 2-5 hidden units, so layer 1 folds
    the input projection or not, whose every parameter is standard normal;
    returns (n, graph, model, rng, seed)."""
    n = data.draw(st.integers(1, 90), label="n")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=3 * n), label="pairs")
    pairs = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
    if data.draw(st.booleans(), label="hub"):   # degree n - 1, > 64 from n = 66
        pairs |= {(0, j) for j in range(1, n)}
    graph = Graph.from_edges(n, sorted(pairs))  # nodes on no pair are isolated
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    model = init_model(3, data.draw(hidden, label="hidden"), seed=seed % 1000)
    for _, param in model.named_parameters():
        param[:] = rng.normal(size=param.shape)
    return n, graph, model, rng, seed


class TestBlockedPasses:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_match_whole_array_oracle_bit_for_bit(self, data):
        n, graph, model, rng, seed = draw_graph_and_model(data)
        # the full plan reads C-ordered features in place and gathers any other
        features = {"C": lambda: rng.normal(size=(n, 3)),
                    "F": lambda: np.asfortranarray(rng.normal(size=(n, 3))),
                    "strided": lambda: rng.normal(size=(n, 6))[:, ::2]}[
            data.draw(st.sampled_from(["C", "F", "strided"]), label="layout")]()
        batch = rng.choice(n, size=data.draw(st.integers(1, n)), replace=False)
        fanouts = data.draw(st.tuples(st.integers(1, 80), st.integers(1, 80)))
        sample = neighbor_subsample(graph, batch, fanouts, seed=seed)
        builders = (lambda: build_full_plan(graph, model.num_layers),
                    lambda: build_batch_plan(sample))      # src in sampled order

        for build in builders:
            plan = build()
            want_model = copy.deepcopy(model)
            want_y, want_trace = whole_array_forward(want_model, plan, features)
            grad_y = rng.normal(size=want_y.shape)
            want = whole_array_backward(want_model, want_trace, grad_y)
            want_eval, _ = whole_array_forward(want_model, plan, features, mode="eval")
            for block in (affinity._ROW_BLOCK, 1, 3, n + 1):
                got_model = copy.deepcopy(model)
                with mock.patch.object(affinity, "_ROW_BLOCK", block):
                    plan = build()      # a plan cuts its edge walks into blocks
                    y, trace = forward(got_model, plan, features)
                    grads = backward(got_model, trace, grad_y)
                    y_eval, _ = forward(got_model, plan, features, mode="eval")
                assert y.tobytes() == want_y.tobytes()
                assert grads.keys() == want.keys()
                for name in want:
                    assert grads[name].tobytes() == want[name].tobytes(), name
                for (name, got), (_, ref) in zip(got_model.named_state(),
                                                 want_model.named_state()):
                    assert got.tobytes() == ref.tobytes(), name
                assert y_eval.tobytes() == want_eval.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_factored_gate_gradients_match_per_edge_sums(self, data):
        n, graph, model, rng, seed = draw_graph_and_model(data)
        batch = rng.choice(n, size=data.draw(st.integers(1, n)), replace=False)
        sample = neighbor_subsample(graph, batch, (80, 80), seed=seed)
        for plan in (build_full_plan(graph, model.num_layers), build_batch_plan(sample)):
            y, trace = whole_array_forward(copy.deepcopy(model), plan, rng.normal(size=(n, 3)))
            grad_y = rng.normal(size=y.shape)
            factored = whole_array_backward(model, trace, grad_y)
            per_edge = whole_array_backward(model, trace, grad_y, per_edge=True)
            scale = max(np.abs(g).max() for g in per_edge.values())
            for name, want in per_edge.items():
                assert np.abs(factored[name] - want).max() <= 1e-12 * scale, name

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_folded_layer_one_matches_unfolded_formulas(self, data):
        # 3 features to 4-5 hidden units: layer 1 folds the input projection
        n, graph, model, rng, seed = draw_graph_and_model(data, hidden=st.integers(4, 5))
        assert gcn._folds(model)
        features = rng.normal(size=(n, 3))
        batch = rng.choice(n, size=data.draw(st.integers(1, n)), replace=False)
        sample = neighbor_subsample(graph, batch, (80, 80), seed=seed)
        for plan in (build_full_plan(graph, model.num_layers), build_batch_plan(sample)):
            grad_y = rng.normal(size=(plan.batch_size, 2))
            passes = []
            for fold in (True, False):
                pass_model = copy.deepcopy(model)
                with mock.patch.object(gcn, "_folds", return_value=fold):
                    y, trace = forward(pass_model, plan, features)
                    grads = backward(pass_model, trace, grad_y)
                    y_eval, _ = forward(pass_model, plan, features, mode="eval")
                passes.append((y, y_eval, grads, pass_model))
            (y, y_eval, got, got_model), (want_y, want_eval, want, want_model) = passes
            for a, b in ((y, want_y), (y_eval, want_eval)):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()
            scale = max(np.abs(g).max() for g in want.values())
            for name, g in want.items():
                assert np.abs(got[name] - g).max() <= 1e-12 * scale, name
            for (name, a), (_, b) in zip(got_model.named_state(), want_model.named_state()):
                assert np.abs(a - b).max() <= 1e-12 * max(np.abs(b).max(), 1.0), name

    @pytest.mark.parametrize("batched", [False, True])
    def test_matches_finite_differences_across_blocks(self, rng, batched):
        # node 0 is a hub of degree 66 over 3-node blocks, node 67 is isolated
        pairs = [(0, j) for j in range(1, 67)] + [(j, j + 1) for j in range(1, 66, 4)]
        graph = Graph.from_edges(68, pairs)
        features = rng.normal(size=(68, 2))
        model = init_model(2, 3, seed=5)
        for _, param in model.named_parameters():
            param[:] = rng.normal(size=param.shape)
        with mock.patch.object(affinity, "_ROW_BLOCK", 3):   # walks of 3-node blocks
            if batched:
                sample = neighbor_subsample(graph, np.array([0, 5, 67]), (70, 3), seed=6)
                plan = build_batch_plan(sample)
            else:
                plan = build_full_plan(graph, model.num_layers)
        gy = rng.normal(size=(plan.batch_size, 2))

        def loss():
            y, _ = forward(model, plan, features, mode="train")
            return float((gy * y).sum())

        params = dict(model.named_parameters())
        _, trace = forward(model, plan, features, mode="train")
        grads = backward(model, trace, gy)
        fds = finite_difference_grads(loss, list(params.values()))
        for name, fd in zip(params, fds):
            assert max_relative_error(grads[name], fd) <= 1e-5, name


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        model = init_model(3, 4, seed=20)
        state = init_adam(model, lr=0.1)
        before = [np.copy(p) for _, p in model.named_parameters()]
        grads = {name: np.zeros_like(p) for name, p in model.named_parameters()}
        adam_step(state, model, grads)
        for (_, after), orig in zip(model.named_parameters(), before):
            assert np.array_equal(after, orig)

    def test_first_step_magnitude_is_learning_rate(self):
        model = init_model(3, 4, seed=21)
        state = init_adam(model, lr=0.05)
        before = np.copy(model.in_w)
        grads = {name: np.ones_like(p) for name, p in model.named_parameters()}
        adam_step(state, model, grads)
        step = before - model.in_w
        assert np.allclose(step, 0.05, rtol=1e-6)

    def test_three_steps_match_scalar_oracle(self):
        model = init_model(1, 1, seed=22)
        # collapse to a single scalar parameter trajectory on in_b
        model.in_b[:] = 0.0
        state = init_adam(model, lr=0.01)
        gs = [0.3, -0.2, 0.7]
        seen = []
        for g in gs:
            grads = {name: np.zeros_like(p) for name, p in model.named_parameters()}
            grads["in_b"][:] = g
            adam_step(state, model, grads)
            seen.append(float(model.in_b[0]))
        expected = adam_scalar_reference(gs, lr=0.01)
        assert np.allclose(seen, expected, atol=1e-12)

    def test_shared_step_counter_across_parameters(self):
        # moment estimates for untouched parameters stay zero, so later
        # gradients there still take full-size first steps
        model = init_model(2, 3, seed=23)
        state = init_adam(model, lr=0.01)
        grads = {name: np.zeros_like(p) for name, p in model.named_parameters()}
        grads["in_w"][:] = 1.0
        adam_step(state, model, grads)
        assert state.step == 1
        assert np.array_equal(state.m["out_w"], np.zeros_like(model.out_w))


class TestLrDecay:
    def test_single_decay_quotient(self):
        state = AdamState(lr=0.00075)
        state.best_loss = 1.0
        for _ in range(5):
            maybe_decay_lr(state, 1.0)
        assert state.lr == pytest.approx(0.0006, rel=1e-12)

    def test_strictly_decreasing_never_decays(self):
        state = AdamState(lr=0.1)
        losses = [1.0 / (t + 1) for t in range(20)]
        decays = [maybe_decay_lr(state, loss) for loss in losses]
        assert not any(decays)
        assert state.lr == 0.1

    def test_constant_loss_two_patience_windows_two_decays(self):
        state = AdamState(lr=0.1)
        decays = sum(maybe_decay_lr(state, 2.5) for _ in range(2 * LR_PATIENCE))
        assert decays == 2
        assert state.lr == pytest.approx(0.1 / LR_DECAY_FACTOR ** 2, rel=1e-12)

    def test_improvement_resets_counter(self):
        state = AdamState(lr=0.1)
        for _ in range(LR_PATIENCE - 1):
            assert not maybe_decay_lr(state, 5.0)
        assert not maybe_decay_lr(state, 4.0)   # improvement: counter resets
        assert state.stale_epochs == 0
        for _ in range(LR_PATIENCE - 1):
            assert not maybe_decay_lr(state, 4.0)
        decayed = maybe_decay_lr(state, 4.0)
        assert decayed and state.lr == pytest.approx(0.1 / LR_DECAY_FACTOR)


class TestCheckpoint:
    def test_roundtrip_preserves_all_tensors(self, tmp_path):
        ds, model, plan = tiny_instance()
        forward(model, plan, ds.features, mode="train")  # move running stats
        path = tmp_path / "model.gtsne"
        save_model(model, path)
        loaded = load_model(path)
        for (na, a), (nb, b) in zip(model.named_state(), loaded.named_state()):
            assert na == nb
            assert np.array_equal(a, b), na

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    def test_roundtrip_bit_identical_property(self, input_dim, hidden_dim,
                                              num_layers, seed):
        model = init_model(input_dim, hidden_dim, seed=0, num_layers=num_layers)
        rng = np.random.default_rng(seed)
        special = [0.0, -0.0, 5e-324, -1e-310, np.inf, -np.inf, np.nan,
                   np.finfo(np.float64).max]
        for _, arr in model.named_state():
            arr[:] = rng.normal(size=arr.shape) * 10.0 ** rng.integers(-300, 300,
                                                                        size=arr.shape)
            mask = rng.random(arr.shape) < 0.2
            arr[mask] = rng.choice(special, size=int(mask.sum()))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.gtsne")
            save_model(model, path)
            loaded = load_model(path)
        assert loaded.num_layers == num_layers
        saved, read = list(model.named_state()), list(loaded.named_state())
        assert [name for name, _ in saved] == [name for name, _ in read]
        for (name, a), (_, b) in zip(saved, read):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    def test_magic_string_written(self, tmp_path):
        model = init_model(3, 4, seed=30)
        path = tmp_path / "model.gtsne"
        save_model(model, path)
        assert path.read_bytes().startswith(CHECKPOINT_MAGIC)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.gtsne"
        path.write_bytes(b"NOTGTSNE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="GTSNE1"):
            load_model(path)

    def test_missing_array_named(self, tmp_path, monkeypatch):
        model = init_model(3, 4, seed=30)
        state = [item for item in model.named_state() if item[0] != "layer2.msg_b"]
        monkeypatch.setattr(GcnModel, "named_state", lambda self: iter(state))
        save_model(model, tmp_path / "model.gtsne")
        monkeypatch.undo()
        with pytest.raises(ValueError, match="model.gtsne: no array layer2.msg_b"):
            load_model(tmp_path / "model.gtsne")

    def test_removed_bias_arrays_ignored(self, tmp_path, monkeypatch):
        """A checkpoint that still holds the biases self_b and out_b loads."""
        model = init_model(3, 4, seed=30)
        state = []
        for name, arr in model.named_state():
            state.append((name, arr))
            if name.endswith("self_w"):
                state.append((name.replace("self_w", "self_b"), np.ones(4)))
            elif name == "out_w":
                state.append(("out_b", np.ones(2)))
        monkeypatch.setattr(GcnModel, "named_state", lambda self: iter(state))
        save_model(model, tmp_path / "model.gtsne")
        monkeypatch.undo()
        loaded = load_model(tmp_path / "model.gtsne")
        for (na, a), (nb, b) in zip(model.named_state(), loaded.named_state()):
            assert na == nb
            assert np.array_equal(a, b), na

    def test_loaded_model_embeds_identically(self, tmp_path):
        ds, model, plan = tiny_instance()
        forward(model, plan, ds.features, mode="train")
        y1, _ = forward(model, plan, ds.features, mode="eval")
        path = tmp_path / "model.gtsne"
        save_model(model, path)
        loaded = load_model(path)
        y2, _ = forward(loaded, plan, ds.features, mode="eval")
        assert np.array_equal(y1, y2)

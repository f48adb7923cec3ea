"""Residual gated graph convolutional network with exact manual backprop.

The network is an input projection (features -> hidden), a stack of gated
conv layers with residual connections and batch normalization, and a linear
output projection (hidden -> 2). Each conv layer computes

    h_i' = ReLU(BN(self_w h_i + mean_{j in n(i)} gate_ij * (msg_w h_j))) + h_i

where the per-edge gate is sigmoid(gate_dst_w h_i + gate_src_w h_j) and
n(i) are the (possibly subsampled) neighbors of i. Nodes with no neighbors
use a zero aggregation term. All math is float64; gradients are exact
(validated against central finite differences in the test suite).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, SubsampledBatch

BN_EPS = 1e-5
BN_MOMENTUM = 0.1

CHECKPOINT_MAGIC = b"GTSNE1\n"


def _xavier(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


@dataclass
class ConvLayer:
    """Parameters of one gated conv layer. Weights are (out, in); apply as h @ w.T + b."""

    self_w: np.ndarray
    self_b: np.ndarray
    msg_w: np.ndarray
    msg_b: np.ndarray
    gate_dst_w: np.ndarray
    gate_dst_b: np.ndarray
    gate_src_w: np.ndarray
    gate_src_b: np.ndarray
    bn_scale: np.ndarray
    bn_shift: np.ndarray
    bn_mean: np.ndarray
    bn_var: np.ndarray


@dataclass
class GcnModel:
    input_dim: int
    hidden_dim: int
    out_dim: int
    in_w: np.ndarray
    in_b: np.ndarray
    layers: list
    out_w: np.ndarray
    out_b: np.ndarray

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def named_parameters(self):
        """(name, array) pairs for every trainable tensor, in a fixed order."""
        yield "in_w", self.in_w
        yield "in_b", self.in_b
        for l, layer in enumerate(self.layers, start=1):
            for attr in ("self_w", "self_b", "msg_w", "msg_b", "gate_dst_w",
                         "gate_dst_b", "gate_src_w", "gate_src_b",
                         "bn_scale", "bn_shift"):
                yield f"layer{l}.{attr}", getattr(layer, attr)
        yield "out_w", self.out_w
        yield "out_b", self.out_b

    def named_state(self):
        """All tensors including batch-norm running statistics."""
        yield from self.named_parameters()
        for l, layer in enumerate(self.layers, start=1):
            yield f"layer{l}.bn_mean", layer.bn_mean
            yield f"layer{l}.bn_var", layer.bn_var


def init_model(input_dim: int, hidden_dim: int, seed: int,
               num_layers: int = 2, out_dim: int = 2) -> GcnModel:
    """Xavier-uniform weights, zero biases, identity batch-norm state."""
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("input_dim and hidden_dim must be >= 1")
    rng = np.random.default_rng(seed)
    h = hidden_dim
    layers = []
    for _ in range(num_layers):
        layers.append(ConvLayer(
            self_w=_xavier(rng, h, h), self_b=np.zeros(h),
            msg_w=_xavier(rng, h, h), msg_b=np.zeros(h),
            gate_dst_w=_xavier(rng, h, h), gate_dst_b=np.zeros(h),
            gate_src_w=_xavier(rng, h, h), gate_src_b=np.zeros(h),
            bn_scale=np.ones(h), bn_shift=np.zeros(h),
            bn_mean=np.zeros(h), bn_var=np.ones(h)))
    return GcnModel(
        input_dim=input_dim, hidden_dim=hidden_dim, out_dim=out_dim,
        in_w=_xavier(rng, h, input_dim), in_b=np.zeros(h),
        layers=layers,
        out_w=_xavier(rng, out_dim, h), out_b=np.zeros(out_dim))


# ---------------------------------------------------------------------------
# Propagation plans: a graph (or subsampled batch) compiled to local-index
# edge arrays with the groupings the forward/backward passes need.
# ---------------------------------------------------------------------------

@dataclass
class LayerPlan:
    out_size: int            # nodes computed by this layer (prefix of the node order)
    in_size: int             # nodes available at the layer input
    dst: np.ndarray          # (E,) local dst ids, ascending
    src: np.ndarray          # (E,) local src ids
    dst_rows: np.ndarray     # distinct dst ids with at least one edge
    dst_starts: np.ndarray   # reduceat starts into the dst-sorted edge order
    src_order: np.ndarray    # permutation sorting edges by src
    src_rows: np.ndarray
    src_starts: np.ndarray
    inv_deg: np.ndarray      # (out_size,) 1/|n(i)| over sampled neighbors, 0 if none


@dataclass
class PropagationPlan:
    node_ids: np.ndarray     # global ids of the input frontier; batch nodes first
    layers: list             # LayerPlan per conv layer, bottom (layer 1) first
    batch_size: int          # rows of node_ids that receive output coordinates


def _group_edges(dst: np.ndarray, src: np.ndarray, out_size: int,
                 in_size: int) -> LayerPlan:
    order = np.lexsort((src, dst))
    dst = dst[order]
    src = src[order]
    if dst.size:
        dst_rows, dst_starts, counts = np.unique(dst, return_index=True,
                                                 return_counts=True)
    else:
        dst_rows = np.empty(0, np.int64)
        dst_starts = np.empty(0, np.int64)
        counts = np.empty(0, np.int64)
    inv_deg = np.zeros(out_size)
    inv_deg[dst_rows] = 1.0 / counts
    src_order = np.argsort(src, kind="stable")
    if src.size:
        src_rows, src_starts = np.unique(src[src_order], return_index=True)
    else:
        src_rows = np.empty(0, np.int64)
        src_starts = np.empty(0, np.int64)
    return LayerPlan(out_size=out_size, in_size=in_size, dst=dst, src=src,
                     dst_rows=dst_rows, dst_starts=dst_starts,
                     src_order=src_order, src_rows=src_rows,
                     src_starts=src_starts, inv_deg=inv_deg)


def build_full_plan(graph: Graph, num_layers: int) -> PropagationPlan:
    """Plan for a full-graph forward pass: every layer sees every node and edge."""
    n = graph.num_nodes
    degrees = graph.degrees()
    dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
    src = graph.neighbors.astype(np.int64)
    layer = _group_edges(dst, src, n, n)
    return PropagationPlan(node_ids=np.arange(n, dtype=np.int64),
                           layers=[layer] * num_layers, batch_size=n)


def build_batch_plan(batch: SubsampledBatch) -> PropagationPlan:
    """Plan for a subsampled mini-batch forward pass (local indices, nested frontiers)."""
    num_layers = batch.num_layers
    node_ids = batch.frontiers[-1]
    lookup = {int(g): i for i, g in enumerate(node_ids.tolist())}
    layers = []
    for l in range(num_layers):  # conv layer l+1; frontier index from the bottom
        dst_g, src_g = batch.layer_edges[l]
        out_size = batch.frontiers[num_layers - 1 - l].size
        in_size = batch.frontiers[num_layers - l].size
        dst = np.fromiter((lookup[int(v)] for v in dst_g), np.int64, dst_g.size)
        src = np.fromiter((lookup[int(v)] for v in src_g), np.int64, src_g.size)
        layers.append(_group_edges(dst, src, out_size, in_size))
    return PropagationPlan(node_ids=node_ids, layers=layers,
                           batch_size=batch.batch_nodes.size)


def _segment_sum(values: np.ndarray, starts: np.ndarray, rows: np.ndarray,
                 out_rows: int) -> np.ndarray:
    out = np.zeros((out_rows, values.shape[1]))
    if values.shape[0]:
        out[rows] = np.add.reduceat(values, starts, axis=0)
    return out


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _LayerTrace:
    h_in: np.ndarray
    gate: np.ndarray        # sigmoid output per edge
    msg_in: np.ndarray      # msg_w h + msg_b for all input nodes
    agg: np.ndarray         # mean-aggregated gated messages
    x_hat: np.ndarray       # batch-norm normalized pre-activation
    inv_std: np.ndarray
    relu_mask: np.ndarray


@dataclass
class ForwardTrace:
    plan: PropagationPlan
    x_sub: np.ndarray
    layers: list = field(default_factory=list)
    h_final: np.ndarray | None = None
    train_mode: bool = True


def forward(model: GcnModel, plan: PropagationPlan, features: np.ndarray,
            mode: str = "train") -> tuple[np.ndarray, ForwardTrace]:
    """Run the network over a propagation plan.

    ``features`` is the full N x n feature matrix; rows are gathered via
    ``plan.node_ids``. Returns the (batch_size, out_dim) coordinates of the
    batch nodes and a trace sufficient for the backward pass. Train mode
    normalizes with batch statistics and updates the running estimates;
    eval mode uses the stored running statistics.
    """
    if mode not in ("train", "eval"):
        raise ValueError("mode must be 'train' or 'eval'")
    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != model.input_dim:
        raise ValueError(f"feature dim {features.shape[1]} != model input dim "
                         f"{model.input_dim}")
    if len(plan.layers) != model.num_layers:
        raise ValueError("plan layer count does not match the model")
    train = mode == "train"

    x_sub = features[plan.node_ids]
    h = x_sub @ model.in_w.T + model.in_b
    trace = ForwardTrace(plan=plan, x_sub=x_sub, train_mode=train)

    for layer, lp in zip(model.layers, plan.layers):
        h_in = h
        out_n = lp.out_size
        self_term = h_in[:out_n] @ layer.self_w.T + layer.self_b
        gate_dst = h_in[:out_n] @ layer.gate_dst_w.T + layer.gate_dst_b
        gate_src = h_in @ layer.gate_src_w.T + layer.gate_src_b
        msg_in = h_in @ layer.msg_w.T + layer.msg_b

        gate = 1.0 / (1.0 + np.exp(-(gate_dst[lp.dst] + gate_src[lp.src])))
        agg = _segment_sum(gate * msg_in[lp.src], lp.dst_starts, lp.dst_rows, out_n)
        agg *= lp.inv_deg[:, None]

        s = self_term + agg
        if train:
            mu = s.mean(axis=0)
            var = s.var(axis=0)
            layer.bn_mean[:] = (1.0 - BN_MOMENTUM) * layer.bn_mean + BN_MOMENTUM * mu
            layer.bn_var[:] = (1.0 - BN_MOMENTUM) * layer.bn_var + BN_MOMENTUM * var
        else:
            mu, var = layer.bn_mean, layer.bn_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (s - mu) * inv_std
        z = layer.bn_scale * x_hat + layer.bn_shift
        relu_mask = z > 0.0
        h = np.where(relu_mask, z, 0.0) + h_in[:out_n]
        trace.layers.append(_LayerTrace(h_in=h_in, gate=gate, msg_in=msg_in,
                                        agg=agg, x_hat=x_hat, inv_std=inv_std,
                                        relu_mask=relu_mask))
    trace.h_final = h
    y = h[:plan.batch_size] @ model.out_w.T + model.out_b
    return y, trace


def backward(model: GcnModel, trace: ForwardTrace,
             grad_y: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of sum_i grad_y_i . y_i with respect to every parameter.

    Requires a trace from a train-mode forward (batch-norm statistics are
    differentiated through). Returns a dict keyed like named_parameters().
    """
    if not trace.train_mode:
        raise ValueError("backward requires a train-mode forward trace")
    grad_y = np.asarray(grad_y, dtype=np.float64)
    plan = trace.plan
    if grad_y.shape != (plan.batch_size, model.out_dim):
        raise ValueError("grad_y shape does not match the plan batch")

    grads = {name: np.zeros_like(arr) for name, arr in model.named_parameters()}

    grads["out_w"] += grad_y.T @ trace.h_final[:plan.batch_size]
    grads["out_b"] += grad_y.sum(axis=0)
    dh = np.zeros_like(trace.h_final)
    dh[:plan.batch_size] = grad_y @ model.out_w

    for l in range(model.num_layers - 1, -1, -1):
        layer = model.layers[l]
        lp = plan.layers[l]
        lt = trace.layers[l]
        out_n = lp.out_size
        prefix = f"layer{l + 1}."

        dz = np.where(lt.relu_mask, dh, 0.0)

        # batch norm backward (batch statistics, biased variance)
        grads[prefix + "bn_scale"] += (dz * lt.x_hat).sum(axis=0)
        grads[prefix + "bn_shift"] += dz.sum(axis=0)
        dxhat = dz * layer.bn_scale
        b = float(out_n)
        ds = (lt.inv_std / b) * (b * dxhat - dxhat.sum(axis=0)
                                 - lt.x_hat * (dxhat * lt.x_hat).sum(axis=0))

        # self transform path
        grads[prefix + "self_w"] += ds.T @ lt.h_in[:out_n]
        grads[prefix + "self_b"] += ds.sum(axis=0)
        dh_in = np.zeros_like(lt.h_in)
        dh_in[:out_n] += ds @ layer.self_w
        dh_in[:out_n] += dh  # residual connection

        # aggregation path
        dagg = ds * lp.inv_deg[:, None]
        dmsg_edge = dagg[lp.dst]
        dgate = dmsg_edge * lt.msg_in[lp.src]
        dmsg_src_edge = dmsg_edge * lt.gate
        dpre = dgate * lt.gate * (1.0 - lt.gate)

        dmsg_in = _segment_sum(dmsg_src_edge[lp.src_order], lp.src_starts,
                               lp.src_rows, lp.in_size)
        dgate_dst = _segment_sum(dpre, lp.dst_starts, lp.dst_rows, out_n)
        dgate_src = _segment_sum(dpre[lp.src_order], lp.src_starts,
                                 lp.src_rows, lp.in_size)

        grads[prefix + "msg_w"] += dmsg_in.T @ lt.h_in
        grads[prefix + "msg_b"] += dmsg_in.sum(axis=0)
        grads[prefix + "gate_dst_w"] += dgate_dst.T @ lt.h_in[:out_n]
        grads[prefix + "gate_dst_b"] += dgate_dst.sum(axis=0)
        grads[prefix + "gate_src_w"] += dgate_src.T @ lt.h_in
        grads[prefix + "gate_src_b"] += dgate_src.sum(axis=0)

        dh_in += dmsg_in @ layer.msg_w
        dh_in[:out_n] += dgate_dst @ layer.gate_dst_w
        dh_in += dgate_src @ layer.gate_src_w
        dh = dh_in

    grads["in_w"] += dh.T @ trace.x_sub
    grads["in_b"] += dh.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Adam optimizer with plateau learning-rate decay
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    patience: int = 5
    decay_factor: float = 1.25
    best_loss: float | None = None
    stale_epochs: int = 0


def init_adam(model: GcnModel, lr: float) -> AdamState:
    state = AdamState(lr=lr)
    for name, arr in model.named_parameters():
        state.m[name] = np.zeros_like(arr)
        state.v[name] = np.zeros_like(arr)
    return state


def adam_step(state: AdamState, model: GcnModel, grads: dict) -> None:
    """One Adam update with bias correction; parameters updated in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, param in model.named_parameters():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        param -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def maybe_decay_lr(state: AdamState, epoch_loss: float) -> bool:
    """Plateau scheduler; call once per epoch. Returns True when the rate decayed.

    An epoch counts as stale unless its loss strictly improves on the best
    seen so far (the first epoch, having nothing to improve on, is stale).
    After ``patience`` consecutive stale epochs the learning rate is divided
    by ``decay_factor`` and the counter resets.
    """
    improved = state.best_loss is not None and epoch_loss < state.best_loss
    if state.best_loss is None or epoch_loss < state.best_loss:
        state.best_loss = epoch_loss
    if improved:
        state.stale_epochs = 0
        return False
    state.stale_epochs += 1
    if state.stale_epochs >= state.patience:
        state.lr /= state.decay_factor
        state.stale_epochs = 0
        return True
    return False


# ---------------------------------------------------------------------------
# Checkpoint format: magic, JSON header (names/shapes/dtypes/offsets), blobs
# ---------------------------------------------------------------------------

def save_model(model: GcnModel, path) -> None:
    """Write all model tensors (including batch-norm running stats) to one file.

    Layout: the magic string "GTSNE1\\n", an 8-byte little-endian header
    length, a JSON header with model dims and per-array name/shape/dtype/
    offset, then the raw little-endian C-order array bytes.
    """
    arrays = list(model.named_state())
    entries = []
    offset = 0
    for name, arr in arrays:
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": str(arr.dtype), "offset": offset})
        offset += arr.nbytes
    header = json.dumps({
        "format_version": 1,
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "out_dim": model.out_dim,
        "num_layers": model.num_layers,
        "arrays": entries,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr).tobytes())


def load_model(path) -> GcnModel:
    """Read a checkpoint written by save_model; validates the magic string."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a GTSNE1 checkpoint")
        header_len = int.from_bytes(fh.read(8), "little")
        header = json.loads(fh.read(header_len).decode("utf-8"))
        if header.get("format_version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version")
        blob = fh.read()
    entries = {entry["name"]: entry for entry in header["arrays"]}
    model = init_model(header["input_dim"], header["hidden_dim"], seed=0,
                       num_layers=header["num_layers"], out_dim=header["out_dim"])
    for name, arr in model.named_state():
        entry = entries[name]
        shape = tuple(entry["shape"])
        arr[:] = np.frombuffer(blob, dtype=entry["dtype"], count=int(np.prod(shape)),
                               offset=entry["offset"]).reshape(shape)
    return model

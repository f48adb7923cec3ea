"""Residual gated graph convolutional network with exact manual backprop.

The network is an input projection (features -> hidden), a stack of gated
conv layers with residual connections and batch normalization, and a linear
output projection (hidden -> 2). Each conv layer computes

    h_i' = ReLU(BN(self_w h_i + mean_{j in n(i)} gate_ij * (msg_w h_j))) + h_i

where the per-edge gate is sigmoid(gate_dst_w h_i + gate_src_w h_j) and
n(i) are the (possibly subsampled) neighbors of i. Nodes with no neighbors
use a zero aggregation term. All math is float64; gradients are exact
(validated against central finite differences in the test suite).

Every per-edge term is made for the edges of one 64-node slice of
``affinity.row_blocks`` at a time, so no pass holds an array of all edges
by hidden units. The forward pass walks the edges by destination block and
sums, besides each node's gated messages, its gate slope msg * gate *
(1 - gate), from which the backward pass gets the destination gate
gradient with no edge walk. The backward pass walks the edges once, by
source block, recomputing the gates from the per-node gate terms kept in
the trace. Each node's edge terms are added one after another in edge
order, from 0.0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .affinity import row_blocks
from .graph import Graph, SubsampledBatch

NUM_LAYERS = 2
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LR_PATIENCE = 5
LR_DECAY_FACTOR = 1.25

CHECKPOINT_MAGIC = b"GTSNE1\n"


def _xavier(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_out, fan_in))


@dataclass
class ConvLayer:
    """Parameters of one gated conv layer. Weights are (out, in); apply as h @ w.T + b
    (``self_w`` has no b: batch norm would subtract it again)."""

    self_w: np.ndarray
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
    out_w: np.ndarray        # no bias: the loss sees only differences between points

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def named_parameters(self):
        """(name, array) pairs for every trainable tensor, in a fixed order."""
        yield "in_w", self.in_w
        yield "in_b", self.in_b
        for l, layer in enumerate(self.layers, start=1):
            for attr in ("self_w", "msg_w", "msg_b", "gate_dst_w", "gate_dst_b",
                         "gate_src_w", "gate_src_b", "bn_scale", "bn_shift"):
                yield f"layer{l}.{attr}", getattr(layer, attr)
        yield "out_w", self.out_w

    def named_state(self):
        """All tensors including batch-norm running statistics."""
        yield from self.named_parameters()
        for l, layer in enumerate(self.layers, start=1):
            yield f"layer{l}.bn_mean", layer.bn_mean
            yield f"layer{l}.bn_var", layer.bn_var


def init_model(input_dim: int, hidden_dim: int, seed: int,
               num_layers: int = NUM_LAYERS, out_dim: int = 2) -> GcnModel:
    """Xavier-uniform weights, zero biases, identity batch-norm state."""
    if input_dim < 1 or hidden_dim < 1:
        raise ValueError("input_dim and hidden_dim must be >= 1")
    rng = np.random.default_rng(seed)
    h = hidden_dim
    layers = []
    for _ in range(num_layers):
        layers.append(ConvLayer(
            self_w=_xavier(rng, h, h),
            msg_w=_xavier(rng, h, h), msg_b=np.zeros(h),
            gate_dst_w=_xavier(rng, h, h), gate_dst_b=np.zeros(h),
            gate_src_w=_xavier(rng, h, h), gate_src_b=np.zeros(h),
            bn_scale=np.ones(h), bn_shift=np.zeros(h),
            bn_mean=np.zeros(h), bn_var=np.ones(h)))
    return GcnModel(
        input_dim=input_dim, hidden_dim=hidden_dim, out_dim=out_dim,
        in_w=_xavier(rng, h, input_dim), in_b=np.zeros(h),
        layers=layers,
        out_w=_xavier(rng, out_dim, h))


# ---------------------------------------------------------------------------
# Propagation plans: a graph (or subsampled batch) compiled to local-index
# edge arrays; the passes sum edge terms into nodes by endpoint index.
# ---------------------------------------------------------------------------

@dataclass
class LayerPlan:
    out_size: int            # nodes computed by this layer (prefix of the node order)
    in_size: int             # nodes available at the layer input
    dst: np.ndarray          # (E,) local dst ids
    src: np.ndarray          # (E,) local src ids
    inv_deg: np.ndarray      # (out_size,) 1/|n(i)| over sampled neighbors, 0 if none


@dataclass
class PropagationPlan:
    node_ids: np.ndarray     # global ids of the input frontier; batch nodes first
    layers: list             # LayerPlan per conv layer, bottom (layer 1) first
    batch_size: int          # rows of node_ids that receive output coordinates


def _layer_plan(dst: np.ndarray, src: np.ndarray, out_size: int,
                in_size: int) -> LayerPlan:
    counts = np.bincount(dst, minlength=out_size)
    inv_deg = np.divide(1.0, counts, out=np.zeros(out_size), where=counts > 0)
    return LayerPlan(out_size=out_size, in_size=in_size, dst=dst, src=src,
                     inv_deg=inv_deg)


def build_full_plan(graph: Graph, num_layers: int) -> PropagationPlan:
    """Plan for a full-graph forward pass: every layer sees every node and edge."""
    n = graph.num_nodes
    degrees = graph.degrees()
    dst = np.repeat(np.arange(n, dtype=np.int64), degrees)
    src = graph.neighbors.astype(np.int64)
    layer = _layer_plan(dst, src, n, n)
    return PropagationPlan(node_ids=np.arange(n, dtype=np.int64),
                           layers=[layer] * num_layers, batch_size=n)


def build_batch_plan(batch: SubsampledBatch) -> PropagationPlan:
    """Plan for a subsampled mini-batch forward pass (local indices, nested frontiers)."""
    num_layers = batch.num_layers
    node_ids = batch.frontiers[-1]
    order = np.argsort(node_ids)    # global id -> local id: order[searchsorted]
    sorted_ids = node_ids[order]
    layers = []
    for l in range(num_layers):  # conv layer l+1; frontier index from the bottom
        dst_g, src_g = batch.layer_edges[l]
        out_size = batch.frontiers[num_layers - 1 - l].size
        in_size = batch.frontiers[num_layers - l].size
        dst = order[np.searchsorted(sorted_ids, dst_g)]
        src = order[np.searchsorted(sorted_ids, src_g)]
        layers.append(_layer_plan(dst, src, out_size, in_size))
    return PropagationPlan(node_ids=node_ids, layers=layers,
                           batch_size=batch.batch_nodes.size)


def _edge_blocks(ends: np.ndarray, size: int) -> list:
    """(rows, edge ids) for each slice of ``row_blocks(size)``: the edges whose
    ``ends`` lie in rows, ordered by end node and within one node by edge."""
    order = np.argsort(ends, kind="stable")
    blocks = list(row_blocks(size))
    cuts = np.searchsorted(ends[order], [rows.stop for rows in blocks])
    return [(rows, order[lo:hi])
            for rows, lo, hi in zip(blocks, [0, *cuts[:-1]], cuts)]


def _block_sum(ends: np.ndarray, rows: slice, *values: np.ndarray) -> list:
    """Per array of ``values``, all (E, cols), the (len(rows), cols) sums of
    its rows into the nodes ``rows`` by their ``ends``, each node's terms
    added one after another from 0.0; a node no value ends at gets 0.0. The
    arrays share one table of bincount cells."""
    cols = values[0].shape[1]
    cells = ((ends - rows.start)[:, None] * cols + np.arange(cols)).ravel()
    size = (rows.stop - rows.start) * cols
    # with no input bincount returns int64 zeros, whatever the weights' dtype
    return [np.bincount(cells, weights=v.ravel(), minlength=size).astype(
        np.float64, copy=False).reshape(-1, cols) for v in values]


def _gate(gate_dst: np.ndarray, gate_src: np.ndarray, dst: np.ndarray,
          src: np.ndarray) -> np.ndarray:
    """sigmoid(gate_dst[dst] + gate_src[src]) for the given edges."""
    gate = gate_dst[dst]
    gate += gate_src[src]
    np.negative(gate, out=gate)
    np.exp(gate, out=gate)
    gate += 1.0
    return np.divide(1.0, gate, out=gate)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class _LayerTrace:
    h_in: np.ndarray
    gate_dst: np.ndarray    # gate_dst_w h + gate_dst_b for the output nodes
    gate_src: np.ndarray    # gate_src_w h + gate_src_b for all input nodes
    msg_in: np.ndarray      # msg_w h + msg_b for all input nodes
    slope: np.ndarray       # per output node, sum over its edges of msg * gate * (1 - gate)
    by_src: list            # _edge_blocks of the edges by source
    x_hat: np.ndarray       # batch-norm normalized pre-activation
    inv_std: np.ndarray
    relu_mask: np.ndarray


@dataclass
class ForwardTrace:
    """What ``backward`` reads of a forward pass: per layer the N x H node
    terms and the edge order by source, no array with a row per edge."""

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

    ids = plan.node_ids
    # the full plan reads every row in order: a C-ordered matrix is used as it
    # is, any other is gathered into the C order the products below are made in
    full = (ids.size == len(features) and features.flags.c_contiguous
            and np.array_equal(ids, np.arange(ids.size)))
    x_sub = features if full else features[ids]
    h = x_sub @ model.in_w.T + model.in_b
    trace = ForwardTrace(plan=plan, x_sub=x_sub, train_mode=train)

    for layer, lp in zip(model.layers, plan.layers):
        h_in = h
        out_n = lp.out_size
        gate_dst = h_in[:out_n] @ layer.gate_dst_w.T + layer.gate_dst_b
        gate_src = h_in @ layer.gate_src_w.T + layer.gate_src_b
        msg_in = h_in @ layer.msg_w.T + layer.msg_b

        s = h_in[:out_n] @ layer.self_w.T   # plus the mean gated message
        slope = np.empty_like(gate_dst)
        for rows, edges in _edge_blocks(lp.dst, out_n):
            dst, src = lp.dst[edges], lp.src[edges]
            gate = _gate(gate_dst, gate_src, dst, src)
            msg = msg_in[src]
            msg *= gate
            np.subtract(1.0, gate, out=gate)
            gate *= msg     # the message times the gate's slope, 1 - gate
            agg, slope[rows] = _block_sum(dst, rows, msg, gate)
            agg *= lp.inv_deg[rows, None]
            s[rows] += agg

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
        trace.layers.append(_LayerTrace(
            h_in=h_in, gate_dst=gate_dst, gate_src=gate_src, msg_in=msg_in,
            slope=slope, by_src=_edge_blocks(lp.src, lp.in_size),
            x_hat=x_hat, inv_std=inv_std, relu_mask=relu_mask))
    trace.h_final = h
    y = h[:plan.batch_size] @ model.out_w.T
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

    grads = {"out_w": grad_y.T @ trace.h_final[:plan.batch_size]}
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
        grads[prefix + "bn_scale"] = (dz * lt.x_hat).sum(axis=0)
        grads[prefix + "bn_shift"] = dz.sum(axis=0)
        dxhat = np.multiply(dz, layer.bn_scale, out=dz)   # dz is read no more
        b = float(out_n)
        ds = (lt.inv_std / b) * (b * dxhat - dxhat.sum(axis=0)
                                 - lt.x_hat * (dxhat * lt.x_hat).sum(axis=0))

        # self transform path
        grads[prefix + "self_w"] = ds.T @ lt.h_in[:out_n]
        dh_in = np.zeros_like(lt.h_in)
        dh_in[:out_n] += ds @ layer.self_w
        dh_in[:out_n] += dh  # residual connection

        # aggregation path: per edge, the message's gradient is dagg[dst] *
        # gate and the gate pre-activation's is dagg[dst] * msg_in[src] *
        # gate * (1 - gate). Summed by destination, that is dagg times the
        # forward's slope; summed by source, msg_in times the sum of dagg[dst]
        # * gate * (1 - gate), so one walk by source block makes both sums.
        dagg = np.multiply(ds, lp.inv_deg[:, None], out=ds)   # ds is read no more
        dmsg_in = np.empty_like(lt.msg_in)
        dgate_src = np.empty_like(lt.gate_src)
        for rows, edges in lt.by_src:
            dst, src = lp.dst[edges], lp.src[edges]
            gate = _gate(lt.gate_dst, lt.gate_src, dst, src)
            dmsg = dagg[dst]
            dmsg *= gate
            np.subtract(1.0, gate, out=gate)
            gate *= dmsg
            dmsg_in[rows], dgate_src[rows] = _block_sum(src, rows, dmsg, gate)
        dgate_src *= lt.msg_in
        dgate_dst = np.multiply(dagg, lt.slope, out=dagg)   # and dagg no more

        grads[prefix + "msg_w"] = dmsg_in.T @ lt.h_in
        grads[prefix + "msg_b"] = dmsg_in.sum(axis=0)
        grads[prefix + "gate_dst_w"] = dgate_dst.T @ lt.h_in[:out_n]
        grads[prefix + "gate_dst_b"] = dgate_dst.sum(axis=0)
        grads[prefix + "gate_src_w"] = dgate_src.T @ lt.h_in
        grads[prefix + "gate_src_b"] = dgate_src.sum(axis=0)

        dh_in += dmsg_in @ layer.msg_w
        dh_in[:out_n] += dgate_dst @ layer.gate_dst_w
        dh_in += dgate_src @ layer.gate_src_w
        dh = dh_in

    grads["in_w"] = dh.T @ trace.x_sub
    grads["in_b"] = dh.sum(axis=0)
    return grads


# ---------------------------------------------------------------------------
# Adam optimizer with plateau learning-rate decay
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    lr: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
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
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, param in model.named_parameters():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        param -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def maybe_decay_lr(state: AdamState, epoch_loss: float) -> bool:
    """Plateau scheduler; call once per epoch. Returns True when the rate decayed.

    An epoch counts as stale unless its loss strictly improves on the best
    seen so far (the first epoch, having nothing to improve on, is stale).
    After ``LR_PATIENCE`` consecutive stale epochs the learning rate is
    divided by ``LR_DECAY_FACTOR`` and the counter resets.
    """
    improved = state.best_loss is not None and epoch_loss < state.best_loss
    if state.best_loss is None or epoch_loss < state.best_loss:
        state.best_loss = epoch_loss
    if improved:
        state.stale_epochs = 0
        return False
    state.stale_epochs += 1
    if state.stale_epochs >= LR_PATIENCE:
        state.lr /= LR_DECAY_FACTOR
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
    """Read a checkpoint written by save_model; validates the magic string.
    Arrays the model does not have are ignored, so older checkpoints load."""
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
        if name not in entries:
            raise ValueError(f"{path}: no array {name}")
        entry = entries[name]
        shape = tuple(entry["shape"])
        arr[:] = np.frombuffer(blob, dtype=entry["dtype"], count=int(np.prod(shape)),
                               offset=entry["offset"]).reshape(shape)
    return model

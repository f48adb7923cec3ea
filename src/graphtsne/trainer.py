"""Composite-loss training: full-batch for small graphs, neighbor-subsampled
mini-batches for large ones, plus inference-time embedding.

The training objective blends two KL losses over a shared Student-t map
distribution: one whose input affinities come from graph shortest-path
distances, one from squared Euclidean feature distances. alpha weights the
graph term; (1 - alpha) the feature term. Both modes run the same training
loop and differ only in the steps they feed it: full-batch gives one step
per epoch over the whole graph with affinities computed once, mini-batch
gives one step per sampled batch with affinities computed within the batch.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .affinity import AffinityMatrix, distance_blocks, pairwise_sq_euclidean
# each distance matrix is a temporary that becomes its P; _affinities calls
# this module's joint_p by name, so wrapping trainer.joint_p sees every call
from .affinity import _joint_p_owned as joint_p
from .errors import EmptyAffinityError, TrainingError
from .gcn import (NUM_LAYERS, GcnModel, build_batch_plan, build_full_plan,
                  backward, forward, init_adam, init_model, adam_step, maybe_decay_lr)
from .graph import (Graph, LabeledDataset, _read_table, all_pairs_distances,
                    bfs_shortest_paths, neighbor_subsample)

logger = logging.getLogger(__name__)

SMALL_GRAPH_LIMIT = 10000   # node count at or below which the full-batch preset applies
HOP_CAP = 20                # shortest paths are cut off at this many hops

_MODES = ("full", "minibatch")


@dataclass
class TrainConfig:
    alpha: float
    epochs: int
    hidden_dim: int
    mode: str
    perplexity: float = 30.0
    batch_count: int = 1000
    fanouts: tuple = (10, 15)
    lr: float = 0.00075
    seed: int = 0
    hop_cap: int = HOP_CAP

    def validate(self, num_nodes: int) -> None:
        """Raise ValueError on a setting out of range or unfit for num_nodes nodes."""
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (np.isfinite(self.perplexity) and self.perplexity >= 2.0):
            raise ValueError(f"perplexity must be finite and >= 2, got {self.perplexity}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "minibatch":
            if self.batch_count < 1:
                raise ValueError("batch_count must be >= 1")
            if len(self.fanouts) != NUM_LAYERS or any(f < 1 for f in self.fanouts):
                raise ValueError(f"fanouts must be {NUM_LAYERS} positive counts, "
                                 f"one per layer, got {self.fanouts}")
        if not (np.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if self.hop_cap < 1:
            raise ValueError(f"hop_cap must be >= 1, got {self.hop_cap}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.mode != "full" and self.batch_count > num_nodes:
            raise ValueError(f"batch_count {self.batch_count} is above the {num_nodes} "
                             "nodes, so some mini-batch would be empty")
        # a row calibrated among S nodes has S - 1 others: its perplexity is at most S - 1.
        # np.array_split makes batches of floor(N / batch_count) and one node more
        size = num_nodes if self.mode == "full" else num_nodes // self.batch_count
        if self.perplexity > size - 1:
            where = "the graph" if self.mode == "full" else "the smallest mini-batch"
            raise ValueError(f"perplexity {self.perplexity} is out of reach: {where} has "
                             f"{size} nodes, so no row reaches more than {size - 1}")


def default_config(num_nodes: int, alpha: float = 0.5, seed: int = 0) -> TrainConfig:
    """Preset by graph size: <= 10000 nodes trains full-batch with 128 hidden
    units for 360 epochs; larger graphs train 5 epochs of mini-batches with
    256 hidden units and fanouts (10, 15). Either preset sets min(1000,
    max(1, N // 50)) batches, so a batch holds at least 50 nodes (room for
    perplexity 30) on any graph of 50 nodes or more, also when
    ``--mode minibatch`` switches a small graph's preset to mini-batches."""
    batch_count = min(1000, max(1, num_nodes // 50))
    if num_nodes <= SMALL_GRAPH_LIMIT:
        return TrainConfig(alpha=alpha, epochs=360, hidden_dim=128,
                           mode="full", batch_count=batch_count, seed=seed)
    return TrainConfig(alpha=alpha, epochs=5, hidden_dim=256, mode="minibatch",
                       batch_count=batch_count, fanouts=(10, 15), seed=seed)


@dataclass
class TrainReport:
    total_losses: list = field(default_factory=list)   # composite loss per epoch
    graph_losses: list = field(default_factory=list)
    feature_losses: list = field(default_factory=list)
    final_lr: float = 0.0
    wall_time_s: float = 0.0


@dataclass
class CompositeLoss:
    total: float
    graph_term: float
    feature_term: float
    grad: np.ndarray


def _triangle_vdot(p: np.ndarray, q: np.ndarray) -> float:
    """<P, Q> over the pairs that one upper-triangle row block of symmetric P
    and Q stands for: twice the block's, less its diagonal square's, since
    the square's pairs count once and the others also stand for their mirrors."""
    b = len(p)
    return 2.0 * float(np.vdot(p, q)) - float(np.vdot(p[:, :b], q[:, :b]))


def composite_loss_and_grad(p_graph, p_feat, y: np.ndarray,
                            alpha: float) -> CompositeLoss:
    """Blended KL loss over a shared map distribution and its exact gradient.

    total = alpha * KL(p_graph || q) + (1 - alpha) * KL(p_feat || q); the
    gradient is the same convex combination. Accepts AffinityMatrix objects or
    raw matrices, which are wrapped as AffinityMatrix: P is symmetric, as
    ``joint_p`` makes it, only its upper triangle is read, and a raw P that is
    not symmetric raises ValueError. Each KL is sum p log p + <P, log1p(d)> +
    log(sum w) * sum P (van der Maaten, JMLR 2014), made in one walk of the
    upper triangle of map row blocks (``distance_blocks(y, upper=True)``), so
    no N x N temporary is made and each pair is read once. A block's diagonal
    square counts once; the part right of it gives its rows' attraction and
    repulsion terms, transposed gives its columns' terms, and counts twice in
    <P, log1p(d)> and sum w. A map of at most 64 points is one diagonal square.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    pg, px = (p if isinstance(p, AffinityMatrix) else
              AffinityMatrix(p, sigmas=np.full(len(p), np.nan))
              for p in (p_graph, p_feat))
    y = np.asarray(y, dtype=np.float64)
    if pg.size != y.shape[0] or px.size != pg.size:
        raise ValueError("affinity matrices must be BxB matching y rows")
    if y.shape[0] < 2:
        raise ValueError("need at least 2 map points")
    z, inner_g, inner_x = 0.0, 0.0, 0.0
    # per point i: sum_j a_ij and sum_j a_ij y_j, a = blended P * w, and the same of w^2
    a_sum, a_y = np.zeros(len(y)), np.zeros_like(y)
    w2_sum, w2_y = np.zeros(len(y)), np.zeros_like(y)
    for (rows, d), g, x in zip(distance_blocks(y, upper=True), pg.blocks, px.blocks):
        if not d.shape == g.shape == x.shape:
            raise ValueError("affinity blocks do not match the map's row blocks")
        b, right = rows.stop - rows.start, slice(rows.stop, None)
        log1p_d = np.log1p(d)  # -log w
        inner_g += _triangle_vdot(g, log1p_d)
        inner_x += _triangle_vdot(x, log1p_d)
        d += 1.0
        w = np.reciprocal(d, out=d)
        np.fill_diagonal(w, 0.0)
        z += 2.0 * float(w.sum()) - float(w[:, :b].sum())
        a = (alpha * g + (1.0 - alpha) * x) * w
        w *= w
        for m, m_sum, m_y in ((a, a_sum, a_y), (w, w2_sum, w2_y)):
            m_sum[rows] += m.sum(axis=1)
            m_y[rows] += m @ y[rows.start:]
            m_sum[right] += m[:, b:].sum(axis=0)
            m_y[right] += m[:, b:].T @ y[rows]
    log_z = float(np.log(z))
    (h_g, sum_g), (h_x, sum_x) = pg.p_log_p_and_sum, px.p_log_p_and_sum
    graph_term = h_g + inner_g + log_z * sum_g
    feature_term = h_x + inner_x + log_z * sum_x
    total = alpha * graph_term + (1.0 - alpha) * feature_term
    attr = a_sum[:, None] * y - a_y
    rep = w2_sum[:, None] * y - w2_y
    return CompositeLoss(total=total, graph_term=graph_term,
                         feature_term=feature_term, grad=4.0 * (attr - rep / z))


def _affinities(cfg: TrainConfig, size: int, graph_distances, feature_distances):
    """One step's (p_graph, p_feat), each joint_p of what its distance function
    returns, and the names of the terms with no row at the target perplexity.
    A term with weight 0 is neither built nor checked: its P is all zeros,
    which the loss scores as exactly 0 and adds as exactly 0 to the blend.
    Raises TrainingError when no row of a built term is reachable."""
    terms, unconverged = [], []
    for which, weight, distances in (("graph", cfg.alpha, graph_distances),
                                     ("feature", 1.0 - cfg.alpha, feature_distances)):
        if weight == 0.0:
            terms.append(AffinityMatrix.zeros(size))
            continue
        try:
            terms.append(joint_p(distances(), cfg.perplexity))
        except EmptyAffinityError as exc:
            raise TrainingError(f"{which} affinity is degenerate: {exc}") from exc
        if terms[-1].n_converged == 0:
            unconverged.append(which)
    return terms[0], terms[1], unconverged


def _train(features: np.ndarray, cfg: TrainConfig, epochs,
           on_step) -> tuple[GcnModel, TrainReport]:
    """The training loop both modes share.

    ``epochs`` yields one iterable of steps per epoch, and is first advanced
    after the model is made; a step is ``(plan, p_graph, p_feat, args)`` and
    is followed by ``on_step(epoch, *args, loss)`` when on_step is given. An
    epoch's losses are means over its steps, and the learning-rate plateau
    schedule sees the epoch mean.
    """
    start = time.perf_counter()
    model = init_model(features.shape[1], cfg.hidden_dim, seed=cfg.seed)
    adam = init_adam(model, cfg.lr)
    report = TrainReport()
    for epoch, steps in enumerate(epochs):
        losses = []
        for plan, p_graph, p_feat, args in steps:
            y, trace = forward(model, plan, features, mode="train")
            loss = composite_loss_and_grad(p_graph, p_feat, y, cfg.alpha)
            if not (np.isfinite(loss.total) and np.isfinite(loss.grad).all()):
                raise TrainingError(f"epoch {epoch}: the loss or its gradient "
                                    f"is not finite (lr {cfg.lr:g})")
            adam_step(adam, model, backward(model, trace, loss.grad))
            del trace   # else it is alive through the next step's forward
            losses.append((loss.total, loss.graph_term, loss.feature_term))
            if on_step is not None:
                on_step(epoch, *args, loss)
        if not losses:
            raise TrainingError(f"epoch {epoch}: every batch was skipped")
        # column by column: an axis-0 mean of the rows would sum in another
        # order; the mean of one step's loss is that loss exactly
        total, graph_term, feature_term = (float(np.mean(column))
                                           for column in zip(*losses))
        maybe_decay_lr(adam, total)
        report.total_losses.append(total)
        report.graph_losses.append(graph_term)
        report.feature_losses.append(feature_term)
    if not all(np.isfinite(arr).all() for _, arr in model.named_state()):
        raise TrainingError(f"the trained weights are not finite (lr {cfg.lr:g})")
    report.final_lr = adam.lr
    report.wall_time_s = time.perf_counter() - start
    return model, report


def _full_batch_epochs(data: LabeledDataset, cfg: TrainConfig):
    """One whole-graph step per epoch; the affinities are built at the first."""
    p_graph, p_feat, unconverged = _affinities(
        cfg, data.graph.num_nodes,
        lambda: all_pairs_distances(data.graph, hop_cap=cfg.hop_cap),
        lambda: pairwise_sq_euclidean(data.features))
    if unconverged:  # e.g. identical feature rows: every conditional is uniform
        raise TrainingError(f"{unconverged[0]} affinity is degenerate: "
                            "no row reached the target perplexity")
    step = (build_full_plan(data.graph, NUM_LAYERS), p_graph, p_feat, ())
    for _ in range(cfg.epochs):
        yield [step]


def train_full_batch(data: LabeledDataset, cfg: TrainConfig,
                     on_epoch=None) -> tuple[GcnModel, TrainReport]:
    """Train with one forward/backward/Adam step per epoch over the whole graph.

    Both affinity matrices are built once up front, from all-pairs BFS hops
    cut off at cfg.hop_cap and from squared Euclidean feature distances;
    each distance matrix is calibrated into its P in place, and P is kept
    as its upper triangle. A term with weight 0 is not built and reports 0.
    Fully deterministic for a fixed seed.
    """
    if cfg.mode != "full":
        raise ValueError("train_full_batch requires cfg.mode == 'full'")
    cfg.validate(data.graph.num_nodes)
    return _train(data.features, cfg, _full_batch_epochs(data, cfg), on_epoch)


def _child_seed(*entropy: int) -> int:
    """A seed drawn from a parent seed and indices, the same on every run."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


def _batch_steps(data: LabeledDataset, cfg: TrainConfig, epoch: int):
    """One epoch's mini-batch steps: a seeded partition of the nodes, each
    batch subsampled and given its own affinities."""
    graph, features = data.graph, data.features
    perm = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, epoch])).permutation(graph.num_nodes)
    unconverged = 0
    for b, batch_nodes in enumerate(np.array_split(perm, cfg.batch_count)):
        batch_nodes = np.sort(batch_nodes)
        sample = neighbor_subsample(graph, batch_nodes, cfg.fanouts,
                                    seed=_child_seed(cfg.seed, epoch, b))
        plan = build_batch_plan(sample)
        try:
            p_graph, p_feat, unconverged_terms = _affinities(
                cfg, batch_nodes.size,
                lambda: bfs_shortest_paths(graph, batch_nodes, batch_nodes,
                                           hop_cap=cfg.hop_cap),
                lambda: pairwise_sq_euclidean(features[batch_nodes]))
        except TrainingError as exc:
            logger.warning("epoch %d: skipping batch %d: %s", epoch, b, exc)
            continue
        unconverged += bool(unconverged_terms)
        yield plan, p_graph, p_feat, (b, sample)
    if unconverged:
        logger.warning("epoch %d: %d executed batch(es) have a graph or feature "
                       "affinity with no row at perplexity %g", epoch,
                       unconverged, cfg.perplexity)


def train_minibatch(data: LabeledDataset, cfg: TrainConfig,
                    on_batch=None) -> tuple[GcnModel, TrainReport]:
    """Train with neighbor-subsampled mini-batches, one Adam step per batch.

    Each epoch randomly partitions the nodes into cfg.batch_count batches.
    Per batch: graph distances are true shortest paths on the full graph
    between batch nodes (hop-capped), feature distances are restricted to the
    batch, and affinities are normalized within the batch (a term with
    weight 0 is not built and reports 0). Batches whose built affinities are
    fully degenerate are skipped with a warning; executed batches whose
    graph or feature affinity has no row at the target perplexity are
    counted in one warning per epoch. Reported epoch losses are means over
    executed batches.
    """
    if cfg.mode != "minibatch":
        raise ValueError("train_minibatch requires cfg.mode == 'minibatch'")
    cfg.validate(data.graph.num_nodes)
    epochs = (_batch_steps(data, cfg, epoch) for epoch in range(cfg.epochs))
    return _train(data.features, cfg, epochs, on_batch)


def train(data: LabeledDataset, cfg: TrainConfig) -> tuple[GcnModel, TrainReport]:
    """Dispatch on cfg.mode."""
    if cfg.mode == "full":
        return train_full_batch(data, cfg)
    return train_minibatch(data, cfg)


def embed(model: GcnModel, data: LabeledDataset) -> np.ndarray:
    """Eval-mode forward over the full graph (running batch-norm statistics,
    no subsampling). Returns the N x 2 coordinate matrix; raises
    TrainingError when a coordinate is not finite."""
    plan = build_full_plan(data.graph, model.num_layers)
    y, _ = forward(model, plan, data.features, mode="eval")
    if not np.isfinite(y).all():
        raise TrainingError("the model's layout is not finite")
    return y


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines mirroring TrainConfig fields
# ---------------------------------------------------------------------------

def parse_comma_ints(text: str):
    """Parse a comma-separated list of integers; empty items are ignored."""
    return tuple(int(part) for part in text.split(",") if part.strip())


def read_config_file(path) -> dict:
    """Parse a flat key-value config file into TrainConfig field overrides.

    One ``key = value`` pair per line; blank lines and '#' comments ignored.
    The keys are TrainConfig's fields; a repeated key keeps its last value.
    A line without '=', an unknown key or an unparseable value raises
    MalformedInputError naming the file and line, checked in that order.
    """
    # f.type is the annotation's text: this module postpones annotations
    by_type = {"float": float, "int": int, "str": str, "tuple": parse_comma_ints}
    parsers = {f.name: by_type[f.type] for f in fields(TrainConfig)}

    def parse(linenos, texts):
        overrides = {}
        for text in texts:
            if "=" not in text:
                return f"expected 'key = value', got {text!r}"
            key, _, value = (part.strip() for part in text.partition("="))
            if key not in parsers:
                return f"unknown config key {key!r}"
            try:
                overrides[key] = parsers[key](value)
            except ValueError:
                return f"bad value for {key!r}: {value!r}"
        return overrides

    blocks = _read_table(path, "line", parse, comments=True)
    return {key: value for block in blocks for key, value in block.items()}

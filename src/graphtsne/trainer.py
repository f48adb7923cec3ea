"""Composite-loss training loops: full-batch for small graphs, neighbor-
subsampled mini-batches for large ones, plus inference-time embedding.

The training objective blends two KL losses over a shared Student-t map
distribution: one whose input affinities come from graph shortest-path
distances, one from squared Euclidean feature distances. alpha weights the
graph term; (1 - alpha) the feature term.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .affinity import (AffinityMatrix, _student_weights, joint_p,
                       pairwise_sq_euclidean)
from .errors import EmptyAffinityError, MalformedInputError, TrainingError
from .gcn import (GcnModel, build_batch_plan, build_full_plan, backward,
                  forward, init_adam, init_model, adam_step, maybe_decay_lr)
from .graph import (Graph, LabeledDataset, all_pairs_distances,
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

    def validate(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.perplexity < 2.0:
            raise ValueError(f"perplexity must be >= 2, got {self.perplexity}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "minibatch":
            if self.batch_count < 1:
                raise ValueError("batch_count must be >= 1")
            if len(self.fanouts) == 0 or any(f < 1 for f in self.fanouts):
                raise ValueError("fanouts must be positive counts, one per layer")
        if self.lr <= 0.0:
            raise ValueError("lr must be positive")
        if self.hop_cap < 1:
            raise ValueError(f"hop_cap must be >= 1, got {self.hop_cap}")


def default_config(num_nodes: int, alpha: float = 0.5, seed: int = 0) -> TrainConfig:
    """Preset by graph size: <= 10000 nodes trains full-batch with 128 hidden
    units for 360 epochs; larger graphs train 5 epochs of 1000 mini-batches
    with 256 hidden units and fanouts (10, 15)."""
    if num_nodes <= SMALL_GRAPH_LIMIT:
        return TrainConfig(alpha=alpha, epochs=360, hidden_dim=128,
                           mode="full", seed=seed)
    return TrainConfig(alpha=alpha, epochs=5, hidden_dim=256, mode="minibatch",
                       batch_count=1000, fanouts=(10, 15), seed=seed)


@dataclass
class TrainReport:
    total_losses: list = field(default_factory=list)   # composite loss per epoch
    graph_losses: list = field(default_factory=list)
    feature_losses: list = field(default_factory=list)
    final_lr: float = 0.0
    wall_time_s: float = 0.0

    @property
    def num_epochs(self) -> int:
        return len(self.total_losses)


@dataclass
class CompositeLoss:
    total: float
    graph_term: float
    feature_term: float
    grad: np.ndarray


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    # convention: terms with p_ij = 0 contribute nothing
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))


def composite_loss_and_grad(p_graph, p_feat, y: np.ndarray,
                            alpha: float) -> CompositeLoss:
    """Blended KL loss over a shared map distribution and its exact gradient.

    total = alpha * KL(p_graph || q) + (1 - alpha) * KL(p_feat || q); the
    gradient is the same convex combination, computed in one pass from the
    blended affinities. Accepts AffinityMatrix objects or raw matrices.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    pg = p_graph.p if isinstance(p_graph, AffinityMatrix) else np.asarray(p_graph)
    px = p_feat.p if isinstance(p_feat, AffinityMatrix) else np.asarray(p_feat)
    y = np.asarray(y, dtype=np.float64)
    if pg.shape != (y.shape[0], y.shape[0]) or px.shape != pg.shape:
        raise ValueError("affinity matrices must be BxB matching y rows")
    if y.shape[0] < 2:
        raise ValueError("need at least 2 map points")
    w = _student_weights(y)
    q = w / w.sum()
    graph_term = _kl(pg, q)
    feature_term = _kl(px, q)
    p_bar = alpha * pg + (1.0 - alpha) * px
    m = (p_bar - q) * w
    grad = 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)
    total = alpha * graph_term + (1.0 - alpha) * feature_term
    return CompositeLoss(total=total, graph_term=graph_term,
                         feature_term=feature_term, grad=grad)


def _build_affinity(distances: np.ndarray, perplexity: float,
                    which: str) -> AffinityMatrix:
    try:
        aff = joint_p(distances, perplexity)
    except EmptyAffinityError as exc:
        raise TrainingError(f"{which} affinity is degenerate: {exc}") from exc
    if aff.n_converged == 0:
        # e.g. all-identical feature rows: every conditional collapses to
        # uniform and no bandwidth can reach the target perplexity
        raise TrainingError(
            f"{which} affinity is degenerate: no row reached the target perplexity")
    return aff


def train_full_batch(data: LabeledDataset, cfg: TrainConfig,
                     on_epoch=None) -> tuple[GcnModel, TrainReport]:
    """Train with one forward/backward/Adam step per epoch over the whole graph.

    Both distance matrices (all-pairs BFS hops cut off at cfg.hop_cap, and
    squared Euclidean feature distances) and both affinity matrices are
    built once up front. Fully deterministic for a fixed seed.
    """
    cfg.validate()
    if cfg.mode != "full":
        raise ValueError("train_full_batch requires cfg.mode == 'full'")
    start = time.perf_counter()
    features = data.features
    model = init_model(features.shape[1], cfg.hidden_dim, seed=cfg.seed)

    d_graph = all_pairs_distances(data.graph, hop_cap=cfg.hop_cap)
    d_feat = pairwise_sq_euclidean(features)
    p_graph = _build_affinity(d_graph, cfg.perplexity, "graph")
    p_feat = _build_affinity(d_feat, cfg.perplexity, "feature")

    plan = build_full_plan(data.graph, model.num_layers)
    adam = init_adam(model, cfg.lr)
    report = TrainReport()
    for epoch in range(cfg.epochs):
        y, trace = forward(model, plan, features, mode="train")
        loss = composite_loss_and_grad(p_graph, p_feat, y, cfg.alpha)
        grads = backward(model, trace, loss.grad)
        adam_step(adam, model, grads)
        maybe_decay_lr(adam, loss.total)
        report.total_losses.append(loss.total)
        report.graph_losses.append(loss.graph_term)
        report.feature_losses.append(loss.feature_term)
        if on_epoch is not None:
            on_epoch(epoch, loss)
    report.final_lr = adam.lr
    report.wall_time_s = time.perf_counter() - start
    return model, report


def _batch_seed(seed: int, epoch: int, batch_index: int) -> int:
    return int(np.random.SeedSequence([seed, epoch, batch_index])
               .generate_state(1)[0])


def train_minibatch(data: LabeledDataset, cfg: TrainConfig,
                    on_batch=None) -> tuple[GcnModel, TrainReport]:
    """Train with neighbor-subsampled mini-batches, one Adam step per batch.

    Each epoch randomly partitions the nodes into cfg.batch_count batches.
    Per batch: graph distances are true shortest paths on the full graph
    between batch nodes (hop-capped), feature distances are restricted to the
    batch, and affinities are normalized within the batch. Batches smaller
    than 3 nodes, or whose affinities are fully degenerate, are skipped with
    a warning. Reported epoch losses are means over executed batches.
    """
    cfg.validate()
    if cfg.mode != "minibatch":
        raise ValueError("train_minibatch requires cfg.mode == 'minibatch'")
    start = time.perf_counter()
    graph = data.graph
    features = data.features
    n = graph.num_nodes
    model = init_model(features.shape[1], cfg.hidden_dim, seed=cfg.seed)
    if len(cfg.fanouts) != model.num_layers:
        raise ValueError(f"need one fanout per layer "
                         f"({model.num_layers}), got {cfg.fanouts}")
    adam = init_adam(model, cfg.lr)
    report = TrainReport()

    for epoch in range(cfg.epochs):
        perm = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, epoch])).permutation(n)
        batches = np.array_split(perm, cfg.batch_count)
        epoch_totals, epoch_graph, epoch_feat = [], [], []
        for b, batch_nodes in enumerate(batches):
            if batch_nodes.size < 3:
                logger.warning("epoch %d: skipping batch %d with %d node(s)",
                               epoch, b, batch_nodes.size)
                continue
            batch_nodes = np.sort(batch_nodes)
            sample = neighbor_subsample(graph, batch_nodes, cfg.fanouts,
                                        seed=_batch_seed(cfg.seed, epoch, b))
            plan = build_batch_plan(sample)
            d_graph = bfs_shortest_paths(graph, batch_nodes, batch_nodes,
                                         hop_cap=cfg.hop_cap)
            d_feat = pairwise_sq_euclidean(features[batch_nodes])
            try:
                p_graph = joint_p(d_graph, cfg.perplexity)
                p_feat = joint_p(d_feat, cfg.perplexity)
            except EmptyAffinityError as exc:
                logger.warning("epoch %d: skipping batch %d, degenerate "
                               "affinity: %s", epoch, b, exc)
                continue
            y, trace = forward(model, plan, features, mode="train")
            loss = composite_loss_and_grad(p_graph, p_feat, y, cfg.alpha)
            grads = backward(model, trace, loss.grad)
            adam_step(adam, model, grads)
            epoch_totals.append(loss.total)
            epoch_graph.append(loss.graph_term)
            epoch_feat.append(loss.feature_term)
            if on_batch is not None:
                on_batch(epoch, b, sample, loss)
        if not epoch_totals:
            raise TrainingError(f"epoch {epoch}: every batch was skipped")
        mean_total = float(np.mean(epoch_totals))
        maybe_decay_lr(adam, mean_total)
        report.total_losses.append(mean_total)
        report.graph_losses.append(float(np.mean(epoch_graph)))
        report.feature_losses.append(float(np.mean(epoch_feat)))
    report.final_lr = adam.lr
    report.wall_time_s = time.perf_counter() - start
    return model, report


def train(data: LabeledDataset, cfg: TrainConfig) -> tuple[GcnModel, TrainReport]:
    """Dispatch on cfg.mode."""
    cfg.validate()
    if cfg.mode == "full":
        return train_full_batch(data, cfg)
    return train_minibatch(data, cfg)


def embed(model: GcnModel, data: LabeledDataset) -> np.ndarray:
    """Eval-mode forward over the full graph (running batch-norm statistics,
    no subsampling). Returns the N x 2 coordinate matrix."""
    plan = build_full_plan(data.graph, model.num_layers)
    y, _ = forward(model, plan, data.features, mode="eval")
    return y


# ---------------------------------------------------------------------------
# Config files: flat "key = value" lines mirroring TrainConfig fields
# ---------------------------------------------------------------------------

def parse_comma_ints(text: str):
    """Parse a comma-separated list of integers; empty items are ignored."""
    return tuple(int(part) for part in text.split(",") if part.strip())


_CONFIG_PARSERS = {
    "alpha": float,
    "perplexity": float,
    "epochs": int,
    "hidden_dim": int,
    "batch_count": int,
    "fanouts": parse_comma_ints,
    "lr": float,
    "seed": int,
    "mode": str,
    "hop_cap": int,
}


def read_config_file(path) -> dict:
    """Parse a flat key-value config file into TrainConfig field overrides.

    One ``key = value`` pair per line; blank lines and '#' comments ignored.
    Unknown keys or unparseable values raise with the file and line number.
    """
    overrides = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MalformedInputError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            parser = _CONFIG_PARSERS.get(key)
            if parser is None:
                raise MalformedInputError(
                    f"{path}:{lineno}: unknown config key {key!r}")
            try:
                overrides[key] = parser(value)
            except ValueError as exc:
                raise MalformedInputError(
                    f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return overrides


def apply_overrides(cfg: TrainConfig, overrides: dict) -> TrainConfig:
    """New config with the given field overrides applied."""
    return replace(cfg, **overrides)

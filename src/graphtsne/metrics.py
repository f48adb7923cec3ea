"""Layout quality metrics and the alpha-sweep harness.

Five quantities: feature trustworthiness T_X(k), graph trustworthiness
T_G(r), distance metrics P_G and P_X over a standardized map, and
cross-validated 1-NN label accuracy. The sweep trains one model per alpha,
scores each layout as ``evaluate_layout`` does, and selects alpha*
minimizing P_G + P_X.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .affinity import distance_blocks, pairwise_sq_euclidean, row_blocks
from .errors import TrainingError
from .graph import Graph, LabeledDataset, bfs_shortest_paths, rank_prefix
from .trainer import TrainConfig, _child_seed, embed, train

DEFAULT_KNN_K = 10
DEFAULT_T_KS = (6, 12, 18)
DEFAULT_T_RS = (1, 2)
DEFAULT_FOLDS = 10


def standardize_map(y: np.ndarray) -> np.ndarray:
    """Translate to zero mean and scale to unit mean squared point norm.

    A degenerate map (all points coincident) is returned unchanged, so its
    pairwise distances stay zero.
    """
    y = np.asarray(y, dtype=np.float64)
    centered = y - y.mean(axis=0)
    mean_sq = float(np.mean(np.sum(centered * centered, axis=1)))
    if mean_sq <= 0.0:
        return y.copy()
    return centered / np.sqrt(mean_sq)


def _check_metric_args(n: int, x=None, ks=(), graph: Graph | None = None, rs=(),
                       knn_k: int | None = None, labels=None,
                       folds: int = DEFAULT_FOLDS, y=None) -> None:
    """Raise ValueError when a metric argument does not fit n layout points, or
    the layout ``y``, when given, holds a coordinate that is not finite."""
    if y is not None and not np.isfinite(y).all():
        raise ValueError("layout holds a non-finite coordinate")
    if graph is not None and graph.num_nodes != n:
        raise ValueError(f"layout has {n} rows for a graph of {graph.num_nodes} nodes")
    if x is not None and len(x) != n:
        raise ValueError(f"x has {len(x)} rows but y has {n}")
    if min(ks, default=1) < 1:
        raise ValueError(f"trustworthiness k must be >= 1, got {min(ks)}")
    for k in ks:
        if 3 * k + 1 >= 2 * n:
            raise ValueError(f"k={k} too large for N={n} (need 3k + 1 < 2N)")
    if min(rs, default=1) < 1:
        raise ValueError(f"hop radius must be >= 1, got {min(rs)}")
    if knn_k is not None and not 1 <= knn_k < n:
        raise ValueError(f"k-NN k={knn_k} must lie in [1, {n})")
    if labels is not None:
        if labels.shape[0] != n:
            raise ValueError("labels must match y rows")
        if folds < 2:
            raise ValueError(f"folds must be >= 2, got {folds}")
        if n < folds:
            raise ValueError(f"need at least {folds} points for {folds} folds, got {n}")


def _feature_pass(x, knn_k: int, ks=(), map_top=None):
    """The pairs (i, j), j among the knn_k nearest feature rows to i, by i and then
    rank, and per k in ``ks`` the trustworthiness penalty of ``map_top``'s map
    neighbors: one pass over row blocks of the feature distances, each ranked by
    ``rank_prefix``. With ``ks`` every row is ranked in full, since a map neighbor's
    feature rank can lie anywhere in its row; without, only its first knn_k columns."""
    n = len(x)
    penalty = [0] * len(ks)
    knn = np.empty((n, knn_k), dtype=np.int64)
    d = pairwise_sq_euclidean(x)
    for rows in row_blocks(n):
        order = rank_prefix(rows, d[rows], n - 1 if ks else knn_k)
        knn[rows] = order[:, :knn_k]
        if ks:
            # feature rank (1 = nearest) of each kept map neighbor
            rank = np.empty((len(order), n), dtype=np.int64)
            np.put_along_axis(rank, order, np.arange(1, n), axis=1)
            near = np.take_along_axis(rank, map_top[rows], axis=1)
            for slot, k in enumerate(ks):
                # map neighbors outside the k feature neighbors have rank > k
                penalty[slot] += int(np.maximum(near[:, :k] - k, 0).sum())
    return np.stack([np.repeat(np.arange(n), knn_k), knn.ravel()], axis=1), penalty


def _score(y, x=None, ks=(), graph: Graph | None = None, rs=(), knn_k: int | None = None,
           labels=None, folds: int = DEFAULT_FOLDS, seed: int = 0):
    """The requested metrics from one pass over the map's distance blocks, made
    as the loss makes them, and one over row blocks of the feature distance
    matrix (``_feature_pass``). Both passes rank through ``rank_prefix``, and
    a map block only as far as its metrics read: its first m columns, m the
    largest k of T_X or the largest r-hop neighborhood among its rows for T_G.
    1-NN reads a masked ``argmin``: the nearest column of another fold, ties to
    the smaller index.
    Returns ({k: T_X(k)}, {r: T_G(r)}, k-NN feature pairs, 1-NN accuracy)."""
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    _check_metric_args(n, x, ks, graph, rs, knn_k, labels, folds, y)
    if labels is not None:
        fold_members = np.array_split(np.random.default_rng(seed).permutation(n), folds)
        fold_of = np.empty(n, dtype=np.int64)
        for f, members in enumerate(fold_members):
            fold_of[members] = f
        correct = np.empty(n, dtype=bool)

    map_top = np.empty((n, max(ks, default=0)), dtype=np.int64)
    jaccard = np.empty((len(rs), n))
    for rows, d in distance_blocks(y):
        b = np.arange(rows.stop - rows.start)
        if labels is not None:  # argmin takes the first of equal values
            masked = np.where(fold_of == fold_of[rows, None], np.inf, d)
            nearest = masked.argmin(axis=1)
            # argmin puts NaN first and cannot tell a masked inf from a real one,
            # distances a layout near the float range makes: sort such a row
            for i in np.flatnonzero(~np.isfinite(masked[b, nearest])):
                other = np.flatnonzero(fold_of != fold_of[rows.start + i])
                nearest[i] = other[np.argsort(d[i, other], kind="stable")[0]]
            correct[rows] = labels[nearest] == labels[rows]
        width = map_top.shape[1]
        if rs:  # one BFS for every radius; neighborhood sizes with self cut
            hops = bfs_shortest_paths(graph, np.arange(rows.start, rows.stop),
                                      np.arange(n), hop_cap=max(rs))
            sizes = [np.count_nonzero(hops <= r, axis=1) - 1 for r in rs]
            width = max(width, max(int(size.max()) for size in sizes))
        if not (ks or rs):
            continue
        if n == 1:  # no other node: every r-hop neighborhood is empty and counts 1
            jaccard[:, rows] = 1.0
            continue
        # the map-nearest columns every metric reads: the k of T_X, |N_r(i)| of T_G
        prefix = rank_prefix(rows, d, min(max(width, 1), n - 1))
        map_top[rows] = prefix[:, :map_top.shape[1]]
        if rs:
            hops = np.take_along_axis(hops, prefix, axis=1)
            for slot, (r, size) in enumerate(zip(rs, sizes)):
                # within[b, m - 1]: r-hop neighbors among the m map-nearest
                within = np.cumsum(hops <= r, axis=1)
                inter = within[b, size - 1]
                jaccard[slot, rows] = np.where(
                    size > 0, inter / np.maximum(2 * size - inter, 1), 1.0)

    knn_pairs, penalty = np.empty((0, 2), dtype=np.int64), [0] * len(ks)
    if x is not None:
        knn_pairs, penalty = _feature_pass(x, knn_k or 0, ks, map_top)
    t_feature = {k: 1.0 - 2.0 * p / (n * k * (2 * n - 3 * k - 1))
                 for k, p in zip(ks, penalty)}
    # per-row values are summed in row order (cumsum), as a loop over rows would
    t_graph = {r: float(np.cumsum(jaccard[slot])[-1]) / n for slot, r in enumerate(rs)}
    accuracy = None if labels is None else float(
        np.mean([np.mean(correct[members]) for members in fold_members]))
    return t_feature, t_graph, knn_pairs, accuracy


def knn_graph(x: np.ndarray, k: int) -> np.ndarray:
    """Directed k-NN pairs over feature rows, the first k of each row of the
    feature pass that scores a layout: an (N*k, 2) int array of pairs (i, j),
    ordered by i and then by squared Euclidean distance from i, ties to the
    smaller index, self excluded."""
    _check_metric_args(len(x), knn_k=k)
    return _feature_pass(x, k)[0]


def feature_trustworthiness(x: np.ndarray, y: np.ndarray, k: int) -> float:
    """Penalty-weighted agreement between feature-space and map k-NN sets.

    T_X(k) = 1 - 2/(N k (2N - 3k - 1)) sum_i sum_{j in U(i,k)} (r(i,j) - k)
    where U(i,k) are map neighbors of i that are not feature neighbors and
    r(i,j) is j's rank by feature-space distance from i (rank 1 = nearest,
    self excluded, ties by smaller index).
    """
    return _score(y, x=x, ks=(k,))[0][k]


def graph_trustworthiness(graph: Graph, y: np.ndarray, r: int) -> float:
    """Mean Jaccard similarity between r-hop graph neighborhoods and
    equally-sized map nearest-neighbor sets.

    Nodes whose r-hop neighborhood is empty contribute similarity 1.
    """
    return _score(y, graph=graph, rs=(r,))[1][r]


def distance_metrics(graph: Graph, knn_pairs: np.ndarray,
                     y: np.ndarray) -> tuple[float, float]:
    """Mean squared map distance over graph edges (P_G) and over feature-space
    k-NN pairs (P_X), both computed on the standardized map."""
    y = np.asarray(y, dtype=np.float64)
    _check_metric_args(y.shape[0], graph=graph, y=y)
    edges = graph.edge_pairs
    knn_pairs = np.asarray(knn_pairs, dtype=np.int64)
    if edges.shape[0] == 0:
        raise ValueError("graph has no edges")
    if knn_pairs.ndim != 2 or knn_pairs.shape[1] != 2:
        raise ValueError(f"k-NN pairs must have shape (M, 2), got {knn_pairs.shape}")
    if knn_pairs.shape[0] == 0:
        raise ValueError("empty k-NN pair set")
    bad = (knn_pairs < 0) | (knn_pairs >= y.shape[0])
    if bad.any():  # a negative id would index from the end
        raise ValueError(f"k-NN pair id {knn_pairs[bad][0]} out of range "
                         f"[0, {y.shape[0]})")
    s = standardize_map(y)
    diff_g = s[edges[:, 0]] - s[edges[:, 1]]
    diff_x = s[knn_pairs[:, 0]] - s[knn_pairs[:, 1]]
    p_g = float(np.mean(np.sum(diff_g * diff_g, axis=1)))
    p_x = float(np.mean(np.sum(diff_x * diff_x, axis=1)))
    return p_g, p_x


def knn_1_accuracy(y: np.ndarray, labels: np.ndarray, folds: int = DEFAULT_FOLDS,
                   seed: int = 0) -> float:
    """Mean k-fold generalization accuracy of a 1-nearest-neighbor classifier
    in the map. Folds are a seeded random partition; nearest-neighbor ties go
    to the smaller node index."""
    return _score(y, labels=np.asarray(labels), folds=folds, seed=seed)[3]


@dataclass
class MetricsReport:
    alpha: float | None
    t_feature: dict            # k -> T_X(k)
    t_graph: dict              # r -> T_G(r)
    p_graph: float
    p_feature: float
    knn_accuracy: float | None
    runtime_s: float

    @property
    def combined(self) -> float:
        return self.p_graph + self.p_feature

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "t_feature": {str(k): v for k, v in self.t_feature.items()},
            "t_graph": {str(r): v for r, v in self.t_graph.items()},
            "p_graph": self.p_graph,
            "p_feature": self.p_feature,
            "combined": self.combined,
            "knn_accuracy": self.knn_accuracy,
            "runtime_s": self.runtime_s,
        }


def evaluate_layout(data: LabeledDataset, y: np.ndarray, alpha: float | None = None,
                    knn_k: int = DEFAULT_KNN_K, t_ks=DEFAULT_T_KS,
                    t_rs=DEFAULT_T_RS, folds: int = DEFAULT_FOLDS,
                    seed: int = 0) -> MetricsReport:
    """Full metric suite for one layout of the given dataset."""
    start = time.perf_counter()
    t_feature, t_graph, knn_pairs, accuracy = _score(
        y, data.features, [int(k) for k in t_ks], data.graph, [int(r) for r in t_rs],
        knn_k, data.labels, folds, seed)
    p_g, p_x = distance_metrics(data.graph, knn_pairs, y)
    return MetricsReport(alpha=alpha, t_feature=t_feature, t_graph=t_graph,
                         p_graph=p_g, p_feature=p_x, knn_accuracy=accuracy,
                         runtime_s=time.perf_counter() - start)


def _check_grid(grid, name: str = "alpha grid") -> list:
    """The grid as a list of floats; ValueError naming it when it is empty, a
    value lies outside [0, 1] or a value repeats (each alpha keys its layout)."""
    grid = [float(a) for a in grid]
    if not grid:
        raise ValueError(f"{name} must be non-empty")
    if any(not 0.0 <= a <= 1.0 for a in grid):
        raise ValueError(f"{name} values must lie in [0, 1]: {grid}")
    for i, a in enumerate(grid):
        if a in grid[:i]:
            raise ValueError(f"{name} lists {a} more than once: {grid}")
    return grid


@dataclass
class SweepResult:
    reports: list
    alpha_star: float
    embeddings: dict = field(default_factory=dict)   # alpha -> N x 2 layout


def alpha_sweep(data: LabeledDataset, cfg: TrainConfig, grid,
                knn_k: int = DEFAULT_KNN_K, t_ks=DEFAULT_T_KS,
                t_rs=DEFAULT_T_RS, folds: int = DEFAULT_FOLDS) -> SweepResult:
    """Train one model per alpha on the grid, evaluate each layout, and pick
    alpha* = argmin of P_G + P_X (ties toward smaller alpha).

    Each grid point gets a fresh init seeded from (cfg.seed, grid index), so
    sweeps are deterministic but runs do not share initialization. Layouts
    are scored with evaluate_layout's 1-NN fold seed, not cfg.seed. Training
    failures are re-raised annotated with the failing alpha.
    """
    grid = _check_grid(grid)
    _check_metric_args(data.graph.num_nodes, data.features, t_ks, data.graph,
                       t_rs, knn_k, data.labels, folds)
    reports = []
    embeddings = {}
    for i, a in enumerate(grid):
        cfg_a = replace(cfg, alpha=a, seed=_child_seed(cfg.seed, i))
        try:
            model, _ = train(data, cfg_a)
            y = embed(model, data)
        except TrainingError as exc:
            raise TrainingError(f"alpha={a}: {exc}") from exc
        embeddings[a] = y
        reports.append(evaluate_layout(data, y, alpha=a, knn_k=knn_k,
                                       t_ks=t_ks, t_rs=t_rs, folds=folds))
    best = min(range(len(grid)), key=lambda i: (reports[i].combined, grid[i]))
    return SweepResult(reports=reports, alpha_star=grid[best],
                       embeddings=embeddings)

"""Graph ingestion, shortest paths, kNN construction and neighbor subsampling.

Node ids are dense 0-based integers. Graphs are undirected, stored in a
CSR-style layout (offsets + sorted neighbor lists). Unreachable node pairs
are reported with the :data:`UNREACHABLE` sentinel so downstream affinity
code can branch on them exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .affinity import pairwise_sq_euclidean
from .errors import MalformedInputError

logger = logging.getLogger(__name__)

#: Distance sentinel for node pairs with no connecting path (or beyond a hop cap).
UNREACHABLE = np.inf
_RANK_BLOCK = 256  # rows per block of rank_blocks; its temporaries are O(block * N)


@dataclass
class Graph:
    """Immutable undirected graph over nodes 0..num_nodes-1.

    ``edge_pairs`` holds each undirected edge once as (i, j) with i < j.
    ``offsets``/``neighbors`` is the CSR adjacency; neighbor lists are sorted
    and contain no self-loops or duplicates.
    """

    num_nodes: int
    edge_pairs: np.ndarray
    offsets: np.ndarray
    neighbors: np.ndarray

    @property
    def num_edges(self) -> int:
        return int(self.edge_pairs.shape[0])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def adj(self, node: int) -> np.ndarray:
        """Sorted neighbor ids of ``node`` (a read-only view)."""
        return self.neighbors[self.offsets[node]:self.offsets[node + 1]]

    @classmethod
    def from_edges(cls, num_nodes: int, pairs) -> "Graph":
        """Build a graph from an iterable of (i, j) pairs.

        Self-loops and duplicate edges (in either orientation) are dropped;
        a count of each is logged as a warning. Raises ValueError on
        out-of-range endpoints.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge pairs must be of shape (E, 2)")
        if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
            raise ValueError("edge endpoint out of range [0, num_nodes)")

        loops = arr[:, 0] == arr[:, 1]
        n_loops = int(loops.sum())
        arr = arr[~loops]
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        undirected = np.stack([lo, hi], axis=1)
        if undirected.shape[0]:
            undirected = np.unique(undirected, axis=0)
        n_dupes = int(arr.shape[0] - undirected.shape[0])
        if n_loops or n_dupes:
            logger.warning("dropped %d self-loop(s) and %d duplicate edge(s)",
                           n_loops, n_dupes)

        both = np.concatenate([undirected, undirected[:, ::-1]], axis=0)
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(num_nodes=num_nodes, edge_pairs=undirected,
                   offsets=offsets, neighbors=both[:, 1].copy())


@dataclass
class LabeledDataset:
    """A graph paired with node features and optional class labels."""

    graph: Graph
    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.graph.num_nodes:
            raise ValueError(
                f"feature rows ({self.features.shape[0]}) != graph nodes "
                f"({self.graph.num_nodes})")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.graph.num_nodes,):
                raise ValueError("labels must have one entry per node")


def _read_lines(path, comments: bool = False):
    """Yield (1-based line number, stripped text) for each non-blank line of
    a UTF-8 text file, read line by line; with ``comments``, text after a '#'
    is dropped. Raises MalformedInputError naming the file if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                if comments:
                    line = line.split("#", 1)[0]
                text = line.strip()
                if text:
                    yield lineno, text
        except UnicodeDecodeError:
            raise MalformedInputError(f"{path}: not UTF-8 text") from None


def _float_row(path, rowno: int, cells) -> np.ndarray:
    """Parse one CSV row's cells as finite float64 values, or raise
    MalformedInputError naming the row."""
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        raise MalformedInputError(f"{path}: row {rowno}: non-numeric cell") from None
    if not np.isfinite(values).all():
        raise MalformedInputError(f"{path}: row {rowno}: non-finite value")
    return values


def load_edge_list(path, num_nodes: int) -> Graph:
    """Read an undirected edge list from a text file.

    Format: two whitespace-separated integer node ids per line; anything
    after a '#' is a comment; blank lines are skipped. Edges are
    symmetrized and deduplicated, self-loops dropped with a warning.

    Raises MalformedInputError (naming the line) on parse errors or
    endpoints outside [0, num_nodes); OSError if the file is unreadable.
    """
    pairs = []
    for lineno, text in _read_lines(path, comments=True):
        parts = text.split()
        if len(parts) != 2:
            raise MalformedInputError(
                f"{path}: line {lineno}: expected two node ids, got {len(parts)} fields")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedInputError(
                f"{path}: line {lineno}: non-integer node id") from None
        if not (0 <= i < num_nodes and 0 <= j < num_nodes):
            raise MalformedInputError(
                f"{path}: line {lineno}: node id out of range [0, {num_nodes})")
        pairs.append((i, j))
    return Graph.from_edges(num_nodes, pairs)


def load_features_csv(path) -> np.ndarray:
    """Read a headerless CSV of N rows x n numeric columns as float64.

    Raises MalformedInputError naming the (1-based) row on ragged rows,
    non-numeric cells, or non-finite values.
    """
    rows = []
    for rowno, line in _read_lines(path):
        cells = line.split(",")
        if rows and len(cells) != rows[0].size:
            raise MalformedInputError(
                f"{path}: row {rowno}: expected {rows[0].size} columns, got {len(cells)}")
        rows.append(_float_row(path, rowno, cells))
    if not rows:
        raise MalformedInputError(f"{path}: no data rows")
    return np.vstack(rows)


def load_labels_csv(path) -> np.ndarray:
    """Read a headerless CSV with one integer class id per row."""
    labels = []
    for rowno, line in _read_lines(path):
        try:
            value = float(line)
        except ValueError:
            raise MalformedInputError(
                f"{path}: row {rowno}: non-integer label") from None
        if not value.is_integer():
            raise MalformedInputError(
                f"{path}: row {rowno}: non-integer label")
        labels.append(int(value))
    if not labels:
        raise MalformedInputError(f"{path}: no data rows")
    return np.asarray(labels, dtype=np.int64)


def bfs_shortest_paths(graph: Graph, sources, targets,
                       hop_cap: int | None = None) -> np.ndarray:
    """Shortest-path hop distances for every (source, target) pair.

    Returns a float64 matrix of shape (len(sources), len(targets));
    unreachable pairs (or pairs beyond ``hop_cap``) hold UNREACHABLE.
    Sources are searched in blocks of 64 that advance together, one level
    at a time: every node carries a 64-bit word with one bit per source of
    the block, and a level ORs together the words of each node's neighbors.
    A block stops at ``hop_cap``, when no new node is reached, or once every
    target is reached from every source of the block.
    """
    sources = np.asarray(sources, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    n = graph.num_nodes
    for name, ids in (("sources", sources), ("targets", targets)):
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError(f"{name} contain a node id outside [0, {n})")

    out = np.full((sources.size, targets.size), UNREACHABLE)
    # reduceat returns the element itself for an empty segment and rejects a
    # start equal to len(neighbors), so only nodes with neighbors are reduced
    linked = np.flatnonzero(np.diff(graph.offsets))
    starts = graph.offsets[linked]
    for first in range(0, sources.size, 64):
        block = sources[first:first + 64]
        rows = out[first:first + 64]
        # bit b of a node's word is set once block[b] reaches it; the words
        # are little-endian, so the uint8 view lists bit b as bit b % 8 of
        # byte b // 8 on any platform
        frontier = np.zeros(n, dtype="<u8")
        np.bitwise_or.at(frontier, block,
                         np.uint64(1) << np.arange(block.size, dtype=np.uint64))
        seen = frontier.copy()
        remaining = rows.size
        level = 0
        while True:
            bits = np.unpackbits(frontier[targets].view(np.uint8).reshape(-1, 8),
                                 axis=1, bitorder="little")
            hit = bits[:, :block.size].T.astype(bool)
            rows[hit] = level
            remaining -= np.count_nonzero(hit)
            if remaining == 0 or (hop_cap is not None and level >= hop_cap):
                break
            reached = np.zeros_like(frontier)
            reached[linked] = np.bitwise_or.reduceat(frontier[graph.neighbors],
                                                     starts)
            reached &= ~seen
            if not reached.any():
                break
            seen |= reached
            frontier = reached
            level += 1
    return out


def all_pairs_distances(graph: Graph, hop_cap: int | None = None) -> np.ndarray:
    """All-pairs shortest-path distance matrix (N x N, UNREACHABLE sentinel)."""
    ids = np.arange(graph.num_nodes)
    return bfs_shortest_paths(graph, ids, ids, hop_cap=hop_cap)


def rank_blocks(d: np.ndarray):
    """Yield ``(rows, order)`` per row block of a square distance matrix: ``order[b]``
    lists every column but ``rows[b]``, nearest first, ties to the smaller index."""
    for first in range(0, len(d), _RANK_BLOCK):
        rows = np.arange(first, min(first + _RANK_BLOCK, len(d)))
        block = d[rows]
        block[np.arange(rows.size), rows] = -np.inf  # self sorts first, then is cut
        yield rows, np.argsort(block, axis=1, kind="stable")[:, 1:]


def knn_graph(x: np.ndarray, k: int) -> np.ndarray:
    """Directed k-nearest-neighbor pairs over feature rows.

    Returns an (N*k, 2) int array of pairs (i, j) where j is among the k
    nearest rows to i by squared Euclidean distance, self excluded, ties
    broken by the smaller node index. Rows are ordered by source node,
    then by (distance, index) rank.
    """
    n = len(x)
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the number of rows ({n})")
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = [order[:, :k] for _, order in rank_blocks(pairwise_sq_euclidean(x))]
    return np.stack([np.repeat(np.arange(n), k), np.concatenate(ranked).ravel()], axis=1)


@dataclass
class SubsampledBatch:
    """Layered neighbor expansion of a mini-batch for a multi-layer GCN.

    ``frontiers[0]`` is the batch itself; ``frontiers[i]`` extends
    ``frontiers[i-1]`` (prefix-nested) with the neighbors sampled for the
    i-th expansion step, so ``frontiers[-1]`` is the full set of nodes whose
    input features the forward pass reads. ``layer_edges[l-1]`` holds the
    sampled (dst, src) pairs used by conv layer l; the top layer is expanded
    first, so layer L draws from frontiers[0] -> frontiers[1], layer 1 from
    frontiers[L-1] -> frontiers[L].
    """

    batch_nodes: np.ndarray
    frontiers: list = field(default_factory=list)
    layer_edges: list = field(default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.layer_edges)


def neighbor_subsample(graph: Graph, batch_nodes, fanouts, seed: int) -> SubsampledBatch:
    """Expand a mini-batch layer by layer, sampling at most d(l) neighbors per node.

    ``fanouts`` holds one fan-out per GCN layer (layer 1 first). Expansion
    starts at the top layer: the batch is grown with up to fanouts[-1]
    sampled neighbors per node, then the result with up to fanouts[-2], and
    so on. Sampling is without replacement and deterministic for a fixed
    seed; nodes with degree <= d(l) keep all neighbors.
    """
    rng = np.random.default_rng(seed)
    batch = np.asarray(batch_nodes, dtype=np.int64)
    if batch.size != np.unique(batch).size:
        raise ValueError("batch_nodes must be unique")
    if batch.size and (batch.min() < 0 or batch.max() >= graph.num_nodes):
        raise ValueError("batch node id out of range")

    fanouts = tuple(int(d) for d in fanouts)
    frontiers = [batch]
    edges_by_step = []
    for step in range(len(fanouts)):
        fanout = fanouts[len(fanouts) - 1 - step]
        current = frontiers[step]
        dst_list, src_list = [], []
        for node in current.tolist():
            neigh = graph.adj(node)
            if neigh.size > fanout:
                picked = np.sort(rng.choice(neigh, size=fanout, replace=False))
            else:
                picked = neigh
            dst_list.append(np.full(picked.size, node, dtype=np.int64))
            src_list.append(picked.astype(np.int64))
        dst = np.concatenate(dst_list) if dst_list else np.empty(0, np.int64)
        src = np.concatenate(src_list) if src_list else np.empty(0, np.int64)
        edges_by_step.append((dst, src))
        # frontiers are prefix-nested, so ``current`` holds every node seen
        frontiers.append(np.concatenate([current, np.setdiff1d(src, current)]))
    return SubsampledBatch(batch_nodes=batch, frontiers=frontiers,
                           layer_edges=edges_by_step[::-1])

"""Graph ingestion, shortest paths, rank orders and neighbor subsampling.

Node ids are dense 0-based integers. Graphs are undirected, stored in a
CSR-style layout (offsets + sorted neighbor lists). Unreachable node pairs
are reported with the :data:`UNREACHABLE` sentinel so downstream affinity
code can branch on them exactly.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass, field
from itertools import compress, repeat

import numpy as np

# not called here, but perfbench/tracer.py wraps graph.pairwise_sq_euclidean
from .affinity import pairwise_sq_euclidean  # noqa: F401
from .errors import MalformedInputError

logger = logging.getLogger(__name__)

#: Distance sentinel for node pairs with no connecting path (or beyond a hop cap).
UNREACHABLE = np.inf

_MAX_NODES = 3_037_000_499  # the largest N with N * N < 2**63: edge keys i * N + j fit int64

_CHUNK_CHARS = 1 << 16  # characters per chunk an input file is read in: O(chunk) temporaries


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
        out-of-range endpoints, and when num_nodes exceeds 3 037 000 499:
        edges are sorted as int64 keys i * num_nodes + j.
        """
        if num_nodes < 0:
            raise ValueError("num_nodes must be nonnegative")
        if num_nodes > _MAX_NODES:
            raise ValueError(f"num_nodes must be at most {_MAX_NODES}")
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge pairs must be of shape (E, 2)")
        if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
            raise ValueError("edge endpoint out of range [0, num_nodes)")

        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        kept = lo != hi
        n_loops = int(arr.shape[0] - kept.sum())
        keys = lo[kept] * num_nodes + hi[kept]
        # np.unique, by hand: NumPy's unique of integers hashes before it sorts,
        # which takes longer. Keys sort as their (lo, hi) pairs, lexicographically.
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        n_dupes = int(arr.shape[0] - n_loops - keys.size)
        if n_loops or n_dupes:
            logger.warning("dropped %d self-loop(s) and %d duplicate edge(s)",
                           n_loops, n_dupes)

        lo, hi = np.divmod(keys, num_nodes)
        both = np.concatenate([keys, hi * num_nodes + lo])
        both.sort()     # each node's neighbors, node by node
        counts = np.bincount(lo, minlength=num_nodes)
        counts += np.bincount(hi, minlength=num_nodes)
        offsets = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(num_nodes=num_nodes, edge_pairs=np.stack([lo, hi], axis=1),
                   offsets=offsets, neighbors=both % num_nodes)


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


def _read_chunks(path, comments: bool = False):
    """Yield (line numbers, texts) per chunk of about ``_CHUNK_CHARS``
    characters of a UTF-8 text file: the 1-based numbers and the stripped
    text of the chunk's non-blank lines. With ``comments``, text after a '#'
    is dropped. Raises MalformedInputError naming the file if it is not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        first = 1
        while True:
            try:
                lines = fh.readlines(_CHUNK_CHARS)
            except UnicodeDecodeError:
                raise MalformedInputError(f"{path}: not UTF-8 text") from None
            if not lines:
                return
            if comments and "#" in "".join(lines):
                lines = [line.split("#", 1)[0] for line in lines]
            texts = list(map(str.strip, lines))
            linenos = range(first, first + len(texts))
            first += len(texts)
            if not all(texts):
                linenos = list(compress(linenos, texts))
                texts = list(filter(None, texts))
            if texts:
                yield linenos, texts


def _read_plain(texts: list, width: int):
    """The comma-separated lines ``texts`` as a (len(texts), ``width``)
    float64 array read by NumPy's C text reader, which hands each cell to
    the C function float() calls; None where the reader declines them or
    might read a cell otherwise than _parse."""
    text = "".join(texts)
    # float() takes digits beyond ASCII and keeps \x1c-\x1f around a cell; the
    # reader does neither
    if not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    with warnings.catch_warnings():
        # a cell the reader reads only with a warning, as a deprecated reading
        # of the installed NumPy, declines the chunk too
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(texts, dtype=np.float64, delimiter=",", comments=None,
                                quotechar=None, ndmin=2)
        except (ValueError, Warning):  # say, 1_000 or a bad cell
            return None
    return values if values.shape == (len(texts), width) else None


def _parse(cells: list, dtype):
    """``cells``, a list of str, as one array of ``dtype``, which NumPy fills
    by calling Python's float() or int() on each; None if one does not parse.
    This defines what a cell means, and the readers' errors are worded from
    it; _read_plain only reads the common case faster. Integers beyond int64
    come back as an object array of Python ints, which any caller's range
    check rejects."""
    try:
        return np.array(cells, dtype=dtype)
    except ValueError:
        return None
    except OverflowError:
        try:
            return np.array(list(map(int, cells)), dtype=object)
        except ValueError:
            return None


def _field_counts(texts: list, sep: str) -> np.ndarray:
    """The number of ``sep``-separated fields in each text."""
    return np.fromiter(map(str.count, texts, repeat(sep)), np.int64, len(texts)) + 1


def _floats(cells: list, width: int):
    """``cells`` as finite float64 values in rows of ``width``, or the reason
    they are not."""
    values = _parse(cells, np.float64)
    if values is None:
        return "non-numeric cell"
    if not np.isfinite(values).all():
        return "non-finite value"
    return values.reshape(-1, width)


def _read_table(path, unit: str, parse, comments: bool = False) -> list:
    """What ``parse(numbers, texts)`` returns for each chunk of the file's
    non-blank lines (see _read_chunks): the chunk's value, such as an
    array, or a str, the reason it rejects the chunk. A rejected chunk is
    parsed again one line at a time, and the first line rejected alone
    raises MalformedInputError naming the line as ``unit`` ("line" or
    "row") with its reason. Only a one-line call's reason is read, so
    ``parse`` checks in the order that picks it: field count, parse,
    finiteness, range, duplicates."""
    blocks = []
    for numbers, texts in _read_chunks(path, comments):
        block = parse(numbers, texts)
        if isinstance(block, str):  # a chunk is rejected for a line rejected alone
            alone = ((number, parse([number], [text])) for number, text in zip(numbers, texts))
            number, reason = next(line for line in alone if isinstance(line[1], str))
            raise MalformedInputError(f"{path}: {unit} {number}: {reason}")
        blocks.append(block)
    return blocks


def load_edge_list(path, num_nodes: int) -> Graph:
    """Read an undirected edge list from a text file.

    Format: two whitespace-separated integer node ids per line; anything
    after a '#' is a comment; blank lines are skipped. Edges are
    symmetrized and deduplicated, self-loops dropped with a warning. An id
    means what int() makes of it.

    Raises MalformedInputError (naming the line) on parse errors or
    endpoints outside [0, num_nodes); OSError if the file is unreadable.
    """
    def parse(linenos, texts):
        fields = np.fromiter(map(len, map(str.split, texts)), np.int64, len(texts))
        if (fields != 2).any():
            return f"expected two node ids, got {fields[0]} fields"
        ids = _parse(" ".join(texts).split(), np.int64)
        if ids is None:
            return "non-integer node id"
        if ids.min() < 0 or ids.max() >= num_nodes:
            return f"node id out of range [0, {num_nodes})"
        return ids.reshape(-1, 2)

    blocks = _read_table(path, "line", parse, comments=True)
    pairs = np.concatenate(blocks) if blocks else np.empty((0, 2), dtype=np.int64)
    return Graph.from_edges(num_nodes, pairs)


def load_features_csv(path) -> np.ndarray:
    """Read a headerless CSV of N rows x n numeric columns as float64.

    A cell means what float() makes of it. NumPy's text reader reads a
    chunk of plain decimal numbers; a chunk it declines, or one with a
    value that is not finite, is read cell by cell with float().

    Raises MalformedInputError naming the (1-based) row on ragged rows,
    non-numeric cells, or non-finite values.
    """
    ncols = None

    def parse(rownos, texts):
        nonlocal ncols
        counts = _field_counts(texts, ",")
        ncols = int(counts[0]) if ncols is None else ncols  # the first row's
        if (counts != ncols).any():
            return f"expected {ncols} columns, got {counts[0]}"
        values = _read_plain(texts, ncols)
        if values is not None and np.isfinite(values).all():
            return values
        return _floats(",".join(texts).split(","), ncols)

    blocks = _read_table(path, "row", parse)
    if not blocks:
        raise MalformedInputError(f"{path}: no data rows")
    return np.concatenate(blocks)


def _label(text: str):
    """The integer a label cell holds: what int() reads, else a finite,
    integer-valued float() as an int; None if it holds no integer."""
    try:
        return int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return None
        return int(value) if value.is_integer() else None


def load_labels_csv(path) -> np.ndarray:
    """Read a headerless CSV with one integer class id per row.

    A cell that int() reads loads as exactly that integer; one that only
    float() reads must hold an integer value. Raises MalformedInputError
    naming the row on a label that is not an integer or does not fit in int64.
    """
    def parse(rownos, texts):
        labels = list(map(_label, texts))
        if None in labels:
            return "non-integer label"
        try:
            return np.asarray(labels, dtype=np.int64)
        except OverflowError:
            return f"label {texts[0]} out of the int64 range"

    blocks = _read_table(path, "row", parse)
    if not blocks:
        raise MalformedInputError(f"{path}: no data rows")
    return np.concatenate(blocks)


def read_layout_csv(path, num_nodes: int) -> np.ndarray:
    """Parse a layout CSV (node_id,x,y; header optional) into an N x 2 matrix.

    Every node id in [0, num_nodes) must appear exactly once, with finite
    coordinates.
    """
    y = np.full((num_nodes, 2), np.nan)  # a NaN row: that node is not read yet

    def parse(rownos, texts):
        if rownos[0] == 1 and texts[0].lower().startswith("node_id"):
            texts = texts[1:]  # the header
            if not texts:
                return y
        counts = _field_counts(texts, ",")
        if (counts != 3).any():
            return f"expected 3 columns, got {counts[0]}"
        cells = ",".join(texts).split(",")
        nodes = _parse(cells[0::3], np.int64)
        if nodes is None:
            return "non-numeric cell"
        del cells[0::3]
        coords = _floats(cells, 2)
        if isinstance(coords, str):
            return coords
        if nodes.min() < 0 or nodes.max() >= num_nodes:
            return f"node id {nodes[0]} out of range [0, {num_nodes})"
        if not (np.isnan(y[nodes, 0]).all() and np.unique(nodes).size == nodes.size):
            return f"duplicate node id {nodes[0]}"
        y[nodes] = coords  # only once the whole chunk passes
        return y

    _read_table(path, "row", parse)
    count = int(np.count_nonzero(~np.isnan(y[:, 0])))
    if count != num_nodes:
        raise MalformedInputError(
            f"{path}: {count} layout rows for {num_nodes} nodes")
    return y


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
    for first in range(0, sources.size, 64):  # one bit per source in a uint64 word
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


def rank_blocks(blocks):
    """Yield ``(rows, order)`` per ``(rows, block)`` of distances from those rows to all
    n points, whose self entries it sets to -inf: ``order[b]`` lists every column but
    ``rows.start + b``, nearest first, ties to the smaller index and NaN last, the order
    of a stable argsort.

    Each block is sorted by NumPy's default, unstable argsort. A row with no two equal
    values has only one order. In a row with ties, each distinct value gets a dense
    code, and a stable argsort of the codes as small unsigned integers (NumPy's radix
    sort below 65536 columns) orders every tie by index.
    """
    for rows, block in blocks:
        n = block.shape[1]
        np.fill_diagonal(block[:, rows], -np.inf)  # self sorts first, then is cut
        order = np.argsort(block, axis=1)
        ranked = np.take_along_axis(block, order, axis=1)
        # NaNs sort last, and a stable sort keeps them in index order like equal values
        tied = ranked[:, 1:] == ranked[:, :-1]
        tied |= np.isnan(ranked[:, :-1])
        ties = np.flatnonzero(tied.any(axis=1))
        # code[t, j]: the number of distinct values sorted before position j
        code = np.zeros((ties.size, n), dtype=np.min_scalar_type(n))
        np.cumsum(~tied[ties], axis=1, dtype=code.dtype, out=code[:, 1:])
        by_column = np.empty_like(code)
        np.put_along_axis(by_column, order[ties], code, axis=1)
        order[ties] = np.argsort(by_column, axis=1, kind="stable")
        yield rows, order[:, 1:]


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

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

import graphtsne
from graphtsne import Graph, LabeledDataset, graph, neighbor_subsample, sbm_dataset

ACCEPTANCE_VERDICTS = []


def child_env(**extra):
    """This process's environment plus ``extra``, for a child process that
    imports graphtsne from where this process does, installed or not."""
    package_root = os.path.dirname(os.path.dirname(graphtsne.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def path_graph():
    """0-1-2-3-4 path."""
    return Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


@pytest.fixture
def two_component_graph():
    """Triangle {0,1,2} plus edge {3,4} plus isolated node 5."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])


@pytest.fixture
def small_sbm():
    return sbm_dataset([15, 15, 15], p_intra=0.5, p_inter=0.04,
                       feature_dim=6, seed=7)


def finite_difference_grads(loss_fn, params, h=1e-6):
    """Central finite differences of a scalar function over a list of arrays."""
    grads = []
    for param in params:
        g = np.zeros_like(param)
        flat = param.ravel()
        gflat = g.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            gflat[idx] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(a, b, floor=1e-3):
    """Elementwise |a-b| / max(|a|, |b|, floor), reduced to the maximum."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def draw_sampled_batch(data):
    """A hypothesis-drawn graph of 1-40 nodes, a batch of its nodes and one
    to three fanouts, sampled by ``neighbor_subsample``. Returns
    (edge pairs, graph, batch, fanouts, seed, sample)."""
    n = data.draw(st.integers(1, 40), label="n")
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=4 * n), label="pairs")
    graph = Graph.from_edges(n, [(i, j) for i, j in pairs if i != j])
    batch = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                                        unique=True), label="batch"))
    fanouts = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3),
                        label="fanouts")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    return pairs, graph, batch, fanouts, seed, neighbor_subsample(graph, batch, fanouts, seed)


#: Padding around a cell or a line, and line endings, as input files may have them.
PADDING = st.sampled_from(["", " ", "\t", "  \t"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])


def draw_input_file(data, lines, bad_line):
    """``lines`` with blank lines drawn between them and, half the time, one
    line from ``bad_line`` at a drawn position."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 3), label="blanks")):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(PADDING))
    if data.draw(st.booleans(), label="with a bad line"):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(bad_line, label="bad"))
    return lines


def _outcome(load, path):
    """What ``load(path)`` did: the dtype, shape and bytes of each array it
    returned, or the type and message of what it raised."""
    try:
        result = load(path)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    arrays = result if isinstance(result, tuple) else (result,)
    return "returned", [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def assert_loads_like_oracle(data, lines, load, oracle):
    """Write ``lines`` with a drawn line ending, then read the file with
    ``load`` in chunks of a drawn size, mostly a line or a few, and with
    ``oracle``: both return the same bytes or raise the same error."""
    newline = data.draw(NEWLINES, label="newline")
    text = newline.join(lines) + data.draw(st.sampled_from(["", newline]), label="end")
    chunk = data.draw(st.integers(1, 40) | st.just(graph._CHUNK_CHARS), label="chunk")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        with mock.patch.object(graph, "_CHUNK_CHARS", chunk):
            got = _outcome(load, path)
        want = _outcome(oracle, path)
    assert got == want

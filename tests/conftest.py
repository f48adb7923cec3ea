import numpy as np
import pytest
from hypothesis import strategies as st

from graphtsne import Graph, LabeledDataset, neighbor_subsample, sbm_dataset

ACCEPTANCE_VERDICTS = []


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

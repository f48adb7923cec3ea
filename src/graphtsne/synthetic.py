"""Synthetic datasets for tests and benchmarks: stochastic block models with
community-correlated Gaussian features, and plain random graphs."""

from __future__ import annotations

import numpy as np

from .graph import Graph, LabeledDataset

# citation_dataset's fixed shape (Cora's node, class and word counts) and rates
CITATION_NODES, CITATION_CLASSES, CITATION_WORDS, COMMUNITY_SIZE = 2708, 7, 1433, 40
P_COMMUNITY, P_CLASS, P_INTER = 0.25, 0.003, 0.0001
COMMUNITY_WORDS, COMMUNITY_RATE, CLASS_WORDS, CLASS_RATE = 18, 0.8, 80, 0.05
BACKGROUND_RATE = 0.0008


def sbm_dataset(block_sizes, p_intra: float, p_inter: float,
                feature_dim: int = 8, separation: float = 4.0,
                noise: float = 1.0, seed: int = 0) -> LabeledDataset:
    """Stochastic block model with block-separated Gaussian features.

    Every unordered node pair draws an edge with probability p_intra inside a
    block and p_inter across blocks. Features are isotropic Gaussians around
    a per-block mean. Labels are block ids. Intended for test-scale graphs
    (edge sampling enumerates all pairs).
    """
    block_sizes = [int(s) for s in block_sizes]
    if not block_sizes or any(s < 1 for s in block_sizes):
        raise ValueError("block_sizes must be positive counts")
    if not (0.0 <= p_inter <= p_intra <= 1.0):
        raise ValueError("need 0 <= p_inter <= p_intra <= 1")
    rng = np.random.default_rng(seed)
    num_blocks = len(block_sizes)
    n = int(sum(block_sizes))
    labels = np.repeat(np.arange(num_blocks), block_sizes)

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(labels[iu] == labels[ju], p_intra, p_inter)
    keep = rng.random(prob.size) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    graph = Graph.from_edges(n, edges)

    means = rng.normal(size=(num_blocks, feature_dim)) * separation
    features = means[labels] + rng.normal(size=(n, feature_dim)) * noise
    return LabeledDataset(graph=graph, features=features, labels=labels)


def citation_dataset(seed: int = 0) -> LabeledDataset:
    """Citation-network-shaped fixture with hierarchical structure.

    Classes split into dense communities of ``COMMUNITY_SIZE`` nodes; edges
    are sampled at three rates (within community, within class, across
    classes). Features are sparse binary word indicators: every community
    activates its own word subset at a high rate on top of a lower-rate class
    vocabulary and rare background words, so feature-space neighborhoods
    concentrate inside communities the same way citation neighborhoods do.
    Communities are sized above typical perplexity targets, which keeps the
    blended t-SNE objective well below its starting value on a good layout.
    """
    n, num_classes = CITATION_NODES, CITATION_CLASSES
    rng = np.random.default_rng(seed)
    sizes = [n // num_classes + (c < n % num_classes) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), sizes)
    # a new community starts at every COMMUNITY_SIZE-th node of a class
    in_class = np.arange(n) - np.repeat(np.cumsum([0, *sizes[:-1]]), sizes)
    community = np.cumsum(in_class % COMMUNITY_SIZE == 0) - 1

    iu, ju = np.triu_indices(n, k=1)
    prob = np.where(community[iu] == community[ju], P_COMMUNITY,
                    np.where(labels[iu] == labels[ju], P_CLASS, P_INTER))
    keep = rng.random(prob.size) < prob
    graph = Graph.from_edges(n, np.stack([iu[keep], ju[keep]], axis=1))

    rates = np.full((n, CITATION_WORDS), BACKGROUND_RATE)
    vocab = rng.permutation(CITATION_WORDS)
    per_class = CITATION_WORDS // num_classes   # 204 words, more than a class draws
    for c in range(num_classes):
        words = vocab[c * per_class:(c + 1) * per_class]
        rows = np.flatnonzero(labels == c)
        cw = rng.choice(words, size=CLASS_WORDS, replace=False)
        rates[np.ix_(rows, cw)] = CLASS_RATE
        for k in np.unique(community[rows]):
            kw = rng.choice(words, size=COMMUNITY_WORDS, replace=False)
            rates[np.ix_(np.flatnonzero(community == k), kw)] = COMMUNITY_RATE
    features = (rng.random((n, CITATION_WORDS)) < rates).astype(np.float64)
    return LabeledDataset(graph=graph, features=features, labels=labels)


def random_dataset(num_nodes: int, num_edges: int, feature_dim: int = 16,
                   seed: int = 0) -> LabeledDataset:
    """Random graph with the requested number of sampled edges (self loops and
    duplicates removed, so the final count can be slightly lower) and features
    around 4 class means drawn at twice the noise's scale. Scales to large N."""
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    endpoints = rng.integers(0, num_nodes, size=(num_edges, 2), dtype=np.int64)
    endpoints = endpoints[endpoints[:, 0] != endpoints[:, 1]]
    endpoints = np.unique(np.sort(endpoints, axis=1), axis=0)
    graph = Graph.from_edges(num_nodes, endpoints)
    labels = rng.integers(0, 4, size=num_nodes, dtype=np.int64)
    means = rng.normal(size=(4, feature_dim)) * 2.0
    features = means[labels] + rng.normal(size=(num_nodes, feature_dim))
    return LabeledDataset(graph=graph, features=features, labels=labels)

"""Synthetic datasets for tests and benchmarks: stochastic block models with
community-correlated Gaussian features, and plain random graphs."""

from __future__ import annotations

import numpy as np

from .graph import Graph, LabeledDataset


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


def citation_dataset(num_nodes: int = 2708, num_classes: int = 7,
                     community_size: int = 40, p_community: float = 0.25,
                     p_class: float = 0.003, p_inter: float = 0.0001,
                     feature_dim: int = 1433, community_words: int = 18,
                     community_rate: float = 0.8, class_words: int = 80,
                     class_rate: float = 0.05, background_rate: float = 0.0008,
                     seed: int = 0) -> LabeledDataset:
    """Citation-network-shaped fixture with hierarchical structure.

    Classes split into dense communities of ``community_size`` nodes; edges
    are sampled at three rates (within community, within class, across
    classes). Features are sparse binary word indicators: every community
    activates its own word subset at a high rate on top of a lower-rate class
    vocabulary and rare background words, so feature-space neighborhoods
    concentrate inside communities the same way citation neighborhoods do.
    Communities are sized above typical perplexity targets, which keeps the
    blended t-SNE objective well below its starting value on a good layout.
    """
    if num_nodes < num_classes or community_size < 2:
        raise ValueError("need at least one community per class")
    rng = np.random.default_rng(seed)
    sizes = [num_nodes // num_classes] * num_classes
    for i in range(num_nodes - sum(sizes)):
        sizes[i] += 1
    labels = np.repeat(np.arange(num_classes), sizes)
    community = np.empty(num_nodes, dtype=np.int64)
    cid, start = 0, 0
    for s in sizes:
        for off in range(0, s, community_size):
            community[start + off:start + min(off + community_size, s)] = cid
            cid += 1
        start += s

    iu, ju = np.triu_indices(num_nodes, k=1)
    prob = np.where(community[iu] == community[ju], p_community,
                    np.where(labels[iu] == labels[ju], p_class, p_inter))
    keep = rng.random(prob.size) < prob
    graph = Graph.from_edges(num_nodes, np.stack([iu[keep], ju[keep]], axis=1))

    rates = np.full((num_nodes, feature_dim), background_rate)
    vocab = rng.permutation(feature_dim)
    per_class = feature_dim // num_classes
    for c in range(num_classes):
        words = vocab[c * per_class:(c + 1) * per_class]
        rows = np.flatnonzero(labels == c)
        cw = rng.choice(words, size=min(class_words, words.size), replace=False)
        rates[np.ix_(rows, cw)] = class_rate
        for k in np.unique(community[rows]):
            kw = rng.choice(words, size=min(community_words, words.size),
                            replace=False)
            rates[np.ix_(np.flatnonzero(community == k), kw)] = community_rate
    features = (rng.random((num_nodes, feature_dim)) < rates).astype(np.float64)
    return LabeledDataset(graph=graph, features=features, labels=labels)


def random_dataset(num_nodes: int, num_edges: int, feature_dim: int = 16,
                   num_classes: int = 4, separation: float = 2.0,
                   seed: int = 0) -> LabeledDataset:
    """Random graph with the requested number of sampled edges (self loops
    and duplicates removed, so the final count can be slightly lower) and
    weak class structure in the features. Scales to large node counts."""
    if num_nodes < 2:
        raise ValueError("need at least 2 nodes")
    rng = np.random.default_rng(seed)
    endpoints = rng.integers(0, num_nodes, size=(num_edges, 2), dtype=np.int64)
    endpoints = endpoints[endpoints[:, 0] != endpoints[:, 1]]
    endpoints = np.unique(np.sort(endpoints, axis=1), axis=0)
    graph = Graph.from_edges(num_nodes, endpoints)
    labels = rng.integers(0, num_classes, size=num_nodes, dtype=np.int64)
    means = rng.normal(size=(num_classes, feature_dim)) * separation
    features = means[labels] + rng.normal(size=(num_nodes, feature_dim))
    return LabeledDataset(graph=graph, features=features, labels=labels)

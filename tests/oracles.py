"""Independent reference implementations used to cross-check the library.

Everything here is written as literal, loop-based formula transcriptions
with no code shared with the package, deliberately favoring obviousness
over speed.
"""

import numpy as np


def floyd_warshall(num_nodes, edge_pairs):
    """All-pairs shortest hop counts; unreachable pairs stay at inf."""
    d = np.full((num_nodes, num_nodes), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j in np.asarray(edge_pairs):
        d[i, j] = 1.0
        d[j, i] = 1.0
    for k in range(num_nodes):
        for i in range(num_nodes):
            for j in range(num_nodes):
                if d[i, k] + d[k, j] < d[i, j]:
                    d[i, j] = d[i, k] + d[k, j]
    return d


def naive_sq_euclidean(x):
    n = x.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            diff = x[i] - x[j]
            d[i, j] = float(np.dot(diff, diff))
    return d


def brute_knn_pairs(x, k):
    """Directed k-NN pairs by exhaustive sort: (distance, index) ascending."""
    n = x.shape[0]
    d = naive_sq_euclidean(x)
    pairs = []
    for i in range(n):
        candidates = sorted((d[i, j], j) for j in range(n) if j != i)
        for _, j in candidates[:k]:
            pairs.append((i, j))
    return np.asarray(pairs, dtype=np.int64)


def _neighbor_sets(distances, k):
    """Per-row k nearest indices excluding self, ties by smaller index."""
    n = distances.shape[0]
    sets = []
    for i in range(n):
        order = sorted((distances[i, j], j) for j in range(n) if j != i)
        sets.append([j for _, j in order[:k]])
    return sets


def trust_feature_oracle(x, y, k):
    """Literal transcription of the rank-penalty trustworthiness formula."""
    n = x.shape[0]
    dx = naive_sq_euclidean(x)
    dy = naive_sq_euclidean(y)
    penalty = 0.0
    for i in range(n):
        feat_order = [j for _, j in sorted((dx[i, j], j)
                                           for j in range(n) if j != i)]
        rank = {j: pos + 1 for pos, j in enumerate(feat_order)}
        s_x = set(feat_order[:k])
        s_y = set(_neighbor_sets(dy, k)[i])
        for j in s_y - s_x:
            penalty += rank[j] - k
    return 1.0 - 2.0 * penalty / (n * k * (2 * n - 3 * k - 1))


def trust_graph_oracle(num_nodes, edge_pairs, y, r):
    """Mean Jaccard of r-hop graph neighborhoods vs map neighbor sets."""
    hops = floyd_warshall(num_nodes, edge_pairs)
    dy = naive_sq_euclidean(y)
    total = 0.0
    for i in range(num_nodes):
        s_g = {j for j in range(num_nodes) if j != i and hops[i, j] <= r}
        if not s_g:
            total += 1.0
            continue
        s_y = set(_neighbor_sets(dy, len(s_g))[i])
        total += len(s_g & s_y) / len(s_g | s_y)
    return total / num_nodes


def standardize_oracle(y):
    centered = y - y.mean(axis=0)
    mean_sq = np.mean([np.dot(row, row) for row in centered])
    if mean_sq <= 0.0:
        return y.copy()
    return centered / np.sqrt(mean_sq)


def distance_metrics_oracle(edge_pairs, knn_pairs, y):
    s = standardize_oracle(np.asarray(y, dtype=np.float64))
    p_g = np.mean([np.dot(s[i] - s[j], s[i] - s[j]) for i, j in edge_pairs])
    p_x = np.mean([np.dot(s[i] - s[j], s[i] - s[j]) for i, j in knn_pairs])
    return float(p_g), float(p_x)


def knn_1_oracle(y, labels, folds, seed):
    """Same seeded fold construction as the library, brute-force classification."""
    n = y.shape[0]
    perm = np.random.default_rng(seed).permutation(n)
    accuracies = []
    for fold in np.array_split(perm, folds):
        fold = set(fold.tolist())
        train = [j for j in range(n) if j not in fold]
        correct = 0
        for i in fold:
            best = min(train, key=lambda j: (np.dot(y[i] - y[j], y[i] - y[j]), j))
            correct += int(labels[best] == labels[i])
        accuracies.append(correct / len(fold))
    return float(np.mean(accuracies))


def joint_p_reference(distances, target_perplexity):
    """Direct construction of the symmetrized joint affinities.

    Independent per-row bisection on the precision beta = 1/(2 sigma^2),
    matching the documented algorithm but sharing no code with the package.
    """
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    cond = np.zeros((n, n))
    for i in range(n):
        row = np.array([d[i, j] for j in range(n) if j != i])
        finite = np.isfinite(row)
        if not finite.any():
            continue
        shift = row[finite].min()

        def perplexity_of(sigma):
            p = np.zeros_like(row)
            p[finite] = np.exp(-(row[finite] - shift) / (2.0 * sigma * sigma))
            total = p.sum()
            p /= total
            nz = p > 0
            entropy = -np.sum(p[nz] * np.log2(p[nz]))
            return 2.0 ** entropy, p

        lo, hi = 1e-20, 1e20
        # one probe at sqrt(lo*hi) = 1, then up to 60 bisection steps
        for _ in range(61):
            sigma = np.sqrt(lo * hi)
            perp, p = perplexity_of(sigma)
            if abs(perp - target_perplexity) <= 1e-4:
                break
            if perp > target_perplexity:
                hi = sigma
            else:
                lo = sigma
        full = np.zeros(n)
        full[[j for j in range(n) if j != i]] = p
        cond[i] = full
    joint = (cond + cond.T) / (2.0 * n)
    return joint / joint.sum()


def kl_oracle(p, y):
    """KL(P || Q) between input affinities p and the Student-t map
    affinities Q(y), and its gradient with respect to y, as literal sums
    over point pairs (pairs with p_ij = 0 add nothing to the loss)."""
    n = y.shape[0]
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                diff = y[i] - y[j]
                w[i, j] = 1.0 / (1.0 + float(np.dot(diff, diff)))
    z = w.sum()
    loss = 0.0
    grad = np.zeros_like(y, dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            q = w[i, j] / z
            if p[i, j] > 0.0:
                loss += p[i, j] * np.log(p[i, j] / q)
            grad[i] += 4.0 * (p[i, j] - q) * w[i, j] * (y[i] - y[j])
    return loss, grad


def adam_scalar_reference(grads_sequence, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Parameter trajectory of textbook Adam from 0 with bias correction."""
    theta, m, v = 0.0, 0.0, 0.0
    out = []
    for t, g in enumerate(grads_sequence, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        theta -= lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
        out.append(theta)
    return out

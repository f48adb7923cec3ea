"""Independent reference implementations used to cross-check the library.

Everything here is written as literal, loop-based formula transcriptions
with no code shared with the package, deliberately favoring obviousness
over speed. There are three exceptions. ``dense_composite_loss`` is the
library's former whole-matrix loss, kept as it was (Q from ``studentt_q``,
the library's former whole-matrix map distribution, now kept here only)
to check the row-blocked loss that replaced it at sizes the loops cannot
reach. ``whole_array_sq_euclidean`` is the former distance matrix, made
over whole arrays, to check the one made in row blocks bit for bit.
``whole_array_forward`` and ``whole_array_backward`` are the former GCN
passes, which built every per-edge array for all edges at once, with
their sums made by ``np.add.at``; they check the edge passes that walk 64
nodes at a time. By default the backward sums the gate gradients in the
factored order the library uses (the forward's gate slope times the
destination's gradient; the source's message times a sum by source);
``per_edge=True`` sums each edge's full product instead, as the library
did before, to check that factoring moved the gradients only by rounding.
Both passes fold the input projection into layer 1's source weights where
the features are narrower than the hidden units, in the library's order of
operations, so the bit-for-bit check covers both of its branches.
The ``*_oracle`` file readers are the library's former loaders, which read
and checked one line at a time, kept as they were but for
``labels_csv_oracle``'s int64 range check and its reading of a cell that
int() reads as exactly that integer; ``from_edges_oracle`` is the former graph
construction, which deduplicated (i, j) rows and lexsorted both directions.
They check the loaders that parse a chunk of lines at once, and the graph
built from sorted 1-D edge keys.
"""

import numpy as np

from types import SimpleNamespace

from graphtsne import affinity
from graphtsne.affinity import AffinityMatrix, pairwise_sq_euclidean
from graphtsne.errors import MalformedInputError
from graphtsne.gcn import BN_EPS, BN_MOMENTUM
from graphtsne.trainer import CompositeLoss


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


def whole_array_sq_euclidean(x):
    """``affinity.pairwise_sq_euclidean`` as it was before it was made in
    row blocks over one buffer: the same operations on whole arrays."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
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


def stable_rank_orders(d):
    """Per row i, every column but i, by a stable argsort of row i with d[i, i]
    set to -inf, so that it sorts first and is cut: ties by index, NaN last."""
    n = len(d)
    orders = np.empty((n, max(n - 1, 0)), dtype=np.int64)
    for i in range(n):
        row = np.array(d[i], dtype=np.float64)
        row[i] = -np.inf
        orders[i] = np.argsort(row, kind="stable")[1:]
    return orders


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


def calibrate_row_loop(dist_row, target_perplexity):
    """One row's bandwidth search, one bisection step at a time over the
    row's finite entries. Returns (sigma, conditional, perplexity, converged,
    bound_hit, degenerate), the fields of ``CalibrationResult``."""
    row = np.asarray(dist_row, dtype=np.float64)
    finite = np.isfinite(row)
    if np.any(row[finite] < 0.0):
        raise ValueError("distances must be nonnegative")
    conditional = np.zeros_like(row)
    if not finite.any():
        return float("nan"), conditional, 0.0, False, False, True

    def conditional_for_sigma(shifted, sigma):
        w = np.exp(-shifted / (2.0 * sigma * sigma))
        return w / w.sum()

    def perplexity(p):
        nz = p[p > 0.0]
        return float(np.exp(-np.sum(nz * np.log(nz))))

    d = row[finite]
    shifted = d - d.min()
    lo, hi, sigma = 1e-20, 1e20, 1.0
    for step in range(60 + 1):
        p = conditional_for_sigma(shifted, sigma)
        perp = perplexity(p)
        converged = abs(perp - target_perplexity) <= 1e-4
        if converged or step == 60:
            break
        if perp > target_perplexity:
            hi = sigma
        else:
            lo = sigma
        sigma = float(np.sqrt(lo * hi))  # geometric midpoint: bisection in log space
    bound_hit = (not converged) and (lo == 1e-20 or hi == 1e20)
    conditional[finite] = p
    return sigma, conditional, perp, converged, bound_hit, False


def joint_p_loop(distances, target_perplexity):
    """Symmetrized joint affinities from one ``calibrate_row_loop`` per row.
    Returns (p, sigmas, n_degenerate, n_converged, n_bound_hit), or None
    when every row is degenerate."""
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    conditionals = np.zeros((n, n), dtype=np.float64)
    sigmas = np.full(n, np.nan)
    n_degenerate = 0
    n_converged = 0
    n_bound_hit = 0
    for i in range(n):
        row = d[i].copy()
        row[i] = np.inf  # the self entry gets probability exactly zero
        sigma, conditional, _, converged, bound_hit, degenerate = calibrate_row_loop(
            row, target_perplexity)
        if degenerate:
            n_degenerate += 1
            continue
        if converged:
            n_converged += 1
        if bound_hit:
            n_bound_hit += 1
        sigmas[i] = sigma
        conditionals[i] = conditional
    if n_degenerate == n:
        return None
    p = (conditionals + conditionals.T) / (2.0 * n)
    p /= p.sum()
    return p, sigmas, n_degenerate, n_converged, n_bound_hit


def dense_joint_p(distances, target_perplexity):
    """The dense N x N P of a build that keeps it whole: each row block of
    the distances is calibrated by ``affinity._calibrate`` and its
    conditionals made by ``affinity._conditionals`` from what that returns,
    into a dense N x N C; then C is symmetrized block by block from the
    diagonal on and divided by the total of its stored triangle, each block
    copied out as ``joint_p`` keeps it and summed with its diagonal square
    once and the columns right of it twice. ``joint_p`` makes its triangle
    the same way, so its ``.p`` has these bytes."""
    d = np.asarray(distances, dtype=np.float64)
    n = d.shape[0]
    c = np.empty((n, n))
    for rows in affinity.row_blocks(n):
        block = d[rows].copy()
        np.fill_diagonal(block[:, rows], np.inf)
        sigma, _, _, _, shift, total = affinity._calibrate(block, target_perplexity)
        c[rows] = affinity._conditionals(block, shift, sigma, total)
    for rows in affinity.row_blocks(n):
        s = rows.start
        t = (c[rows, s:] + c[s:, rows].T) / (2.0 * n)
        c[rows, s:] = t
        c[s:, rows] = t.T
    total = 0.0
    for rows in affinity.row_blocks(n):
        t = c[rows, rows.start:].copy()
        total += t[:, :len(t)].sum() + 2.0 * t[:, len(t):].sum()
    c /= total
    return c


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


def studentt_q(y: np.ndarray) -> SimpleNamespace:
    """Map affinities q_ij = (1 + ||y_i - y_j||^2)^-1 / Z over all pairs, as
    ``q``, and their unnormalized weights ``w`` = Z q."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] < 2:
        raise ValueError("need at least 2 map points")
    w = 1.0 / (1.0 + pairwise_sq_euclidean(y))
    np.fill_diagonal(w, 0.0)
    return SimpleNamespace(q=w / w.sum(), w=w)


def _kl(p: np.ndarray, q: np.ndarray) -> float:
    # convention: terms with p_ij = 0 contribute nothing
    mask = p > 0.0
    pm = p[mask]
    return float(np.sum(pm * np.log(pm / q[mask])))


def dense_composite_loss(p_graph, p_feat, y: np.ndarray,
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
    q_map = studentt_q(y)
    q, w = q_map.q, q_map.w
    graph_term = _kl(pg, q)
    feature_term = _kl(px, q)
    p_bar = alpha * pg + (1.0 - alpha) * px
    m = (p_bar - q) * w
    grad = 4.0 * (m.sum(axis=1)[:, None] * y - m @ y)
    total = alpha * graph_term + (1.0 - alpha) * feature_term
    return CompositeLoss(total=total, graph_term=graph_term,
                         feature_term=feature_term, grad=grad)


def _add_at_sum(values, index, size):
    """(size, cols) sums of the rows of ``values`` by ``index``: np.add.at adds
    each row's terms one after another in edge order onto 0.0."""
    sums = np.zeros((size, values.shape[1]))
    np.add.at(sums, index, values)
    return sums


def whole_array_forward(model, plan, features, mode="train"):
    """``gcn.forward`` as it was before its edge passes were blocked: the
    gate and the messages of all edges at once. Returns (y, trace), where
    the trace is what ``whole_array_backward`` reads; train mode updates
    the model's batch-norm running statistics."""
    train = mode == "train"
    x_sub = np.asarray(features, dtype=np.float64)[plan.node_ids]
    fold = model.input_dim < model.hidden_dim
    if fold:
        h = x_sub[:plan.layers[0].out_size] @ model.in_w.T + model.in_b
    else:
        h = x_sub @ model.in_w.T + model.in_b
    layers = []
    for l, (layer, lp) in enumerate(zip(model.layers, plan.layers)):
        h_in = h
        out_n = lp.out_size
        self_term = h_in[:out_n] @ layer.self_w.T
        gate_dst = h_in[:out_n] @ layer.gate_dst_w.T + layer.gate_dst_b
        if fold and l == 0:
            gate_src = (x_sub @ (layer.gate_src_w @ model.in_w).T
                        + (layer.gate_src_w @ model.in_b + layer.gate_src_b))
            msg_in = (x_sub @ (layer.msg_w @ model.in_w).T
                      + (layer.msg_w @ model.in_b + layer.msg_b))
        else:
            gate_src = h_in @ layer.gate_src_w.T + layer.gate_src_b
            msg_in = h_in @ layer.msg_w.T + layer.msg_b

        gate = 1.0 / (1.0 + np.exp(-(gate_dst[lp.dst] + gate_src[lp.src])))
        msg = gate * msg_in[lp.src]
        slope = _add_at_sum((1.0 - gate) * msg, lp.dst, out_n)
        agg = _add_at_sum(msg, lp.dst, out_n)
        agg *= lp.inv_deg[:, None]

        s = self_term + agg
        if train:
            mu = s.mean(axis=0)
            var = s.var(axis=0)
            layer.bn_mean[:] = (1.0 - BN_MOMENTUM) * layer.bn_mean + BN_MOMENTUM * mu
            layer.bn_var[:] = (1.0 - BN_MOMENTUM) * layer.bn_var + BN_MOMENTUM * var
        else:
            mu, var = layer.bn_mean, layer.bn_var
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        x_hat = (s - mu) * inv_std
        z = layer.bn_scale * x_hat + layer.bn_shift
        relu_mask = z > 0.0
        h = np.where(relu_mask, z, 0.0) + h_in[:out_n]
        layers.append(SimpleNamespace(h_in=h_in, gate=gate, msg_in=msg_in,
                                      slope=slope, x_hat=x_hat, inv_std=inv_std,
                                      relu_mask=relu_mask))
    y = h[:plan.batch_size] @ model.out_w.T
    return y, SimpleNamespace(plan=plan, x_sub=x_sub, layers=layers, h_final=h)


def whole_array_backward(model, trace, grad_y, per_edge=False):
    """``gcn.backward`` over all edges at once, on a ``whole_array_forward``
    trace of a train-mode pass: the gate gradients factored as the library
    makes them, or with ``per_edge`` as sums of each edge's product."""
    grad_y = np.asarray(grad_y, dtype=np.float64)
    plan = trace.plan
    grads = {"out_w": grad_y.T @ trace.h_final[:plan.batch_size]}
    dh = np.zeros_like(trace.h_final)
    dh[:plan.batch_size] = grad_y @ model.out_w

    fold = model.input_dim < model.hidden_dim
    for l in range(model.num_layers - 1, -1, -1):
        layer = model.layers[l]
        lp = plan.layers[l]
        lt = trace.layers[l]
        out_n = lp.out_size
        prefix = f"layer{l + 1}."

        dz = np.where(lt.relu_mask, dh, 0.0)
        grads[prefix + "bn_scale"] = (dz * lt.x_hat).sum(axis=0)
        grads[prefix + "bn_shift"] = dz.sum(axis=0)
        dxhat = dz * layer.bn_scale
        b = float(out_n)
        ds = (lt.inv_std / b) * (b * dxhat - dxhat.sum(axis=0)
                                 - lt.x_hat * (dxhat * lt.x_hat).sum(axis=0))

        grads[prefix + "self_w"] = ds.T @ lt.h_in[:out_n]
        dh_in = np.zeros_like(lt.h_in)
        dh_in[:out_n] += ds @ layer.self_w
        dh_in[:out_n] += dh

        dagg = ds * lp.inv_deg[:, None]
        dmsg_edge = dagg[lp.dst] * lt.gate
        if per_edge:
            dpre = dagg[lp.dst] * lt.msg_in[lp.src] * lt.gate * (1.0 - lt.gate)
            dgate_dst = _add_at_sum(dpre, lp.dst, out_n)
            dgate_src = _add_at_sum(dpre, lp.src, lp.in_size)
        else:
            dgate_dst = dagg * lt.slope
            dgate_src = _add_at_sum((1.0 - lt.gate) * dmsg_edge, lp.src,
                                    lp.in_size) * lt.msg_in
        dmsg_in = _add_at_sum(dmsg_edge, lp.src, lp.in_size)

        grads[prefix + "gate_dst_w"] = dgate_dst.T @ lt.h_in[:out_n]
        grads[prefix + "gate_dst_b"] = dgate_dst.sum(axis=0)
        if fold and l == 0:
            a_gate = dgate_src.T @ trace.x_sub
            a_msg = dmsg_in.T @ trace.x_sub
            grads[prefix + "gate_src_w"] = (a_gate @ model.in_w.T
                                            + np.outer(dgate_src.sum(axis=0), model.in_b))
            grads[prefix + "gate_src_b"] = dgate_src.sum(axis=0)
            grads[prefix + "msg_w"] = (a_msg @ model.in_w.T
                                       + np.outer(dmsg_in.sum(axis=0), model.in_b))
            grads[prefix + "msg_b"] = dmsg_in.sum(axis=0)
            dh_in += dgate_dst @ layer.gate_dst_w
            dh = dh_in
            grads["in_w"] = dh.T @ trace.x_sub[:out_n]
            grads["in_w"] += layer.gate_src_w.T @ a_gate
            grads["in_w"] += layer.msg_w.T @ a_msg
            grads["in_b"] = dh.sum(axis=0)
            grads["in_b"] += layer.gate_src_w.T @ dgate_src.sum(axis=0)
            grads["in_b"] += layer.msg_w.T @ dmsg_in.sum(axis=0)
            return grads
        grads[prefix + "msg_w"] = dmsg_in.T @ lt.h_in
        grads[prefix + "msg_b"] = dmsg_in.sum(axis=0)
        grads[prefix + "gate_src_w"] = dgate_src.T @ lt.h_in
        grads[prefix + "gate_src_b"] = dgate_src.sum(axis=0)

        dh_in += dmsg_in @ layer.msg_w
        dh_in[:out_n] += dgate_dst @ layer.gate_dst_w
        dh_in += dgate_src @ layer.gate_src_w
        dh = dh_in

    grads["in_w"] = dh.T @ trace.x_sub
    grads["in_b"] = dh.sum(axis=0)
    return grads


def adjacency_sets(num_nodes, edge_pairs):
    """{node: set of neighbors} of an undirected edge list, self-loops dropped."""
    adj = {i: set() for i in range(num_nodes)}
    for i, j in edge_pairs:
        if i != j:
            adj[i].add(j)
            adj[j].add(i)
    return adj


def batch_plan_oracle(sample):
    """Per conv layer of a SubsampledBatch, bottom first, the (dst, src,
    inv_deg) lists a batch plan holds, made with dicts: global ids become
    their position in the last frontier, and a destination's inv_deg is
    1 over how many sampled edges end at it (0 for none)."""
    local = {int(g): i for i, g in enumerate(sample.frontiers[-1])}
    num_layers = len(sample.layer_edges)
    layers = []
    for l, (dst_g, src_g) in enumerate(sample.layer_edges):
        out_size = len(sample.frontiers[num_layers - 1 - l])
        dst = [local[int(g)] for g in dst_g]
        src = [local[int(g)] for g in src_g]
        count = {}
        for i in dst:
            count[i] = count.get(i, 0) + 1
        inv_deg = [1.0 / count[i] if i in count else 0.0 for i in range(out_size)]
        layers.append((dst, src, inv_deg))
    return layers


def receptive_field_sizes(sample):
    """Distinct nodes reached per batch node of a SubsampledBatch along
    sampled edge chains: one sampled edge per conv layer from each batch node
    down to the input level, counting the distinct endpoints (the leaves of
    the sampling tree). With fanouts d, this is bounded by prod(d)."""
    tables = []
    for dst, src in reversed(sample.layer_edges):  # top layer first
        table = {}
        for d, s in zip(dst.tolist(), src.tolist()):
            table.setdefault(d, []).append(s)
        tables.append(table)
    sizes = np.zeros(sample.batch_nodes.size, dtype=np.int64)
    for pos, node in enumerate(sample.batch_nodes.tolist()):
        current = {node}
        for table in tables:
            current = {s for u in current for s in table.get(u, ())}
        sizes[pos] = len(current)
    return sizes


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


def _read_lines(path, comments=False):
    """(1-based line number, stripped text) of each non-blank line of a UTF-8
    text file, read line by line; with ``comments``, text after a '#' is
    dropped."""
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


def _float_row(path, rowno, cells):
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError:
        raise MalformedInputError(f"{path}: row {rowno}: non-numeric cell") from None
    if not np.isfinite(values).all():
        raise MalformedInputError(f"{path}: row {rowno}: non-finite value")
    return values


def from_edges_oracle(num_nodes, pairs):
    """(edge_pairs, offsets, neighbors) of ``Graph.from_edges``: unique
    (min, max) rows, then both directions in lexicographic order."""
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    arr = arr[arr[:, 0] != arr[:, 1]]
    undirected = np.stack([arr.min(axis=1), arr.max(axis=1)], axis=1)
    if undirected.shape[0]:
        undirected = np.unique(undirected, axis=0)
    both = np.concatenate([undirected, undirected[:, ::-1]], axis=0)
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(both[:, 0], minlength=num_nodes), out=offsets[1:])
    return undirected, offsets, both[:, 1].copy()


def edge_list_oracle(path, num_nodes):
    """The (i, j) pairs of an edge list file, as a list."""
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
    return pairs


def features_csv_oracle(path):
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


def labels_csv_oracle(path):
    labels = []
    for rowno, line in _read_lines(path):
        try:
            value = int(line)
        except ValueError:
            try:
                value = float(line)
            except ValueError:
                raise MalformedInputError(
                    f"{path}: row {rowno}: non-integer label") from None
            if not value.is_integer():
                raise MalformedInputError(
                    f"{path}: row {rowno}: non-integer label")
            value = int(value)
        if not -2 ** 63 <= value < 2 ** 63:
            raise MalformedInputError(
                f"{path}: row {rowno}: label {line} out of the int64 range")
        labels.append(value)
    if not labels:
        raise MalformedInputError(f"{path}: no data rows")
    return np.asarray(labels, dtype=np.int64)


def layout_csv_oracle(path, num_nodes):
    y = np.full((num_nodes, 2), np.nan)
    for rowno, line in _read_lines(path):
        if rowno == 1 and line.lower().startswith("node_id"):
            continue
        cells = line.split(",")
        if len(cells) != 3:
            raise MalformedInputError(
                f"{path}: row {rowno}: expected 3 columns, got {len(cells)}")
        try:
            node = int(cells[0])
        except ValueError:
            raise MalformedInputError(
                f"{path}: row {rowno}: non-numeric cell") from None
        coords = _float_row(path, rowno, cells[1:])
        if not 0 <= node < num_nodes:
            raise MalformedInputError(
                f"{path}: row {rowno}: node id {node} out of range "
                f"[0, {num_nodes})")
        if not np.isnan(y[node, 0]):
            raise MalformedInputError(
                f"{path}: row {rowno}: duplicate node id {node}")
        y[node] = coords
    count = int(np.count_nonzero(~np.isnan(y[:, 0])))
    if count != num_nodes:
        raise MalformedInputError(
            f"{path}: {count} layout rows for {num_nodes} nodes")
    return y

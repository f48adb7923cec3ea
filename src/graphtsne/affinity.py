"""Perplexity-calibrated input affinities and Student-t map affinities.

The KL loss between them is ``trainer.composite_loss_and_grad``; it makes
its Student-t weights a block of rows at a time, not with ``studentt_q``.

All computations here run in float64. Input distances may contain the
unreachable sentinel (inf); such entries always receive exactly zero
conditional probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EmptyAffinityError

SIGMA_LO = 1e-20
SIGMA_HI = 1e20
PERPLEXITY_TOL = 1e-4
MAX_SEARCH_ITERS = 60
_ROW_BLOCK = 64  # rows per block of every N x N pass: O(block * N) temporaries


def row_blocks(n: int):
    """The rows 0..n-1 as consecutive slices of at most ``_ROW_BLOCK`` rows."""
    return (slice(i, min(i + _ROW_BLOCK, n)) for i in range(0, n, _ROW_BLOCK))


def pairwise_sq_euclidean(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all row pairs.

    The result is exactly symmetric with a zero diagonal.
    """
    # on one C-ordered buffer x @ x.T is BLAS syrk, which computes one
    # triangle and copies it to the other, so d is exactly symmetric as built
    x = np.ascontiguousarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d = x @ x.T
    d *= 2.0
    for rows in row_blocks(len(d)):  # (sq_i + sq_j) - 2 x_i.x_j, over d itself
        np.subtract(sq[rows, None] + sq[None, :], d[rows], out=d[rows])
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


@dataclass
class CalibrationResult:
    """Outcome of a single-row bandwidth search."""

    sigma: float
    conditional: np.ndarray
    perplexity: float
    converged: bool
    bound_hit: bool
    degenerate: bool


def _calibrate(rows: np.ndarray, target_perplexity: float):
    """``calibrate_row`` for every row of a block at once: one bisection, each
    row searched on its distinct finite distances and their counts. Returns
    per-row sigma (nan for a row with no finite entry), the perplexity the
    search measured at it (0 for such a row), converged, bound_hit and the
    conditionals."""
    rows = np.where(np.isfinite(rows), rows, np.inf)
    ordered = np.sort(rows, axis=1)
    if np.any(ordered[:, :1] < 0.0):
        raise ValueError("distances must be nonnegative")
    # each run of equal finite values has one start and one end, in flat order
    change = ordered[:, 1:] != ordered[:, :-1]
    start, end = np.isfinite(ordered), np.isfinite(ordered)
    start[:, 1:] &= change
    end[:, :-1] &= change
    width = start.sum(axis=1)
    first = np.flatnonzero(start)
    filled = np.arange(width.max()) < width[:, None]  # padding holds count 0
    values, counts = np.zeros(filled.shape), np.zeros(filled.shape)
    values[filled] = ordered.ravel()[first] - np.repeat(ordered[:, 0], width)
    counts[filled] = np.flatnonzero(end) - first + 1

    lo, hi, sigma = (np.full(len(rows), v) for v in (SIGMA_LO, SIGMA_HI, 1.0))
    perplexity, converged = np.zeros(len(rows)), np.zeros(len(rows), dtype=bool)
    active = np.flatnonzero(width)
    values, counts = values[active], counts[active]
    for step in range(MAX_SEARCH_ITERS + 1):
        s = sigma[active]
        scale = 2.0 * s * s
        w = np.exp(values / -scale[:, None]) * counts
        total = w.sum(axis=1)
        # the entropy of p = w / total, with no log of an entry
        perp = np.exp(np.log(total) + np.einsum("ij,ij->i", w, values) / (scale * total))
        done = np.abs(perp - target_perplexity) <= PERPLEXITY_TOL
        perplexity[active], converged[active] = perp, done
        active, s, above = active[~done], s[~done], perp[~done] > target_perplexity
        if step == MAX_SEARCH_ITERS or not active.size:
            break
        values, counts = values[~done], counts[~done]
        hi[active[above]] = s[above]
        lo[active[~above]] = s[~above]
        sigma[active] = np.sqrt(lo[active] * hi[active])  # bisection in log space
    live = width > 0
    bound_hit = live & ~converged & ((lo == SIGMA_LO) | (hi == SIGMA_HI))
    sigma[~live] = np.nan
    # exp(-inf) = 0 gives unreachable entries exactly 0; a row with no finite entry stays 0
    w = np.exp((rows[live] - ordered[live, :1]) / (-2.0 * sigma[live, None] ** 2))
    conditionals = np.zeros_like(rows)
    conditionals[live] = w / w.sum(axis=1, keepdims=True)
    return sigma, perplexity, converged, bound_hit, conditionals


def calibrate_row(dist_row: np.ndarray, target_perplexity: float) -> CalibrationResult:
    """Find the Gaussian bandwidth whose conditional distribution hits a target perplexity.

    ``dist_row`` holds one point's distances to the others (``joint_p``
    passes the self entry as inf). Entries equal to the unreachable
    sentinel (inf) get probability exactly zero. The bandwidth
    is found by bisection on log(sigma) over [1e-20, 1e20], stopping when
    the achieved perplexity (2^entropy) is within 1e-4 of the target or
    after 60 iterations; running into a search bound is reported, not
    raised. A row with no finite entry is flagged degenerate and gets an
    all-zero conditional.
    """
    row = np.asarray(dist_row, dtype=np.float64)
    [sigma], [perplexity], [converged], [bound_hit], [conditional] = _calibrate(
        row[None], target_perplexity)
    return CalibrationResult(sigma=float(sigma), conditional=conditional,
                             perplexity=float(perplexity), converged=bool(converged),
                             bound_hit=bool(bound_hit), degenerate=bool(np.isnan(sigma)))


@dataclass
class AffinityMatrix:
    """Symmetric joint probabilities over point pairs in the input space."""

    p: np.ndarray
    sigmas: np.ndarray
    n_degenerate: int = 0
    n_converged: int = 0
    n_bound_hit: int = 0     # rows whose unconverged search ran into SIGMA_LO or SIGMA_HI

    @property
    def size(self) -> int:
        return self.p.shape[0]

    @cached_property
    def p_log_p_and_sum(self) -> tuple[float, float]:
        """(sum of p log p over p > 0, sum of p): the KL's map-free part, made once."""
        h = 0.0
        for rows in row_blocks(self.size):
            block = self.p[rows]
            pm = block[block > 0.0]
            h += float(np.dot(pm, np.log(pm)))
        return h, float(self.p.sum())


def joint_p(distances: np.ndarray, target_perplexity: float) -> AffinityMatrix:
    """Perplexity-calibrated joint probability matrix from pairwise distances.

    Each row's conditional is calibrated independently, then symmetrized as
    p_ij = (p_{j|i} + p_{i|j}) / (2B) and renormalized so the matrix sums to
    exactly 1. Rows with no finite off-diagonal entry contribute zero.
    Raises EmptyAffinityError when every row is degenerate. Never modifies
    ``distances``: P is built in a copy of it.
    """
    return _joint_p_owned(np.array(distances, dtype=np.float64, order="C", copy=True),
                          target_perplexity)


def _joint_p_owned(d: np.ndarray, target_perplexity: float) -> AffinityMatrix:
    """``joint_p`` built over ``d`` itself, which the caller hands over: on
    return d holds P (on an error, part of it), and no other N x N array is
    made. Each block of rows is checked for symmetry against the columns
    from its first row on, which no earlier block has overwritten, and then
    replaced by its conditionals; a second walk symmetrizes d block by block."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    n = d.shape[0]
    sigmas = np.full(n, np.nan)
    n_converged = n_bound_hit = 0
    for rows in row_blocks(n):
        s = rows.start
        block, mirror = d[rows, s:], d[s:, rows].T
        finite = np.isfinite(block)
        # both directions: allclose measures the difference against its second argument
        if not (np.array_equal(finite, np.isfinite(mirror))
                and np.allclose(block[finite], mirror[finite], rtol=1e-9, atol=1e-12)
                and np.allclose(mirror[finite], block[finite], rtol=1e-9, atol=1e-12)):
            raise ValueError("distance matrix must be symmetric")
        block = d[rows].copy()
        np.fill_diagonal(block[:, rows], np.inf)  # the self entry gets probability 0
        sigmas[rows], _, converged, bound_hit, d[rows] = _calibrate(block, target_perplexity)
        n_converged += int(converged.sum())
        n_bound_hit += int(bound_hit.sum())
    n_degenerate = int(np.isnan(sigmas).sum())
    if n_degenerate == n:
        raise EmptyAffinityError("every row of the distance matrix is unreachable")
    for rows in row_blocks(n):  # p_ij = (p_{j|i} + p_{i|j}) / 2n from the diagonal on
        s = rows.start
        t = (d[rows, s:] + d[s:, rows].T) / (2.0 * n)
        d[rows, s:] = t
        d[s:, rows] = t.T
    d /= d.sum()
    return AffinityMatrix(p=d, sigmas=sigmas, n_degenerate=n_degenerate,
                          n_converged=n_converged, n_bound_hit=n_bound_hit)


@dataclass
class MapAffinity:
    """Normalized Student-t (1 dof) joint probabilities q over map point
    pairs, and their unnormalized weights w = Z q."""

    q: np.ndarray
    w: np.ndarray


def studentt_q(y: np.ndarray) -> MapAffinity:
    """Map affinities q_ij = (1 + ||y_i - y_j||^2)^-1 / Z over all pairs."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[0] < 2:
        raise ValueError("need at least 2 map points")
    w = 1.0 / (1.0 + pairwise_sq_euclidean(y))
    np.fill_diagonal(w, 0.0)
    return MapAffinity(q=w / w.sum(), w=w)

"""Perplexity-calibrated input affinities.

The KL loss against the Student-t map affinities is
``trainer.composite_loss_and_grad``, which makes them a block of rows at a time.

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


def distance_blocks(x: np.ndarray, upper: bool = False):
    """Yield ``(rows, d)`` per ``row_blocks`` slice, d a fresh array of the squared
    distances from those rows of x to every row, clamped at 0, self 0. With
    ``upper``, d holds only the columns from ``rows.start`` on: the block's
    diagonal square and the columns right of it. On a 2-D map its bits do not
    depend on the BLAS thread count; ``pairwise_sq_euclidean``'s do."""
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    for rows in row_blocks(len(x)):
        cols = slice(rows.start if upper else 0, None)
        d = sq[rows, None] + sq[None, cols] - 2.0 * (x[rows] @ x[cols].T)
        np.maximum(d, 0.0, out=d)
        np.fill_diagonal(d[:, rows.start - cols.start:], 0.0)
        yield rows, d


def _check_symmetric(block: np.ndarray, mirror: np.ndarray, what: str) -> None:
    """Raise ValueError unless ``block`` equals ``mirror``, the transposed
    entries facing it, up to rounding: finite where it is finite, and within
    rtol 1e-9 and atol 1e-12 measured from either entry."""
    if np.array_equal(block, mirror):   # NaN is never equal: it is checked below
        return
    finite = np.isfinite(block)
    # both directions: allclose measures the difference against its second argument
    if not (np.array_equal(finite, np.isfinite(mirror))
            and np.allclose(block[finite], mirror[finite], rtol=1e-9, atol=1e-12)
            and np.allclose(mirror[finite], block[finite], rtol=1e-9, atol=1e-12)):
        raise ValueError(f"{what} must be symmetric")


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


class AffinityMatrix:
    """Symmetric joint probabilities over point pairs in the input space,
    stored once: ``blocks`` holds P[rows, rows.start:] for each slice of
    ``row_blocks(size)``, the block's diagonal square and the columns right
    of it.

    ``AffinityMatrix(p, sigmas)`` copies those blocks out of a dense P, whose
    upper triangle is all it keeps; it raises ValueError on a P that is not
    square, or not symmetric up to rounding (checked block by block, as
    ``joint_p`` checks distances).
    """

    def __init__(self, p: np.ndarray, sigmas: np.ndarray, n_degenerate: int = 0,
                 n_converged: int = 0, n_bound_hit: int = 0) -> None:
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("affinity matrix must be square")
        for rows in row_blocks(len(p)):
            s = rows.start
            _check_symmetric(p[rows, s:], p[s:, rows].T, "affinity matrix")
        self._keep(p, sigmas, n_degenerate, n_converged, n_bound_hit)

    @classmethod
    def _of_symmetric(cls, p: np.ndarray, sigmas: np.ndarray, n_degenerate: int,
                      n_converged: int, n_bound_hit: int) -> AffinityMatrix:
        """The constructor on a square float64 P that is exactly symmetric as
        built, such as ``_joint_p_owned``'s, which it does not check again."""
        self = cls.__new__(cls)
        self._keep(p, sigmas, n_degenerate, n_converged, n_bound_hit)
        return self

    def _keep(self, p: np.ndarray, sigmas: np.ndarray, n_degenerate: int,
              n_converged: int, n_bound_hit: int) -> None:
        self.size = p.shape[0]
        self.blocks = []
        for rows in row_blocks(self.size):
            block = p[rows, rows.start:].copy()
            square = block[:, :rows.stop - rows.start]
            lower = np.tril_indices(len(square), -1)
            square[lower] = square.T[lower]   # the square's upper triangle, mirrored
            self.blocks.append(block)
        self.sigmas = sigmas
        self.n_degenerate = n_degenerate
        self.n_converged = n_converged
        self.n_bound_hit = n_bound_hit   # rows whose unconverged search ran into SIGMA_LO or SIGMA_HI

    @classmethod
    def zeros(cls, n: int) -> AffinityMatrix:
        """The all-zero P on n points of a term with weight 0: its blocks are
        made by np.zeros and never written, so they hold no resident memory."""
        zero = cls(np.zeros((0, 0)), sigmas=np.full(n, np.nan))
        zero.size = n
        zero.blocks = [np.zeros((rows.stop - rows.start, n - rows.start))
                       for rows in row_blocks(n)]
        return zero

    @property
    def p(self) -> np.ndarray:
        """The dense symmetric N x N matrix, built anew at each read."""
        n = self.size
        p = np.empty((n, n))
        for block in self.blocks:
            s = n - block.shape[1]
            rows = slice(s, s + len(block))
            p[rows, s:] = block
            p[s:, rows] = block.T
        return p

    @cached_property
    def p_log_p_and_sum(self) -> tuple[float, float]:
        """(sum of p log p over p > 0, sum of p) over all of P: the KL's
        map-free part, made once from the stored triangle."""
        h = total = 0.0
        for block in self.blocks:  # the diagonal square once, the rest twice
            b = len(block)
            for part, share in ((block[:, :b], 1.0), (block[:, b:], 2.0)):
                pm = part[part > 0.0]
                h += share * float(np.dot(pm, np.log(pm)))
                total += share * float(part.sum())
        return h, total


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
    """``joint_p`` built over ``d`` itself, which the caller hands over: d is
    made into the dense P (on an error, part of it), whose upper-triangle
    blocks the result copies out, so d is freed when the caller drops it.
    Each block of rows is checked for symmetry against the columns from its
    first row on, which no earlier block has overwritten, and then replaced
    by its conditionals; a second walk symmetrizes d block by block."""
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    n = d.shape[0]
    sigmas = np.full(n, np.nan)
    n_converged = n_bound_hit = 0
    for rows in row_blocks(n):
        s = rows.start
        _check_symmetric(d[rows, s:], d[s:, rows].T, "distance matrix")
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
    return AffinityMatrix._of_symmetric(d, sigmas, n_degenerate, n_converged, n_bound_hit)

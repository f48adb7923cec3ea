"""Perplexity-calibrated input affinities and Student-t map affinities.

The KL loss between them is ``trainer.composite_loss_and_grad``.

All computations here run in float64. Input distances may contain the
unreachable sentinel (inf); such entries always receive exactly zero
conditional probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAffinityError

SIGMA_LO = 1e-20
SIGMA_HI = 1e20
PERPLEXITY_TOL = 1e-4
MAX_SEARCH_ITERS = 60


def pairwise_sq_euclidean(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between all row pairs.

    The result is exactly symmetric with a zero diagonal.
    """
    x = np.asarray(x, dtype=np.float64)
    sq = np.einsum("ij,ij->i", x, x)
    d = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    d = 0.5 * (d + d.T)
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


def _conditional_for_sigma(shifted: np.ndarray, sigma: float) -> np.ndarray:
    w = np.exp(-shifted / (2.0 * sigma * sigma))
    return w / w.sum()


def _perplexity(p: np.ndarray) -> float:
    nz = p[p > 0.0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


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
    finite = np.isfinite(row)
    if np.any(row[finite] < 0.0):
        raise ValueError("distances must be nonnegative")
    conditional = np.zeros_like(row)
    if not finite.any():
        return CalibrationResult(sigma=float("nan"), conditional=conditional,
                                 perplexity=0.0, converged=False,
                                 bound_hit=False, degenerate=True)

    d = row[finite]
    shifted = d - d.min()
    lo, hi, sigma = SIGMA_LO, SIGMA_HI, 1.0
    for step in range(MAX_SEARCH_ITERS + 1):
        p = _conditional_for_sigma(shifted, sigma)
        perp = _perplexity(p)
        converged = abs(perp - target_perplexity) <= PERPLEXITY_TOL
        if converged or step == MAX_SEARCH_ITERS:
            break
        if perp > target_perplexity:
            hi = sigma
        else:
            lo = sigma
        sigma = float(np.sqrt(lo * hi))  # geometric midpoint: bisection in log space
    bound_hit = (not converged) and (lo == SIGMA_LO or hi == SIGMA_HI)
    conditional[finite] = p
    return CalibrationResult(sigma=sigma, conditional=conditional, perplexity=perp,
                             converged=converged, bound_hit=bound_hit, degenerate=False)


@dataclass
class AffinityMatrix:
    """Symmetric joint probabilities over point pairs in the input space."""

    p: np.ndarray
    sigmas: np.ndarray
    n_degenerate: int = 0
    n_converged: int = 0

    @property
    def size(self) -> int:
        return self.p.shape[0]


def joint_p(distances: np.ndarray, target_perplexity: float) -> AffinityMatrix:
    """Perplexity-calibrated joint probability matrix from pairwise distances.

    Each row's conditional is calibrated independently, then symmetrized as
    p_ij = (p_{j|i} + p_{i|j}) / (2B) and renormalized so the matrix sums to
    exactly 1. Rows with no finite off-diagonal entry contribute zero.
    Raises EmptyAffinityError when every row is degenerate.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    n = d.shape[0]
    finite = np.isfinite(d)
    if not np.array_equal(finite, finite.T):
        raise ValueError("distance matrix must be symmetric")
    if not np.allclose(d[finite], d.T[finite], rtol=1e-9, atol=1e-12):
        raise ValueError("distance matrix must be symmetric")

    conditionals = np.zeros((n, n), dtype=np.float64)
    sigmas = np.full(n, np.nan)
    n_degenerate = 0
    n_converged = 0
    for i in range(n):
        row = d[i].copy()
        row[i] = np.inf  # the self entry gets probability exactly zero
        res = calibrate_row(row, target_perplexity)
        if res.degenerate:
            n_degenerate += 1
            continue
        if res.converged:
            n_converged += 1
        sigmas[i] = res.sigma
        conditionals[i] = res.conditional
    if n_degenerate == n:
        raise EmptyAffinityError("every row of the distance matrix is unreachable")

    p = (conditionals + conditionals.T) / (2.0 * n)
    p /= p.sum()
    return AffinityMatrix(p=p, sigmas=sigmas, n_degenerate=n_degenerate,
                          n_converged=n_converged)


@dataclass
class MapAffinity:
    """Normalized Student-t (1 dof) joint probabilities q over map point
    pairs, and the unnormalized weights w = Z q that the loss gradient reads."""

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

"""Evaluation metrics: RMSE, the q-logarithm information criterion, and
marginal confidence-interval coverage.

The q-logarithm log_q(x) = (x^(1-q) - 1) / (1 - q) keeps the information
criterion finite when a density underflows to zero: at q = 0.9 the score of
an impossible observation is capped at exactly 10 instead of diverging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from ._linalg import SpdFactor, pow2_scale

__all__ = ["MetricReport", "rmse", "q_log", "q_ic", "ci_coverage"]

_LOG_2PI = float(np.log(2.0 * np.pi))


def _one_minus_q(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    # Snap 1 - q to its decimal value so the cap -1/(1-q) is exact for
    # decimally specified q (q = 0.9 must floor at exactly -10).
    return round(1.0 - q, 12)


def rmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Root mean squared error over all entries (time and dimensions)."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    error = truth - estimate
    value = float(np.sqrt(np.mean(error**2)))
    if value == math.inf and np.isfinite(error).all():
        # A finite error too large to square: redo it on the error scaled
        # by a power of two, which is exact.
        scale = float(pow2_scale(error))
        value = scale * float(np.sqrt(np.mean((error / scale) ** 2)))
    return value


def q_log(x: float, q: float = 0.9) -> float:
    """Deformed logarithm (x^(1-q) - 1) / (1 - q) for x >= 0.

    Continuous at x = 0 with value -1 / (1 - q); recovers the natural
    logarithm as q -> 1.
    """
    if x < 0.0:
        raise ValueError("q_log is defined for x >= 0")
    omq = _one_minus_q(q)
    if x == 0.0:
        return -1.0 / omq
    return float(np.expm1(omq * np.log(x)) / omq)


def _q_log_from_log(log_x: np.ndarray, q: float) -> np.ndarray:
    """q_log evaluated from log-densities; underflow lands on the exact cap."""
    omq = _one_minus_q(q)
    return np.expm1(omq * log_x) / omq


def _gaussian_log_density(
    truth: np.ndarray, mean: np.ndarray, cov: np.ndarray, diagonalize: bool
) -> float:
    d = truth.shape[0]
    residual = truth - mean
    if diagonalize:
        diag = np.diag(np.atleast_2d(cov)).copy()
        if np.any(diag < 0.0):
            raise ValueError("diagonalized covariance has negative entries")
        if np.any(diag == 0.0):
            return -np.inf  # a zero variance puts no density on the truth
        return -0.5 * float(
            d * _LOG_2PI + np.sum(np.log(diag)) + np.sum(residual**2 / diag)
        )
    try:
        factor = SpdFactor(cov)
    except np.linalg.LinAlgError:
        # A collapsed estimate (a particle filter resampled onto one particle)
        # has zero variances that no jitter repairs.  Checked only after a
        # failed factorization, so a regular step pays nothing for it.
        if np.any(np.diag(cov) == 0.0):
            return -np.inf
        raise
    maha = factor.mahalanobis_sq(residual)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor.chol))))
    return -0.5 * (d * _LOG_2PI + logdet + maha)


def q_ic(
    truth: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
    q: float = 0.9,
    diagonalize: bool = False,
) -> float:
    """q-deformed information criterion, average of -log_q of the Gaussian
    density of the truth under the per-step estimates.

    Bounded above by 1 / (1 - q); with ``diagonalize`` the off-diagonal
    covariance entries are zeroed before evaluating the density (used when
    small ensembles make full covariances spurious).
    """
    return float(np.mean(q_ic_series(truth, means, covariances, q, diagonalize)))


def q_ic_series(
    truth: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
    q: float = 0.9,
    diagonalize: bool = False,
) -> np.ndarray:
    """Per-step -log_q density contributions (the q_ic summands)."""
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covariances = np.asarray(covariances, dtype=float)
    n = truth.shape[0]
    if means.shape != truth.shape or covariances.shape[0] != n:
        raise ValueError("truth, means and covariances must agree on the step count")
    log_densities = np.array(
        [
            _gaussian_log_density(truth[k], means[k], np.atleast_2d(covariances[k]), diagonalize)
            for k in range(n)
        ]
    )
    return -_q_log_from_log(log_densities, q)


def ci_coverage(
    truth: np.ndarray,
    means: np.ndarray,
    covariances: np.ndarray,
    level: float = 0.95,
) -> float:
    """Fraction of per-dimension marginal CIs containing the truth."""
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covariances = np.asarray(covariances, dtype=float)
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    z = norm.ppf(0.5 + 0.5 * level)
    n, d = truth.shape
    diags = np.array([np.diag(np.atleast_2d(covariances[k])) for k in range(n)])
    half_width = z * np.sqrt(np.clip(diags, 0.0, None))
    inside = np.abs(truth - means) <= half_width
    return float(np.mean(inside))


@dataclass(frozen=True)
class MetricReport:
    """Summary metrics for one filter run."""

    rmse: float
    q_ic: float
    ci_coverage_95: float

    @classmethod
    def evaluate(
        cls,
        truth: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        diagonalize: bool = False,
    ) -> "MetricReport":
        return cls(
            rmse=rmse(truth, means),
            q_ic=q_ic(truth, means, covariances, diagonalize=diagonalize),
            ci_coverage_95=ci_coverage(truth, means, covariances),
        )

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

from ._linalg import SpdFactor, pow2_scale

__all__ = ["MetricReport", "rmse", "q_log", "q_ic", "ci_coverage"]

_LOG_2PI = float(np.log(2.0 * np.pi))
# The z-value of the two-sided 95% interval: scipy.special.ndtri(0.975), bit
# for bit (statistics.NormalDist gives a value one ulp off).
_Z_95 = 1.959963984540054


def _one_minus_q(q: float) -> float:
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    # Snap 1 - q to its decimal value so the cap -1/(1-q) is exact for
    # decimally specified q (q = 0.9 must floor at exactly -10).
    return round(1.0 - q, 12)


def _root_mean_squares(error: np.ndarray) -> np.ndarray:
    """Root mean square over all entries of each run of an (R, ...) stack of
    errors.  A finite error too large to square is redone on the error
    divided by a power of two, which is exact."""
    axes = tuple(range(1, error.ndim))
    with np.errstate(over="ignore"):
        values = np.sqrt(np.mean(error**2, axis=axes))
    redo = (values == math.inf) & np.isfinite(error).all(axis=axes)
    if redo.any():
        error = error[redo]
        scale = pow2_scale(error, axis=axes)
        scaled = error / scale.reshape(-1, *(1,) * len(axes))
        values[redo] = scale * np.sqrt(np.mean(scaled**2, axis=axes))
    return values


def rmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Root mean squared error over all entries (time and dimensions)."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    with np.errstate(over="ignore"):
        error = truth - estimate
    return float(_root_mean_squares(error[None])[0])


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


def _stacked(
    truth: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, d) truth and means and (T, d, d) covariances; a (T,) covariance
    stack is a scalar model's variances."""
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covariances = np.asarray(covariances, dtype=float)
    if covariances.ndim == 1:
        covariances = covariances[:, None, None]
    n, d = truth.shape
    if means.shape != truth.shape or covariances.shape[0] != n:
        raise ValueError("truth, means and covariances must agree on the step count")
    if covariances.shape[1:] != (d, d):
        raise ValueError(
            f"covariances have shape {covariances.shape}, expected ({n}, {d}, {d})"
        )
    return truth, means, covariances


def _full_log_densities(residual: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """Per-step Gaussian log-densities of (T, d) residuals under (T, d, d)
    covariances, factored as one ``SpdFactor``, a jitter-repaired step
    under its repaired factor.  A step that no jitter repairs is a collapsed
    estimate (a particle filter resampled onto one particle) if it has a
    zero variance, and puts no density on the truth; any other raises.
    """
    d = residual.shape[1]
    factor = SpdFactor(covariances)
    maha = factor.mahalanobis_sq(residual)
    logdet = 2.0 * np.sum(np.log(np.diagonal(factor.chol, axis1=1, axis2=2)), axis=1)
    log_densities = -0.5 * (d * _LOG_2PI + logdet + maha)
    if factor.plain is not None:
        masked = np.isnan(factor.chol[:, 0, 0])
        collapsed = np.any(np.diagonal(covariances[masked], axis1=1, axis2=2) == 0.0, axis=1)
        if not collapsed.all():
            raise np.linalg.LinAlgError("covariance is not positive definite: no jitter repairs it")
        log_densities[masked] = -np.inf
    return log_densities


def _diagonal_log_densities(residual: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """Per-step Gaussian log-densities with the off-diagonal covariance
    entries zeroed; a step with a zero variance puts no density on the truth."""
    d = residual.shape[1]
    diag = np.diagonal(covariances, axis1=1, axis2=2)
    if np.any(diag < 0.0):
        raise ValueError("diagonalized covariance has negative entries")
    log_densities = -0.5 * (
        d * _LOG_2PI + np.sum(np.log(diag), axis=1) + np.sum(residual**2 / diag, axis=1)
    )
    return np.where(np.any(diag == 0.0, axis=1), -np.inf, log_densities)


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
    """Per-step -log_q density contributions (the q_ic summands), computed
    over the stacked steps."""
    truth, means, covariances = _stacked(truth, means, covariances)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = truth - means
    return _q_ic_terms(residual, covariances, q, diagonalize)


def _q_ic_terms(
    residual: np.ndarray, covariances: np.ndarray, q: float, diagonalize: bool
) -> np.ndarray:
    """-log_q of the Gaussian density of each (..., d) residual under its
    (..., d, d) covariance, all steps of all runs scored as one stack."""
    d = residual.shape[-1]
    steps = residual.reshape(-1, d)
    covariances = covariances.reshape(-1, d, d)
    # A residual too large to square, a zero variance's log and 0/0 all land
    # on a log-density of -inf, the capped score; none of them is a fault.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if diagonalize:
            log_densities = _diagonal_log_densities(steps, covariances)
        else:
            log_densities = _full_log_densities(steps, covariances)
    return -_q_log_from_log(log_densities, q).reshape(residual.shape[:-1])


def ci_coverage(truth: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> float:
    """Fraction of per-dimension marginal 95% CIs containing the truth."""
    truth, means, covariances = _stacked(truth, means, covariances)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = truth - means
    return float(_coverages(residual[None], covariances[None])[0])


def _coverages(residual: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """95% CI coverage of each run of (R, T, d) residuals under (R, T, d, d)
    covariances."""
    half_width = _Z_95 * np.sqrt(np.clip(np.diagonal(covariances, axis1=-2, axis2=-1), 0.0, None))
    with np.errstate(over="ignore"):  # an infinite residual lies outside
        inside = np.abs(residual) <= half_width
    return np.mean(inside, axis=(1, 2))


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
        """The metrics of one run: ``evaluate_runs`` of a stack of one."""
        truth, means, covariances = _stacked(truth, means, covariances)
        (report,) = cls.evaluate_runs(truth[None], means[None], covariances[None], diagonalize)
        return report

    @classmethod
    def evaluate_runs(
        cls,
        truths: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        diagonalize: bool = False,
    ) -> list["MetricReport"]:
        """The metrics of R runs of T steps, in one pass over the stack:
        (R, T, d) truths and means and (R, T, d, d) covariances.  Each run's
        metrics are those of ``rmse``, ``q_ic`` and ``ci_coverage`` on it
        alone, bit for bit."""
        with np.errstate(over="ignore", invalid="ignore"):
            error = truths - means
        values = zip(
            _root_mean_squares(error).tolist(),
            np.mean(_q_ic_terms(error, covariances, 0.9, diagonalize), axis=-1).tolist(),
            _coverages(error, covariances).tolist(),
        )
        return [cls(rmse=r, q_ic=q, ci_coverage_95=c) for r, q, c in values]

"""Closed-form robust analysis steps.

Both analyses multiply the observation precision R^{-1} by a precision
weight w(y) and assimilate a target observation: the score-matching (DSM)
analysis uses w = 2 k^2(y) and the gradient-corrected target
y - R grad log k^2(y), the weighted-likelihood (WoLF) analysis w = r^2(y)
and y itself.  Both reduce to the regular Kalman update for their
respective neutral weights, and a weight of 0 leaves the forecast unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import SpdFactor, symmetrize
from .lgss import GaussianBelief, LgssModel, kalman_gain, kf_analysis
from .weights import WeightKernelSpec, WolfSpec, robust_update

__all__ = [
    "AnalysisResult",
    "WolfSpec",
    "dsm_analysis",
    "wolf_analysis",
    "information_form_update",
    "influence_sweep",
    "InfluenceRow",
]


@dataclass(frozen=True)
class AnalysisResult:
    """Posterior belief plus the precision weight and target observation of
    the robust update."""

    posterior: GaussianBelief
    weight: np.ndarray
    target: np.ndarray


def _robust_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
) -> AnalysisResult:
    """Gain-form update with the precision weight and target observation of
    the shared robust-update core."""
    h = model.H
    center = h @ forecast.mean
    w, target = robust_update(
        spec, y, center, lambda: h @ forecast.cov @ h.T, model.observation.r_factor
    )
    root_w = np.sqrt(w)
    gain, whp = kalman_gain(forecast.cov, h, model.R, root_w)
    posterior = GaussianBelief(
        mean=forecast.mean - gain @ (root_w * (center - target)),
        cov=forecast.cov - gain @ whp,  # ctor symmetrizes
    )
    return AnalysisResult(posterior=posterior, weight=w, target=target)


def dsm_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WeightKernelSpec,
) -> AnalysisResult:
    """Score-matching analysis step.

    Evaluates the kernel at the observation (center H m^f, standardized by
    the innovation covariance in marginal mode), weights the observation
    precision by w = 2 k^2 and applies the gain of the corrected target,
    K = w P^f H^T [R + w H P^f H^T]^{-1} for a single block.
    """
    return _robust_analysis(model, forecast, y, spec)


def wolf_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WolfSpec,
) -> AnalysisResult:
    """Weighted-likelihood analysis step.

    Weights the observation precision by w = r^2(y) inside the regular gain
    (cross-checked against the information-form precision update
    J^a = J^f + r^2 H^T R^{-1} H) and assimilates the raw observation.  The
    result is reported through the same container as the score-matching
    step, whose weight 2 k^2 plays the part of r^2.
    """
    return _robust_analysis(model, forecast, y, spec)


def information_form_update(
    forecast: GaussianBelief,
    h: np.ndarray,
    r: np.ndarray,
    w: np.ndarray,
    target: np.ndarray,
) -> GaussianBelief:
    """Information-form route to the same posterior.

    With the weighted precision J_w = W^{1/2} R^{-1} W^{1/2}, W = diag(w):
    P^a = [(P^f)^{-1} + H^T J_w H]^{-1} and
    m^a = m^f - P^a H^T J_w (H m^f - target).  Kept as an independent
    expression so the gain-form update can be cross-checked against it.
    """
    root_w = np.sqrt(w)
    weighted_precision = root_w[:, None] * SpdFactor(r).inverse() * root_w
    precision = forecast.precision + h.T @ weighted_precision @ h
    p_a = symmetrize(SpdFactor(precision).inverse())
    mean = forecast.mean - p_a @ (h.T @ (weighted_precision @ (h @ forecast.mean - target)))
    return GaussianBelief(mean=mean, cov=p_a)


@dataclass(frozen=True)
class InfluenceRow:
    method: str
    magnitude: float
    mean_shift: float
    cov_trace: float


def influence_sweep(
    model: LgssModel,
    forecast: GaussianBelief,
    spec_dsm: WeightKernelSpec,
    spec_wolf: WolfSpec,
    magnitudes,
    direction: np.ndarray | None = None,
) -> list[InfluenceRow]:
    """Empirical posterior-influence sweep over outlier magnitudes.

    Places the observation at H m^f + magnitude * u for a fixed unit vector
    u (default: the leading eigenvector of the innovation covariance) and
    records the posterior-mean displacement and covariance trace for the
    regular, score-matching and weighted-likelihood updates.  A bounded
    displacement plateau as the magnitude grows is the operational
    robustness signature; the regular gain is constant in y, so its
    displacement grows linearly without bound.
    """
    h = model.H
    center = h @ forecast.mean
    if direction is None:
        eigvals, eigvecs = np.linalg.eigh(symmetrize(model.R + h @ forecast.cov @ h.T))
        direction = eigvecs[:, np.argmax(eigvals)]
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)

    rows: list[InfluenceRow] = []
    for magnitude in magnitudes:
        y0 = center + float(magnitude) * direction
        posteriors = {
            "kf": kf_analysis(model, forecast, y0),
            "dsm": dsm_analysis(model, forecast, y0, spec_dsm).posterior,
            "wolf": wolf_analysis(model, forecast, y0, spec_wolf).posterior,
        }
        for method, post in posteriors.items():
            rows.append(
                InfluenceRow(
                    method=method,
                    magnitude=float(magnitude),
                    mean_shift=float(np.linalg.norm(post.mean - forecast.mean)),
                    cov_trace=float(np.trace(post.cov)),
                )
            )
    return rows

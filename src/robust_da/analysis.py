"""Closed-form robust analysis steps.

The score-matching (DSM) analysis replaces the observation covariance with
N(y) = R / (2 k^2(y)) and the observation with a gradient-corrected one; the
weighted-likelihood (WoLF) analysis rescales R by 1 / r^2(y) and keeps the
observation unchanged.  Both reduce to the regular Kalman update for their
respective neutral weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import SpdFactor, symmetrize
from .lgss import GaussianBelief, LgssModel, kalman_gain, kf_analysis, rts_smoother
from .weights import WeightEvaluation, WeightKernelSpec, WolfSpec, robust_update

__all__ = [
    "AnalysisResult",
    "WolfSpec",
    "dsm_analysis",
    "wolf_analysis",
    "information_form_update",
    "dsm_rts_smoother",
    "influence_sweep",
    "InfluenceRow",
]


@dataclass(frozen=True)
class AnalysisResult:
    """Posterior belief plus the intermediate robust-update quantities."""

    posterior: GaussianBelief
    kernel_eval: WeightEvaluation
    corrected_obs: np.ndarray
    rescaled_cov: np.ndarray
    gain: np.ndarray


def _robust_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
) -> AnalysisResult:
    """Gain-form update with the effective covariance and target observation
    of the shared robust-update core."""
    h = model.H
    center = h @ forecast.mean
    effective_r, target, evaluation = robust_update(
        spec, y, center, lambda: h @ forecast.cov @ h.T, model.observation.r_factor
    )
    gain, hp, _ = kalman_gain(forecast.cov, h, effective_r)
    posterior = GaussianBelief(
        mean=forecast.mean - gain @ (center - target),
        cov=forecast.cov - gain @ hp,  # ctor symmetrizes
    )
    return AnalysisResult(
        posterior=posterior,
        kernel_eval=evaluation,
        corrected_obs=target,
        rescaled_cov=effective_r,
        gain=gain,
    )


def dsm_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WeightKernelSpec,
) -> AnalysisResult:
    """Score-matching analysis step.

    Evaluates the kernel at the observation (center H m^f, standardized by
    the innovation covariance in marginal mode), forms N(y) and the corrected
    observation, and applies the adjusted gain
    K = P^f H^T [N(y) + H P^f H^T]^{-1}.
    """
    return _robust_analysis(model, forecast, y, spec)


def wolf_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WolfSpec,
) -> AnalysisResult:
    """Weighted-likelihood analysis step.

    Replaces R by R / r^2(y) inside the regular gain (the effective
    observation covariance; cross-checked against the information-form
    precision update J^a = J^f + r^2 H^T R^{-1} H) and assimilates the raw
    observation.  The result is reported through the same container as the
    score-matching step with the effective squared weight r^2 / 2, which
    makes the shared rescaled-covariance relation N = R / (2 k^2) hold
    verbatim.
    """
    return _robust_analysis(model, forecast, y, spec)


def information_form_update(
    forecast: GaussianBelief,
    h: np.ndarray,
    rescaled_cov: np.ndarray,
    corrected_obs: np.ndarray,
) -> GaussianBelief:
    """Information-form route to the same posterior.

    P^a = [(P^f)^{-1} + H^T N^{-1}(y) H]^{-1} and
    m^a = m^f - P^a H^T N^{-1}(y) (H m^f - y_corr).  Kept as an independent
    expression so the gain-form update can be cross-checked against it.
    """
    n_inv = SpdFactor(rescaled_cov).inverse()
    precision = forecast.precision + h.T @ n_inv @ h
    p_a = symmetrize(SpdFactor(precision).inverse())
    mean = forecast.mean - p_a @ (h.T @ (n_inv @ (h @ forecast.mean - corrected_obs)))
    return GaussianBelief(mean=mean, cov=p_a)


def dsm_rts_smoother(
    model: LgssModel,
    forecasts,
    analyses,
) -> list[GaussianBelief]:
    """Backward smoother over score-matching filter output.

    The backward recursion is identical to the regular RTS smoother; the
    robust adjustment enters only through the forward-pass analysis
    parameters, which are consumed as-is (no re-weighting backwards).
    """
    beliefs = [a.posterior if isinstance(a, AnalysisResult) else a for a in analyses]
    return rts_smoother(model, forecasts, beliefs)


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
        # The innovation covariance is the bracket of the regular gain.
        innovation_cov = kalman_gain(forecast.cov, h, model.R)[2].matrix
        eigvals, eigvecs = np.linalg.eigh(innovation_cov)
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

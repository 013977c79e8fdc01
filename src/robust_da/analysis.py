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

from .lgss import GaussianBelief, LgssModel, _analysis_of_one
from .weights import WeightKernelSpec

__all__ = ["AnalysisResult", "dsm_analysis", "wolf_analysis"]


@dataclass(frozen=True)
class AnalysisResult:
    """Posterior belief plus the precision weight and target observation of
    the robust update."""

    posterior: GaussianBelief
    weight: np.ndarray
    target: np.ndarray


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
    return AnalysisResult(*_analysis_of_one(model, forecast, y, spec))


def wolf_analysis(
    model: LgssModel,
    forecast: GaussianBelief,
    y: np.ndarray,
    spec: WeightKernelSpec,
) -> AnalysisResult:
    """Weighted-likelihood analysis step, under a spec of the ``wolf`` family.

    Weights the observation precision by w = r^2(y) = 2 k^2(y) inside the
    regular gain, which gives the information-form precision update
    J^a = J^f + r^2 H^T R^{-1} H, and assimilates the raw observation: the
    score-matching step with a slope of 0.
    """
    return AnalysisResult(*_analysis_of_one(model, forecast, y, spec))

"""Ensemble approximations: stochastic EnKF with perturbed observations,
and the LETKF with R-localization and multiplicative inflation, whose single
global window at rho = 1 is the deterministic square-root filter (ESRF).

All variants share the robust update of the ``weights`` core, which weights
the observation precision R^{-1} by w and sets a target observation: the
regular filter is the constant-kernel case (w = 1, target y), the
score-matching (DSM) variants use w = 2 k^2 and the gradient-corrected
target, and the weighted-likelihood (WoLF) variants w = r^2 and y itself.
The EnKF takes them from ``weights.robust_update``, the LETKF and ESRF from
the same kernel functions in whitened anomaly space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._linalg import pow2_scale, symmetrize
from .lgss import ObservationModel, kalman_gain
from .weights import (
    CONDITIONAL,
    WeightKernelSpec,
    WolfSpec,
    robust_update,
    weight_slope,
    weight_sq,
)

__all__ = [
    "EnsembleState",
    "LetkfConfig",
    "Localization",
    "ensemble_forecast",
    "enkf_perturbed_analysis",
    "esrf_analysis",
    "letkf_analysis",
]

ENKF_MODES = ("average", "per_particle")

# A member propagator: maps a (d_X, M) member matrix to the next one, drawing
# any process noise from the supplied generator.
DynamicsSampler = Callable[[np.ndarray, np.random.Generator], np.ndarray]


@dataclass(frozen=True)
class EnsembleState:
    """d_X x M member matrix with cached mean and anomalies."""

    members: np.ndarray

    def __post_init__(self):
        members = np.atleast_2d(np.asarray(self.members, dtype=float))
        if members.shape[1] < 2:
            raise ValueError("an ensemble needs at least two members")
        object.__setattr__(self, "members", members)

    @property
    def d_x(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        return self.members.shape[1]

    @property
    def mean(self) -> np.ndarray:
        cached = self.__dict__.get("_mean")
        if cached is None:
            cached = self.members.mean(axis=1)
            object.__setattr__(self, "_mean", cached)
        return cached

    @property
    def anomalies(self) -> np.ndarray:
        """Centered members as columns; columns sum to zero."""
        cached = self.__dict__.get("_anomalies")
        if cached is None:
            cached = self.members - self.mean[:, None]
            object.__setattr__(self, "_anomalies", cached)
        return cached

    @property
    def cov(self) -> np.ndarray:
        """Empirical covariance X X^T / (M - 1)."""
        x = self.anomalies
        return symmetrize(x @ x.T / (self.size - 1))


def ensemble_forecast(
    dynamics: DynamicsSampler,
    ensemble: EnsembleState,
    rng: np.random.Generator,
) -> EnsembleState:
    """Propagate every member independently through the dynamics sampler."""
    return EnsembleState(members=_propagate(dynamics, ensemble.members, rng))


def _propagate(
    dynamics: DynamicsSampler, members: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """``dynamics(members, rng)``, checked to keep the members' shape and to
    be finite.  The ensemble and particle forecasts both call it."""
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow of a diverging member is reported via the finite check
        # below, not as a warning mid-propagation.
        propagated = np.asarray(dynamics(members, rng), dtype=float)
    if propagated.shape != members.shape:
        raise ValueError(f"dynamics returned shape {propagated.shape}, expected {members.shape}")
    if not np.all(np.isfinite(propagated)):
        raise FloatingPointError("forecast produced non-finite members")
    return propagated


def enkf_perturbed_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
    mode: str = "average",
    rng: np.random.Generator | None = None,
) -> EnsembleState:
    """Stochastic analysis with perturbed observations.

    ``average`` evaluates the weight once at the empirical forecast mean with
    the empirical innovation covariance; ``per_particle`` evaluates it per
    member at that member's predicted observation with conditional (R)
    standardization, giving each member its own gain and perturbation law.
    With the weighted gain G of ``lgss.kalman_gain``, member x moves by
    -G (W^{1/2} (H x - target) + chol(R) z), z standard normal: K = G W^{1/2}
    times the perturbation W^{-1/2} chol(R) z of the effective covariance R / w.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    if mode not in ENKF_MODES:
        raise ValueError(f"unknown EnKF mode {mode!r}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = obs.H
    p_f = ensemble.cov

    def hph():
        return h @ p_f @ h.T

    members = ensemble.members
    m = ensemble.size
    predicted = h @ members
    if mode == "average":
        # One weight and gain, at the forecast mean, for every member.
        centers, columns = [h @ ensemble.mean], [slice(None)]
        draws = rng.standard_normal((obs.d_y, m))
    else:
        if isinstance(spec, WeightKernelSpec) and spec.standardization != CONDITIONAL:
            spec = replace(spec, standardization=CONDITIONAL)
        centers, columns = predicted.T, [slice(i, i + 1) for i in range(m)]
        draws = rng.standard_normal((m, obs.d_y)).T  # member by member
    noise = obs.r_factor.chol @ draws
    updated = np.empty_like(members)
    for center, cols in zip(centers, columns):
        w, target = robust_update(spec, y, center, hph, obs.r_factor)
        root_w = np.sqrt(w)
        gain, _ = kalman_gain(p_f, h, obs.R, root_w)
        updated[:, cols] = members[:, cols] - gain @ (
            root_w[:, None] * predicted[:, cols] + noise[:, cols] - (root_w * target)[:, None]
        )
    return EnsembleState(members=updated)


@dataclass(frozen=True)
class Localization:
    """Cyclic R-localization: observations within ``half_width`` lattice
    sites of the analyzed state index, observation precision tapered by
    exp(-d^2 / L^2) with d the cyclic index distance.
    """

    half_width: int
    taper_length: float

    def __post_init__(self):
        if int(self.half_width) != self.half_width or self.half_width < 0:
            raise ValueError(f"half_width must be an integer >= 0, got {self.half_width}")
        if not 0.0 < self.taper_length < math.inf:
            raise ValueError(f"taper_length must be positive and finite, got {self.taper_length}")
        if not 0.0 < float(self.taper_length) * float(self.taper_length) < math.inf:
            # The taper divides by taper_length**2 (0 gives a 0/0 own-site taper).
            raise ValueError(f"taper_length {self.taper_length} squares to 0 or overflows")


@dataclass(frozen=True)
class LetkfConfig:
    """LETKF settings: multiplicative inflation and optional localization."""

    rho: float = 1.0
    localization: Localization | None = None

    def __post_init__(self):
        if not 1.0 <= self.rho < math.inf:
            raise ValueError(f"inflation rho must be finite and >= 1, got {self.rho}")


def _window_indices(d_x: int, d_y: int, half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic observation windows: row j holds the observation indices within
    ``half_width`` sites of state index j, shape (d_x, w); and the index
    distance of each window column, shape (w,)."""
    offsets = np.arange(-half_width, half_width + 1)
    return (np.arange(d_x)[:, None] + offsets) % d_y, np.abs(offsets)


def _transform_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
    config: LetkfConfig,
) -> EnsembleState:
    """The analysis of ``letkf_analysis`` and ``esrf_analysis``: the robust
    update of a stack of windows, all at once, in whitened anomaly space.

    ``y_hat`` (n, w, M) and ``d_hat`` (n, w) are each window's observation
    anomalies R^{-1/2} Y and innovation R^{-1/2} (y - ybar) / d_scale, where
    the power of two ``d_scale`` (n,) brings the largest |y - ybar| of the
    window into [1, 2) before the whitening.  With G = Y^T R^{-1} Y and
    b = Y^T R^{-1} d, the robust update in window coordinates is:

    - s = d^T R^{-1} d, or d^T Sigma_y^{-1} d for the specs standardized by
      Sigma_y = Y Y^T / (M - 1) + R, which Woodbury gives as
      d^T R^{-1} d - b^T C^{-1} b with C = (M - 1) I + G; both, and the
      target below, are formed from the scaled d and multiplied back by
      d_scale, so a finite innovation never whitens to inf, an s too large
      to represent is inf (weight 0), never inf - inf, and a weight of 0
      meets no inf;
    - the weighted precision w R^{-1} with w = 2 k^2(s);
    - target innovation d - 2 (d log k^2/ds) R Std^{-1} d, with Std the
      standardizing covariance; R Std^{-1} d enters only as
      Y^T R^{-1} R Std^{-1} d, which is b for Std = R and (M - 1) C^{-1} b
      for Std = Sigma_y;
    - A = (M - 1)/rho I + w G: analysis covariance A^{-1}, mean weights
      A^{-1} w Y^T R^{-1} (target innovation), transform [(M - 1) A^{-1}]^{1/2}.

    G, C and A share eigenvectors, so one stacked ``eigh`` of G solves all of
    it.
    """
    if isinstance(spec, WeightKernelSpec) and len(spec.block_partition or ()) > 1:
        raise ValueError("the LETKF weights each window as one block; got a block partition")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    y_mean = obs.H @ ensemble.mean
    y_anom = obs.H @ ensemble.members - y_mean[:, None]
    innovation = y - y_mean

    loc = config.localization
    if loc is None:
        d_scale = pow2_scale(innovation)[None]
        y_hat = obs.r_factor.whiten(y_anom)[None]
        d_hat = obs.r_factor.whiten(innovation / d_scale)[None]
    else:
        r_diag = np.diag(obs.R)
        if np.any(np.abs(obs.R - np.diag(r_diag)) > 1e-12):
            raise ValueError("R-localization requires a diagonal observation covariance")
        idx, dist = _window_indices(ensemble.d_x, y.shape[0], loc.half_width)
        taper = np.exp(-(dist.astype(float) ** 2) / loc.taper_length**2)
        r_inv_sqrt = np.sqrt(taper / r_diag[idx])
        d_scale = pow2_scale(innovation[idx], axis=1)
        y_hat = r_inv_sqrt[:, :, None] * y_anom[idx]
        d_hat = r_inv_sqrt * (innovation[idx] / d_scale[:, None])

    n, n_obs, m = y_hat.shape
    gram_vals, vecs = np.linalg.eigh(np.swapaxes(y_hat, 1, 2) @ y_hat)
    # b / d_scale in G's eigenbasis
    b_scaled = np.einsum("nmk,nm->nk", vecs, np.einsum("nwm,nw->nm", y_hat, d_hat))
    s_scaled = np.einsum("nw,nw->n", d_hat, d_hat)
    std_proj = b_scaled  # Y^T R^{-1} R Std^{-1} d / d_scale in the eigenbasis
    if spec.standardization != CONDITIONAL:
        c_vals = (m - 1) + gram_vals
        s_scaled = s_scaled - np.sum(b_scaled * b_scaled / c_vals, axis=1)
        std_proj = (m - 1) * b_scaled / c_vals
    s = np.maximum(s_scaled, 0.0) * d_scale * d_scale
    threshold = spec.thresholds_for(n_obs)[0]
    k_sq = weight_sq(spec, s, threshold)
    w = 2.0 * k_sq
    slope = np.reshape(weight_slope(spec, k_sq, threshold), (-1, 1))
    target_proj = (w * d_scale)[:, None] * (b_scaled - 2.0 * slope * std_proj)
    a_vals = (m - 1) / config.rho + w[:, None] * gram_vals
    mean_weights = np.einsum("nmk,nk->nm", vecs, target_proj / a_vals)
    transform = (vecs * np.sqrt((m - 1) / a_vals)[:, None, :]) @ np.swapaxes(vecs, 1, 2)

    # The state rows of each window: one row per window, or all rows in one.
    x_anom = ensemble.anomalies.reshape(n, -1, m)
    mean_a = ensemble.mean + (x_anom @ mean_weights[:, :, None]).reshape(-1)
    members = mean_a[:, None] + (x_anom @ transform).reshape(ensemble.members.shape)
    return EnsembleState(members=members)


def letkf_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
    config: LetkfConfig | None = None,
) -> EnsembleState:
    """Local ensemble transform analysis (deterministic, no random draws).

    The analysis is solved in the M-dimensional anomaly space with
    observation anomalies Y_i = H (member_i - mean).  With localization,
    state index j is analysed over its cyclic observation window, with the
    observation precision tapered by distance, and takes only its own row of
    the result; without it, one window holds every observation and every
    row, and is whitened by the cached Cholesky factor of R.  All windows are
    solved at once, each innovation scaled by a power of two before it is
    whitened.

    Each window runs the robust update of the shared core in whitened
    anomaly space (``_transform_analysis``): the weight of its Mahalanobis
    square from ``weights.weight_sq``, the weighted precision 2 k^2 R^{-1} and
    the corrected target observation, with Y Y^T / (M - 1) as the forecast
    covariance in observation space.  The constant kernel gives the regular
    LETKF, and a threshold of None resolves to the window's observation count.  Specs
    with more than one block are rejected: a window holds a slice of the
    observations, not a partition.
    """
    return _transform_analysis(ensemble, obs, y, spec, config or LetkfConfig())


def esrf_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
) -> EnsembleState:
    """Deterministic square-root analysis: the LETKF's single global window
    at rho = 1.

    By Woodbury, the symmetric transform [I - (W^{1/2} HX)^T B^{-1} W^{1/2} HX
    / (M-1)]^{1/2}, B = R + W^{1/2} H P H^T W^{1/2}, is that window's
    [(M-1) A^{-1}]^{1/2}, the symmetric PSD square root being unique.  It
    reproduces the closed-form analysis covariance exactly (for any ensemble
    size) and preserves the zero-sum anomaly property.  Specs with more than
    one block are rejected, as by the LETKF.
    """
    return _transform_analysis(ensemble, obs, y, spec, LetkfConfig())

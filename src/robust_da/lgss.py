"""Linear Gaussian state-space core: beliefs, the model and the Kalman
filter's forecast, gain and analysis steps.

Conventions follow the usual discrete-time system

    x_n = A x_{n-1} + Q^{1/2} w_n,      y_n = H x_n + R^{1/2} v_n,

with Gaussian beliefs carried in covariance form (mean, cov).  A belief may
carry a leading batch axis, a stack of beliefs under one model: the steps act
on each element alone, and a single belief is the batch-of-one case of the
same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._linalg import SpdFactor, block_diagonal, symmetrize
from .weights import CONSTANT, WeightKernelSpec, _as_floats, robust_update

__all__ = [
    "GaussianBelief",
    "LgssModel",
    "ObservationModel",
    "kf_forecast",
    "kalman_gain",
    "robust_analysis",
    "kf_analysis",
]

_REGULAR = WeightKernelSpec(family=CONSTANT)

def _as_vector(x, d: int | None = None) -> np.ndarray:
    v = _as_floats(x)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"expected a vector of length {d}, got {v.shape[0]}")
    return v


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian distribution in covariance form: a (d,) mean and (d, d)
    covariance, or a (B, d) and (B, d, d) stack of B beliefs.

    The covariance is symmetrized on construction and not factorized: the
    steps that solve with it factorize what they need, with jitter repair.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = self.mean
        if not (isinstance(mean, np.ndarray) and mean.ndim in (1, 2) and mean.dtype == np.float64):
            mean = _as_vector(mean)
        cov = _as_floats(self.cov, 2)
        if cov.shape != (*mean.shape, mean.shape[-1]):
            raise ValueError(f"covariance shape {cov.shape} does not match mean shape {mean.shape}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", symmetrize(cov))

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


@dataclass(frozen=True)
class ObservationModel:
    """Observation operator H with noise covariance R."""

    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        h = _as_floats(self.H, 2)
        r = symmetrize(_as_floats(self.R, 2))
        if r.shape != (h.shape[0], h.shape[0]):
            raise ValueError(f"R shape {r.shape} does not match observation dimension {h.shape[0]}")
        np.linalg.cholesky(r)  # R must be genuinely SPD, no repair
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "R", r)

    @property
    def d_y(self) -> int:
        return self.H.shape[0]

    @property
    def d_x(self) -> int:
        return self.H.shape[1]

    @cached_property
    def r_factor(self) -> SpdFactor:
        return SpdFactor(self.R)

    @cached_property
    def r_diagonal(self) -> np.ndarray | None:
        """The diagonal of R, or None if R is not diagonal (``block_diagonal``)."""
        return np.diag(self.R) if block_diagonal(self.R, np.arange(self.d_y)) else None


@dataclass(frozen=True)
class LgssModel:
    """Time-invariant linear Gaussian state-space system."""

    A: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    prior: GaussianBelief

    def __post_init__(self):
        a = _as_floats(self.A, 2)
        d_x = a.shape[0]
        if a.shape != (d_x, d_x):
            raise ValueError(f"A must be square, got {a.shape}")
        q = _as_floats(self.Q, 2)
        if q.shape != (d_x, d_x):
            raise ValueError(f"expected a matrix of shape {(d_x, d_x)}, got {q.shape}")
        q = symmetrize(q)
        # Q is allowed to be PSD (Q = 0 is legitimate deterministic dynamics);
        # nothing in the recursions inverts it.
        q_eigs = np.linalg.eigvalsh(q)
        if q_eigs.min() < -1e-10 * max(1.0, abs(q_eigs.max())):
            raise ValueError("Q must be positive semi-definite")
        h = _as_floats(self.H, 2)
        if h.shape[1] != d_x:
            raise ValueError(f"H has {h.shape[1]} columns, expected {d_x}")
        obs = ObservationModel(H=h, R=self.R)
        if self.prior.dim != d_x:
            raise ValueError(
                f"prior dimension {self.prior.dim} does not match state dimension {d_x}"
            )
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "Q", q)
        object.__setattr__(self, "H", obs.H)
        object.__setattr__(self, "R", obs.R)
        object.__setattr__(self, "_obs", obs)

    @property
    def d_x(self) -> int:
        return self.A.shape[0]

    @property
    def d_y(self) -> int:
        return self.H.shape[0]

    @property
    def observation(self) -> ObservationModel:
        return self.__dict__["_obs"]


def kf_forecast(model: LgssModel, analysis: GaussianBelief) -> GaussianBelief:
    """Forecast step: (m, P) -> (A m, A P A^T + Q), of one belief or a stack."""
    if analysis.dim != model.d_x:
        raise ValueError(
            f"belief dimension {analysis.dim} does not match state dimension {model.d_x}"
        )
    mean = (model.A @ analysis.mean[..., None])[..., 0]
    cov = model.A @ analysis.cov @ model.A.T + model.Q  # ctor symmetrizes
    return GaussianBelief(mean=mean, cov=cov)


def kalman_gain(
    hp_f: np.ndarray, h: np.ndarray, r: np.ndarray, root_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted gain G = P^f H^T W^{1/2} B^{-1}, B = R + W^{1/2} H P^f H^T W^{1/2},
    for the closed-form and EnKF updates, from ``hp_f`` = H P^f, the product
    that also gives the kernel its H P^f H^T.  Returns G with W^{1/2} H P^f,
    which gives the analysis covariance P^f - G W^{1/2} H P^f.  ``root_w`` is
    the square root of the robust update's precision weight w; ones give the
    regular gain bit for bit,
    since multiplying by 1 is exact.  The Kalman gain is K = G W^{1/2}:
    P^f H^T [R / w + H P^f H^T]^{-1} for w > 0, and 0 for w = 0.

    A (B, d_Y, d_X) stack of H P^f with a (B, d_Y) stack of weights gives
    the stacked gains, each as in a stack of one; so does a single H P^f,
    the EnKF's, with a stack of weights.  The brackets are factored as one
    ``SpdFactor``, each with a length-one axis that serves the d_X rows of
    its W^{1/2} H P^f: a bracket that no jitter repairs gives a NaN gain, for
    that element only.
    """
    hp = root_w[..., :, None] * hp_f
    bracket = SpdFactor((r + hp @ h.T * root_w[..., None, :])[..., None, :, :])
    # C-ordered, so each gain meets the same BLAS kernels in a stack as alone
    return np.ascontiguousarray(bracket.solve(hp.swapaxes(-1, -2))), hp


def robust_analysis(
    model: LgssModel,
    mean: np.ndarray,
    cov: np.ndarray,
    y: np.ndarray,
    specs: Sequence[tuple[WeightKernelSpec, slice]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The closed-form analysis step of every filter, on stacks only: the
    gain-form update with the precision weights w and target observations of
    the shared robust-update core, ``weights.robust_update``, one call for
    (B, d_X) forecast means, (B, d_X, d_X) covariances and (B, d_Y)
    observations.  The single-belief step, ``_analysis_of_one``, is a stack
    of one, so it is its element's step in any stack bit for bit.  ``specs``
    pairs each weight spec with the slice of the stack it weights; the
    constant kernel is the regular Kalman analysis.  Returns the posterior
    means and covariances (not yet symmetrized) and the stacked w and
    targets.  An element whose innovation or gain bracket no jitter repairs
    gets NaN moments; the others are unaffected.
    """
    if mean.ndim != 2:
        raise ValueError(f"expected a stack of forecasts, got a mean of shape {mean.shape}")
    h = model.H
    center, hp_f = (h @ mean[..., None])[..., 0], h @ cov
    w, target = robust_update(
        specs, y, center, lambda rows: hp_f[rows] @ h.T, model.observation.r_factor
    )
    root_w = np.sqrt(w)
    gain, whp = kalman_gain(hp_f, h, model.R, root_w)
    mean = mean - (gain @ (root_w * (center - target))[..., None])[..., 0]
    return mean, cov - gain @ whp, w, target


def _analysis_of_one(
    model: LgssModel, forecast: GaussianBelief, y, spec: WeightKernelSpec
) -> tuple[GaussianBelief, np.ndarray, np.ndarray]:
    """The checked single-belief step, ``robust_analysis`` of a stack of one:
    the posterior, precision weight w and target observation under ``spec``,
    with a NaN posterior where no jitter repairs a bracket."""
    y = _as_vector(y, model.d_y)
    if forecast.mean.ndim != 1:
        raise ValueError(f"expected a single forecast, got a stack of shape {forecast.mean.shape}")
    if forecast.dim != model.d_x:
        raise ValueError(
            f"forecast dimension {forecast.dim} does not match state dimension {model.d_x}"
        )
    mean, cov, w, target = robust_analysis(
        model, forecast.mean[None], forecast.cov[None], y[None], ((spec, slice(None)),)
    )
    return GaussianBelief(mean=mean[0], cov=cov[0]), w[0], target[0]  # ctor symmetrizes


def kf_analysis(model: LgssModel, forecast: GaussianBelief, y: np.ndarray) -> GaussianBelief:
    """Regular Kalman analysis step, the single-belief step with the
    constant kernel.

    Gain K = P^f H^T [R + H P^f H^T]^{-1}, then
    P^a = P^f - K H P^f and m^a = m^f - K (H m^f - y).  An innovation
    covariance R + H P^f H^T that no jitter repairs gives a NaN posterior.
    """
    return _analysis_of_one(model, forecast, y, _REGULAR)[0]

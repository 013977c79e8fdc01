"""Linear Gaussian state-space core: beliefs, the model and the Kalman
filter's forecast, gain and analysis steps.

Conventions follow the usual discrete-time system

    x_n = A x_{n-1} + Q^{1/2} w_n,      y_n = H x_n + R^{1/2} v_n,

with Gaussian beliefs carried in covariance form (mean, cov) and
information-form accessors (precision, potential) derived on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ._linalg import SpdFactor, symmetrize

__all__ = [
    "GaussianBelief",
    "LgssModel",
    "ObservationModel",
    "kf_forecast",
    "kalman_gain",
    "kf_analysis",
]

def _as_vector(x, d: int | None = None) -> np.ndarray:
    if isinstance(x, np.ndarray) and x.ndim == 1 and x.dtype == np.float64:
        v = x
    else:
        v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if d is not None and v.shape[0] != d:
        raise ValueError(f"expected a vector of length {d}, got {v.shape[0]}")
    return v


def _as_matrix(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    if isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype == np.float64:
        m = a
    else:
        m = np.atleast_2d(np.asarray(a, dtype=float))
    if shape is not None and m.shape != shape:
        raise ValueError(f"expected a matrix of shape {shape}, got {m.shape}")
    return m


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian distribution in covariance form.

    The covariance is symmetrized on construction; positive definiteness is
    enforced by the Cholesky factorization (with jitter repair) the first
    time a factor-based quantity is requested.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = _as_vector(self.mean)
        cov = symmetrize(_as_matrix(self.cov))
        if cov.shape != (mean.shape[0], mean.shape[0]):
            raise ValueError(
                f"covariance shape {cov.shape} does not match mean length {mean.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def factor(self) -> SpdFactor:
        cached = self.__dict__.get("_factor")
        if cached is None:
            cached = SpdFactor(self.cov)
            object.__setattr__(self, "_factor", cached)
        return cached

    @property
    def precision(self) -> np.ndarray:
        """Information matrix J = cov^{-1}."""
        return symmetrize(self.factor.inverse())

    @property
    def potential(self) -> np.ndarray:
        """Information vector theta = J @ mean."""
        return self.factor.solve(self.mean)


@dataclass(frozen=True)
class ObservationModel:
    """Observation operator H with noise covariance R."""

    H: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        h = _as_matrix(self.H)
        r = symmetrize(_as_matrix(self.R))
        if r.shape != (h.shape[0], h.shape[0]):
            raise ValueError(
                f"R shape {r.shape} does not match observation dimension {h.shape[0]}"
            )
        np.linalg.cholesky(r)  # R must be genuinely SPD, no repair
        object.__setattr__(self, "H", h)
        object.__setattr__(self, "R", r)

    @property
    def d_y(self) -> int:
        return self.H.shape[0]

    @property
    def d_x(self) -> int:
        return self.H.shape[1]

    @property
    def r_factor(self) -> SpdFactor:
        cached = self.__dict__.get("_r_factor")
        if cached is None:
            cached = SpdFactor(self.R)
            object.__setattr__(self, "_r_factor", cached)
        return cached


@dataclass(frozen=True)
class LgssModel:
    """Time-invariant linear Gaussian state-space system."""

    A: np.ndarray
    Q: np.ndarray
    H: np.ndarray
    R: np.ndarray
    prior: GaussianBelief

    def __post_init__(self):
        a = _as_matrix(self.A)
        d_x = a.shape[0]
        if a.shape != (d_x, d_x):
            raise ValueError(f"A must be square, got {a.shape}")
        q = symmetrize(_as_matrix(self.Q, (d_x, d_x)))
        # Q is allowed to be PSD (Q = 0 is legitimate deterministic dynamics);
        # nothing in the recursions inverts it.
        q_eigs = np.linalg.eigvalsh(q)
        if q_eigs.min() < -1e-10 * max(1.0, abs(q_eigs.max())):
            raise ValueError("Q must be positive semi-definite")
        h = _as_matrix(self.H)
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
    """Forecast step: (m, P) -> (A m, A P A^T + Q)."""
    if analysis.dim != model.d_x:
        raise ValueError(
            f"belief dimension {analysis.dim} does not match state dimension {model.d_x}"
        )
    mean = model.A @ analysis.mean
    cov = model.A @ analysis.cov @ model.A.T + model.Q  # ctor symmetrizes
    return GaussianBelief(mean=mean, cov=cov)


def kalman_gain(
    p_f: np.ndarray, h: np.ndarray, r: np.ndarray, root_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted gain G = P^f H^T W^{1/2} B^{-1}, B = R + W^{1/2} H P^f H^T W^{1/2},
    for the closed-form and EnKF updates, with W^{1/2} H P^f, which gives the
    analysis covariance P^f - G W^{1/2} H P^f.  ``root_w`` is the square
    root of the robust update's precision weight w; ones give the regular
    gain bit for bit,
    since multiplying by 1 is exact.  The Kalman gain is K = G W^{1/2}:
    P^f H^T [R / w + H P^f H^T]^{-1} for w > 0, and 0 for w = 0.

    Raises np.linalg.LinAlgError when the bracket cannot be factorized.
    """
    hp = root_w[:, None] * (h @ p_f)
    bracket = SpdFactor(r + hp @ h.T * root_w)
    return bracket.solve(hp).T, hp


def kf_analysis(model: LgssModel, forecast: GaussianBelief, y: np.ndarray) -> GaussianBelief:
    """Regular Kalman analysis step.

    Gain K = P^f H^T [R + H P^f H^T]^{-1}, then
    P^a = P^f - K H P^f and m^a = m^f - K (H m^f - y).

    Raises np.linalg.LinAlgError when the innovation covariance
    R + H P^f H^T cannot be factorized.
    """
    y = _as_vector(y, model.d_y)
    if forecast.dim != model.d_x:
        raise ValueError(
            f"forecast dimension {forecast.dim} does not match state dimension {model.d_x}"
        )
    gain, hp = kalman_gain(forecast.cov, model.H, model.R, np.ones(model.d_y))
    mean = forecast.mean - gain @ (model.H @ forecast.mean - y)
    return GaussianBelief(mean=mean, cov=forecast.cov - gain @ hp)  # ctor symmetrizes


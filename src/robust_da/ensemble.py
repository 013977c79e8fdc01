"""Ensemble approximations: stochastic EnKF with perturbed observations,
deterministic ensemble square-root filter, and the LETKF family with
R-localization and multiplicative inflation.

All variants share the robust-update algebra: the regular filter is the
constant-kernel special case, the score-matching (DSM) variants rescale the
observation covariance and correct the observation, and the
weighted-likelihood (WoLF) variants inflate it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ._linalg import SpdFactor, psd_sym_sqrt, symmetrize
from .lgss import GaussianBelief, ObservationModel, kalman_gain
from .weights import CONDITIONAL, WeightKernelSpec, WolfSpec, robust_update

__all__ = [
    "EnsembleState",
    "LetkfConfig",
    "Localization",
    "AnomalyAnalysis",
    "ensemble_forecast",
    "enkf_perturbed_analysis",
    "esrf_analysis",
    "letkf_analysis",
    "anomaly_posterior_cov",
    "solve_anomaly_analysis",
]

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
    with np.errstate(over="ignore", invalid="ignore"):
        # Overflow of a diverging member is reported via the finite check
        # below, not as a warning mid-propagation.
        propagated = np.asarray(dynamics(ensemble.members, rng), dtype=float)
    if propagated.shape != ensemble.members.shape:
        raise ValueError(
            f"dynamics returned shape {propagated.shape}, expected {ensemble.members.shape}"
        )
    if not np.all(np.isfinite(propagated)):
        raise FloatingPointError("ensemble forecast produced non-finite members")
    return EnsembleState(members=propagated)


def enkf_perturbed_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
    mode: str = "average",
    rng: np.random.Generator | None = None,
    forecast_override: GaussianBelief | None = None,
) -> EnsembleState:
    """Stochastic analysis with perturbed observations.

    ``average`` evaluates the weight once at the empirical forecast mean with
    the empirical innovation covariance; ``per_particle`` evaluates it per
    member at that member's predicted observation with conditional (R)
    standardization, giving each member its own gain and perturbation law.

    ``forecast_override`` freezes the gain and kernel on exact forecast
    moments instead of the empirical ones; with a frozen gain the update is
    mean- and covariance-consistent with the closed-form analysis.
    """
    if rng is None:
        raise ValueError("an explicit random generator is required")
    if mode not in ("average", "per_particle"):
        raise ValueError(f"unknown EnKF mode {mode!r}")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = obs.H
    forecast = ensemble if forecast_override is None else forecast_override
    p_f = forecast.cov

    def hph():
        return h @ p_f @ h.T

    members = ensemble.members
    m = ensemble.size
    predicted = h @ members

    if mode == "average":
        eff_r, target, _ = robust_update(spec, y, h @ forecast.mean, hph, obs.r_factor)
        gain, _, _ = kalman_gain(p_f, h, eff_r)
        noise = SpdFactor(eff_r).chol @ rng.standard_normal((obs.d_y, m))
        updated = members - gain @ (predicted + noise - target[:, None])
        return EnsembleState(members=updated)

    if isinstance(spec, WeightKernelSpec) and spec.standardization != CONDITIONAL:
        spec = replace(spec, standardization=CONDITIONAL)
    updated = np.empty_like(members)
    for i in range(m):
        eff_r, target, _ = robust_update(spec, y, predicted[:, i], hph, obs.r_factor)
        gain, _, _ = kalman_gain(p_f, h, eff_r)
        noise = SpdFactor(eff_r).chol @ rng.standard_normal(obs.d_y)
        updated[:, i] = members[:, i] - gain @ (predicted[:, i] + noise - target)
    return EnsembleState(members=updated)


def esrf_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
) -> EnsembleState:
    """Deterministic square-root analysis.

    The anomalies are transformed by the unique symmetric PSD square root

        S = [I - (HX)^T [H P H^T + N(y)]^{-1} HX / (M-1)]^{1/2},

    which reproduces the closed-form analysis covariance exactly (for any
    ensemble size) and preserves the zero-sum anomaly property.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = obs.H
    m = ensemble.size
    p_f = ensemble.cov
    center = h @ ensemble.mean
    eff_r, target, _ = robust_update(spec, y, center, lambda: h @ p_f @ h.T, obs.r_factor)
    gain, _, bracket_factor = kalman_gain(p_f, h, eff_r)
    hx = h @ ensemble.anomalies
    core = np.eye(m) - (hx.T @ bracket_factor.solve(hx)) / (m - 1)
    transform = psd_sym_sqrt(core)

    mean_a = ensemble.mean - gain @ (center - target)
    members = mean_a[:, None] + ensemble.anomalies @ transform
    return EnsembleState(members=members)


@dataclass(frozen=True)
class Localization:
    """Cyclic R-localization: observations within ``half_width`` lattice
    sites of the analyzed state index, observation precision tapered by
    exp(-d^2 / L^2) with d the cyclic index distance.
    """

    half_width: int
    taper_length: float

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half_width must be >= 0")
        if self.taper_length <= 0.0:
            raise ValueError("taper_length must be positive")


@dataclass(frozen=True)
class LetkfConfig:
    """LETKF settings: multiplicative inflation and optional localization."""

    rho: float = 1.0
    localization: Localization | None = None

    def __post_init__(self):
        if self.rho < 1.0:
            raise ValueError("inflation rho must be >= 1")


@dataclass(frozen=True)
class AnomalyAnalysis:
    """Analysis solution in the M-dimensional ensemble-anomaly space."""

    cov: np.ndarray        # (M, M) anomaly-space analysis covariance
    mean: np.ndarray       # (M,) anomaly-space analysis mean
    transform: np.ndarray  # (M, M) with transform @ transform.T = (M-1) cov


def anomaly_posterior_cov(gram: np.ndarray, m: int, rho: float = 1.0) -> np.ndarray:
    """Anomaly-space analysis covariance [(M-1)/rho I + gram]^{-1}.

    Multiplicative inflation by rho is equivalent to replacing P^f with
    rho P^f in the anomaly subspace, i.e. dividing the (M-1) identity term.
    """
    if rho < 1.0:
        raise ValueError("inflation rho must be >= 1")
    gram = symmetrize(np.asarray(gram, dtype=float))
    prior_term = (m - 1) / rho * np.eye(gram.shape[0])
    return symmetrize(SpdFactor(prior_term + gram).inverse())


def solve_anomaly_analysis(
    y_anom: np.ndarray,
    ninv: np.ndarray,
    innovation: np.ndarray,
    rho: float = 1.0,
) -> AnomalyAnalysis:
    """Solve the analysis in anomaly space.

    ``y_anom`` is the d_loc x M observation-anomaly matrix, ``ninv`` the
    inverse effective observation covariance and ``innovation`` the
    (possibly gradient-corrected) centered observation.
    """
    m = y_anom.shape[1]
    weighted = ninv @ y_anom
    cov = anomaly_posterior_cov(y_anom.T @ weighted, m, rho)
    mean = cov @ (weighted.T @ innovation)
    transform = psd_sym_sqrt((m - 1) * cov, min_eig_tol=-1e-10)
    return AnomalyAnalysis(cov=cov, mean=mean, transform=transform)


def _window_indices(state_index: int, d_y: int, half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic observation window around a state index and the index distances."""
    offsets = np.arange(-half_width, half_width + 1)
    indices = (state_index + offsets) % d_y
    return indices, np.abs(offsets)


def _local_analysis(
    spec: WeightKernelSpec | WolfSpec,
    y: np.ndarray,
    y_mean: np.ndarray,
    y_anom: np.ndarray,
    r: np.ndarray,
    rho: float,
) -> AnomalyAnalysis:
    """Robust anomaly-space analysis over one observation window."""
    m = y_anom.shape[1]
    r_factor = SpdFactor(r)
    n_eff, target, evaluation = robust_update(
        spec, y, y_mean, lambda: y_anom @ y_anom.T / (m - 1), r_factor
    )
    if evaluation.n_blocks == 1:
        # N = R / (2 k^2): invert through R's factor instead of factoring N.
        ninv = r_factor.inverse()
        ninv *= 2.0 * evaluation.k_sq[0]
    else:
        ninv = SpdFactor(n_eff).inverse()
    return solve_anomaly_analysis(y_anom, ninv, target - y_mean, rho)


def letkf_analysis(
    ensemble: EnsembleState,
    h: Callable[[np.ndarray], np.ndarray] | np.ndarray,
    r: np.ndarray,
    y: np.ndarray,
    spec: WeightKernelSpec | WolfSpec,
    config: LetkfConfig | None = None,
) -> EnsembleState:
    """Local ensemble transform analysis (deterministic, no random draws).

    The observation operator is applied per member; the analysis is solved in
    the M-dimensional anomaly space with observation anomalies
    Y_i = h(member_i) - h(mean).  With localization enabled, one local
    analysis per state index runs over the cyclic observation window and
    contributes only that state's row to the output.

    Each analysis takes its effective covariance and target observation from
    the shared robust update, with Y Y^T / (M - 1) as the forecast covariance
    in observation space; the constant kernel gives the regular LETKF, and a
    threshold of None resolves to each window's observation count.
    """
    config = config or LetkfConfig()
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    if callable(h):
        h_fun = h
    else:
        h_mat = np.atleast_2d(np.asarray(h, dtype=float))
        h_fun = lambda x: h_mat @ x
    y_mean = np.atleast_1d(h_fun(ensemble.mean))
    y_members = np.atleast_2d(h_fun(ensemble.members))
    y_anom = y_members - y_mean[:, None]

    if config.localization is None:
        solution = _local_analysis(spec, y, y_mean, y_anom, r, config.rho)
        mean_a = ensemble.mean + ensemble.anomalies @ solution.mean
        members = mean_a[:, None] + ensemble.anomalies @ solution.transform
        return EnsembleState(members=members)

    loc = config.localization
    d_y = y.shape[0]
    r_diag = np.diag(r)
    if np.any(np.abs(r - np.diag(r_diag)) > 1e-12):
        raise ValueError("R-localization requires a diagonal observation covariance")

    members = np.empty_like(ensemble.members)
    x_anom = ensemble.anomalies
    _, dist = _window_indices(0, d_y, loc.half_width)
    taper = np.exp(-(dist.astype(float) ** 2) / loc.taper_length**2)
    for j in range(ensemble.d_x):
        idx, _ = _window_indices(j, d_y, loc.half_width)
        solution = _local_analysis(
            spec, y[idx], y_mean[idx], y_anom[idx, :], np.diag(r_diag[idx] / taper), config.rho
        )
        row_mean = ensemble.mean[j] + x_anom[j] @ solution.mean
        members[j, :] = row_mean + x_anom[j] @ solution.transform
    return EnsembleState(members=members)

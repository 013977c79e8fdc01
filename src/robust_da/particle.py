"""Generalized bootstrap particle filter with a bounded score-matching
potential.

Each particle carries the kernel of a ``WeightKernelSpec`` centered at its
own predicted observation (conditional standardization), so with the IMQ or
sq-exp kernel the log-potential is bounded in the residual: extreme
observations cannot zero out the weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import SpdFactor
from .lgss import ObservationModel
from .weights import CONDITIONAL, CONSTANT, WOLF, WeightKernelSpec, _as_floats, loss_limit, weigh

__all__ = [
    "ParticleCloud",
    "dsm_log_potential",
    "pf_step",
]


def _logsumexp(x: np.ndarray) -> float:
    """log(sum(exp(x))) of a vector, as scipy 1.17's ``logsumexp`` computes
    it, bit for bit, without its ~80 us of array-API dispatch: the maxima
    are summed apart, as a count m, and the rest, shifted by the maximum, as
    s / m.  A result that is not finite is log(sum(exp(x))), as there."""
    mx = np.maximum.reduce(x, axis=None)
    at_max = x == mx
    m = np.count_nonzero(at_max)
    # Infinite and NaN entries take the log(0), -inf - -inf and overflow
    # that scipy silences too.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.add.reduce(np.exp(np.where(at_max, -np.inf, x) - mx))
        if s != 0.0:
            s = s / m
        out = float(np.log1p(s) + np.log(m) + mx)
        if not math.isfinite(out):
            out = float(np.log(np.add.reduce(np.exp(x))))
    return out


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particle set with log-weights normalized to sum to one."""

    particles: np.ndarray   # (d_X, M)
    log_weights: np.ndarray  # (M,)
    weights: np.ndarray = field(init=False, repr=False, compare=False)  # exp(log_weights)
    ess: float = field(init=False, repr=False, compare=False)  # 1 / sum(w^2), in [1, M]

    def __post_init__(self):
        particles = _as_floats(self.particles, 2)
        logw = np.asarray(self.log_weights, dtype=float)
        if logw.shape != (particles.shape[1],):
            raise ValueError(
                f"log_weights shape {logw.shape} does not match {particles.shape[1]} particles"
            )
        logw = logw - _logsumexp(logw)
        weights = np.exp(logw)
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "log_weights", logw)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ess", float(1.0 / np.add.reduce(weights * weights)))

    @classmethod
    def uniform(cls, particles: np.ndarray) -> "ParticleCloud":
        particles = _as_floats(particles, 2)
        m = particles.shape[1]
        return cls(particles=particles, log_weights=np.full(m, -np.log(m)))

    @property
    def size(self) -> int:
        return self.particles.shape[1]

    def weighted_mean(self) -> np.ndarray:
        return self.particles @ self.weights

    def weighted_cov(self) -> np.ndarray:
        centered = self.particles - self.weighted_mean()[:, None]
        return (centered * self.weights) @ centered.T


def dsm_log_potential(
    y: np.ndarray,
    h_of_x: np.ndarray,
    r_factor: SpdFactor,
    spec: WeightKernelSpec,
) -> float | np.ndarray:
    """Minus the score-matching loss of one particle, or of each column of a
    (d_Y, M) ``h_of_x``.

    With s the R-standardized squared residual and k^2 and d log k^2/ds the
    kernel step ``weights.weigh(spec, s, t)``, returns
    -k^2 (s - 4 s d log k^2/ds - 2 d_Y).  For IMQ this is 2 d_Y at zero
    residual and approaches -q^2 as the residual grows (the loss saturates at
    q^2); for sq-exp it approaches 0.  A finite residual too large to square
    has s = inf and takes that limit, -weights.loss_limit.  The constant
    kernel gives d_Y - s/2, the Gaussian log-likelihood up to a constant.  A
    non-finite observation gives a non-finite potential.  The WoLF weight
    has no score-matching loss, and a WoLF spec is refused.
    """
    if spec.family == WOLF:
        raise ValueError("the WoLF weight has no score-matching potential")
    y = _as_floats(y)
    s = r_factor.mahalanobis_sq(y - _as_floats(h_of_x).T)
    d_y = r_factor.dim
    threshold = spec.thresholds_for(d_y)[0]
    # Where a finite residual was too large to square, s = 0 stands in and
    # the potential is replaced by its limit, rather than forming 0 * inf.
    overflow = np.isinf(s) & np.logical_and.reduce(np.isfinite(y), axis=None)
    s = np.where(overflow, 0.0, s)
    k_sq, slope = weigh(spec, s, threshold)
    potential = -k_sq * (s - 4.0 * slope * s - 2.0 * d_y)
    return np.where(overflow, -loss_limit(spec, threshold), potential)[()]


def pf_step(
    cloud: ParticleCloud,
    propagated: np.ndarray,
    y: np.ndarray,
    obs: ObservationModel,
    spec: WeightKernelSpec,
    rng: np.random.Generator,
    resample_threshold: float = 0.5,
) -> ParticleCloud:
    """One reweight / resample step of the bootstrap filter, given the
    cloud's particles ``propagated`` through the dynamics
    (``ensemble.ensemble_forecast``).

    The log-potential of each propagated particle is added to its
    log-weight (normalized by log-sum-exp), and when ESS / M drops below
    ``resample_threshold`` the cloud is resampled (multinomial) with weights
    reset to uniform.  With the bootstrap proposal the transition densities
    cancel, so the potential is the only weight update.  Each particle's
    kernel is standardized by R, so a non-constant spec must be
    ``conditional`` with a single block, and it weights by a score-matching
    potential, so a WoLF spec is refused.
    """
    one_r_block = spec.standardization == CONDITIONAL and len(spec.block_partition or ()) < 2
    if spec.family != CONSTANT and not one_r_block:
        raise ValueError(f"the particle filter standardizes each kernel by R as one block: {spec}")
    log_pot = dsm_log_potential(y, obs.H @ propagated, obs.r_factor, spec)
    if not np.logical_and.reduce(np.isfinite(log_pot), axis=None):
        raise FloatingPointError("non-finite log-potential (bounded for finite observations)")
    updated = ParticleCloud(particles=propagated, log_weights=cloud.log_weights + log_pot)

    m = updated.size
    if updated.ess / m >= resample_threshold:
        return updated
    indices = rng.choice(m, size=m, p=updated.weights)
    return ParticleCloud.uniform(updated.particles[:, indices])

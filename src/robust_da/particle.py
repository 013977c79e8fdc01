"""Generalized bootstrap particle filter with a bounded score-matching
potential.

Each particle carries the kernel of a ``WeightKernelSpec`` centered at its
own predicted observation (conditional standardization), so with the IMQ or
sq-exp kernel the log-potential is bounded in the residual: extreme
observations cannot zero out the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from ._linalg import SpdFactor
from .ensemble import _propagate
from .lgss import ObservationModel
from .weights import CONDITIONAL, CONSTANT, WeightKernelSpec, loss_limit, weight_slope, weight_sq

__all__ = [
    "ParticleCloud",
    "dsm_log_potential",
    "pf_step",
]


@dataclass(frozen=True)
class ParticleCloud:
    """Weighted particle set with log-weights normalized to sum to one."""

    particles: np.ndarray   # (d_X, M)
    log_weights: np.ndarray  # (M,)

    def __post_init__(self):
        particles = np.atleast_2d(np.asarray(self.particles, dtype=float))
        logw = np.asarray(self.log_weights, dtype=float)
        if logw.shape != (particles.shape[1],):
            raise ValueError(
                f"log_weights shape {logw.shape} does not match {particles.shape[1]} particles"
            )
        logw = logw - logsumexp(logw)
        object.__setattr__(self, "particles", particles)
        object.__setattr__(self, "log_weights", logw)

    @classmethod
    def uniform(cls, particles: np.ndarray) -> "ParticleCloud":
        particles = np.atleast_2d(np.asarray(particles, dtype=float))
        m = particles.shape[1]
        return cls(particles=particles, log_weights=np.full(m, -np.log(m)))

    @property
    def size(self) -> int:
        return self.particles.shape[1]

    @property
    def weights(self) -> np.ndarray:
        return np.exp(self.log_weights)

    @property
    def ess(self) -> float:
        """Effective sample size 1 / sum(w^2), in [1, M]."""
        cached = self.__dict__.get("_ess")
        if cached is None:
            cached = float(1.0 / np.sum(self.weights**2))
            object.__setattr__(self, "_ess", cached)
        return cached

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

    With s the R-standardized squared residual, k^2 = weight_sq(spec, s, t)
    and d log k^2/ds = weight_slope(spec, k^2, t), returns
    -k^2 (s - 4 s d log k^2/ds - 2 d_Y).  For IMQ this is 2 d_Y at zero
    residual and approaches -q^2 as the residual grows (the loss saturates at
    q^2); for sq-exp it approaches 0.  A finite residual too large to square
    has s = inf and takes that limit, -weights.loss_limit.  The constant
    kernel gives d_Y - s/2, the Gaussian log-likelihood up to a constant.  A
    non-finite observation gives a non-finite potential.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h_of_x = np.asarray(h_of_x, dtype=float)
    if h_of_x.ndim == 2:
        residual = y[:, None] - h_of_x
    else:
        residual = y - np.atleast_1d(h_of_x)
    s = r_factor.mahalanobis_sq(residual)
    d_y = r_factor.dim
    threshold = spec.thresholds_for(d_y)[0]
    # Where a finite residual was too large to square, s = 0 stands in and
    # the potential is replaced by its limit, rather than forming 0 * inf.
    overflow = np.isinf(s) & np.all(np.isfinite(y))
    s = np.where(overflow, 0.0, s)
    k_sq = weight_sq(spec, s, threshold)
    potential = -k_sq * (s - 4.0 * weight_slope(spec, k_sq, threshold) * s - 2.0 * d_y)
    return np.where(overflow, -loss_limit(spec, threshold), potential)[()]


def pf_step(
    cloud: ParticleCloud,
    dynamics,
    y: np.ndarray,
    obs: ObservationModel,
    spec: WeightKernelSpec,
    rng: np.random.Generator,
    resample_threshold: float = 0.5,
) -> ParticleCloud:
    """One propagate / reweight / resample step of the bootstrap filter.

    Particles are pushed through the dynamics sampler (a non-finite forecast
    raises ``FloatingPointError``, as in ``ensemble_forecast``), the
    log-potential is added to the log-weights (normalized by log-sum-exp), and
    when ESS / M drops below ``resample_threshold`` the cloud is resampled
    (multinomial) with weights reset to uniform.  With the bootstrap proposal
    the transition densities cancel, so the potential is the only weight
    update.  Each particle's kernel is standardized by R, so a non-constant
    spec must be ``conditional`` with a single block.
    """
    one_r_block = spec.standardization == CONDITIONAL and len(spec.block_partition or ()) < 2
    if spec.family != CONSTANT and not one_r_block:
        raise ValueError(f"the particle filter standardizes each kernel by R as one block: {spec}")
    propagated = _propagate(dynamics, cloud.particles, rng)
    log_pot = dsm_log_potential(y, obs.H @ propagated, obs.r_factor, spec)
    if not np.all(np.isfinite(log_pot)):
        raise FloatingPointError("non-finite log-potential (bounded for finite observations)")
    updated = ParticleCloud(particles=propagated, log_weights=cloud.log_weights + log_pot)

    m = updated.size
    if updated.ess / m >= resample_threshold:
        return updated
    indices = rng.choice(m, size=m, p=updated.weights)
    return ParticleCloud.uniform(updated.particles[:, indices])

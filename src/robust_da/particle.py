"""Generalized bootstrap particle filter with a bounded score-matching
potential.

Each particle carries a translation-invariant IMQ kernel centered at its own
predicted observation (conditional standardization), so the log-potential is
bounded in the residual: extreme observations cannot zero out the weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from ._linalg import SpdFactor

__all__ = [
    "ParticleCloud",
    "PotentialSpec",
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


@dataclass(frozen=True)
class PotentialSpec:
    """Reweighting potential for the analysis step.

    ``imq``: the score-matching potential with per-particle IMQ kernel and
    threshold ``q_sq`` (default: the observation dimension).  ``constant``:
    the fixed weight 1/sqrt(2), whose potential is the exact Gaussian
    log-likelihood up to a constant, so the filter targets the regular
    posterior.
    """

    family: str = "imq"
    q_sq: float | None = None

    def __post_init__(self):
        if self.family not in ("imq", "constant"):
            raise ValueError(f"unknown potential family {self.family!r}")
        if self.q_sq is not None and self.q_sq <= 0.0:
            raise ValueError("q_sq must be strictly positive")


def dsm_log_potential(
    y: np.ndarray,
    h_of_x: np.ndarray,
    r: np.ndarray | SpdFactor,
    q_sq: float | None = None,
) -> float | np.ndarray:
    """Bounded log-potential of one particle, or of each column of a
    (d_Y, M) ``h_of_x``.

    With s the R-standardized squared residual and k the IMQ kernel with
    threshold q_sq, returns -(k^2 s + (4/q^2) k^4 s - 2 d_Y k^2), which is
    finite for every finite input: 2 d_Y at zero residual, approaching -q^2
    as the residual grows (the loss saturates at q^2).  ``q_sq=None`` gives
    the constant kernel k^2 = 1/2, whose potential d_Y - s/2 is the Gaussian
    log-likelihood up to a constant.  A non-finite observation gives a
    non-finite potential.
    """
    if q_sq is not None and q_sq <= 0.0:
        raise ValueError("q_sq must be strictly positive")
    factor = r if isinstance(r, SpdFactor) else SpdFactor(np.atleast_2d(np.asarray(r, float)))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h_of_x = np.asarray(h_of_x, dtype=float)
    if h_of_x.ndim == 2:
        residual = y[:, None] - h_of_x
    else:
        residual = y - np.atleast_1d(h_of_x)
    s = factor.mahalanobis_sq(residual)
    d_y = factor.dim
    if q_sq is None:
        return d_y - 0.5 * s
    k_sq = 1.0 / (1.0 + s / q_sq)
    return -(k_sq * s + (4.0 / q_sq) * (k_sq**2) * s - 2.0 * d_y * k_sq)


def pf_step(
    cloud: ParticleCloud,
    dynamics,
    y: np.ndarray,
    h,
    r: np.ndarray | SpdFactor,
    potential: PotentialSpec,
    rng: np.random.Generator,
    resample_threshold: float = 0.5,
    resampling: str = "multinomial",
) -> ParticleCloud:
    """One propagate / reweight / resample step of the bootstrap filter.

    Particles are pushed through the dynamics sampler, the log-potential is
    added to the log-weights (normalized by log-sum-exp), and when
    ESS / M drops below ``resample_threshold`` the cloud is resampled
    (multinomial by default; systematic available) with weights reset to
    uniform.  With the bootstrap proposal the transition densities cancel,
    so the potential is the only weight update.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    propagated = np.asarray(dynamics(cloud.particles, rng), dtype=float)
    if callable(h):
        predicted = np.atleast_2d(h(propagated))
    else:
        predicted = np.atleast_2d(np.asarray(h, dtype=float) @ propagated)
    if potential.family == "constant":
        q_sq = None
    else:
        q_sq = potential.q_sq if potential.q_sq is not None else float(y.shape[0])
    log_pot = dsm_log_potential(y, predicted, r, q_sq)
    if not np.all(np.isfinite(log_pot)):
        raise FloatingPointError("non-finite log-potential (bounded for finite observations)")
    updated = ParticleCloud(particles=propagated, log_weights=cloud.log_weights + log_pot)

    m = updated.size
    if updated.ess / m >= resample_threshold:
        return updated
    if resampling == "multinomial":
        indices = rng.choice(m, size=m, p=updated.weights)
    elif resampling == "systematic":
        positions = (rng.random() + np.arange(m)) / m
        indices = np.searchsorted(np.cumsum(updated.weights), positions)
    else:
        raise ValueError(f"unknown resampling scheme {resampling!r}")
    return ParticleCloud.uniform(updated.particles[:, indices])

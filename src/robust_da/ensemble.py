"""Ensemble approximations: stochastic EnKF with perturbed observations,
and the LETKF with R-localization and multiplicative inflation, whose single
global window at rho = 1 is the deterministic square-root filter (ESRF).

All variants share the robust update of the ``weights`` core, which weights
the observation precision R^{-1} by w and sets a target observation: the
regular filter is the constant-kernel case (w = 1, target y), the
score-matching (DSM) variants use w = 2 k^2 and the gradient-corrected
target, and the weighted-likelihood (WoLF) variants w = r^2 and y itself.
The EnKF takes them from ``weights.robust_update``, the LETKF and ESRF from
the same kernel step, ``weights.weigh``, in whitened anomaly space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from ._linalg import pow2_scale, symmetrize
from .lgss import ObservationModel, kalman_gain
from .weights import CONDITIONAL, WOLF, WeightKernelSpec, _as_floats, robust_update, weigh

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

# A member propagator: maps a list of (d_X, M_i) member blocks and one
# generator per block to the stacked (d_X, sum M_i) next members, each block
# drawing its process noise from its own generator (``models.*_sampler``).
DynamicsSampler = Callable[[Sequence[np.ndarray], Sequence[np.random.Generator]], np.ndarray]


@dataclass(frozen=True)
class EnsembleState:
    """d_X x M member matrix with its mean and anomalies."""

    members: np.ndarray
    mean: np.ndarray = field(init=False, repr=False, compare=False)
    anomalies: np.ndarray = field(init=False, repr=False, compare=False)  # columns sum to zero

    def __post_init__(self):
        members = _as_floats(self.members, 2)
        if members.shape[1] < 2:
            raise ValueError("an ensemble needs at least two members")
        mean = np.add.reduce(members, axis=1) / members.shape[1]  # ndarray.mean's arithmetic
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "anomalies", members - mean[:, None])

    @property
    def d_x(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        return self.members.shape[1]

    @property
    def cov(self) -> np.ndarray:
        """Empirical covariance X X^T / (M - 1)."""
        x = self.anomalies
        return symmetrize(x @ x.T / (self.size - 1))


def ensemble_forecast(
    dynamics: DynamicsSampler,
    blocks: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
) -> list[np.ndarray | None]:
    """Propagate member blocks, each an ensemble's members or a particle
    cloud's particles, through one call of the dynamics sampler, each block
    drawing its process noise from its own generator.

    Returns the propagated blocks, split back in order, each a C-ordered
    array; a block with a non-finite member comes back as None, its run
    diverged in the forecast, and the other blocks are unaffected: the
    samplers act on each column alone.  Overflow of a diverging member is
    reported that way, not as a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        propagated = np.asarray(dynamics(blocks, rngs), dtype=float)
        # A non-finite member makes the sum non-finite; only then is each block tested.
        finite = math.isfinite(np.add.reduce(propagated, axis=None))
    sizes = [block.shape[1] for block in blocks]
    expected = (blocks[0].shape[0], sum(sizes))
    if propagated.shape != expected:
        raise ValueError(f"dynamics returned shape {propagated.shape}, expected {expected}")
    out, start = [], 0
    for size in sizes:
        block = np.ascontiguousarray(propagated[:, start : start + size])
        out.append(block if finite or np.logical_and.reduce(np.isfinite(block), axis=None) else None)
        start += size
    return out


def enkf_perturbed_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec,
    mode: str = "average",
    *,
    rng: np.random.Generator,
) -> EnsembleState:
    """Stochastic analysis with perturbed observations.

    ``average`` evaluates the weight once at the empirical forecast mean with
    the empirical innovation covariance; ``per_particle`` evaluates it per
    member at that member's predicted observation, giving each member its
    own gain and perturbation law.  There every kernel is standardized by R
    (conditional), except a WoLF spec, which keeps its own standardization:
    a sigma-scaled (marginal) WoLF spec whitens each member's residual by
    the empirical innovation covariance.
    With the weighted gain G of ``lgss.kalman_gain``, member x moves by
    -G (W^{1/2} (H x - target) + chol(R) z), z standard normal: K = G W^{1/2}
    times the perturbation W^{-1/2} chol(R) z of the effective covariance R / w.
    """
    if mode not in ENKF_MODES:
        raise ValueError(f"unknown EnKF mode {mode!r}")
    y = _as_floats(y)
    h = obs.H
    hp_f = h @ ensemble.cov

    def hph(_rows):
        return hp_f @ h.T

    members = ensemble.members
    m = ensemble.size
    predicted = h @ members
    if mode == "average":
        # One weight and gain, at the forecast mean, for every member.
        center = h @ ensemble.mean
        draws = rng.standard_normal((obs.d_y, m))
    else:
        if spec.family != WOLF and spec.standardization != CONDITIONAL:
            spec = replace(spec, standardization=CONDITIONAL)
        # One weight and gain per member, as a stack over the members.
        center, y = predicted.T, np.broadcast_to(y, (m, obs.d_y))
        draws = rng.standard_normal((m, obs.d_y)).T  # member by member
    noise = obs.r_factor.chol @ draws
    w, target = robust_update(((spec, slice(None)),), y, center, hph, obs.r_factor)
    root_w = np.sqrt(w)
    gain, _ = kalman_gain(hp_f, h, obs.R, root_w)
    # Each member's W^{1/2} (H x - target) + chol(R) z, one row per member
    shift = root_w * predicted.T + noise.T - root_w * target
    if mode == "average":
        return EnsembleState(members=members - gain @ shift.T)
    return EnsembleState(members=members - (gain @ shift[:, :, None])[:, :, 0].T)


@dataclass(frozen=True)
class Localization:
    """Cyclic R-localization: observations within ``half_width`` lattice
    sites of the analyzed state index, observation precision tapered by
    exp(-d^2 / L^2) with d the cyclic index distance.
    """

    half_width: int
    taper_length: float

    def __post_init__(self):
        hw = self.half_width
        if not isinstance(hw, int) or isinstance(hw, bool) or hw < 0:
            raise ValueError(f"half_width must be an integer >= 0, got {hw!r}")
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
    distance of each window column, shape (w,).  A window at least as wide
    as the ring holds each observation once."""
    offsets = np.arange(-min(half_width, (d_y - 1) // 2), min(half_width, d_y // 2) + 1)
    return (np.arange(d_x)[:, None] + offsets) % d_y, np.abs(offsets)


@lru_cache(maxsize=32)  # a run's windows are the same at every step
def _tapered_windows(d_x: int, d_y: int, half_width: int, taper_length: float) -> tuple:
    """The windows of ``_window_indices``; which observations each window
    holds, a (d_x, d_y) mask; and the (d_x, d_y) window-weight matrix: the
    taper exp(-d^2 / L^2) at each window's observations and exact zeros
    elsewhere.  All read-only."""
    idx, dist = _window_indices(d_x, d_y, half_width)
    taper = np.exp(-(dist.astype(float) ** 2) / taper_length**2)
    rows = np.arange(d_x)[:, None]
    inside, weights = np.zeros((d_x, d_y), dtype=bool), np.zeros((d_x, d_y))
    inside[rows, idx], weights[rows, idx] = True, taper
    for a in (idx, inside, weights):
        a.flags.writeable = False
    return idx, inside, weights


@lru_cache(maxsize=32)  # a run's ensemble size is the same at every step
def _zero_sum_basis(m: int) -> np.ndarray:
    """An orthonormal basis U of the M-vectors that sum to zero, U^T 1 = 0:
    the (M, M - 1) Helmert matrix, whose k-th column is k ones, then -k,
    then zeros, over sqrt(k (k + 1)).  Read-only."""
    k = np.arange(1, m)
    basis = np.triu(np.ones((m, m - 1)))
    basis[k, k - 1] = -k
    basis /= np.sqrt(k * (k + 1.0))
    basis.flags.writeable = False
    return basis


def _transform_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec,
    config: LetkfConfig,
) -> EnsembleState:
    """The analysis of ``letkf_analysis`` and ``esrf_analysis``: the robust
    update of a stack of n windows, all at once, in whitened anomaly space.

    A window is a row of the (n, d_y) window-weight matrix C: the taper at
    the window's observations and exact zeros elsewhere; the global window
    is one row of ones.  ``y_hat`` (d_y, M) holds the whitened observation
    anomalies R^{-1/2} Y, and ``f`` (n, d_y) each window's whitened
    innovation R^{-1/2} (y - ybar) / d_scale, where the power of two
    ``d_scale`` (n,) brings the largest |y - ybar| of the window into [1, 2)
    before the whitening, and 0 outside the window.

    The anomalies sum to zero, X 1 = 0 and Y 1 = 0, so the ones vector lies
    in the null space of every window's Gram G = Y^T R^{-1} Y and is
    orthogonal to b = Y^T R^{-1} d: it moves neither the mean nor, as
    X 1 = 0, the members.  The update is solved in its complement, the
    (M - 1)-dimensional zero-sum subspace with orthonormal basis U
    (``_zero_sum_basis``), and a transform T there is U T U^T in member
    space.  The anomalies are projected, never the members, whose mean may
    dwarf their spread.  The window sums are three products with C: the
    Grams U^T G U of C times the stacked outer products of the rows of
    ``y_hat`` U, b = (C * f) @ y_hat and d^T R^{-1} d = vecdot(C * f, f).
    With these, the robust update in window coordinates is:

    - s = d^T R^{-1} d, or d^T Sigma_y^{-1} d for the specs standardized by
      Sigma_y = Y Y^T / (M - 1) + R, which Woodbury gives as
      d^T R^{-1} d - b^T Q^{-1} b with Q = (M - 1) I + G; both, and the
      target below, are formed from the scaled d and multiplied back by
      d_scale, so a finite innovation never whitens to inf, an s too large
      to represent is inf (weight 0), never inf - inf, and a weight of 0
      meets no inf;
    - the weighted precision w R^{-1} with w = 2 k^2(s);
    - target innovation d - 2 (d log k^2/ds) R Std^{-1} d, with Std the
      standardizing covariance; R Std^{-1} d enters only as
      Y^T R^{-1} R Std^{-1} d, which is b for Std = R and (M - 1) Q^{-1} b
      for Std = Sigma_y;
    - A = (M - 1)/rho I + w G: analysis covariance A^{-1}, mean weights
      A^{-1} w Y^T R^{-1} (target innovation), transform [(M - 1) A^{-1}]^{1/2}.

    G, Q and A share eigenvectors U V, with V those of U^T G U, so one
    stacked ``eigh`` of the (M - 1) x (M - 1) Grams solves all of it: b and
    the window's state anomalies X are projected once onto U V, and both the
    mean weights and the transform U V [(M - 1) / a]^{1/2} V^T U^T act
    through X U V.
    """
    if len(spec.block_partition or ()) > 1:
        raise ValueError("the LETKF weights each window as one block; got a block partition")
    y = _as_floats(y)
    y_mean = obs.H @ ensemble.mean
    y_anom = obs.H @ ensemble.members - y_mean[:, None]
    innovation = y - y_mean

    loc = config.localization
    if loc is None:
        n_obs = y.shape[0]
        weights = np.ones((1, n_obs))
        d_scale = pow2_scale(innovation)[None]
        y_hat = obs.r_factor.whiten(y_anom.T).T
        f = obs.r_factor.whiten(innovation / d_scale)[None]
    else:
        r_diag = obs.r_diagonal
        if r_diag is None:
            raise ValueError("R-localization requires a diagonal observation covariance")
        idx, inside, weights = _tapered_windows(
            ensemble.d_x, y.shape[0], loc.half_width, loc.taper_length
        )
        n_obs = idx.shape[1]
        r_sqrt = np.sqrt(r_diag)
        d_scale = pow2_scale(innovation[idx], axis=1)
        # Outside its window a row of f is 0, never an innovation times 0.
        f = np.divide(innovation, d_scale[:, None], out=np.zeros(weights.shape), where=inside)
        f /= r_sqrt
        y_hat = y_anom / r_sqrt[:, None]

    n, m = weights.shape[0], y_anom.shape[1]
    basis = _zero_sum_basis(m)
    y_sub = y_hat @ basis
    outer = np.einsum("im,ik->imk", y_sub, y_sub).reshape(-1, (m - 1) ** 2)
    gram_vals, vecs = np.linalg.eigh((weights @ outer).reshape(n, m - 1, m - 1))
    weighted_f = weights * f
    s_scaled = np.vecdot(weighted_f, f)
    vecs = basis @ vecs  # the eigenvectors U V, in member coordinates
    # b / d_scale and the state rows of each window (one row per window, or
    # all rows in one), projected onto U V by one product.
    rows = np.concatenate(
        ((weighted_f @ y_hat)[:, None, :], ensemble.anomalies.reshape(n, -1, m)), axis=1
    )
    projected = rows @ vecs
    b_scaled, x_proj = projected[:, 0, :], projected[:, 1:, :]
    std_proj = b_scaled  # Y^T R^{-1} R Std^{-1} d / d_scale in the eigenbasis
    if spec.standardization != CONDITIONAL:
        solved = b_scaled / ((m - 1) + gram_vals)  # Q^{-1} b / d_scale
        s_scaled = s_scaled - np.vecdot(b_scaled, solved)
        std_proj = (m - 1) * solved
    s = np.maximum(s_scaled, 0.0) * d_scale * d_scale
    k_sq, slope = weigh(spec, s, spec.thresholds_for(n_obs)[0])
    w = 2.0 * k_sq
    slope = np.asarray(slope).reshape(-1, 1)
    target_proj = (w * d_scale)[:, None] * (b_scaled - 2.0 * slope * std_proj)
    a_vals = (m - 1) / config.rho + w[:, None] * gram_vals
    mean_a = ensemble.mean + (x_proj @ (target_proj / a_vals)[:, :, None]).reshape(-1)
    spread = (x_proj * np.sqrt((m - 1) / a_vals)[:, None, :]) @ vecs.swapaxes(1, 2)
    return EnsembleState(members=mean_a[:, None] + spread.reshape(ensemble.members.shape))


def letkf_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec,
    config: LetkfConfig | None = None,
) -> EnsembleState:
    """Local ensemble transform analysis (deterministic, no random draws).

    The analysis is solved in anomaly space, with observation anomalies
    Y_i = H (member_i - mean), on the (M - 1)-dimensional subspace of
    weight vectors that sum to zero (``_transform_analysis``).  With
    localization, state index j is analysed over its cyclic observation
    window, with the observation precision tapered by distance, and takes
    only its own row of the result; without it, one window holds every
    observation and every
    row, and is whitened by the cached Cholesky factor of R.  All windows are
    solved at once: their sums are products with a window-weight matrix
    cached per ring geometry (the taper at a window's observations, exact
    zeros elsewhere), and each window's innovation is scaled by its own
    power of two before it is whitened, so an observation outside a window
    does not change that window's analysis.

    Each window runs the robust update of the shared core in whitened
    anomaly space (``_transform_analysis``): the squared weight of its
    Mahalanobis square and its slope from the kernel step ``weights.weigh``,
    the weighted precision 2 k^2 R^{-1} and the corrected target observation
    (the observation itself for WoLF and the constant kernel), with
    Y Y^T / (M - 1) as the forecast covariance in observation space.  The
    constant kernel gives the regular LETKF, and a threshold of None
    resolves to the window's observation count, observations whose taper
    underflows to 0 included.  Specs with more than one block are rejected:
    a window holds a slice of the observations, not a partition.
    """
    return _transform_analysis(ensemble, obs, y, spec, config or LetkfConfig())


def esrf_analysis(
    ensemble: EnsembleState,
    obs: ObservationModel,
    y: np.ndarray,
    spec: WeightKernelSpec,
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

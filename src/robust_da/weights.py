"""Weight kernels for robust analysis steps, their gradients, the rescaled
observation covariance, the corrected observation, the robust-update core
every filter family shares, and threshold tuning.

A weight kernel k maps an observation to (0, 1] per block and drives the
rescaled observation covariance N(y) = R / (2 k^2(y)); the constant value
1 / sqrt(2) recovers the regular Kalman update exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._linalg import SpdFactor
from .lgss import BlockPartition, normalize_partition

__all__ = [
    "IMQ",
    "SQEXP",
    "CONSTANT",
    "WeightKernelSpec",
    "WolfSpec",
    "WeightEvaluation",
    "robust_update",
    "weight_sq",
    "weight_slope",
    "eval_kernel",
    "rescaled_obs_cov",
    "corrected_observation",
    "jensen_bounds",
    "jensen_upper_empirical",
    "expected_weight_mc",
    "default_threshold",
    "tune_threshold",
]

IMQ = "imq"
SQEXP = "sqexp"
CONSTANT = "constant"
_FAMILIES = (IMQ, SQEXP, CONSTANT)

# Standardization modes: which covariance whitens the residual in the kernel.
# MARGINAL and OBS_ANOMALY are both HPH^T + R; they name what the caller
# passes as HPH^T (the forecast covariance mapped to observation space, or
# its anomaly-space estimate).
MARGINAL = "marginal"          # H P^f H^T + R
CONDITIONAL = "conditional"    # R
OBS_ANOMALY = "obs_anomaly"    # Y^f (Y^f)^T / (M-1) + R
_STANDARDIZATIONS = (MARGINAL, CONDITIONAL, OBS_ANOMALY)

CONSTANT_WEIGHT_SQ = 0.5  # squared value of the Kalman-recovery kernel 1/sqrt(2)


@dataclass(frozen=True)
class WeightKernelSpec:
    """Kernel family, per-block thresholds, standardization and partition.

    ``threshold`` may be a scalar (broadcast over blocks), a per-block
    sequence, or None to request the dimension-based default (q^2 = d_b for
    the IMQ family, h^2 = d_b / ln 2 for the squared-exponential one).
    """

    family: str = IMQ
    threshold: float | Sequence[float] | None = None
    standardization: str = MARGINAL
    block_partition: BlockPartition | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.standardization not in _STANDARDIZATIONS:
            raise ValueError(f"unknown standardization {self.standardization!r}")
        if self.block_partition is not None:
            object.__setattr__(
                self, "block_partition", tuple(tuple(b) for b in self.block_partition)
            )

    def partition_for(self, d_y: int) -> BlockPartition:
        cache = self.__dict__.setdefault("_partition_cache", {})
        resolved = cache.get(d_y)
        if resolved is None:
            if self.block_partition is None:
                resolved = ((0, d_y),)
            else:
                resolved = normalize_partition(self.block_partition, d_y)
            cache[d_y] = resolved
        return resolved

    def thresholds_for(self, d_y: int) -> np.ndarray:
        """Resolve strictly positive per-block thresholds (cached per d_y)."""
        cache = self.__dict__.setdefault("_threshold_cache", {})
        resolved = cache.get(d_y)
        if resolved is None:
            resolved = self._resolve_thresholds(d_y)
            cache[d_y] = resolved
        return resolved

    def _resolve_thresholds(self, d_y: int) -> np.ndarray:
        partition = self.partition_for(d_y)
        n_blocks = len(partition)
        if self.family == CONSTANT:
            return np.ones(n_blocks)  # unused
        if self.threshold is None:
            values = [default_threshold(stop - start, self.family) for start, stop in partition]
        elif np.isscalar(self.threshold):
            values = [float(self.threshold)] * n_blocks
        else:
            values = [float(t) for t in self.threshold]
            if len(values) != n_blocks:
                raise ValueError(
                    f"{len(values)} thresholds provided for {n_blocks} blocks"
                )
        thresholds = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(thresholds)) or np.any(thresholds <= 0.0):
            raise ValueError(f"thresholds must be strictly positive and finite, got {thresholds}")
        return thresholds


@dataclass(frozen=True)
class WolfSpec:
    """Weighted-likelihood filter weight configuration.

    ``md``: r(y) = (1 + ||y - Hm^f||^2_{R^{-1}} / c^2)^{-1/2}, values in (0, 1]
    so the update can only inflate.  ``sigma_scaled``: the sqrt(2)-rescaled
    variant standardized by the innovation covariance, values in (0, sqrt(2)],
    matching the regular-KF covariance update at zero residual.  ``c_sq``
    None means the observation dimension.
    """

    variant: str = "md"
    c_sq: float | None = None

    def __post_init__(self):
        if self.variant not in ("md", "sigma_scaled"):
            raise ValueError(f"unknown WoLF variant {self.variant!r}")
        if self.c_sq is not None and self.c_sq <= 0.0:
            raise ValueError("c_sq must be strictly positive")

    @property
    def standardization(self) -> str:
        """R for ``md``, the innovation covariance HPH^T + R for ``sigma_scaled``."""
        return CONDITIONAL if self.variant == "md" else MARGINAL

    def thresholds_for(self, d_y: int) -> np.ndarray:
        """The single threshold c^2, resolved against the dimension (cached per d_y)."""
        cache = self.__dict__.setdefault("_threshold_cache", {})
        resolved = cache.get(d_y)
        if resolved is None:
            resolved = cache[d_y] = np.array([self.c_sq if self.c_sq is not None else d_y], float)
        return resolved


@dataclass(frozen=True)
class WeightEvaluation:
    """Evaluated squared weights and their observation-space gradients.

    ``grad_diag`` is the divergence of the diagonal weight matrix: entry i is
    the partial derivative of k^2 of the block containing i with respect to
    y_i.  ``full_grads`` row b holds the full gradient of k^2_b, used for the
    single-block corrected observation (the two coincide when B = 1).
    """

    k_sq: np.ndarray          # (B,) squared weights per block
    grad_diag: np.ndarray     # (d_Y,)
    full_grads: np.ndarray    # (B, d_Y)
    partition: BlockPartition

    @property
    def n_blocks(self) -> int:
        return len(self.partition)


# Floor keeping the squared-exponential weight strictly positive in floating
# point; slope and value share the floored number, so the exact cancellation
# of k^2 inside N(y) grad k^2(y) survives.
_K_SQ_FLOOR = 1e-300


def weight_sq(
    spec: WeightKernelSpec | WolfSpec, s: float | np.ndarray, threshold: float
) -> float | np.ndarray:
    """Squared weight k^2 at the Mahalanobis square s, elementwise over an
    array of s.  ``threshold`` is q^2 (IMQ), h^2 (sq-exp) or c^2 (WoLF); a
    WoLF spec gives k^2 = r^2 / 2, the constant kernel 1/2."""
    if isinstance(spec, WolfSpec):
        return (0.5 if spec.variant == "md" else 1.0) / (1.0 + s / threshold)
    if spec.family == IMQ:
        return 1.0 / (1.0 + s / threshold)
    if spec.family == SQEXP:
        return np.maximum(np.exp(-s / threshold), _K_SQ_FLOOR)
    return np.full(np.shape(s), CONSTANT_WEIGHT_SQ)[()]


def weight_slope(
    spec: WeightKernelSpec | WolfSpec, k_sq: float | np.ndarray, threshold: float
) -> float | np.ndarray:
    """d(k^2)/ds in terms of k^2 = weight_sq(spec, s, threshold).  Zero for
    WoLF and the constant kernel, whose target observation is y itself."""
    if isinstance(spec, WeightKernelSpec) and spec.family == IMQ:
        return -(k_sq * k_sq) / threshold
    if isinstance(spec, WeightKernelSpec) and spec.family == SQEXP:
        return -k_sq / threshold
    return 0.0


def _constant_evaluation(spec: WeightKernelSpec, d_y: int) -> WeightEvaluation:
    """The constant kernel's evaluation, which depends only on the dimension:
    built once per spec and d_y (as the partition and thresholds are) and
    shared with read-only arrays."""
    cache = spec.__dict__.setdefault("_constant_cache", {})
    evaluation = cache.get(d_y)
    if evaluation is None:
        partition = spec.partition_for(d_y)
        arrays = (
            np.full(len(partition), CONSTANT_WEIGHT_SQ),
            np.zeros(d_y),
            np.zeros((len(partition), d_y)),
        )
        for array in arrays:
            array.flags.writeable = False
        evaluation = WeightEvaluation(*arrays, partition=partition)
        cache[d_y] = evaluation
    return evaluation


def eval_kernel(
    spec: WeightKernelSpec,
    y: np.ndarray,
    center: np.ndarray,
    std_cov: SpdFactor,
) -> WeightEvaluation:
    """Evaluate the squared weight kernel and its gradients.

    Single block: s = ||y - center||^2 standardized by ``std_cov`` and the
    gradient follows the chain rule through cov^{-1} (y - center).  Multiple
    blocks: the residual is whitened with the fixed symmetric root
    cov^{-1/2}, s_b is the squared norm of the block slice, and the chain
    rule runs through that root (which does not depend on y).
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d_y = y.shape[0]
    if center.shape != y.shape:
        raise ValueError(f"y has shape {y.shape} but center has shape {center.shape}")
    if std_cov.dim != d_y:
        raise ValueError(f"standardization covariance has dim {std_cov.dim}, expected {d_y}")
    partition = spec.partition_for(d_y)
    n_blocks = len(partition)

    if spec.family == CONSTANT:
        return _constant_evaluation(spec, d_y)

    thresholds = spec.thresholds_for(d_y)
    residual = y - center
    k_sq = np.empty(n_blocks)
    full_grads = np.zeros((n_blocks, d_y))
    grad_diag = np.zeros(d_y)

    if n_blocks == 1:
        whitened = std_cov.solve(residual)  # cov^{-1} (y - center)
        s = max(float(residual @ whitened), 0.0)
        k_sq[0] = weight_sq(spec, s, thresholds[0])
        full_grads[0] = 2.0 * weight_slope(spec, k_sq[0], thresholds[0]) * whitened
        grad_diag[:] = full_grads[0]
    else:
        root = std_cov.inv_sym_sqrt
        z = root @ residual
        for b, (start, stop) in enumerate(partition):
            s_b = float(z[start:stop] @ z[start:stop])
            k_sq[b] = weight_sq(spec, s_b, thresholds[b])
            slope = weight_slope(spec, k_sq[b], thresholds[b])
            # grad s_b = 2 * root[:, start:stop] @ z[start:stop] (root symmetric)
            full_grads[b] = 2.0 * slope * (root[:, start:stop] @ z[start:stop])
            grad_diag[start:stop] = full_grads[b, start:stop]

    return WeightEvaluation(
        k_sq=k_sq, grad_diag=grad_diag, full_grads=full_grads, partition=partition
    )


def rescaled_obs_cov(
    spec: WeightKernelSpec, evaluation: WeightEvaluation, r: np.ndarray
) -> np.ndarray:
    """Block-diagonal rescaled observation covariance, block b = R_b / (2 k^2_b)."""
    r = np.atleast_2d(np.asarray(r, dtype=float))
    d_y = r.shape[0]
    partition = evaluation.partition
    if partition[-1][1] != d_y:
        raise ValueError(f"evaluation covers dimension {partition[-1][1]}, R has {d_y}")
    if np.any(evaluation.k_sq <= 0.0):
        raise ValueError("squared weights must be strictly positive")
    if len(partition) == 1:
        return r / (2.0 * evaluation.k_sq[0])
    out = np.zeros_like(r)
    for b, (start, stop) in enumerate(partition):
        out[start:stop, start:stop] = r[start:stop, start:stop] / (2.0 * evaluation.k_sq[b])
    return out


def corrected_observation(
    evaluation: WeightEvaluation, rescaled_cov: np.ndarray, y: np.ndarray
) -> np.ndarray:
    """Corrected observation y - 2 N(y) grad, with grad the full kernel
    gradient for a single block and the diagonal-divergence vector otherwise."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    n = np.atleast_2d(np.asarray(rescaled_cov, dtype=float))
    if n.shape != (y.shape[0], y.shape[0]):
        raise ValueError(f"rescaled covariance shape {n.shape} does not match y {y.shape}")
    grad = evaluation.full_grads[0] if evaluation.n_blocks == 1 else evaluation.grad_diag
    return y - 2.0 * (n @ grad)


def robust_update(
    spec: WeightKernelSpec | WolfSpec,
    y: np.ndarray,
    center: np.ndarray,
    hph: Callable[[], np.ndarray],
    r_factor: SpdFactor,
) -> tuple[np.ndarray, np.ndarray, WeightEvaluation]:
    """The robust analysis step every filter family shares.

    Returns (effective observation covariance, target observation, weight
    evaluation): (N(y), corrected observation, k^2) for a kernel spec and
    (R / r^2, y, r^2 / 2) for a WoLF spec, so N = R / (2 k^2) holds for both.
    The constant kernel returns (R, y) itself, which makes every filter's
    constant-kernel variant its regular filter bit for bit.

    ``center`` is the predicted observation and ``r_factor`` the factor of
    R.  ``hph`` returns the forecast covariance in observation space, H P H^T
    or Y Y^T / (M - 1) in the ensemble-anomaly space; it is called only for
    the specs standardized by HPH^T + R.
    """
    r = r_factor.matrix
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d_y = y.shape[0]
    if isinstance(spec, WeightKernelSpec) and spec.family == CONSTANT:
        return r, y, _constant_evaluation(spec, d_y)
    std_cov = r_factor if spec.standardization == CONDITIONAL else SpdFactor(hph() + r)
    if isinstance(spec, WolfSpec):
        s = std_cov.mahalanobis_sq(y - center)
        k_sq = weight_sq(spec, s, spec.thresholds_for(d_y)[0])
        evaluation = WeightEvaluation(
            k_sq=np.array([k_sq]),
            grad_diag=np.zeros(d_y),
            full_grads=np.zeros((1, d_y)),
            partition=((0, d_y),),
        )
        return r / (2.0 * k_sq), y, evaluation
    evaluation = eval_kernel(spec, y, center, std_cov)
    n_y = rescaled_obs_cov(spec, evaluation, r)
    return n_y, corrected_observation(evaluation, n_y, y), evaluation


def default_threshold(d_y: int, family: str = IMQ) -> float:
    """Dimension-based default: q^2 = d_Y (IMQ) or h^2 = d_Y / ln 2 (sq-exp)."""
    if d_y < 1:
        raise ValueError("d_y must be >= 1")
    if family == IMQ:
        return float(d_y)
    if family == SQEXP:
        return d_y / math.log(2.0)
    if family == CONSTANT:
        return float(d_y)  # unused by the constant kernel
    raise ValueError(f"unknown kernel family {family!r}")


def jensen_bounds(d_y: int, threshold: float, family: str = IMQ) -> tuple[float, float, float]:
    """Analytic sandwich for the expected doubled squared weight.

    Returns (lower, upper, mad_upper) where lower = g(E[Xi]) by Jensen,
    upper = lower + L * sqrt(Var(Xi)) with L the Lipschitz constant of
    g(s) = 2 k^2(s), and mad_upper = 2 L sqrt(Var(Xi)), for Xi ~ chi2(d_Y).
    """
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if family == CONSTANT:
        return 1.0, 1.0, 0.0
    sigma = math.sqrt(2.0 * d_y)
    g_mu = 2.0 * float(weight_sq(WeightKernelSpec(family=family), d_y, threshold))
    lipschitz = 2.0 / threshold
    return g_mu, g_mu + lipschitz * sigma, 2.0 * lipschitz * sigma


def jensen_upper_empirical(d_y: int, threshold: float) -> float:
    """Empirically sharpened IMQ upper bound with gap constant 1/3.

    The 1/3 constant is a numerical observation, not a proven bound; it is
    informational only and never used as a test oracle.
    """
    lower, _, _ = jensen_bounds(d_y, threshold, IMQ)
    return lower + (math.sqrt(d_y) / threshold) / 3.0


def _doubled_weight(family: str, xi: np.ndarray, threshold: float) -> np.ndarray:
    if family == CONSTANT:
        raise ValueError("the constant kernel has no threshold")
    return 2.0 * weight_sq(WeightKernelSpec(family=family), xi, threshold)


def expected_weight_mc(
    d_y: int,
    threshold: float,
    family: str = IMQ,
    n_samples: int = 10**6,
    seed: int = 0,
) -> float:
    """Monte-Carlo estimate of E[2 k^2(Xi)] with Xi ~ chi2(d_Y)."""
    if family == CONSTANT:
        return 1.0
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    rng = np.random.default_rng(seed)
    xi = rng.chisquare(d_y, size=n_samples)
    return float(np.mean(_doubled_weight(family, xi, threshold)))


def tune_threshold(
    d_y: int,
    family: str = IMQ,
    target: float = 1.0,
    tol: float = 5e-3,
    n_samples: int = 10**6,
    seed: int = 0,
    max_iter: int = 200,
) -> float:
    """Bisection for the threshold at which E[2 k^2(Xi)] hits ``target``.

    A single chi-square sample is drawn once and reused in every evaluation
    (common random numbers), making the map exactly monotone in the
    threshold and the search deterministic.
    """
    if not 0.0 < target < 2.0:
        raise ValueError("target must lie in (0, 2)")
    rng = np.random.default_rng(seed)
    xi = rng.chisquare(d_y, size=n_samples)

    def estimate(threshold: float) -> float:
        return float(np.mean(_doubled_weight(family, xi, threshold)))

    lo, hi = 1e-8, max(4.0 * d_y, 16.0)
    while estimate(hi) < target:
        hi *= 4.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the tuning target")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        value = estimate(mid)
        if abs(value - target) <= tol and (hi - lo) <= 1e-6 * mid:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

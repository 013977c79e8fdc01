"""Weight kernels for robust analysis steps, their gradients, the
robust-update core every filter family shares, and threshold tuning.

A weight kernel k maps an observation to (0, 1] per block.  The robust
update multiplies the observation precision R^{-1} of each block by the
precision weight w = 2 k^2(y) and assimilates the target observation
y - R grad log k^2(y); the constant value 1 / sqrt(2) gives w = 1, the
regular Kalman update.  R / w is never formed, so w = 0 is allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._linalg import SpdFactor, pow2_scale

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
    "loss_limit",
    "eval_kernel",
    "jensen_bounds",
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


BlockPartition = tuple[tuple[int, int], ...]


def normalize_partition(partition, d: int) -> BlockPartition:
    """Validate that contiguous (start, stop) ranges disjointly cover 0..d."""
    blocks = tuple((int(a), int(b)) for a, b in partition)
    cursor = 0
    for start, stop in blocks:
        if start != cursor or stop <= start:
            raise ValueError(
                f"block partition {blocks} is not a disjoint contiguous cover of 0..{d}"
            )
        cursor = stop
    if cursor != d:
        raise ValueError(f"block partition covers 0..{cursor}, expected 0..{d}")
    return blocks


def _check_block_diagonal(r: np.ndarray, partition: BlockPartition, tol: float = 1e-12):
    mask = np.ones_like(r, dtype=bool)
    for start, stop in partition:
        mask[start:stop, start:stop] = False
    off = np.abs(r[mask])
    if off.size and off.max() > tol:
        raise ValueError(
            f"R is not block-diagonal w.r.t. the partition (max off-block entry {off.max():.3e})"
        )


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
        if self.c_sq is not None and not 0.0 < self.c_sq < math.inf:
            raise ValueError(f"c_sq must be strictly positive and finite, got {self.c_sq}")

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
    """Evaluated squared weights and the gradients of their logarithms.

    ``log_grads`` row b is the observation-space gradient of log k^2_b, 0
    where k^2_b is 0.  ``full_grads`` row b is the gradient of k^2_b itself.
    Entry i of a ``*_diag`` vector is taken from the block containing i, so
    ``grad_diag`` is the divergence of the diagonal weight matrix: the
    partial derivative of that block's k^2 with respect to y_i.
    """

    k_sq: np.ndarray          # (B,) squared weights per block
    log_grads: np.ndarray     # (B, d_Y)
    partition: BlockPartition

    @property
    def n_blocks(self) -> int:
        return len(self.partition)

    @property
    def full_grads(self) -> np.ndarray:
        return self.k_sq[:, None] * self.log_grads

    @property
    def k_sq_diag(self) -> np.ndarray:
        return np.repeat(self.k_sq, [b - a for a, b in self.partition])

    @property
    def log_grad_diag(self) -> np.ndarray:
        return np.concatenate([g[a:b] for g, (a, b) in zip(self.log_grads, self.partition)])

    @property
    def grad_diag(self) -> np.ndarray:
        return self.k_sq_diag * self.log_grad_diag


def weight_sq(
    spec: WeightKernelSpec | WolfSpec, s: float | np.ndarray, threshold: float
) -> float | np.ndarray:
    """Squared weight k^2 at the Mahalanobis square s, elementwise over an
    array of s.  ``threshold`` is q^2 (IMQ), h^2 (sq-exp) or c^2 (WoLF); a
    WoLF spec gives k^2 = r^2 / 2, the constant kernel 1/2.  s = inf, or a
    sq-exp weight that underflows, gives k^2 = 0."""
    if isinstance(spec, WolfSpec):
        return (0.5 if spec.variant == "md" else 1.0) / (1.0 + s / threshold)
    if spec.family == IMQ:
        return 1.0 / (1.0 + s / threshold)
    if spec.family == SQEXP:
        return np.exp(-s / threshold)
    return np.full(np.shape(s), CONSTANT_WEIGHT_SQ)[()]


def weight_slope(
    spec: WeightKernelSpec | WolfSpec, k_sq: float | np.ndarray, threshold: float
) -> float | np.ndarray:
    """d(log k^2)/ds in terms of k^2 = weight_sq(spec, s, threshold): -k^2 / q^2
    (IMQ) or -1 / h^2 (sq-exp), finite where k^2 underflows to 0.  Zero for
    WoLF and the constant kernel, whose target observation is y itself."""
    if isinstance(spec, WeightKernelSpec) and spec.family == IMQ:
        return -k_sq / threshold
    if isinstance(spec, WeightKernelSpec) and spec.family == SQEXP:
        return -1.0 / threshold
    return 0.0


def loss_limit(spec: WeightKernelSpec, threshold: float) -> float:
    """The score-matching loss as s -> inf, the limit of k^2(s) s: q^2
    (IMQ), 0 (sq-exp), inf for the constant kernel."""
    if spec.family == IMQ:
        return threshold
    if spec.family == SQEXP:
        return 0.0
    return math.inf


def eval_kernel(
    spec: WeightKernelSpec,
    y: np.ndarray,
    center: np.ndarray,
    std_cov: SpdFactor,
) -> WeightEvaluation:
    """Evaluate the squared weight kernel and the gradients of its logarithm.

    Single block: s is the squared norm of the residual y - center whitened
    by the Cholesky factor of ``std_cov``, and the gradient follows the
    chain rule through cov^{-1} (y - center).  Multiple blocks: the residual
    is whitened with the fixed symmetric root cov^{-1/2}, s_b is the squared
    norm of the block slice, and the chain rule runs through that root
    (which does not depend on y).  Either way s is a sum of squares of the
    residual divided by a power of two (exact), so a finite residual too
    large to square gives s = inf and k^2 = 0, never a cancellation or NaN,
    and a block with k^2 = 0 gets a zero log-gradient, never 0 * inf.
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
    thresholds = spec.thresholds_for(d_y)
    residual = y - center
    k_sq = np.empty(n_blocks)
    log_grads = np.zeros((n_blocks, d_y))

    if n_blocks == 1:
        k_sq[0] = weight_sq(spec, std_cov.mahalanobis_sq(residual), thresholds[0])
        if k_sq[0] > 0.0:
            # grad s = 2 cov^{-1} (y - center)
            slope = weight_slope(spec, k_sq[0], thresholds[0])
            log_grads[0] = 2.0 * slope * std_cov.solve(residual)
    else:
        root = std_cov.inv_sym_sqrt
        scale = pow2_scale(residual)
        z_scaled = root @ (residual / scale)
        for b, (start, stop) in enumerate(partition):
            s_b = float(z_scaled[start:stop] @ z_scaled[start:stop]) * scale * scale
            k_sq[b] = weight_sq(spec, s_b, thresholds[b])
            if k_sq[b] > 0.0:
                slope = weight_slope(spec, k_sq[b], thresholds[b])
                # grad s_b = 2 * root[:, start:stop] @ z[start:stop] (root symmetric)
                log_grads[b] = 2.0 * slope * (root[:, start:stop] @ (z_scaled[start:stop] * scale))

    return WeightEvaluation(k_sq=k_sq, log_grads=log_grads, partition=partition)


def robust_update(
    spec: WeightKernelSpec | WolfSpec,
    y: np.ndarray,
    center: np.ndarray,
    hph: Callable[[], np.ndarray],
    r_factor: SpdFactor,
) -> tuple[np.ndarray, np.ndarray]:
    """The robust analysis step every filter family shares.

    Returns (w, target): the (d_Y,) precision weight, which multiplies R^{-1}
    as W^{1/2} R^{-1} W^{1/2}, and the target observation.  A kernel spec gives
    w = 2 k^2_b over each block b and the target y - R grad log k^2 (gradient
    taken blockwise), a WoLF spec w = r^2 and y, and the constant kernel w = 1
    and y, so every filter's constant-kernel variant is its regular filter bit
    for bit.  More than one block needs R block-diagonal over the partition,
    for only then is blockwise weighting the blocked loss; ValueError
    otherwise.

    ``center`` is the predicted observation and ``r_factor`` the factor of
    R.  ``hph`` returns the forecast covariance in observation space, H P H^T
    or Y Y^T / (M - 1) in the ensemble-anomaly space; it is called only for
    the specs standardized by HPH^T + R.
    """
    r = r_factor.matrix
    y = np.atleast_1d(np.asarray(y, dtype=float))
    d_y = y.shape[0]
    if isinstance(spec, WeightKernelSpec):
        partition = spec.partition_for(d_y)
        if spec.family == CONSTANT:
            return np.ones(d_y), y
        if len(partition) > 1:
            _check_block_diagonal(r, partition)
    std_cov = r_factor if spec.standardization == CONDITIONAL else SpdFactor(hph() + r)
    if isinstance(spec, WolfSpec):
        k_sq = weight_sq(spec, std_cov.mahalanobis_sq(y - center), spec.thresholds_for(d_y)[0])
        return np.full(d_y, 2.0 * k_sq), y
    evaluation = eval_kernel(spec, y, center, std_cov)
    return 2.0 * evaluation.k_sq_diag, y - r @ evaluation.log_grad_diag


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

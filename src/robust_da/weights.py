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

from ._linalg import SpdFactor, back_substitute, block_diagonal, pow2_scale, whitened_sq

__all__ = [
    "IMQ",
    "SQEXP",
    "CONSTANT",
    "WeightKernelSpec",
    "WolfSpec",
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
# For MARGINAL the caller supplies HPH^T: the forecast covariance mapped to
# observation space, H P^f H^T, or for an ensemble its anomaly-space
# estimate Y^f (Y^f)^T / (M-1).
MARGINAL = "marginal"          # HPH^T + R
CONDITIONAL = "conditional"    # R
_STANDARDIZATIONS = (MARGINAL, CONDITIONAL)

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


def _block_index(partition: BlockPartition) -> np.ndarray:
    """The block of each component of the partitioned vector."""
    return np.repeat(np.arange(len(partition)), [stop - start for start, stop in partition])


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


def _as_floats(x, ndim: int = 1) -> np.ndarray:
    """``x`` as a float array of at least ``ndim`` (1 or 2) dimensions; a
    float64 ndarray that has them is returned as it is."""
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim >= ndim:
        return x
    return (np.atleast_2d if ndim == 2 else np.atleast_1d)(np.asarray(x, dtype=float))


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
    return np.full(np.asarray(s).shape, CONSTANT_WEIGHT_SQ)[()]


def weight_slope(
    spec: WeightKernelSpec | WolfSpec, k_sq: float | np.ndarray, threshold: float
) -> float | np.ndarray:
    """d(log k^2)/ds in terms of k^2 = weight_sq(spec, s, threshold): -k^2 / q^2
    (IMQ) or -1 / h^2 (sq-exp), finite where k^2 underflows to 0.  Zero for
    WoLF and the constant kernel, whose target observation is y itself."""
    if isinstance(spec, WeightKernelSpec) and spec.family == IMQ:
        return k_sq / -threshold  # one operation on an array, not two
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
    spec: WeightKernelSpec, y: np.ndarray, center: np.ndarray, std_cov: SpdFactor
) -> tuple[np.ndarray, np.ndarray]:
    """The squared weights k^2_b of every block b and the gradients of their
    logarithms, by ``robust_update``'s multi-block step for any partition.

    ``y`` and ``center`` are one (d_Y,) observation or a (B, d_Y) stack, and
    ``std_cov`` the factor of the standardizing covariance: of one
    covariance for every element, or of one per element.  Returns k^2,
    shaped (..., n_blocks), and the observation-space gradients of log k^2,
    shaped (..., n_blocks, d_Y): row b over all of y, 0 where k^2_b is 0
    and for the constant kernel.  A standardizing covariance that no jitter
    repairs gives NaN k^2 and zero gradients.
    """
    y, center = _as_floats(y), _as_floats(center)
    d_y = y.shape[-1]
    if center.shape != y.shape:
        raise ValueError(f"y has shape {y.shape} but center has shape {center.shape}")
    if std_cov.dim != d_y:
        raise ValueError(f"standardization covariance has dim {std_cov.dim}, expected {d_y}")
    k_sq, log_grads = _block_kernel(spec, (y - center).reshape(-1, d_y), std_cov.inv_sym_sqrt)
    return k_sq.reshape(*y.shape[:-1], -1), log_grads.reshape(*y.shape[:-1], -1, d_y)


@np.errstate(over="ignore", invalid="ignore")  # s_b = inf is the answer, not a fault
def _block_kernel(
    spec: WeightKernelSpec, residuals: np.ndarray, root: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """k^2_b, shaped (n, n_blocks), and grad log k^2_b, shaped (n, n_blocks,
    d_Y), of an (n, d_Y) stack of residuals r under the symmetric root T =
    cov^{-1/2} (one for all, or one per residual).  s_b is the squared norm
    of block b of z = T r, and grad s_b = 2 T z_b, z_b that block of z and 0
    elsewhere.  r is divided by a power of two first (exact), so a finite r
    too large to square gives s_b = inf and k^2_b = 0, never a NaN, and a
    block with k^2_b = 0 a zero gradient, never 0 * inf; so does the
    constant kernel, whose k^2 is flat."""
    partition = spec.partition_for(residuals.shape[-1])
    thresholds = spec.thresholds_for(residuals.shape[-1])
    scale = pow2_scale(residuals, axis=-1)[:, None]
    z = (root @ (residuals / scale)[..., None])[..., 0]
    s = np.add.reduceat(z * z, [start for start, _ in partition], axis=-1) * scale * scale
    k_sq = weight_sq(spec, s, thresholds)
    if spec.family == CONSTANT:  # whatever T r overflows to
        return k_sq, np.zeros((*k_sq.shape, residuals.shape[-1]))
    in_block = _block_index(partition)[:, None] == np.arange(len(partition))
    grads = root @ np.where(in_block, (z * scale)[..., None], 0.0)  # (n, d_Y, n_blocks)
    grads = 2.0 * weight_slope(spec, k_sq[:, None], thresholds) * grads
    return k_sq, np.where(k_sq[:, None] > 0.0, grads, 0.0).swapaxes(-1, -2)


def _joined(rows: list, n: int) -> slice | np.ndarray:
    """One selector of the rows that the selectors ``rows`` of an n-stack
    pick: the one selector itself, or else an index array."""
    return rows[0] if len(rows) == 1 else np.concatenate([np.arange(n)[r] for r in rows])


def _every(rows: slice | np.ndarray, n: int) -> bool:
    """Whether the selector ``rows`` is the slice of every row of an n-stack."""
    return isinstance(rows, slice) and rows.indices(n) == (0, n, 1)


@np.errstate(over="ignore", invalid="ignore")  # cheaper per call than a with-block
def _log_grad(chol: np.ndarray, z: np.ndarray, k_sq: np.ndarray, slope) -> np.ndarray:
    """grad log k^2 = (d log k^2/ds) grad s of (n, d_Y) whitened residuals z
    = L^{-1} (y - center), with (n, 1) k^2 and slopes d log k^2/ds (or one
    slope) and grad s = 2 cov^{-1} (y - center) by one back substitution; 0
    where k^2 is 0, never 0 * inf."""
    log_grad = 2.0 * slope * back_substitute(chol, z)
    if not np.minimum.reduce(k_sq, axis=None) > 0.0:
        log_grad = np.where(k_sq > 0.0, log_grad, 0.0)
    return log_grad


def robust_update(
    specs: Sequence[tuple[WeightKernelSpec | WolfSpec, slice | np.ndarray]],
    y: np.ndarray,
    center: np.ndarray,
    hph: Callable[[slice | np.ndarray], np.ndarray],
    r_factor: SpdFactor,
) -> tuple[np.ndarray, np.ndarray]:
    """The robust analysis step every filter family shares.

    Returns (w, target): the (B, d_Y) precision weights, which multiply
    R^{-1} as W^{1/2} R^{-1} W^{1/2}, and the target observations of a
    (B, d_Y) stack of observations ``y`` and predicted observations
    ``center``; one (d_Y,) observation is a stack of one.  ``specs`` pairs
    each weight spec with the rows of the stack it weights (a slice or an
    index array).  A kernel spec gives w = 2 k^2_b over each block b and the
    target y - R grad log k^2 (gradient taken blockwise), a WoLF spec w = r^2
    and y, and the constant kernel w = 1 and y, so every filter's
    constant-kernel variant is its regular filter bit for bit.  More than
    one block needs R block-diagonal over the partition, for only then is
    blockwise weighting the blocked loss; ValueError otherwise.

    ``r_factor`` is the factor of R.  ``hph(rows)`` returns the forecast
    covariance in observation space of those rows, H P H^T or Y Y^T / (M - 1)
    in the ensemble-anomaly space, as a stack or one matrix for all.

    The single-block specs share one pass: their rows standardized by
    HPH^T + R are factored by one ``SpdFactor`` and the others take R's
    factor, one whitening gives every Mahalanobis square, each spec turns
    its rows' squares into weights, and one back substitution gives the
    kernel rows' gradients.  Each multi-block spec whitens its rows by one
    stacked symmetric root, of R or of their HPH^T + R, and takes s_b and
    the gradients of every block at once, the step ``eval_kernel`` returns;
    its weights and target take the gradient blocks on the diagonal.  Each
    element comes out as a single call would give it; one whose HPH^T + R
    no jitter repairs gets a NaN weight and the target y.
    """
    r = r_factor.matrix
    y = _as_floats(y)
    shape, d_y = y.shape, y.shape[-1]
    y, center = y.reshape(-1, d_y), _as_floats(center).reshape(-1, d_y)
    n = len(y)
    passed, blocked, marginal = [], [], []
    for spec, rows in specs:
        if isinstance(spec, WeightKernelSpec) and spec.family == CONSTANT:
            continue
        if isinstance(spec, WolfSpec) or len(spec.partition_for(d_y)) == 1:
            passed.append((spec, rows))
            if spec.standardization == MARGINAL:
                marginal.append(rows)
        else:
            blocked.append((spec, rows))
    w, kernels = np.empty(y.shape), []
    w.fill(1.0)  # cheaper than np.ones for a small stack
    if passed:
        chol = r_factor.chol
        if marginal:
            rows = _joined(marginal, n)
            std_chol = SpdFactor(hph(rows) + r).chol
            if _every(rows, n):
                chol = std_chol  # every row standardized by HPH^T + R
            else:
                chol = np.empty((*y.shape, d_y))
                chol[...], chol[rows] = r_factor.chol, std_chol
        z, s = whitened_sq(chol, y - center)
        for spec, rows in passed:
            threshold = spec.thresholds_for(d_y)[0]
            k_sq = weight_sq(spec, s[rows, None], threshold)
            w[rows] = 2.0 * k_sq
            if isinstance(spec, WeightKernelSpec):
                kernels.append((rows, k_sq, weight_slope(spec, k_sq, threshold)))
    if kernels:  # one back substitution for every kernel's rows
        rows, k_sq, slope = kernels[0] if len(kernels) == 1 else (
            _joined([rows for rows, _, _ in kernels], n),
            np.concatenate([k for _, k, _ in kernels]),
            np.concatenate([np.broadcast_to(slope, k.shape) for _, k, slope in kernels]),
        )
        log_grad = _log_grad(chol if chol.ndim == 2 else chol[rows], z[rows], k_sq, slope)
        correction = (r @ log_grad[..., None])[..., 0]
        if _every(rows, n):
            target = y - correction
        else:
            target = y.copy()
            target[rows] -= correction
    else:
        target = y.copy()
    for spec, rows in blocked:
        block_of = _block_index(spec.partition_for(d_y))
        if not block_diagonal(r, block_of):
            raise ValueError("R is not block-diagonal w.r.t. the partition")
        std_cov = r_factor if spec.standardization == CONDITIONAL else SpdFactor(hph(rows) + r)
        k_sq, log_grads = _block_kernel(spec, y[rows] - center[rows], std_cov.inv_sym_sqrt)
        w[rows] = 2.0 * k_sq[:, block_of]
        target[rows] = y[rows] - (r @ log_grads[:, block_of, np.arange(d_y)][..., None])[..., 0]
    return w.reshape(shape), target.reshape(shape)


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


def tune_threshold(d_y: int, family: str = IMQ, n_samples: int = 10**6, seed: int = 0) -> float:
    """Bisection for the threshold at which E[2 k^2(Xi)] = 1, to within 5e-3.

    A single chi-square sample is drawn once and reused in every evaluation
    (common random numbers), making the map exactly monotone in the
    threshold and the search deterministic.
    """
    rng = np.random.default_rng(seed)
    xi = rng.chisquare(d_y, size=n_samples)

    def estimate(threshold: float) -> float:
        return float(np.mean(_doubled_weight(family, xi, threshold)))

    lo, hi = 1e-8, max(4.0 * d_y, 16.0)
    while estimate(hi) < 1.0:
        hi *= 4.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the tuning target")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = estimate(mid)
        if abs(value - 1.0) <= 5e-3 and (hi - lo) <= 1e-6 * mid:
            return mid
        if value < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)

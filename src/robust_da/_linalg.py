"""Positive-definite matrix utilities shared by the filter implementations.

Covariance recursions accumulate asymmetry and tiny negative curvature over
long runs, so every factorization here symmetrizes its input and repairs
borderline matrices with an escalating trace-scaled jitter before giving up.
``SpdFactor`` factors one matrix; ``SpdStack`` factors a stack of them at
once, with the same repair for each matrix that needs it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

__all__ = ["SpdFactor", "SpdStack", "symmetrize", "psd_sym_sqrt", "pow2_scale"]

# Jitter schedule for Cholesky repair: base scale relative to mean diagonal,
# escalated tenfold per retry.
_JITTER_BASE = 1e-12
_JITTER_RETRIES = 3


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2 of a matrix, or of each matrix
    of a stack."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def pow2_scale(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """A power of two dividing which is exact and brings the largest |entry|
    of x, along ``axis``, into [1, 2)."""
    return np.ldexp(1.0, np.frexp(np.abs(x).max(axis=axis))[1] - 1)


def psd_sym_sqrt(a: np.ndarray, min_eig_tol: float = -1e-8) -> np.ndarray:
    """Unique symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues in [min_eig_tol, 0) are clamped to zero; anything below the
    tolerance signals a genuinely indefinite matrix and raises.
    """
    a = symmetrize(np.asarray(a, dtype=float))
    eigvals, eigvecs = np.linalg.eigh(a)
    if eigvals.min(initial=0.0) < min_eig_tol:
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: min eigenvalue {eigvals.min():.3e} "
            f"below tolerance {min_eig_tol:.1e}"
        )
    eigvals = np.clip(eigvals, 0.0, None)
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T


class SpdFactor:
    """Cholesky factor of an SPD matrix with a cached symmetric inverse root.

    Wraps the lower-triangular factor used for quadratic forms and solves,
    plus an eigendecomposition-based symmetric inverse square root computed
    on demand (the whitening projection for block kernels needs the
    basis-independent root, not the triangular one).
    """

    __slots__ = ("matrix", "chol", "_inv_sym_sqrt")

    def __init__(self, matrix: np.ndarray):
        a = symmetrize(np.asarray(matrix, dtype=float))
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        d = a.shape[0]
        lower = None
        jitter = None
        for attempt in range(_JITTER_RETRIES + 1):
            try:
                lower = np.linalg.cholesky(a)
                break
            except np.linalg.LinAlgError:
                if attempt == _JITTER_RETRIES:
                    raise np.linalg.LinAlgError(
                        "matrix is not positive definite "
                        f"(Cholesky failed after {_JITTER_RETRIES} jitter retries)"
                    )
                if jitter is None:
                    jitter = _JITTER_BASE * np.trace(a) / d
                a = a + jitter * np.eye(d)
                jitter *= 10.0
        self.matrix = a
        self.chol = lower
        self._inv_sym_sqrt = None

    @classmethod
    def of(cls, matrix: np.ndarray, chol: np.ndarray) -> "SpdFactor":
        """The factor of a matrix already factored as ``chol``."""
        factor = object.__new__(cls)
        factor.matrix, factor.chol, factor._inv_sym_sqrt = matrix, chol, None
        return factor

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve A x = b via the Cholesky factor.

        Calls LAPACK ``dpotrs`` directly: on the small systems the filters
        solve, ``scipy.linalg.cho_solve``'s batching wrapper costs ten times
        the solve itself.  The result equals ``cho_solve``'s bit for bit, and,
        as with its ``check_finite=False``, a non-finite ``b`` flows through.
        """
        x, info = dpotrs(self.chol, b, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
        return x

    def whiten(self, residual: np.ndarray) -> np.ndarray:
        """L^{-1} r for a (d,) or (d, n) residual r, with L the lower factor.

        A non-finite residual column gives a non-finite column.
        """
        r = np.asarray(residual, dtype=float)
        if r.ndim not in (1, 2) or r.shape[0] != self.dim:
            raise ValueError(
                f"residual has shape {r.shape}, expected ({self.dim},) or ({self.dim}, n)"
            )
        # L z = r as (L^T)^T z = r: L^T is the Fortran-ordered view of the
        # C-ordered factor, and this is the call scipy's solve_triangular
        # makes for it.  Solving with L itself differs in the last ulp.
        z, info = dtrtrs(self.chol.T, r, lower=0, trans=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dtrtrs failed with info {info}")
        return z

    def mahalanobis_sq(self, residual: np.ndarray) -> float | np.ndarray:
        """Quadratic form r^T A^{-1} r = ||L^{-1} r||^2.

        A (d,) residual gives a float; a (d, n) one gives the n column forms.
        A finite residual whose form overflows gives inf, not the NaN of an
        inf - inf inside the whitening: the form is redone on the residual
        divided by ``pow2_scale``.
        """
        z = self.whiten(residual)
        if z.ndim == 1:
            s = float(z @ z)
            if math.isfinite(s):  # far cheaper than numpy on a float
                return s
        else:
            s = np.sum(z * z, axis=0)
            if np.isfinite(s).all():
                return s
        scale = pow2_scale(residual, axis=0)
        z = self.whiten(residual / scale)
        return (float(z @ z) if z.ndim == 1 else np.sum(z * z, axis=0)) * scale * scale

    @property
    def inv_sym_sqrt(self) -> np.ndarray:
        """Symmetric inverse square root T with T @ matrix @ T = identity."""
        if self._inv_sym_sqrt is None:
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            root = np.sqrt(np.clip(eigvals, 0.0, None))
            with np.errstate(divide="ignore"):
                inv_root = np.where(root > 0.0, 1.0 / root, 0.0)
            self._inv_sym_sqrt = (eigvecs * inv_root) @ eigvecs.T
        return self._inv_sym_sqrt

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdFactor(dim={self.dim})"


class SpdStack:
    """Cholesky factors of a (B, d, d) stack of SPD matrices, or of one (d, d)
    matrix, factored by one ``np.linalg.cholesky`` call.

    That call raises for the whole stack if one matrix fails, so the stack is
    then factored matrix by matrix, and each matrix that fails alone goes
    through ``SpdFactor``, whose jitter repair it keeps bit for bit.  A matrix
    that no jitter repairs is masked instead of raised: its factor is NaN, and
    so is everything solved with it.  ``plain`` is False for the repaired and
    the masked matrices, and None when the stacked call took every matrix as
    it is.

    Each element is solved with its own ``SpdFactor`` (numpy has no stacked
    triangular solve), so its result is that factor's bit for bit and does
    not depend on the stack it is in.  One matrix, factored alone or taken
    from an ``SpdFactor`` (``of``), serves every element of a stacked
    residual in ``factors`` and ``mahalanobis_sq``.
    """

    __slots__ = ("matrix", "chol", "plain", "_one")

    def __init__(self, matrices: np.ndarray):
        a = symmetrize(matrices)
        try:
            chol = np.linalg.cholesky(a)
            plain = None  # every matrix
        except np.linalg.LinAlgError:
            chol = np.full_like(a, np.nan)
            plain = np.zeros(a.shape[:-2], dtype=bool)
            for i in np.ndindex(plain.shape):
                try:
                    chol[i] = np.linalg.cholesky(a[i])
                    plain[i] = True
                except np.linalg.LinAlgError:
                    try:
                        factor = SpdFactor(a[i])
                    except np.linalg.LinAlgError:
                        continue  # masked: no jitter repairs it
                    a[i], chol[i] = factor.matrix, factor.chol
        self.matrix, self.chol, self.plain, self._one = a, chol, plain, None
        if a.ndim == 2:
            self._one = SpdFactor.of(a, chol)

    @classmethod
    def of(cls, factor: SpdFactor) -> "SpdStack":
        """One factored matrix, which serves every element of a stacked
        right-hand side."""
        stack = object.__new__(cls)
        stack.matrix, stack.chol, stack.plain, stack._one = factor.matrix, factor.chol, None, factor
        return stack

    @property
    def dim(self) -> int:
        return self.chol.shape[-1]

    def factors(self, n: int) -> list[SpdFactor]:
        """The ``SpdFactor`` of each of n elements."""
        if self._one is not None:
            return [self._one] * n
        return [SpdFactor.of(a, lower) for a, lower in zip(self.matrix, self.chol)]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for each element's matrix A = L L^T, ``SpdFactor.solve``
        of each: a (B, d) or (B, d, n) stack of right-hand sides for a stack,
        one (d,) or (d, n) right-hand side for one matrix."""
        if self.chol.ndim == 2 and b.ndim < 3:
            return self._one.solve(b)
        return np.array([f.solve(rhs) for f, rhs in zip(self.factors(len(b)), b)])

    def mahalanobis_sq(self, residual: np.ndarray) -> np.ndarray:
        """The quadratic forms r^T A^{-1} r = ||L^{-1} r||^2 of a (B, d) stack
        of residuals: ``SpdFactor.mahalanobis_sq`` of each, which gives inf for
        a finite residual whose form overflows."""
        return np.array([f.mahalanobis_sq(r) for f, r in zip(self.factors(len(residual)), residual)])

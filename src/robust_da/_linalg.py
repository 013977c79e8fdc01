"""Positive-definite matrix utilities shared by the filter implementations.

Covariance recursions accumulate asymmetry and tiny negative curvature over
long runs, so every factorization here symmetrizes its input and repairs
borderline matrices with an escalating trace-scaled jitter before giving up.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrs, dtrtrs

__all__ = ["SpdFactor", "symmetrize", "psd_sym_sqrt", "pow2_scale"]

# Jitter schedule for Cholesky repair: base scale relative to mean diagonal,
# escalated tenfold per retry.
_JITTER_BASE = 1e-12
_JITTER_RETRIES = 3


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part (a + a.T) / 2."""
    return 0.5 * (a + a.T)


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

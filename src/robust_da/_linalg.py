"""Positive-definite matrix utilities shared by the filter implementations.

Covariance recursions accumulate asymmetry and tiny negative curvature over
long runs, so every factorization here symmetrizes its input and repairs
borderline matrices with an escalating trace-scaled jitter before giving up.
``SpdFactor`` factors one matrix and solves with LAPACK; ``SpdStack``
factors a stack of them at once, with the same repair for each matrix that
needs it, and solves the whole stack by row-by-row substitution in LAPACK's
arithmetic (``whiten_rows``, ``solve_rows``).
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


def inv_sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root T with T a T = identity of a symmetric
    PSD matrix, or of each matrix of a stack; zero eigenvalues stay zero."""
    eigvals, eigvecs = np.linalg.eigh(a)
    root = np.sqrt(np.clip(eigvals, 0.0, None))
    with np.errstate(divide="ignore"):
        inv_root = np.where(root > 0.0, 1.0 / root, 0.0)
    return (eigvecs * inv_root[..., None, :]) @ eigvecs.swapaxes(-1, -2)


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
            self._inv_sym_sqrt = inv_sym_sqrt(self.matrix)
        return self._inv_sym_sqrt

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdFactor(dim={self.dim})"


def whiten_rows(chol: np.ndarray, r: np.ndarray) -> np.ndarray:
    """L^{-1} r for a (..., d) stack of vectors r under (..., d, d) lower
    factors L, which may be one factor broadcast over the stack.

    Row by row: one dot product with the rows already solved, a subtraction
    and a division by the diagonal.  That is the arithmetic of LAPACK's
    ``dtrtrs`` on L^T (``SpdFactor.whiten``), whose dot product is the BLAS
    call ``np.vecdot`` makes, so each vector comes out as that call gives it.
    """
    if r.shape[-1] == 1:
        return r / chol[..., 0]
    z = np.empty(r.shape)
    z[..., 0] = r[..., 0] / chol[..., 0, 0]
    for i in range(1, r.shape[-1]):
        z[..., i] = (r[..., i] - np.vecdot(chol[..., i, :i], z[..., :i])) / chol[..., i, i]
    return z


def _trsm_rows(chol: np.ndarray, rows: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """L^{-1} r for each row r of (..., n, d) right-hand sides, d > 1, under
    (..., d, d) lower factors L (or one broadcast over them), given the
    reciprocals ``inv`` of their diagonals, as OpenBLAS's ``dtrsm`` kernel
    computes it: entry k is scaled by 1 / L_kk, and each solved entry updates
    the ones after it by one fused multiply-add.  Entry k's chain of fused
    multiply-adds is what a BLAS dot product of [r_k, z_0, ..., z_{k-1}] with
    [1, -L_k0, ..., -L_k,k-1] computes, so each entry is one such dot.
    Where the kernel blocks its rows differently (odd d above 2, measured up
    to 12), the result differs from ``dtrsm``'s in the last bits.

    Returns a view into the work array.
    """
    d = rows.shape[-1]
    # Row k of ``coef`` starts [1, -L_k0, ..., -L_k,k-1] and ``work`` holds,
    # per right-hand side, [r_k, z_0, ..., z_{d-1}]: new C-ordered arrays
    # whatever the layout of L, for BLAS sums a strided dot in another order.
    coef = np.empty((*chol.shape[:-2], 1, d, d))
    coef[..., 0] = 1.0
    np.negative(chol[..., None, :, :-1], out=coef[..., 1:])
    work = np.empty((*rows.shape[:-1], d + 1))
    np.multiply(rows[..., 0], inv[..., 0], out=work[..., 1])
    for k in range(1, d):
        work[..., 0] = rows[..., k]
        dot = np.vecdot(work[..., : k + 1], coef[..., k, : k + 1])
        np.multiply(dot, inv[..., k], out=work[..., k + 1])
    return work[..., 1:]


def solve_rows(chol: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A^{-1} r for each row r of (..., n, d) right-hand sides under the
    (..., d, d) lower factors L of A = L L^T (or one broadcast over them):
    the two triangular solves of LAPACK's ``dpotrs`` (``SpdFactor.solve``),
    each in the arithmetic of ``_trsm_rows``, which for a scalar is two
    products by 1 / L.  The solve with L^T is the one with L whose rows and
    columns are taken in reverse order."""
    if chol.shape[-1] == 1:
        inv = 1.0 / chol
        return rows * inv * inv
    inv = 1.0 / chol.diagonal(0, -2, -1)[..., None, :]
    z = _trsm_rows(chol, rows, inv)
    flipped = chol.swapaxes(-1, -2)[..., ::-1, ::-1]
    return _trsm_rows(flipped, z[..., ::-1], inv[..., ::-1])[..., ::-1]


def _factor_apart(a: np.ndarray, chol: np.ndarray, plain: np.ndarray) -> None:
    """Fill in the factors of an (n, d, d) stack whose stacked Cholesky
    raised: each half by one call, splitting a half that raises again, down
    to the single matrices that fail alone.  Those get ``SpdFactor``'s jitter
    repair, written back into ``a``, or stay masked (NaN) if no jitter
    repairs them.  A matrix factored as it is gets ``plain`` True."""
    if len(a) == 1:
        try:
            factor = SpdFactor(a[0])
        except np.linalg.LinAlgError:
            return  # masked: no jitter repairs it
        a[0], chol[0] = factor.matrix, factor.chol
        return
    for half in (slice(None, len(a) // 2), slice(len(a) // 2, None)):
        try:
            chol[half] = np.linalg.cholesky(a[half])
            plain[half] = True
        except np.linalg.LinAlgError:
            _factor_apart(a[half], chol[half], plain[half])


class SpdStack:
    """Cholesky factors of a (B, d, d) stack of SPD matrices, or of one (d, d)
    matrix, factored by one ``np.linalg.cholesky`` call; positive 1 x 1
    matrices by one square root, which is LAPACK's factor of them bit for bit
    at a fraction of the cost of ``np.linalg.cholesky``'s wrapper.

    That call raises for the whole stack if one matrix fails, so the stack is
    then factored half by half (``_factor_apart``), and each matrix that
    fails alone goes through ``SpdFactor``, whose jitter repair it keeps bit
    for bit.  A matrix that no jitter repairs is masked instead of raised:
    its factor is NaN, and so is everything solved with it.  ``plain`` is
    False for the repaired and the masked matrices, and None when the
    stacked call took every matrix as it is.

    A stack solves a stack of right-hand sides, one per matrix, by row-by-row
    substitution over the whole stack (``whiten_rows``, ``solve_rows``), in
    the arithmetic of the LAPACK calls ``SpdFactor`` makes; so an element's
    result does not depend on the stack it is in.  One matrix, factored alone
    or taken from an ``SpdFactor`` (``of``), solves one right-hand side with
    those LAPACK calls; ``of(factor, stacked=True)`` is the stack of one that
    serves every element of a stack of right-hand sides.
    """

    __slots__ = ("matrix", "chol", "plain", "_one")

    def __init__(self, matrices: np.ndarray):
        a = symmetrize(matrices)
        try:
            if a.shape[-1] == 1 and a.min(initial=math.inf) > 0.0:
                chol = np.sqrt(a)
            else:
                chol = np.linalg.cholesky(a)
            plain = None  # every matrix
        except np.linalg.LinAlgError:
            a = np.ascontiguousarray(a)  # so that the flat views below write through
            chol = np.full_like(a, np.nan)
            plain = np.zeros(a.shape[:-2], dtype=bool)
            d = a.shape[-1]
            _factor_apart(a.reshape(-1, d, d), chol.reshape(-1, d, d), plain.reshape(-1))
        self.matrix, self.chol, self.plain, self._one = a, chol, plain, None
        if a.ndim == 2:
            self._one = SpdFactor.of(a, chol)

    @classmethod
    def of(cls, factor: SpdFactor, stacked: bool = False) -> "SpdStack":
        """One factored matrix; ``stacked``, as a stack of one that serves
        every element of a stack of right-hand sides."""
        stack = object.__new__(cls)
        matrix, chol = factor.matrix, factor.chol
        if stacked:
            matrix, chol = matrix[None], chol[None]
        stack.matrix, stack.chol, stack.plain, stack._one = matrix, chol, None, factor
        return stack

    @property
    def dim(self) -> int:
        return self.chol.shape[-1]

    @property
    def inv_sym_sqrt(self) -> np.ndarray:
        """The symmetric inverse square root of each matrix, or the one
        shared by every element (``SpdFactor.inv_sym_sqrt``)."""
        if self._one is not None:
            return self._one.inv_sym_sqrt
        return inv_sym_sqrt(self.matrix)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for each element's matrix A = L L^T, as ``SpdFactor.solve``
        computes it: a (B, d) or (B, d, n) stack of right-hand sides for a
        stack, one (d,) or (d, n) right-hand side for one matrix."""
        if self.chol.ndim == 2:
            return self._one.solve(b)
        if b.ndim == 2:
            return solve_rows(self.chol, b[:, None, :])[:, 0, :]
        return solve_rows(self.chol, b.swapaxes(-1, -2)).swapaxes(-1, -2)

    def mahalanobis_sq(self, residual: np.ndarray) -> float | np.ndarray:
        """The quadratic forms r^T A^{-1} r = ||L^{-1} r||^2, as
        ``SpdFactor.mahalanobis_sq`` gives them: a (B, d) stack of residuals
        for a stack, one (d,) residual for one matrix.

        A finite residual whose form overflows gives inf: the form is redone,
        on those rows only, on the residual divided by ``pow2_scale``.  As
        with ``SpdFactor``, the first try's overflow warns unless the caller
        silences it.
        """
        if self.chol.ndim == 2:
            return self._one.mahalanobis_sq(residual)
        z = whiten_rows(self.chol, residual)
        s = np.vecdot(z, z)
        if not math.isfinite(s.sum()):
            redo = ~np.isfinite(s)
            scale = pow2_scale(residual[redo], axis=-1)
            chol = self.chol if len(self.chol) == 1 else self.chol[redo]
            z = whiten_rows(chol, residual[redo] / scale[:, None])
            s[redo] = np.vecdot(z, z) * scale * scale
        return s

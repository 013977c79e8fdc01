"""Positive-definite matrix utilities shared by the filter implementations.

Covariance recursions accumulate asymmetry and tiny negative curvature over
long runs, so every factorization here symmetrizes its input and repairs
borderline matrices with an escalating trace-scaled jitter.  ``SpdFactor``
factors one matrix or a stack of them at once, and solves by row-by-row
substitution in LAPACK's arithmetic (``whiten_rows``, ``solve_rows``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SpdFactor", "symmetrize", "psd_sym_sqrt", "pow2_scale"]

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


def psd_sym_sqrt(a: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of a symmetric PSD matrix.

    Eigenvalues in [-1e-8, 0) are clamped to zero; anything below that
    signals a genuinely indefinite matrix and raises.
    """
    a = symmetrize(np.asarray(a, dtype=float))
    eigvals, eigvecs = np.linalg.eigh(a)
    if eigvals.min(initial=0.0) < -1e-8:
        raise np.linalg.LinAlgError(
            f"matrix is not PSD: min eigenvalue {eigvals.min():.3e} below tolerance -1e-8"
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


def whiten_rows(chol: np.ndarray, r: np.ndarray) -> np.ndarray:
    """L^{-1} r for a (..., d) stack of vectors r under (..., d, d) lower
    factors L, which may be one factor broadcast over the stack.

    Row by row: one dot product with the rows already solved, a subtraction
    and a division by the diagonal.  That is the arithmetic of LAPACK's
    ``dtrtrs`` on L^T with one right-hand side, whose dot product is the
    BLAS call ``np.vecdot`` makes, so each vector comes out as that call
    gives it.
    """
    if r.shape[-1] == 1:
        return r / chol[..., 0]
    z = np.empty(r.shape)
    z[..., 0] = r[..., 0] / chol[..., 0, 0]
    for i in range(1, r.shape[-1]):
        z[..., i] = (r[..., i] - np.vecdot(chol[..., i, :i], z[..., :i])) / chol[..., i, i]
    return z


def _trsm_rows(chol: np.ndarray, rows: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """L^{-1} r for a (..., d) stack of vectors r under (..., d, d) lower
    factors L (or one broadcast over them), given the reciprocals ``inv`` of
    their diagonals, as OpenBLAS's ``dtrsm`` kernel computes it: entry k is
    scaled by 1 / L_kk, and each solved entry updates the ones after it by
    one fused multiply-add.  Entry k's chain of fused multiply-adds is what a
    BLAS dot product of [r_k, z_0, ..., z_{k-1}] with [1, -L_k0, ...,
    -L_k,k-1] computes, so each entry is one such dot.  Where the kernel
    blocks its rows differently (odd d above 2, measured up to 12), the
    result differs from ``dtrsm``'s in the last bits.

    Returns a view into the work array for d > 1.
    """
    d = rows.shape[-1]
    if d == 1:
        return rows * inv
    # Row k of ``coef`` starts [1, -L_k0, ..., -L_k,k-1] and ``work`` holds,
    # per vector, [r_k, z_0, ..., z_{d-1}]: new C-ordered arrays whatever
    # the layout of L, for BLAS sums a strided dot in another order.
    coef = np.empty(chol.shape)
    coef[..., 0] = 1.0
    np.negative(chol[..., :-1], out=coef[..., 1:])
    work = np.empty((*rows.shape[:-1], d + 1))
    np.multiply(rows[..., 0], inv[..., 0], out=work[..., 1])
    for k in range(1, d):
        work[..., 0] = rows[..., k]
        dot = np.vecdot(work[..., : k + 1], coef[..., k, : k + 1])
        np.multiply(dot, inv[..., k], out=work[..., k + 1])
    return work[..., 1:]


def solve_rows(chol: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A^{-1} r for a (..., d) stack of vectors r under the (..., d, d) lower
    factors L of A = L L^T (or one broadcast over them): the two triangular
    solves of LAPACK's ``dpotrs``, each in the arithmetic of ``_trsm_rows``,
    which for a scalar is two products by 1 / L.  The solve with L^T is the
    one with L whose rows and columns are taken in reverse order."""
    if chol.shape[-1] == 1:
        inv = 1.0 / chol[..., 0]
        return rows * inv * inv
    inv = 1.0 / chol.diagonal(0, -2, -1)
    z = _trsm_rows(chol, rows, inv)
    flipped = chol.swapaxes(-1, -2)[..., ::-1, ::-1]
    return _trsm_rows(flipped, z[..., ::-1], inv[..., ::-1])[..., ::-1]


def _whiten(chol: np.ndarray, r: np.ndarray, block: bool) -> np.ndarray:
    """``SpdFactor.whiten``: a block in ``dtrsm``'s arithmetic, other
    vectors in ``dtrtrs``'s."""
    if block:
        return _trsm_rows(chol, r, 1.0 / chol.diagonal(0, -2, -1))
    return whiten_rows(chol, r)


def _sum_sq(chol: np.ndarray, r: np.ndarray, block: bool) -> np.ndarray:
    """||L^{-1} r||^2 of each (..., d) vector r: by ``np.sum`` over a block,
    by a BLAS dot for other vectors, the sums that reproduce, with the
    whitening, ``np.sum`` of a ``dtrtrs`` block and the dot of one vector
    (the two sums can differ in the last bit)."""
    z = _whiten(chol, r, block)
    return np.sum(z * z, axis=-1) if block else np.vecdot(z, z)


def _repaired(a: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The matrix ``a``, whose Cholesky factorization failed, plus the
    escalating jitter that first lets it factor, and that factor; None if no
    jitter of the schedule does."""
    d = a.shape[-1]
    jitter = _JITTER_BASE * np.trace(a) / d
    for _ in range(_JITTER_RETRIES):
        a = a + jitter * np.eye(d)
        try:
            return a, np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    return None


def _factor_apart(a: np.ndarray, chol: np.ndarray, plain: np.ndarray) -> None:
    """Fill in the factors of an (n, d, d) stack whose stacked Cholesky
    raised: each half by one call, splitting a half that raises again, down
    to the single matrices that fail alone.  Those get the jitter repair,
    written back into ``a``, or stay masked (NaN) if no jitter repairs them.
    A matrix factored as it is gets ``plain`` True."""
    if len(a) == 1:
        repaired = _repaired(a[0])
        if repaired is not None:
            a[0], chol[0] = repaired
        return
    for half in (slice(None, len(a) // 2), slice(len(a) // 2, None)):
        try:
            chol[half] = np.linalg.cholesky(a[half])
            plain[half] = True
        except np.linalg.LinAlgError:
            _factor_apart(a[half], chol[half], plain[half])


class SpdFactor:
    """Cholesky factors of one SPD (d, d) matrix or of a (..., d, d) stack
    of them, factored by one ``np.linalg.cholesky`` call; positive 1 x 1
    matrices by one square root, which is LAPACK's factor of them bit for bit
    at a fraction of the cost of ``np.linalg.cholesky``'s wrapper.

    That call raises for the whole stack if one matrix fails, so the stack is
    then factored half by half (``_factor_apart``), and each matrix that
    fails alone is repaired by the smallest jitter of the schedule that lets
    it pass.  A matrix that no jitter repairs is masked instead of raised:
    its factor is NaN, and so is everything solved with it.  ``plain`` is
    False for the repaired and the masked matrices, and None when the
    stacked call took every matrix as it is.

    Vectors sit on the trailing axis: a (..., d) stack of them is solved
    against the matrices of the stack element by element, and one matrix
    serves any stack of vectors by broadcasting.  The solves are row-by-row
    substitutions over the whole stack in the arithmetic of the LAPACK
    calls (``dpotrs``, ``dtrtrs``) that one matrix and one vector, or one
    block of vectors (``whiten``), would make, so an element's result does
    not depend on the stack it is in.
    """

    __slots__ = ("matrix", "chol", "plain", "_inv_sym_sqrt")

    def __init__(self, matrix: np.ndarray):
        a = symmetrize(np.asarray(matrix, dtype=float))
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
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
        self.matrix, self.chol, self.plain, self._inv_sym_sqrt = a, chol, plain, None

    @property
    def dim(self) -> int:
        return self.chol.shape[-1]

    @property
    def inv_sym_sqrt(self) -> np.ndarray:
        """The symmetric inverse square root T with T @ matrix @ T = identity,
        of each matrix."""
        if self._inv_sym_sqrt is None:
            self._inv_sym_sqrt = inv_sym_sqrt(self.matrix)
        return self._inv_sym_sqrt

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for each (..., d) vector b, as LAPACK's ``dpotrs``
        computes it: bit for bit where OpenBLAS's ``dtrsm`` kernel takes one
        row at a time (d = 1, 2, 4, 8), in the last bits elsewhere.  A
        non-finite b gives a non-finite solution."""
        return solve_rows(self.chol, b)

    def whiten(self, residual: np.ndarray, block: bool = False) -> np.ndarray:
        """L^{-1} r for each (..., d) vector r, with L the lower factor.

        Each vector is whitened as LAPACK's ``dtrtrs`` whitens one vector
        alone, by division by the diagonal.  With ``block``, the vectors are
        one block of right-hand sides under one matrix, whitened as that
        call whitens a block of two or more (``dtrsm``: products by the
        reciprocals of the diagonal), which differs in the last bits.  A
        non-finite residual gives a non-finite vector.
        """
        return _whiten(self.chol, np.asarray(residual, dtype=float), block)

    @np.errstate(over="ignore", invalid="ignore")  # cheaper per call than a with-block
    def mahalanobis_sq(self, residual: np.ndarray, block: bool = False) -> float | np.ndarray:
        """The quadratic form r^T A^{-1} r = ||L^{-1} r||^2 of each (..., d)
        residual, whitened as ``whiten`` whitens it; a block's squares are
        summed as ``np.sum`` sums them, other vectors' by a BLAS dot.

        A finite residual whose form overflows gives inf, not the NaN of an
        inf - inf inside the whitening: the form is redone, on those
        residuals only, on the residual divided by ``pow2_scale``.  These
        overflows are the answer, not a fault, so they do not warn.
        """
        r = np.asarray(residual, dtype=float)
        s = _sum_sq(self.chol, r, block)
        if math.isfinite(s.sum()):
            return s
        if r.ndim == 1:
            scale = pow2_scale(r)
            return _sum_sq(self.chol, r / scale, block) * scale * scale
        redo = ~np.isfinite(s)
        scale = pow2_scale(r[redo], axis=-1)
        chol = self.chol if self.chol.ndim == 2 else self.chol[redo]
        s[redo] = _sum_sq(chol, r[redo] / scale[:, None], block) * scale * scale
        return s

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdFactor(shape={self.chol.shape})"

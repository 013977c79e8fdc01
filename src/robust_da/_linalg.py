"""Positive-definite matrix utilities shared by the filter implementations.

Covariance recursions accumulate asymmetry and tiny negative curvature over
long runs, so every factorization here symmetrizes its input and repairs
borderline matrices with an escalating trace-scaled jitter.  ``SpdFactor``
factors one matrix or a stack of them at once.  Its one substitution is
``whiten_rows``, LAPACK's ``dtrtrs`` on one vector: every whitening,
Mahalanobis square and solve (two sweeps, ``solve_rows``) is made of it.
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
    return np.ldexp(1.0, np.frexp(np.maximum.reduce(np.abs(x), axis=axis))[1] - 1)


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


def block_diagonal(a: np.ndarray, block_of: np.ndarray) -> bool:
    """Whether the SPD matrix ``a`` is block-diagonal over the blocks that
    ``block_of`` assigns its indices to: |a_ij| <= 1e-12 sqrt(a_ii a_jj)
    wherever i and j lie in different blocks, a test that does not depend
    on the scale of ``a``."""
    root = np.sqrt(np.abs(np.diagonal(a)))
    off = block_of[:, None] != block_of
    return bool(np.all(np.abs(a[off]) <= 1e-12 * np.outer(root, root)[off]))


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


def solve_rows(chol: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """A^{-1} r for a (..., d) stack of vectors r under the (..., d, d) lower
    factors L of A = L L^T (or one broadcast over them): ``whiten_rows``,
    then ``back_substitute``."""
    return back_substitute(chol, whiten_rows(chol, rows))


def back_substitute(chol: np.ndarray, z: np.ndarray) -> np.ndarray:
    """L^{-T} z: ``whiten_rows`` with L^T, which with its rows and columns
    reversed is lower triangular, on the reversed vector (``dtrtrs`` on one
    vector).  The reversed L^T is a C-ordered copy, for BLAS sums a strided
    dot in another order."""
    if chol.shape[-1] == 1:  # L^T is L: no copy to make
        return whiten_rows(chol, z)
    flipped = np.ascontiguousarray(chol.swapaxes(-1, -2)[..., ::-1, ::-1])
    return whiten_rows(flipped, z[..., ::-1])[..., ::-1]


def _sum_sq(chol: np.ndarray, r: np.ndarray) -> np.ndarray:
    """||L^{-1} r||^2 of each (..., d) vector r, summed by a BLAS dot."""
    z = whiten_rows(chol, r)
    return np.vecdot(z, z)


@np.errstate(over="ignore", invalid="ignore")  # cheaper per call than a with-block
def whitened_sq(chol: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z = L^{-1} r and the quadratic form r^T A^{-1} r = z^T z (a BLAS dot)
    of each (..., d) vector r.  A finite r whose form overflows gives inf,
    not the NaN of an inf - inf inside the whitening: its form is redone on
    r divided by ``pow2_scale``.  These overflows are the answer, not a
    fault, so they do not warn."""
    z = whiten_rows(chol, r)
    s = np.vecdot(z, z)
    if math.isfinite(np.add.reduce(s, axis=None)):
        return z, s
    if r.ndim == 1:
        scale = pow2_scale(r)
        return z, _sum_sq(chol, r / scale) * scale * scale
    redo = ~np.isfinite(s)
    scale = pow2_scale(r[redo], axis=-1)
    chol = chol if chol.ndim == 2 else chol[redo]
    s[redo] = _sum_sq(chol, r[redo] / scale[:, None]) * scale * scale
    return z, s


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
    serves any stack of vectors by broadcasting.  Each vector is substituted
    row by row, over the whole stack at once, in the arithmetic of LAPACK's
    ``dtrtrs`` on that matrix and that vector alone, so an element's result
    does not depend on the stack it is in.
    """

    __slots__ = ("matrix", "chol", "plain", "_inv_sym_sqrt")

    def __init__(self, matrix: np.ndarray):
        a = symmetrize(np.asarray(matrix, dtype=float))
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError(f"expected a square matrix or a stack of them, got shape {a.shape}")
        try:
            if a.shape[-1] == 1 and np.minimum.reduce(a, axis=None, initial=math.inf) > 0.0:
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
        of each matrix, by one ``eigh``; zero eigenvalues stay zero.  A
        matrix that no jitter repairs is masked here too: its root is NaN."""
        if self._inv_sym_sqrt is None:
            eigvals, eigvecs = np.linalg.eigh(self.matrix)
            root = np.sqrt(np.clip(eigvals, 0.0, None))
            inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
            self._inv_sym_sqrt = (eigvecs * inv_root[..., None, :]) @ eigvecs.swapaxes(-1, -2)
            if self.plain is not None:
                self._inv_sym_sqrt[np.isnan(self.chol[..., 0, 0])] = np.nan
        return self._inv_sym_sqrt

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for each (..., d) vector b, by ``solve_rows``: LAPACK's
        ``dtrtrs`` with L, then with the reversed L^T on the reversed vector,
        bit for bit, and LAPACK's ``dpotrs`` in the last bits.  A non-finite
        b gives a non-finite solution."""
        return solve_rows(self.chol, b)

    def whiten(self, residual: np.ndarray) -> np.ndarray:
        """L^{-1} r for each (..., d) vector r, with L the lower factor, as
        LAPACK's ``dtrtrs`` whitens that vector alone, bit for bit.  A
        non-finite residual gives a non-finite vector."""
        return whiten_rows(self.chol, np.asarray(residual, dtype=float))

    def mahalanobis_sq(self, residual: np.ndarray) -> float | np.ndarray:
        """The quadratic form r^T A^{-1} r = ||L^{-1} r||^2 of each (..., d)
        residual, by ``whitened_sq``: a finite residual whose form overflows
        gives inf, without a warning."""
        return whitened_sq(self.chol, np.asarray(residual, dtype=float))[1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpdFactor(shape={self.chol.shape})"

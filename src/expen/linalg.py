"""Dense linear-algebra substrate: symmetrization, economic SVD, tridiagonal solves.

Everything here is a pure function of its inputs. The one piece of state is
the Cholesky factor a TridiagMatrix caches on its first solve; it is a pure
function of the matrix, whose entries are read-only.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .exceptions import DimensionError, NotPositiveDefiniteError, NumericalError

__all__ = [
    "sym",
    "inner",
    "fnorm",
    "EconSVD",
    "econ_svd",
    "TridiagMatrix",
    "laplacian_1d",
    "tridiag_solve",
]


def _as_matrix(M, name="matrix"):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got ndim={M.ndim}")
    return M


def sym(M):
    """Symmetric part (M + M^T) / 2 of a square matrix, or of each in a stack (..., p, p)."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"sym expects square matrices, got shape {M.shape}")
    return 0.5 * (M + M.swapaxes(-1, -2))


def inner(A, B):
    """Frobenius inner product trace(A^T B)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError(f"inner product needs equal shapes, got {A.shape} and {B.shape}")
    return float(np.vdot(A, B))


def fnorm(A):
    """Frobenius norm."""
    return float(np.linalg.norm(np.asarray(A, dtype=float)))


class EconSVD(NamedTuple):
    """Economic SVD X = U @ diag(singular_values) @ V.T for an n x p matrix, n >= p."""

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def econ_svd(X):
    """Economic SVD of an n x p matrix with n >= p.

    Returns
    -------
    EconSVD
        U is n x p with orthonormal columns, singular_values is length p and
        nonincreasing, V is p x p orthogonal.
    """
    X = _as_matrix(X, "econ_svd operand")
    n, p = X.shape
    if n < p:
        raise DimensionError(f"econ_svd expects n >= p, got shape {X.shape}")
    try:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for a {n}x{p} matrix "
            f"(max |entry| {np.max(np.abs(X)):.3e}, fro norm {fnorm(X):.3e})"
        ) from exc
    return EconSVD(U, s, Vt.T)


def _stencil_operand(a):
    """One scalar when all entries of a share one bit pattern, else a as a column.

    Multiplying by either gives the same bits; the scalar skips the broadcast.
    """
    bits = a.view(np.uint64)
    return a[0] if bits.size and (bits == bits[0]).all() else a[:, None]


class TridiagMatrix:
    """Symmetric tridiagonal matrix stored by its diagonal and subdiagonal.

    The entries are copied and read-only. Solves go through a Cholesky
    factorization that is computed on the first solve and kept, O(n) per
    right-hand side, so applying the inverse never forms a dense matrix.
    """

    def __init__(self, diag, sub):
        diag = np.array(diag, dtype=float)
        sub = np.array(sub, dtype=float)
        if diag.ndim != 1 or sub.ndim != 1:
            raise DimensionError("diag and sub must be 1-dimensional")
        if diag.shape[0] < 1:
            raise DimensionError("empty tridiagonal matrix")
        if sub.shape[0] != diag.shape[0] - 1:
            raise DimensionError(
                f"sub must have length n-1, got {sub.shape[0]} for n={diag.shape[0]}"
            )
        diag.setflags(write=False)
        sub.setflags(write=False)
        self.n = diag.shape[0]
        self.diag = diag
        self.sub = sub
        self._d, self._s = _stencil_operand(diag), _stencil_operand(sub)
        self._factor = None  # LAPACK ?pttrf output (d, e), set by the first solve

    def dense(self):
        """Materialize as a dense n x n array (test and desk-scale use only)."""
        T = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        T[idx, idx + 1] = self.sub
        T[idx + 1, idx] = self.sub
        return T

    def matvec(self, v):
        """Apply the matrix to a vector (n,), or along axis -2 of a block (..., n, k)."""
        v = np.asarray(v, dtype=float)
        u = v[:, None] if v.ndim == 1 else v
        if u.ndim < 2 or u.shape[-2] != self.n:
            raise DimensionError(f"operand has shape {v.shape}, expected ({self.n},) or (..., {self.n}, k)")
        w = self._d * u
        w[..., :-1, :] += self._s * u[..., 1:, :]
        w[..., 1:, :] += self._s * u[..., :-1, :]
        return w.reshape(v.shape)

    def _cholesky(self):
        # A failed factorization is never cached, so every solve with an
        # indefinite matrix raises. SciPy's ?pttrf wrapper rejects an empty
        # subdiagonal; a 1x1 matrix is its own factor.
        factor = self._factor
        if factor is None:
            if not (np.isfinite(self.diag).all() and np.isfinite(self.sub).all()):
                raise ValueError("array must not contain infs or NaNs")
            if self.n == 1:
                d, e, info = self.diag, self.sub, int(self.diag[0] <= 0.0)
            else:
                d, e, info = dpttrf(self.diag, self.sub)
            if info != 0:
                raise NotPositiveDefiniteError(
                    "banded Cholesky failed; the matrix is not positive definite"
                )
            factor = self._factor = (d, e)
        return factor


def laplacian_1d(n):
    """The n x n stencil with 2 on the diagonal and -1 off it (positive definite)."""
    if n < 1:
        raise DimensionError("laplacian_1d needs n >= 1")
    return TridiagMatrix(np.full(n, 2.0), np.full(max(n - 1, 0), -1.0))


def tridiag_solve(T, rhs):
    """Solve T z = rhs for a positive definite TridiagMatrix, O(n) work.

    rhs may be a vector (n,) or a block (n, k); the result has the same shape.
    The factor is LAPACK's ?pttrf and the solve its ?pttrs, the two halves of
    the ?ptsv that scipy.linalg.solveh_banded calls for tridiagonal input, so
    the result is bit-identical to solveh_banded. As there, a non-finite rhs
    or matrix entry raises ValueError, for every n.
    """
    if not isinstance(T, TridiagMatrix):
        raise DimensionError("tridiag_solve expects a TridiagMatrix")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != T.n:
        raise DimensionError(f"rhs has shape {rhs.shape}, expected ({T.n},) or ({T.n}, k)")
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    d, e = T._cholesky()
    # SciPy's ?pttrs wrapper rejects an empty subdiagonal too
    return rhs / d[0] if T.n == 1 else dpttrs(d, e, rhs)[0]

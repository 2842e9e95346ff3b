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
    """Symmetric part (M + M^T) / 2 of a square matrix."""
    M = _as_matrix(M, "sym operand")
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"sym expects a square matrix, got shape {M.shape}")
    return 0.5 * (M + M.T)


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
        self._factor = None  # LAPACK ?pttrf output (d, e), set by the first solve

    def dense(self):
        """Materialize as a dense n x n array (test and desk-scale use only)."""
        T = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        T[idx, idx + 1] = self.sub
        T[idx + 1, idx] = self.sub
        return T

    def matvec(self, v):
        """Apply the matrix to a vector (n,) or a block of columns (n, k)."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.n:
            raise DimensionError(f"operand has leading dimension {v.shape[0]}, expected {self.n}")
        d = self.diag
        s = self.sub
        if v.ndim == 2:
            d = d[:, None]
            s = s[:, None]
        elif v.ndim != 1:
            raise DimensionError("matvec operand must be 1- or 2-dimensional")
        w = d * v
        w[:-1] += s * v[1:]
        w[1:] += s * v[:-1]
        return w

    def _cholesky(self):
        # A failed factorization is never cached, so every solve with an
        # indefinite matrix raises.
        factor = self._factor
        if factor is None:
            if not (np.isfinite(self.diag).all() and np.isfinite(self.sub).all()):
                raise ValueError("array must not contain infs or NaNs")
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
    raises ValueError.
    """
    if not isinstance(T, TridiagMatrix):
        raise DimensionError("tridiag_solve expects a TridiagMatrix")
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != T.n:
        raise DimensionError(f"rhs has leading dimension {rhs.shape[0]}, expected {T.n}")
    if T.n == 1:
        # LAPACK's banded path rejects 1x1 systems, so handle them directly.
        if T.diag[0] <= 0.0:
            raise NotPositiveDefiniteError(
                "banded Cholesky failed; the matrix is not positive definite"
            )
        return rhs / T.diag[0]
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    d, e = T._cholesky()
    return dpttrs(d, e, rhs)[0]

"""Dense linear-algebra substrate: symmetrization, inner products, tridiagonal solves, and the package's input guards.

Everything here is a pure function of its inputs. The one piece of state is
the Cholesky factor a TridiagMatrix caches (a cached_property) on its first
successful solve; it is a pure function of the matrix, whose entries are read-only.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .exceptions import DimensionError, NotPositiveDefiniteError

__all__ = [
    "sym",
    "inner",
    "fnorm",
    "TridiagMatrix",
    "laplacian_1d",
    "tridiag_solve",
]


def sym(M):
    """Symmetric part (M + M^T) / 2 of a square matrix, or of each in a stack (..., p, p)."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionError(f"sym expects square matrices, got shape {M.shape}")
    return 0.5 * (M + M.swapaxes(-1, -2))


def inner(A, B):
    """Frobenius inner product trace(A^T B), summed in C order."""
    A = np.ascontiguousarray(A, dtype=float)
    B = np.ascontiguousarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError(f"inner product needs equal shapes, got {A.shape} and {B.shape}")
    return float(np.vdot(A, B))


def fnorm(A):
    """Frobenius norm, summed in C order."""
    return float(np.linalg.norm(np.ascontiguousarray(A, dtype=float)))


# One guard per rule on an integer, a shape, a point or a parameter, each test written not (...) so that NaN
# fails it. The point readers return C-ordered float arrays, so no result depends on the caller's layout.
def _check_int(x, low, name):
    if not (isinstance(x, (int, np.integer)) and x >= low):
        raise DimensionError(f"{name} must be an integer >= {low}, got {x}")


def _check_param(x, name, positive=False):
    if not (0.0 <= x < np.inf and (x > 0.0 or not positive)):
        raise DimensionError(f"{name} must be {'positive' if positive else 'nonnegative'} and finite, got {x}")


def _check_dims(n, p, name):
    if not (isinstance(n, (int, np.integer)) and isinstance(p, (int, np.integer)) and n >= p >= 1):
        raise DimensionError(f"{name} needs integers n >= p >= 1, got n={n}, p={p}")


def _check_tall(X, name):
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise DimensionError(f"{name} expects an n x p matrix, got shape {X.shape}")
    _check_dims(*X.shape, name)
    return X


def _check_point(X, n, p, name="X", stack=False):
    X = np.ascontiguousarray(X, dtype=float)
    if X.shape[-2:] != (n, p) or X.ndim > 2 + stack:
        shapes = f"({n}, {p}) or (k, {n}, {p})" if stack else f"({n}, {p})"
        raise DimensionError(f"{name} must have shape {shapes}, got {X.shape}")
    return X


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

    def matvec(self, v):
        """Apply the matrix to a vector (n,), or along axis -2 of a block (..., n, k).

        Nothing in expen calls it: nleig applies its stencil inside its own
        closures. Tests and the perfbench layer tracer still use it.
        """
        v = np.asarray(v, dtype=float)
        u = v[:, None] if v.ndim == 1 else v
        if u.ndim < 2 or u.shape[-2] != self.n:
            raise DimensionError(f"operand has shape {v.shape}, expected ({self.n},) or (..., {self.n}, k)")
        w = self.diag[:, None] * u
        w[..., :-1, :] += self.sub[:, None] * u[..., 1:, :]
        w[..., 1:, :] += self.sub[:, None] * u[..., :-1, :]
        return w.reshape(v.shape)

    @cached_property
    def _factor(self):
        # LAPACK ?pttrf's (d, e). A body that raises stores nothing, so every
        # solve with an indefinite matrix raises. SciPy's ?pttrf wrapper
        # rejects an empty subdiagonal; a 1x1 matrix is its own factor.
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
        return d, e


def laplacian_1d(n):
    """The n x n stencil with 2 on the diagonal and -1 off it (positive definite); n is an integer >= 1."""
    _check_int(n, 1, "n")
    return TridiagMatrix(np.full(n, 2.0), np.full(n - 1, -1.0))


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
    d, e = T._factor
    # SciPy's ?pttrs wrapper rejects an empty subdiagonal too
    return rhs / d[0] if T.n == 1 else dpttrs(d, e, rhs)[0]

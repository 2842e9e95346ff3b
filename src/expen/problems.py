"""Benchmark objectives as SmoothObjective bundles, plus reproducible initial points.

Two families: a simplified electronic-structure energy (nonlinear eigenvalue
problem) and the Brockett trace function. Both are deterministic, immutable,
and reentrant. Synthetic constant and linear objectives round out the set for
tests and verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError
from .geometry import project_stiefel
from .linalg import inner, laplacian_1d, sym, tridiag_solve
from .model import SmoothObjective

__all__ = [
    "nleig_make",
    "brockett_make",
    "constant_make",
    "linear_make",
    "RandomSpec",
    "random_stiefel",
    "random_symmetric",
]


def nleig_make(n, p, alpha=1.0):
    """Nonlinear eigenvalue objective on n x p matrices.

    f(X) = (1/2) tr(X^T L X) + (alpha/4) rho^T L^{-1} rho, where L is the
    tridiagonal stencil diag 2 / off -1 and rho = diag(X X^T). The inverse is
    applied by an O(n) tridiagonal solve, never formed.

    The gradient is the Hamiltonian H = L + alpha Diag(z), z = L^{-1} rho,
    applied to X, and the value follows from it:
    f(X) = (1/2) <X, H X> - (alpha/4) rho^T z. hess_vec applies the same H
    to D and adds alpha (w o X), w = L^{-1} diag(X D^T + D X^T), with one
    solve for a whole stack of directions. value, gradient and hess_vec
    share a one-entry memo of rho, z and H X, keyed on the shape, dtype and
    exact bits of the last point X, so asking for the value and the gradient
    at one point costs one solve and one three-pass application of H. A hit
    returns the same bits as a miss, and gradient returns a fresh copy. Each
    entry is published as one immutable tuple in a single assignment, so the
    objective can be shared between threads. At a point whose rho is not
    finite, value and gradient are NaN.

    Parameters
    ----------
    n, p : int
        Dimensions, n >= p >= 1.
    alpha : float
        Nonnegative, finite coupling weight of the quartic term. The
        experiments leave it a free knob; 1.0 is the neutral default.
    """
    if not (alpha >= 0.0 and np.isfinite(alpha)):
        raise DimensionError(f"alpha must be nonnegative and finite, got {alpha}")
    L = laplacian_1d(n)
    memo = None  # (key, rho, L^{-1} rho, H X) of the last point

    def hamiltonian(z, M):
        # (L + alpha Diag(z)) M for M (n, p) or (k, n, p), from the (2, -1)
        # stencil, in place after the diagonal pass
        HM = (2.0 + alpha * z)[:, None] * M
        HM[..., :-1, :] -= M[..., 1:, :]
        HM[..., 1:, :] -= M[..., :-1, :]
        return HM

    def at(X):
        nonlocal memo
        X = np.asarray(X)
        key = (X.shape, X.dtype.str, X.tobytes())
        entry = memo
        if entry is None or entry[0] != key:
            rho = np.einsum("ij,ij->i", X, X)
            try:
                z = tridiag_solve(L, rho)
            except ValueError:  # rho is not finite; value and gradient are then NaN
                z = np.full(n, np.nan)
            HX = hamiltonian(z, X)
            HX.setflags(write=False)
            entry = memo = (key, rho, z, HX)
        return X, entry

    def value(X):
        X, (_, rho, z, HX) = at(X)
        return 0.5 * inner(X, HX) - 0.25 * alpha * float(rho @ z)

    def gradient(X):
        _, (_, _, _, HX) = at(X)
        return HX.copy()

    def hess_vec(X, D):
        X, (_, _, z, _) = at(X)
        D = np.asarray(D, dtype=float)
        # diag(X D^T + D X^T) = 2 * rowwise dot of X and D, one solve for the stack
        v = 2.0 * np.einsum("ij,...ij->...i", X, D)
        w = np.moveaxis(tridiag_solve(L, np.moveaxis(v, -1, 0)), 0, -1)
        return hamiltonian(z, D) + alpha * (w[..., None] * X)

    return SmoothObjective(n=n, p=p, value=value, gradient=gradient, hess_vec=hess_vec)


def brockett_make(B, C):
    """Brockett trace objective f(X) = (1/2) tr(X^T B X C) for symmetric B, C."""
    B = np.asarray(B, dtype=float)
    C = np.asarray(C, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise DimensionError(f"B must be square, got {B.shape}")
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise DimensionError(f"C must be square, got {C.shape}")
    if np.linalg.norm(B - B.T) > 1e-12 * (1.0 + np.linalg.norm(B)):
        raise DimensionError("B must be symmetric")
    if np.linalg.norm(C - C.T) > 1e-12 * (1.0 + np.linalg.norm(C)):
        raise DimensionError("C must be symmetric")

    def value(X):
        return 0.5 * inner(X, B @ X @ C)

    def gradient(X):
        return B @ X @ C

    def hess_vec(X, D):
        return B @ D @ C

    return SmoothObjective(n=B.shape[0], p=C.shape[0], value=value, gradient=gradient, hess_vec=hess_vec)


def constant_make(n, p, level=0.0):
    """Constant objective: value level, zero gradient and Hessian."""
    zero = lambda X: np.zeros((n, p))
    return SmoothObjective(
        n=n,
        p=p,
        value=lambda X: float(level),
        gradient=zero,
        hess_vec=lambda X, D: np.zeros(np.shape(D)),
    )


def linear_make(C):
    """Linear objective f(X) = <C, X>."""
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.shape[0] < C.shape[1]:
        raise DimensionError(f"C must be n x p with n >= p, got {C.shape}")
    n, p = C.shape
    return SmoothObjective(
        n=n,
        p=p,
        value=lambda X: inner(C, X),
        gradient=lambda X: C.copy(),
        hess_vec=lambda X, D: np.zeros(np.shape(D)),
    )


def random_symmetric(n, seed):
    """Symmetrized standard-normal n x n matrix, O(1) entries, seed-deterministic."""
    rng = np.random.default_rng(seed)
    return sym(rng.standard_normal((n, n)))


@dataclass(frozen=True)
class RandomSpec:
    """Reproducible initial-point request: dimensions plus a seed."""

    n: int
    p: int
    seed: int

    def __post_init__(self):
        if not (self.n >= self.p >= 1):
            raise DimensionError(f"need n >= p >= 1, got n={self.n}, p={self.p}")
        if self.seed < 0:
            raise DimensionError(f"seed must be nonnegative, got {self.seed}")


def random_stiefel(spec):
    """Column-orthonormal matrix from projected standard-normal entries, deterministic in the seed.

    A rank-deficient draw has probability zero; project_stiefel raises
    DegenerateProjectionError for one.
    """
    if not isinstance(spec, RandomSpec):
        raise DimensionError("random_stiefel expects a RandomSpec")
    rng = np.random.default_rng(spec.seed)
    return project_stiefel(rng.standard_normal((spec.n, spec.p)))

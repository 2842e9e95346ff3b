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
from .linalg import _check_dims, _check_tall, inner, laplacian_1d, sym, tridiag_solve
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
    f(X) = (1/2) <X, H X> - (alpha/4) rho^T z. value_and_grad forms rho, z
    and H X once, with one solve and three passes over X, and value and
    gradient each make that one call. hess_vec forms its own z, applies H to
    D and adds alpha (w o X), w = L^{-1} diag(X D^T + D X^T), with one solve
    for a whole stack of directions. A solve whose right-hand side is not
    finite is not made: it returns NaN, so every oracle is NaN there.

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

    def solve(b):
        # L^{-1} b; NaN for a non-finite b, which tridiag_solve would reject
        return tridiag_solve(L, b) if np.isfinite(b).all() else np.full(b.shape, np.nan)

    def hamiltonian(z, M):
        # (L + alpha Diag(z)) M for M (n, p) or (k, n, p), from the (2, -1)
        # stencil, in place after the diagonal pass
        HM = (2.0 + alpha * z)[:, None] * M
        HM[..., :-1, :] -= M[..., 1:, :]
        HM[..., 1:, :] -= M[..., :-1, :]
        return HM

    def value_and_grad(X):
        X = np.asarray(X)
        rho = np.einsum("ij,ij->i", X, X)
        z = solve(rho)
        HX = hamiltonian(z, X)
        return 0.5 * inner(X, HX) - 0.25 * alpha * float(rho @ z), HX

    def hess_vec(X, D):
        D = np.asarray(D, dtype=float)
        z = solve(np.einsum("ij,ij->i", X, X))
        # diag(X D^T + D X^T) = 2 * rowwise dot of X and D, one solve for the stack
        v = 2.0 * np.einsum("ij,...ij->...i", X, D)
        w = np.moveaxis(solve(np.moveaxis(v, -1, 0)), 0, -1)
        return hamiltonian(z, D) + alpha * (w[..., None] * X)

    value = lambda X: value_and_grad(X)[0]
    gradient = lambda X: value_and_grad(X)[1]
    return SmoothObjective(n, p, value, gradient, hess_vec, value_and_grad)


def _symmetric(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got {M.shape}")
    if not (np.isfinite(M).all() and np.linalg.norm(M - M.T) <= 1e-12 * (1.0 + np.linalg.norm(M))):
        raise DimensionError(f"{name} must be finite and symmetric")
    return M


def brockett_make(B, C):
    """Brockett trace objective f(X) = (1/2) tr(X^T B X C) for symmetric B, C."""
    B, C = _symmetric(B, "B"), _symmetric(C, "C")

    def value_and_grad(X):
        G = B @ X @ C
        return 0.5 * inner(X, G), G

    value = lambda X: value_and_grad(X)[0]
    gradient = lambda X: B @ X @ C
    hess_vec = lambda X, D: B @ D @ C
    return SmoothObjective(B.shape[0], C.shape[0], value, gradient, hess_vec, value_and_grad)


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
    C = _check_tall(C, "linear_make")
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
        _check_dims(self.n, self.p, "RandomSpec")
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

"""Smooth objective bundles and the exact-penalty oracle.

The penalty replaces minimization of f over column-orthonormal X by
unconstrained minimization of

    h(X) = f(X A(X)) + (beta/4) ||X^T X - I||_F^2,
    A(X) = (3/2) I - (1/2) X^T X,

which agrees with f on the manifold. The gradient and Hessian-vector oracles
below are closed-form: one objective gradient (or Hessian-vector) call plus a
fixed number of n x p by p x p products per evaluation. ExPenModel.at(X)
returns an Evaluation, which computes A(X), the mapped point X A(X) and the
mapped gradient once and shares them between the oracles asked at X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import CapabilityError, DimensionError
from .linalg import fnorm, sym

__all__ = [
    "SmoothObjective",
    "ExPenModel",
    "Evaluation",
    "apen_map",
    "jx_apply",
    "smoothed_grad",
    "default_beta",
]


@dataclass(frozen=True)
class SmoothObjective:
    """Oracle bundle for a smooth objective on n x p matrices.

    Parameters
    ----------
    n, p : int
        Matrix dimensions, n >= p >= 1.
    value : callable
        X -> float.
    gradient : callable
        X -> n x p array, the Euclidean gradient.
    hess_vec : callable, optional
        (X, D) -> the Euclidean Hessian applied to D, where D is one
        direction (n, p) or a stack (k, n, p); the result has D's shape.
        Absent for first-order-only objectives; second-order operations then
        raise CapabilityError instead of silently finite-differencing.
    """

    n: int
    p: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_vec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (self.n >= self.p >= 1):
            raise DimensionError(f"need n >= p >= 1, got n={self.n}, p={self.p}")


def _check_point(X, n, p, name="X", stack=False):
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (n, p) or X.ndim > 2 + stack:
        shapes = f"({n}, {p}) or (k, {n}, {p})" if stack else f"({n}, {p})"
        raise DimensionError(f"{name} must have shape {shapes}, got {X.shape}")
    return X


def _check_tall(X, name):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise DimensionError(f"{name} expects n x p with n >= p, got {X.shape}")
    return X


def _amat(S):
    """A = (3/2) I - (1/2) S, given S = X^T X."""
    A = -0.5 * S
    A.reshape(-1)[:: A.shape[0] + 1] += 1.5  # the diagonal, as a strided view
    return A


def _jac(X, A, D):
    """The Jacobian of the smoothing map at X applied to D or to each slice of a stack D."""
    return D @ A - X @ sym(D.swapaxes(-1, -2) @ X)


def apen_map(X):
    """The smoothing map X -> X A(X) with A(X) = (3/2) I - (1/2) X^T X.

    Fixes every column-orthonormal X.
    """
    X = _check_tall(X, "apen_map")
    return X @ _amat(X.T @ X)


def jx_apply(X, D):
    """Apply the Jacobian of apen_map at X to D: D A(X) - X sym(D^T X).

    Linear and self-adjoint in D.
    """
    X = _check_tall(X, "jx_apply")
    D = _check_point(D, *X.shape, "D")
    return _jac(X, _amat(X.T @ X), D)


def smoothed_grad(obj, X):
    """Gradient of X -> f(X A(X)): G A(X) - X sym(X^T G) with G = grad f(X A(X)).

    This is the penalty-free part of the model gradient; the identity checks
    in the verify module exercise it directly.
    """
    X = _check_point(X, obj.n, obj.p)
    A = _amat(X.T @ X)
    G = np.asarray(obj.gradient(X @ A), dtype=float)
    return _jac(X, A, G)


def default_beta(obj, X0):
    """Penalty parameter rule ||grad f(X0)||_F / 10 for an initial point X0.

    Falls back to 1.0 when the gradient vanishes at X0 (the rule would give
    an invalid beta = 0).
    """
    X0 = _check_point(X0, obj.n, obj.p, "X0")
    b = fnorm(obj.gradient(X0)) / 10.0
    return b if b > 0.0 else 1.0


@dataclass(frozen=True)
class ExPenModel:
    """The penalty oracle h, grad h, and hess h [D] for a SmoothObjective.

    Immutable and stateless: value, grad and hess_vec each wrap a fresh at(X).
    """

    objective: SmoothObjective
    beta: float

    def __post_init__(self):
        if not isinstance(self.objective, SmoothObjective):
            raise DimensionError("objective must be a SmoothObjective")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise DimensionError(f"beta must be positive and finite, got {self.beta}")

    @property
    def n(self):
        return self.objective.n

    @property
    def p(self):
        return self.objective.p

    def at(self, X):
        """The Evaluation of the penalty oracles at X."""
        return Evaluation(self.objective, self.beta, _check_point(X, self.n, self.p))

    def value(self, X):
        return self.at(X).value()

    def grad(self, X):
        return self.at(X).grad()

    def hess_vec(self, X, D):
        return self.at(X).hess_vec(D)


class Evaluation:
    """The penalty oracles at a point X that must not change, from ExPenModel.at.

    A(X), R = X^T X - I, Y = X A and, when first needed, G = grad f(Y) are formed once.
    """

    def __init__(self, objective, beta, X):
        S = X.T @ X
        A = _amat(S)
        S.reshape(-1)[:: S.shape[0] + 1] -= 1.0  # S is spent on A, so R = S - I is formed in place
        self.objective, self.beta, self.X, self.A, self.R, self.Y = objective, beta, X, A, S, X @ A
        for M in (self.A, self.R, self.Y):
            M.setflags(write=False)
        self._G = None

    def _grad_f(self):
        if self._G is None:
            self._G = np.asarray(self.objective.gradient(self.Y), dtype=float)
        return self._G

    def value(self):
        """h(X) = f(X A(X)) + (beta/4) ||X^T X - I||_F^2."""
        return float(self.objective.value(self.Y)) + 0.25 * self.beta * float(np.vdot(self.R, self.R))

    def grad(self):
        """Closed-form gradient of h, a new array on every call.

        grad h(X) = G A(X) - X (sym(X^T G) - beta (X^T X - I)), with G the
        objective gradient at the mapped point X A(X). Equals the Riemannian
        gradient of f whenever X is column-orthonormal.
        """
        G = self._grad_f()
        g = G @ self.A
        g -= self.X @ (sym(self.X.T @ G) - self.beta * self.R)
        return g

    def hess_vec(self, D):
        """Closed-form Hessian of h applied to a direction D (n, p) or a stack (k, n, p).

        Requires the objective to provide hess_vec. With S_D = sym(D^T X) and
        HJD = hess f(X A)[D A - X S_D], the objective Hessian at the mapped
        point applied to the Jacobian image of D, it is grouped as grad is:
            HJD A - G S_D + D (beta R - sym(X^T G))
                + X (2 beta S_D - sym(D^T G) - sym(HJD^T X)),
        ten matrix products besides the objective's hess_vec. Each slice of a
        stack gets the bits of its own call.
        """
        if self.objective.hess_vec is None:
            raise CapabilityError("objective provides no hess_vec oracle")
        D = _check_point(D, *self.X.shape, "D", stack=True)
        X, A, G = self.X, self.A, self._grad_f()
        Dt = D.swapaxes(-1, -2)
        S_D = sym(Dt @ X)
        HJD = np.asarray(self.objective.hess_vec(self.Y, D @ A - X @ S_D), dtype=float)
        return (
            HJD @ A
            - G @ S_D
            + D @ (self.beta * self.R - sym(X.T @ G))
            + X @ (2.0 * self.beta * S_D - sym(Dt @ G) - sym(HJD.swapaxes(-1, -2) @ X))
        )

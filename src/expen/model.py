"""Smooth objective bundles and the exact-penalty oracle.

The penalty replaces minimization of f over column-orthonormal X by
unconstrained minimization of

    h(X) = f(X A(X)) + (beta/4) ||X^T X - I||_F^2,
    A(X) = (3/2) I - (1/2) X^T X,

which agrees with f on the manifold. The gradient and Hessian-vector oracles
below are closed-form: one objective gradient (or Hessian-vector) call plus a
fixed number of n x p by p x p products per evaluation. ExPenModel.at(X)
returns an Evaluation, which computes A(X), the mapped point X A(X) and the
mapped value and gradient once and shares them between the oracles asked at X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .exceptions import CapabilityError, DimensionError, NumericalError
from .linalg import _check_dims, _check_param, _check_point, _check_tall, fnorm, sym

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
    value_and_grad : callable, optional
        X -> (value(X), gradient(X)) with their bits, from one pass over the
        work they share; the penalty oracles then make one call for both.
    """

    n: int
    p: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hess_vec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    value_and_grad: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        _check_dims(self.n, self.p, "SmoothObjective")


def apen_map(X):
    """The smoothing map X -> X A(X) with A(X) = (3/2) I - (1/2) X^T X, a read-only array.

    Fixes every column-orthonormal X.
    """
    return Evaluation(None, 0.0, _check_tall(X, "apen_map")).Y


def jx_apply(X, D):
    """Apply the Jacobian of apen_map at X to D: D A(X) - X sym(D^T X).

    Linear and self-adjoint in D.
    """
    X = _check_tall(X, "jx_apply")
    return Evaluation(None, 0.0, X).jac(_check_point(D, *X.shape, "D"))[1]


def smoothed_grad(obj, X):
    """Gradient of X -> f(X A(X)): G A(X) - X sym(X^T G) with G = grad f(X A(X)).

    This is the model gradient at beta = 0; the identity checks in the verify
    module exercise it directly.
    """
    return Evaluation(obj, 0.0, _check_point(X, obj.n, obj.p)).grad()


def default_beta(obj, X0):
    """Penalty parameter rule ||grad f(X0)||_F / 10 for an initial point X0.

    Falls back to 1.0 when the gradient vanishes at X0 (the rule would give
    an invalid beta = 0), and raises NumericalError when its norm is not finite.
    """
    X0 = _check_point(X0, obj.n, obj.p, "X0")
    gnorm = fnorm(obj.gradient(X0))
    if not np.isfinite(gnorm):
        raise NumericalError(f"||grad f(X0)||_F is {gnorm}, so the beta rule has no value")
    b = gnorm / 10.0
    return b if b > 0.0 else 1.0


@dataclass(frozen=True)
class ExPenModel:
    """The penalty oracle h, grad h, and hess h [D] for a SmoothObjective.

    value, grad and hess_vec share the Evaluation of the last point asked,
    keyed on the bytes of X in C order, built on a read-only copy of them and
    published as one tuple, so X may change in place and threads may share
    the model. at(X) gets a fresh one. No result depends on X's layout.
    """

    objective: SmoothObjective
    beta: float
    _last = None  # (bytes of X, its Evaluation), set by _shared; not a field

    def __post_init__(self):
        if not isinstance(self.objective, SmoothObjective):
            raise DimensionError("objective must be a SmoothObjective")
        _check_param(self.beta, "beta", positive=True)

    @property
    def n(self):
        return self.objective.n

    @property
    def p(self):
        return self.objective.p

    def at(self, X):
        """The Evaluation of the penalty oracles at X."""
        return Evaluation(self.objective, self.beta, _check_point(X, self.n, self.p))

    def _shared(self, X):
        X = _check_point(X, self.n, self.p)
        key = X.tobytes()
        last = self._last
        if last is None or last[0] != key:
            last = (key, Evaluation(self.objective, self.beta, np.frombuffer(key).reshape(X.shape)))
            object.__setattr__(self, "_last", last)
        return last[1]

    def value(self, X):
        return self._shared(X).value()

    def grad(self, X):
        return self._shared(X).grad()

    def hess_vec(self, X, D):
        return self._shared(X).hess_vec(D)


class Evaluation:
    """The penalty oracles at a point X that must not change, from ExPenModel.at
    (or at beta = 0 from smoothed_grad, apen_map and jx_apply, the last two with no objective).

    A(X), R = X^T X - I and Y = X A are formed once, and G = grad f(Y) when first
    needed, together with f(Y) from one value_and_grad call if the objective has one.
    """

    def __init__(self, objective, beta, X):
        S = X.T @ X
        A = -0.5 * S
        A.reshape(-1)[:: A.shape[0] + 1] += 1.5  # A = (3/2) I - (1/2) S, the diagonal as a strided view
        S.reshape(-1)[:: S.shape[0] + 1] -= 1.0  # S is spent on A, so R = S - I is formed in place
        self.objective, self.beta, self.X, self.A, self.R, self.Y = objective, beta, X, A, S, X @ A
        for M in (self.A, self.R, self.Y):
            M.setflags(write=False)

    @cached_property
    def _fG(self):
        fused = self.objective.value_and_grad
        f, G = (None, self.objective.gradient(self.Y)) if fused is None else fused(self.Y)
        return f, np.asarray(G, dtype=float)

    def jac(self, D):
        """S_D = sym(D^T X) and J(D) = D A - X S_D, the smoothing map's Jacobian
        applied to a direction D (n, p) or a stack (k, n, p)."""
        S_D = sym(D.swapaxes(-1, -2) @ self.X)
        return S_D, D @ self.A - self.X @ S_D

    def value(self):
        """h(X) = f(X A(X)) + (beta/4) ||X^T X - I||_F^2."""
        f = self.objective.value(self.Y) if self.objective.value_and_grad is None else self._fG[0]
        return float(f) + 0.25 * self.beta * float(np.vdot(self.R, self.R))

    def grad(self):
        """Closed-form gradient of h, a new array on every call.

        grad h(X) = G A(X) - X (sym(X^T G) - beta (X^T X - I)), with G the
        objective gradient at the mapped point X A(X). Equals the Riemannian
        gradient of f whenever X is column-orthonormal.
        """
        G = self._fG[1]
        g = G @ self.A
        g -= self.X @ (sym(self.X.T @ G) - self.beta * self.R)
        return g

    def hess_vec(self, D):
        """Closed-form Hessian of h applied to a direction D (n, p) or a stack (k, n, p).

        Requires the objective to provide hess_vec. With S_D and J(D) from jac
        and HJD = hess f(X A)[J(D)], it is grouped as grad is:
            HJD A - G S_D + D (beta R - sym(X^T G))
                + X (2 beta S_D - sym(D^T G) - sym(HJD^T X)),
        ten matrix products besides the objective's hess_vec. Each slice of a
        stack gets the bits of its own call.
        """
        if self.objective.hess_vec is None:
            raise CapabilityError("objective provides no hess_vec oracle")
        D = _check_point(D, *self.X.shape, "D", stack=True)
        X, G = self.X, self._fG[1]
        S_D, JD = self.jac(D)
        HJD = np.asarray(self.objective.hess_vec(self.Y, JD), dtype=float)
        del JD  # freed before the products below, so that they can reuse its memory
        return (
            HJD @ self.A
            - G @ S_D
            + D @ (self.beta * self.R - sym(X.T @ G))
            + X @ (2.0 * self.beta * S_D - sym(D.swapaxes(-1, -2) @ G) - sym(HJD.swapaxes(-1, -2) @ X))
        )

"""Stiefel-manifold utilities: projection, tangent operations, stationarity reporting.

The manifold is the set of n x p matrices with orthonormal columns. The
tangent space at a feasible X is {D : sym(D^T X) = 0}; the normal space is
{X L : L symmetric}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateProjectionError, DimensionError, FeasibilityError, NumericalError
from .linalg import fnorm, sym

__all__ = [
    "project_stiefel",
    "feasibility",
    "tangent_project",
    "riemannian_grad",
    "StationarityReport",
    "stationarity_report",
    "postprocess",
]

# Points farther than this from the manifold are rejected by tangent-space
# operations; the projector formula below assumes X^T X = I.
_FEAS_TOL = 1e-8


def feasibility(X):
    """Constraint violation ||X^T X - I_p||_F."""
    X = np.asarray(X, dtype=float)
    S = X.T @ X
    return fnorm(S - np.eye(S.shape[0]))


def project_stiefel(X):
    """Nearest column-orthonormal matrix, U V^T from the economic SVD of an n x p X, n >= p.

    Raises NumericalError when the SVD does not converge, and
    DegenerateProjectionError when X is numerically rank deficient
    (smallest singular value at most 1e-12 times the largest): the nearest
    point is not unique there, and silently picking one would poison
    downstream stationarity numbers.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < X.shape[1]:
        raise DimensionError(f"project_stiefel expects n x p with n >= p, got shape {X.shape}")
    try:
        U, s, Vt = np.linalg.svd(X, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD did not converge for a {X.shape[0]}x{X.shape[1]} matrix "
            f"(max |entry| {np.max(np.abs(X)):.3e}, fro norm {fnorm(X):.3e})"
        ) from exc
    if s[-1] <= 1e-12 * s[0]:
        raise DegenerateProjectionError(
            f"projection undefined: singular values range [{s[-1]:.3e}, {s[0]:.3e}]"
        )
    return U @ Vt


def _require_feasible(X, op):
    X = np.asarray(X, dtype=float)
    feas = feasibility(X)
    if feas > _FEAS_TOL:
        raise FeasibilityError(
            f"{op} needs a column-orthonormal point; ||X^T X - I||_F = {feas:.3e}"
        )
    return X


def tangent_project(X, D):
    """Orthogonal projection of D onto the tangent space at feasible X."""
    X = _require_feasible(X, "tangent_project")
    D = np.asarray(D, dtype=float)
    return D - X @ sym(X.T @ D)


def riemannian_grad(obj, X):
    """Riemannian gradient grad f(X) = grad_euclidean f(X) - X sym(X^T grad f(X))."""
    X = _require_feasible(X, "riemannian_grad")
    G = np.asarray(obj.gradient(X), dtype=float)
    return G - X @ sym(X.T @ G)


@dataclass(frozen=True)
class StationarityReport:
    """Stationarity diagnostics for a penalty-model iterate.

    grad_h_norm and feasibility are measured at X itself;
    projected_riem_grad_norm is the Riemannian gradient norm of f at the
    projected point, computed directly. certified_bound = 2 * grad_h_norm
    dominates the projected norm on the certified near-manifold region with
    beta large enough; near_manifold records the checkable half of that
    precondition (feasibility <= 1/6). Nothing is enforced.
    """

    grad_h_norm: float
    feasibility: float
    projected_riem_grad_norm: float
    certified_bound: float
    near_manifold: bool


def stationarity_report(model, X):
    """Measure grad-h norm, feasibility, and post-projection stationarity at X."""
    X = np.asarray(X, dtype=float)
    grad_h_norm = fnorm(model.grad(X))
    feas = feasibility(X)
    P = project_stiefel(X)
    projected = fnorm(riemannian_grad(model.objective, P))
    return StationarityReport(
        grad_h_norm=grad_h_norm,
        feasibility=feas,
        projected_riem_grad_norm=projected,
        certified_bound=2.0 * grad_h_norm,
        near_manifold=bool(feas <= 1.0 / 6.0),
    )


def postprocess(model, X):
    """Project X onto the manifold and report the penalty-model decrease.

    Returns (P, model.value(X) - model.value(P)). Near the manifold with
    beta large the decrease is nonnegative; for a constant objective it
    equals (beta/4) ||X^T X - I||_F^2 exactly.
    """
    X = np.asarray(X, dtype=float)
    P = project_stiefel(X)
    decrease = model.value(X) - model.value(P)
    return P, decrease

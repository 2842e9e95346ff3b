"""Stiefel-manifold utilities: projection, tangent operations, stationarity reporting.

The manifold is the set of n x p matrices with orthonormal columns. The
tangent space at a feasible X is {D : sym(D^T X) = 0}; the normal space is
{X L : L symmetric}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateProjectionError, FeasibilityError, NumericalError
from .linalg import _check_tall, fnorm, sym

__all__ = [
    "project_stiefel",
    "feasibility",
    "tangent_project",
    "riemannian_grad",
    "in_certificate_region",
    "StationarityReport",
    "stationarity_report",
    "postprocess",
]

# Points farther than this from the manifold are rejected by tangent-space
# operations; the projector formula below assumes X^T X = I.
_FEAS_TOL = 1e-8


def feasibility(X):
    """Constraint violation ||X^T X - I_p||_F; DimensionError unless X is n x p, n >= p >= 1."""
    X = _check_tall(X, "feasibility")
    return fnorm(X.T @ X - np.eye(X.shape[1]))


def project_stiefel(X):
    """Nearest column-orthonormal matrix, U V^T from the economic SVD of an n x p X.

    Raises DimensionError unless n >= p >= 1, NumericalError when X has a
    non-finite entry or the SVD does not converge, and DegenerateProjectionError
    when X is numerically rank deficient (smallest singular value at most 1e-12
    times the largest): the nearest point is not unique there, and silently
    picking one would poison downstream stationarity numbers.
    """
    X = _check_tall(X, "project_stiefel")
    if not np.isfinite(X).all():
        # an inf entry gives NaN singular values, which would pass the rank test below
        raise NumericalError(f"cannot project a {X.shape[0]}x{X.shape[1]} matrix with non-finite entries")
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
    X = _check_tall(X, op)
    feas = feasibility(X)
    if not feas <= _FEAS_TOL:  # a NaN point fails too
        raise FeasibilityError(
            f"{op} needs a column-orthonormal point; ||X^T X - I||_F = {feas:.3e}"
        )
    return X


def tangent_project(X, D):
    """Orthogonal projection of D onto the tangent space at feasible X (DimensionError
    unless X is n x p with n >= p >= 1, FeasibilityError if ||X^T X - I||_F > 1e-8)."""
    X = _require_feasible(X, "tangent_project")
    D = np.asarray(D, dtype=float)
    return D - X @ sym(X.T @ D)


def riemannian_grad(obj, X):
    """Riemannian gradient grad f(X) = grad_euclidean f(X) - X sym(X^T grad f(X)); raises as tangent_project."""
    X = _require_feasible(X, "riemannian_grad")
    G = np.asarray(obj.gradient(X), dtype=float)
    return G - X @ sym(X.T @ G)


def in_certificate_region(feasibility, grad_h_norm, beta):
    """Whether ||X^T X - I||_F <= 1/6 and <= (4/beta) ||grad h(X)||_F + 1e-12, the
    region where the projected point's Riemannian gradient norm is at most
    2 ||grad h(X)||_F (tested as perfbench/checks.py tests it)."""
    return feasibility <= 1.0 / 6.0 and feasibility <= 4.0 / beta * grad_h_norm + 1e-12


@dataclass(frozen=True)
class StationarityReport:
    """Stationarity diagnostics for a penalty-model iterate.

    grad_h_norm and feasibility are measured at X itself;
    projected_riem_grad_norm is the Riemannian gradient norm of f at the
    projected point, computed directly. certified is in_certificate_region
    at X. Nothing is enforced.
    """

    grad_h_norm: float
    feasibility: float
    projected_riem_grad_norm: float
    certified: bool


def stationarity_report(model, X):
    """Measure grad-h norm, feasibility, and post-projection stationarity at X."""
    ev = model.at(X)  # one Gram matrix gives R = X^T X - I and grad h
    grad_h_norm, feas = fnorm(ev.grad()), fnorm(ev.R)
    projected = fnorm(riemannian_grad(model.objective, project_stiefel(ev.X)))
    certified = in_certificate_region(feas, grad_h_norm, model.beta)
    return StationarityReport(grad_h_norm, feas, projected, certified)


def postprocess(model, X):
    """Project X onto the manifold and report the penalty-model decrease.

    Returns (P, model.value(X) - model.value(P)). Near the manifold with
    beta large the decrease is nonnegative; for a constant objective it
    equals (beta/4) ||X^T X - I||_F^2 exactly.
    """
    P = project_stiefel(X)
    decrease = model.value(X) - model.value(P)
    return P, decrease

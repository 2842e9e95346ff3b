"""Checks of expen's results that share no code with expen.

Everything here is plain NumPy on the problem data. The nleig objective is
recomputed from the stencil L = tridiag(-1, 2, -1) and its Green's function
(the exact inverse, applied in O(n) by cumulative sums), never through
expen's banded Cholesky path. Each check returns a list of failure messages;
an empty list means the result passed.
"""

from __future__ import annotations

import numpy as np

# Rounding allowance for comparisons of quantities that are equal in exact
# arithmetic but computed along different routes.
_REL = 1e-9
_ABS = 1e-12


def stencil_apply(X):
    """L X for the n x n stencil with 2 on the diagonal and -1 off it."""
    Y = 2.0 * X
    Y[1:] -= X[:-1]
    Y[:-1] -= X[1:]
    return Y


def stencil_solve(r):
    """L^{-1} r from the Green's function (L^{-1})_ij = min(i,j)(n+1-max(i,j))/(n+1).

    Indices run from 1. Both sums have nonnegative terms when r >= 0, so the
    result carries no cancellation.
    """
    n = r.shape[0]
    k = np.arange(1, n + 1, dtype=float)
    below = np.cumsum(k * r)  # sum over j <= i of j r_j
    above = np.cumsum(((n + 1 - k) * r)[::-1])[::-1]  # sum over j >= i of (n+1-j) r_j
    above = np.append(above[1:], 0.0)  # strictly j > i
    return ((n + 1 - k) * below + k * above) / (n + 1)


def nleig_value(X, alpha):
    """f(X) = (1/2) tr(X^T L X) + (alpha/4) rho^T L^{-1} rho, rho = diag(X X^T)."""
    rho = np.sum(X * X, axis=1)
    return 0.5 * float(np.sum(X * stencil_apply(X))) + 0.25 * alpha * float(rho @ stencil_solve(rho))


def nleig_gradient(X, alpha):
    """The Hamiltonian (L + alpha diag(L^{-1} rho)) applied to X."""
    rho = np.sum(X * X, axis=1)
    return stencil_apply(X) + alpha * stencil_solve(rho)[:, None] * X


def nleig_lower_bound(n, p):
    """(1/2) times the sum of the p smallest stencil eigenvalues 2(1 - cos(k pi/(n+1))).

    The quartic term is nonnegative, so f is at least this on the manifold.
    """
    k = np.arange(1, p + 1, dtype=float)
    return 0.5 * float(np.sum(2.0 * (1.0 - np.cos(k * np.pi / (n + 1)))))


def feasibility(X):
    """||X^T X - I||_F."""
    return float(np.linalg.norm(X.T @ X - np.eye(X.shape[1])))


def riemannian_gradient(X, G):
    """G - X sym(X^T G): the Riemannian gradient at a column-orthonormal X."""
    XtG = X.T @ G
    return G - X @ (0.5 * (XtG + XtG.T))


def penalty_gradient(X, gradient, beta):
    """Gradient of h(X) = f(X A) + (beta/4)||X^T X - I||^2 with A = (3/2)I - (1/2)X^T X."""
    p = X.shape[1]
    S = X.T @ X
    A = 1.5 * np.eye(p) - 0.5 * S
    G = gradient(X @ A)
    XtG = X.T @ G
    return G @ A - X @ (0.5 * (XtG + XtG.T)) + beta * (X @ (S - np.eye(p)))


def _close(a, b, rel=_REL):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + _ABS


def nleig_failures(sol, alpha, tol):
    """Everything a solve of the nleig objective must satisfy.

    sol carries the raw iterate, the projected point, the reported fval, the
    penalty parameter, whether the solver says it met the stopping test, and
    the program's own StationarityReport of the raw iterate.
    """
    fails = []
    if not sol.stopped_at_tol:
        fails.append(f"stopping test not met: {sol.termination}")
    X = sol.raw_point
    n, p = X.shape
    gnorm = float(np.linalg.norm(penalty_gradient(X, lambda Y: nleig_gradient(Y, alpha), sol.beta)))
    if not gnorm <= tol * (1.0 + 1e-6):
        fails.append(f"||grad h||_F = {gnorm:.3e} at the raw iterate exceeds {tol:.1e}")
    feas = feasibility(X)
    if not feas <= 1.0 / 6.0:
        fails.append(f"raw feasibility {feas:.3e} is outside the region 1/6")
    if not feas <= (4.0 / sol.beta) * gnorm + _ABS:
        fails.append(f"raw feasibility {feas:.3e} exceeds (4/beta)||grad h|| = {(4.0 / sol.beta) * gnorm:.3e}")
    P = sol.point
    pfeas = feasibility(P)
    if not pfeas <= 1e-12:
        fails.append(f"projected feasibility {pfeas:.3e} exceeds 1e-12")
    rg = float(np.linalg.norm(riemannian_gradient(P, nleig_gradient(P, alpha))))
    if not rg <= 2.0 * gnorm + _ABS:
        fails.append(f"projected stationarity {rg:.3e} exceeds 2||grad h|| = {2.0 * gnorm:.3e}")
    f = nleig_value(P, alpha)
    if not _close(f, sol.fval):
        fails.append(f"reported fval {sol.fval!r} differs from recomputed {f!r}")
    bound = nleig_lower_bound(n, p)
    if not sol.fval >= bound * (1.0 - _REL):
        fails.append(f"fval {sol.fval!r} is below the lower bound {bound!r}")
    cert = sol.cert
    for name, ours, theirs in (
        ("grad_h_norm", gnorm, cert.grad_h_norm),
        ("feasibility", feas, cert.feasibility),
        ("projected_riem_grad_norm", rg, cert.projected_riem_grad_norm),
    ):
        if not _close(ours, theirs, rel=1e-6):
            fails.append(f"stationarity report {name} {theirs:.6e} differs from recomputed {ours:.6e}")
    return fails


def brockett_failures(B, C, X, expected_value, minimiser, got):
    """Everything a certified Brockett stationary point must satisfy.

    expected_value is the eigenvalue-assignment value of the point. got
    carries what the program measured there: the objective's value, expen's
    CheckReports, and lam_min and lam_scale, the least and the largest
    absolute eigenvalue of the assembled penalty Hessian.
    """
    fails = []
    direct = 0.5 * float(np.sum(X * (B @ X @ C)))
    for name, v in (("objective", got.value), ("direct trace", direct)):
        if not _close(v, expected_value, rel=1e-10):
            fails.append(f"{name} value {v!r} differs from the assignment value {expected_value!r}")
    rg = float(np.linalg.norm(riemannian_gradient(X, B @ X @ C)))
    if not rg <= 1e-10:
        fails.append(f"Riemannian gradient {rg:.3e} exceeds 1e-10")
    fails.extend(rep.line() for rep in got.reports if not rep.passed)
    floor = -1e-8 * got.lam_scale
    if minimiser and not got.lam_min >= floor:
        fails.append(f"least penalty Hessian eigenvalue {got.lam_min:.3e} < {floor:.1e} at the minimiser")
    if not minimiser and not got.lam_min < floor:
        fails.append(f"least penalty Hessian eigenvalue {got.lam_min:.3e} is not negative at the saddle")
    return fails

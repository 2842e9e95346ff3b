"""Independent numerical oracles for the closed-form derivatives and spectra.

Every check compares an analytic oracle against a route that does not share
its code: central finite differences for first and second derivatives, dense
eigensolves for spectral claims, and direct two-sided evaluation for the
algebraic identities. Checks accept injectable oracles so the test suite can
corrupt them and confirm the checks still have teeth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionError, NotStationaryError, NumericalError
from .geometry import _require_feasible, tangent_project
from .linalg import _check_int, _check_point, fnorm, inner, sym
from .model import ExPenModel, apen_map, jx_apply, smoothed_grad
from .problems import constant_make

__all__ = [
    "CheckReport",
    "fd_gradient_check",
    "fd_hessvec_check",
    "assemble_hessian",
    "tangent_basis",
    "spectrum_correspondence",
    "strict_saddle_check",
    "inner_identity_check",
    "selfadjoint_check",
]

_FD_SCALE = 1e-6


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification check."""

    name: str
    max_rel_error: float
    tolerance: float
    passed: bool
    samples: int

    def line(self):
        """One structured log line: name, error, tolerance, sample count, verdict."""
        status = "PASS" if self.passed else "FAIL"
        return (
            f"check={self.name} max_rel_error={self.max_rel_error:.3e} "
            f"tolerance={self.tolerance:.1e} samples={self.samples} status={status}"
        )


def _report(name, err, tolerance, samples):
    err = float(err)
    return CheckReport(
        name=name,
        max_rel_error=err,
        tolerance=float(tolerance),
        passed=bool(err <= tolerance),
        samples=int(samples),
    )


def _worst(errors):
    # np.max, unlike the max builtin, carries a NaN error through to the report
    return np.max(errors, initial=0.0)


def _sampler(samples, seed):
    _check_int(samples, 1, "samples")
    return np.random.default_rng(seed)


def _unit_directions(shape, rng, samples):
    return (W / fnorm(W) for W in (rng.standard_normal(shape) for _ in range(samples)))


def _fd_check(name, F, directional, X, samples, seed, tolerance):
    # the one central-difference rule: along each sampled unit direction W, (F(X + tW) - F(X - tW)) / 2t with
    # t = 1e-6 (1 + ||X||_F) against directional(W), error ||fd - an||_F / (1 + ||an||_F)
    rng, X = _sampler(samples, seed), np.ascontiguousarray(X, dtype=float)
    t = _FD_SCALE * (1.0 + fnorm(X))
    errors = []
    for W in _unit_directions(X.shape, rng, samples):
        fd = (np.asarray(F(X + t * W), dtype=float) - np.asarray(F(X - t * W), dtype=float)) / (2.0 * t)
        an = np.asarray(directional(X, W), dtype=float)
        errors.append(fnorm(fd - an) / (1.0 + fnorm(an)))
    return _report(name, _worst(errors), tolerance, samples)


def fd_gradient_check(value, gradient, X, samples=10, *, seed=0, tolerance=1e-5, name="fd_gradient"):
    """Compare a gradient oracle against central differences of the value oracle.

    Along each of `samples` random unit directions W, the directional
    derivative (value(X + tW) - value(X - tW)) / 2t with t = 1e-6 (1 + ||X||_F)
    is compared to <gradient(X), W>; the report carries the worst relative
    error. samples is an integer >= 1, else DimensionError, as in every sampled check.
    """
    G = np.asarray(gradient(np.ascontiguousarray(X, dtype=float)), dtype=float)
    return _fd_check(name, value, lambda X, W: inner(G, W), X, samples, seed, tolerance)


def fd_hessvec_check(gradient, hess_vec, X, samples=10, *, seed=0, tolerance=1e-4, name="fd_hessvec"):
    """Compare a Hessian-vector oracle against central differences of the gradient, samples >= 1."""
    return _fd_check(name, gradient, hess_vec, X, samples, seed, tolerance)


def assemble_hessian(model, X):
    """Materialize the penalty Hessian at X as a symmetric (np) x (np) matrix.

    Column j is the vectorized hess_vec applied to the j-th canonical basis
    matrix (row-major flattening), from one stacked hess_vec call per column
    c of X over its n directions e_i e_c^T. Guarded to np <= 2000; the raw
    assembly must already be symmetric to 1e-8 relative, and the symmetrized
    matrix is returned. DimensionError unless X has the model's shape (n, p).
    """
    X = _check_point(X, model.n, model.p)
    n, p = X.shape
    dim = n * p
    if dim > 2000:
        raise DimensionError(f"dense Hessian assembly capped at np <= 2000, got {dim}")
    H = np.empty((dim, dim))
    E = np.zeros((n, n, p))
    for c in range(p):
        E[:, :, c] = np.eye(n)
        H[:, c::p] = model.hess_vec(X, E).reshape(n, dim).T
        E[:, :, c] = 0.0
    asym = fnorm(H - H.T) / (1.0 + fnorm(H))
    if not asym <= 1e-8:  # a NaN asymmetry raises too
        raise NumericalError(f"assembled Hessian asymmetry {asym:.3e} is not <= 1e-8")
    return 0.5 * (H + H.T)


def tangent_basis(X):
    """Orthonormal tangent-space basis at feasible X, columns of an (np, dim) array.

    Closed form: the tangent space is {X Omega + X_perp K : Omega skew}, with
    X_perp the last n - p columns of a complete QR of X. In row-major vec the
    columns are kron(X, I_p) vec(e_i e_j^T - e_j e_i^T) / sqrt(2) for i < j,
    then kron(X_perp, I_p); dim = np - p(p+1)/2. Raises DimensionError unless
    X is n x p with n >= p >= 1, and FeasibilityError when ||X^T X - I||_F > 1e-8.
    """
    X = _require_feasible(X, "tangent_basis")
    n, p = X.shape
    X_perp = np.linalg.qr(X, mode="complete")[0][:, p:]
    i, j = np.triu_indices(p, k=1)
    cols = np.arange(i.size)
    skew = np.zeros((p * p, i.size))
    skew[i * p + j, cols] = np.sqrt(0.5)
    skew[j * p + i, cols] = -np.sqrt(0.5)
    eye = np.eye(p)
    return np.hstack([np.kron(X, eye) @ skew, np.kron(X_perp, eye)])


def spectrum_correspondence(model, obj, Xstar, *, tolerance=1e-6, name="spectrum"):
    """Check that the Riemannian Hessian spectrum embeds in the penalty Hessian's.

    At a feasible first-order stationary point, every eigenvalue of the
    Riemannian Hessian of f (assembled on an orthonormal tangent basis from
    the objective's own oracles) must appear among the eigenvalues of the
    penalty Hessian (assembled independently from the model oracle); the
    leftover p(p+1)/2 eigenvalues must exceed the largest tangent eigenvalue.
    Matching is greedy nearest-eigenvalue without replacement in ascending
    order, the lower eigenvalue winning a tie, relative tolerance 1e-6 per
    eigenvalue.

    The leftover ones are the normal spectrum: with Sg = sym(X^T grad f(X))
    and its eigenvalues mu, the penalty Hessian maps X S (S symmetric) to
    X (2 beta S - (3/2)(Sg S + S Sg)), whose eigenvalues are
    2 beta - (3/2)(mu_i + mu_j) for i <= j. The floor test therefore passes
    iff 2 beta - 3 max(mu) exceeds the largest tangent eigenvalue. Raises
    DimensionError unless Xstar has the objective's shape (n, p).
    """
    Xstar = _check_point(Xstar, obj.n, obj.p, "Xstar")
    n, p = Xstar.shape
    G = np.asarray(obj.gradient(Xstar), dtype=float)
    rg = fnorm(tangent_project(Xstar, G))
    if not rg <= 1e-8:
        raise NotStationaryError(f"||riemannian grad||_F = {rg:.3e} exceeds 1e-8 at Xstar")

    basis = tangent_basis(Xstar)
    Sg = sym(Xstar.T @ G)
    D = basis.T.reshape(-1, n, p)
    images = np.asarray(obj.hess_vec(Xstar, D), dtype=float) - D @ Sg
    riem = sym(basis.T @ images.reshape(len(D), n * p).T)
    lam_tangent = np.linalg.eigvalsh(riem)
    lam_penalty = np.linalg.eigvalsh(assemble_hessian(model, Xstar))

    taken = np.zeros(lam_penalty.size, dtype=bool)
    worst = 0.0
    for lam in lam_tangent.tolist():
        gaps = np.abs(lam_penalty - lam)
        gaps[taken] = np.inf
        j = np.argmin(gaps)
        taken[j] = True
        worst = max(worst, gaps[j] / (1.0 + abs(lam)))
    if not taken.all():
        top_tangent = float(np.max(lam_tangent))
        floor_gap = top_tangent - lam_penalty[~taken].min()
        if floor_gap > 0.0:
            worst = max(worst, floor_gap / (1.0 + abs(top_tangent)))
    return _report(name, worst, tolerance, len(lam_tangent))


def strict_saddle_check(beta, *, tolerance=1e-10, name="strict_saddle"):
    """Confirm the origin is a strict saddle of the penalty for a constant objective.

    X = 0 is an infeasible stationary point of h; there the penalty Hessian
    is exactly -beta times the identity, so its smallest eigenvalue -beta
    clears the -beta/24 escape threshold. Checked by dense eigensolve on
    3 x 2 matrices.
    """
    n, p = 3, 2
    model = ExPenModel(constant_make(n, p), beta)
    H = assemble_hessian(model, np.zeros((n, p)))
    lam_min = float(np.linalg.eigvalsh(H)[0])
    return _report(name, abs(lam_min + beta) / (1.0 + beta), tolerance, n * p)


def inner_identity_check(obj, X, samples=50, *, seed=0, tolerance=1e-10, smoothed_grad_fn=smoothed_grad, name="inner_identity"):
    """Two-sided evaluation of the penalty-free gradient identity.

    For any X, with R = X^T X - I and G the objective gradient at the mapped
    point: <X R, grad g(X)> = -(3/2) <R^2, sym(X^T G)>, where g is the
    penalty-free smoothed objective. Evaluated at X and at `samples` - 1
    random points of its shape (DimensionError unless X is the objective's
    n x p and samples >= 1). The identity is beta-free, so the check runs on
    the objective bundle directly; smoothed_grad_fn exists to inject a
    corrupted gradient for negative controls.
    """
    rng, X = _sampler(samples, seed), _check_point(X, obj.n, obj.p)
    points = [X]
    scale = max(1.0, fnorm(X))
    for _ in range(samples - 1):
        points.append(rng.standard_normal(X.shape) * (scale / np.sqrt(X.size)))
    errors = []
    for Xi in points:
        R = Xi.T @ Xi - np.eye(Xi.shape[1])
        G = np.asarray(obj.gradient(apen_map(Xi)), dtype=float)
        lhs = inner(Xi @ R, smoothed_grad_fn(obj, Xi))
        rhs = -1.5 * inner(R @ R, sym(Xi.T @ G))
        errors.append(abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)))
    return _report(name, _worst(errors), tolerance, len(points))


def selfadjoint_check(X, samples=50, *, seed=0, tolerance=1e-12, operator=jx_apply, name="selfadjoint"):
    """Check self-adjointness of the smoothing-map Jacobian at X.

    |<J(W), Z> - <W, J(Z)>| normalized by ||W|| ||Z|| (1 + ||X||^2) over
    `samples` >= 1 random pairs; operator is injectable for negative controls.
    """
    rng, X = _sampler(samples, seed), np.ascontiguousarray(X, dtype=float)
    scale = 1.0 + fnorm(X) ** 2
    errors = []
    for _ in range(samples):
        W = rng.standard_normal(X.shape)
        Z = rng.standard_normal(X.shape)
        err = abs(inner(operator(X, W), Z) - inner(W, operator(X, Z)))
        errors.append(err / (fnorm(W) * fnorm(Z) * scale))
    return _report(name, _worst(errors), tolerance, samples)

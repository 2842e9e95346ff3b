"""Shared helpers for the expen test suite."""

import itertools

import numpy as np
import scipy.linalg

import expen as ep


def stiefel(n, p, seed):
    """Deterministic random point with orthonormal columns."""
    return ep.random_stiefel(ep.RandomSpec(n=n, p=p, seed=seed))


def near_stiefel(n, p, seed, scale=None):
    """Random point inside the feasibility-1/6 region around the manifold.

    The perturbation has unit Frobenius norm before scaling, so `scale`
    bounds the distance to the manifold directly.
    """
    rng = np.random.default_rng(seed + 10_000)
    if scale is None:
        scale = rng.uniform(0.002, 0.05)
    base = stiefel(n, p, seed)
    direction = rng.standard_normal((n, p))
    point = base + scale * direction / ep.fnorm(direction)
    assert ep.feasibility(point) <= 1.0 / 6.0
    return point


def brockett_bruteforce_min(obj, n, p):
    """Smallest objective value over all signed p-column selections of I_n.

    For diagonal coefficient matrices the constrained minimizers are signed
    selection matrices, so the minimum over this finite family is the global
    constrained minimum.
    """
    best = np.inf
    for rows in itertools.permutations(range(n), p):
        for signs in itertools.product((-1.0, 1.0), repeat=p):
            X = np.zeros((n, p))
            for j, (i, s) in enumerate(zip(rows, signs)):
                X[i, j] = s
            best = min(best, obj.value(X))
    return best


def newton_polish(model, X, iters=6, tol=1e-12):
    """Full-space Newton refinement of a near-stationary penalty iterate.

    The line-search solvers stall near the rounding floor of the penalty
    value (around 1e-7 in gradient norm at moderate scales); a few Newton
    steps on the dense Hessian push the gradient norm to ~1e-14, which the
    spectrum checker's stationarity precondition requires.
    """
    for _ in range(iters):
        g = model.grad(X)
        if ep.fnorm(g) <= tol:
            break
        H = ep.assemble_hessian(model, X)
        X = X - np.linalg.solve(H, g.ravel()).reshape(X.shape)
    return X


class CountingClock:
    """Deterministic clock stub: returns 0.0, 1.0, 2.0, ... per call."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        value = float(self.calls)
        self.calls += 1
        return value


def same_bits(a, b):
    """True when a and b have the same shape, dtype and bit pattern."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_nleig(n, p, alpha):
    """nleig_make's value, gradient and hess_vec written straight through.

    Every call recomputes L X, rho and L^{-1} rho, and the solves go through
    scipy.linalg.solveh_banded on the stencil's upper banded storage. The
    memoised objective must reproduce these bits.
    """
    L = ep.laplacian_1d(n)
    ab = np.zeros((2, n))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    solve = lambda rhs: scipy.linalg.solveh_banded(ab, rhs)

    def value(X):
        quad = 0.5 * ep.inner(X, L.matvec(X))
        if alpha == 0.0:
            return quad
        rho = np.einsum("ij,ij->i", X, X)
        z = solve(rho)
        return quad + 0.25 * alpha * float(rho @ z)

    def gradient(X):
        g = L.matvec(X)
        if alpha != 0.0:
            rho = np.einsum("ij,ij->i", X, X)
            z = solve(rho)
            g = g + alpha * (z[:, None] * X)
        return g

    def hess_vec(X, D):
        H = L.matvec(D)
        if alpha != 0.0:
            rho = np.einsum("ij,ij->i", X, X)
            z = solve(rho)
            w = solve(2.0 * np.einsum("ij,ij->i", X, D))
            H = H + alpha * (z[:, None] * D) + alpha * (w[:, None] * X)
        return H

    return ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient, hess_vec=hess_vec)

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


def _nleig_parts(n, alpha):
    """The stencil L, and rho = diag(X X^T) with z = L^{-1} rho solved straight through.

    The solves go through scipy.linalg.solveh_banded on the stencil's upper
    banded storage, which rejects n = 1; the 1 x 1 system 2 z = rho is
    divided out.
    """
    L = ep.laplacian_1d(n)
    ab = np.zeros((2, n))
    ab[0, 1:] = -1.0
    ab[1, :] = 2.0
    solve = lambda rhs: rhs / 2.0 if n == 1 else scipy.linalg.solveh_banded(ab, rhs)

    def rho_z(X):
        rho = np.einsum("ij,ij->i", X, X)
        return rho, solve(rho)

    def hess_vec(X, D):
        _, z = rho_z(X)
        w = solve(2.0 * np.einsum("ij,ij->i", X, D))
        return L.matvec(D) + alpha * (z[:, None] * D) + alpha * (w[:, None] * X)

    return L, rho_z, hess_vec


def reference_nleig(n, p, alpha):
    """nleig_make's value, gradient and hess_vec written straight through.

    Every call recomputes rho, L^{-1} rho and the Hamiltonian
    H X = (L + alpha Diag(L^{-1} rho)) X, with the neighbour rows of the
    stencil taken from zero-padded shifted copies of X. The value is
    (1/2) <X, H X> - (alpha/4) rho^T L^{-1} rho. The memoised objective must
    reproduce these bits.
    """
    _, rho_z, hess_vec = _nleig_parts(n, alpha)

    def hamiltonian(X):
        rho, z = rho_z(X)
        below = np.vstack([X[1:], np.zeros((1, X.shape[1]))])
        above = np.vstack([np.zeros((1, X.shape[1])), X[:-1]])
        return rho, z, (2.0 + alpha * z)[:, None] * X - below - above

    def value(X):
        rho, z, HX = hamiltonian(X)
        return 0.5 * ep.inner(X, HX) - 0.25 * alpha * float(rho @ z)

    def gradient(X):
        return hamiltonian(X)[2]

    return ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient, hess_vec=hess_vec)


def expanded_nleig(n, p, alpha):
    """nleig's value and gradient in the form they were first written in.

    value = (1/2) <X, L X> + (alpha/4) rho^T L^{-1} rho and
    gradient = L X + alpha (L^{-1} rho) o X, with L X from the stencil
    matvec. These order the floating-point work differently from the
    Hamiltonian form, so they agree with nleig_make to rounding, and bit
    for bit at alpha = 0. hess_vec is the same as reference_nleig's.
    """
    L, rho_z, hess_vec = _nleig_parts(n, alpha)

    def value(X):
        rho, z = rho_z(X)
        return 0.5 * ep.inner(X, L.matvec(X)) + 0.25 * alpha * float(rho @ z)

    def gradient(X):
        _, z = rho_z(X)
        return L.matvec(X) + alpha * (z[:, None] * X)

    return ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient, hess_vec=hess_vec)

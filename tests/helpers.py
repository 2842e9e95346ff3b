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


def dense(T):
    """A TridiagMatrix as a dense n x n array."""
    M = np.diag(T.diag)
    idx = np.arange(T.n - 1)
    M[idx, idx + 1] = T.sub
    M[idx + 1, idx] = T.sub
    return M


def same_bits(a, b):
    """True when a and b have the same shape, dtype and bit pattern."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _nleig_parts(n, alpha):
    """The stencil L; rho = diag(X X^T) with z = L^{-1} rho; and, for one
    direction D, w = L^{-1} diag(X D^T + D X^T), all solved straight through.

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

    def w_of(X, D):
        return solve(2.0 * np.einsum("ij,ij->i", X, D))

    return L, rho_z, w_of


def reference_nleig(n, p, alpha):
    """nleig_make's value, gradient and hess_vec written straight through.

    Every call recomputes rho, L^{-1} rho and the Hamiltonian
    H = L + alpha Diag(L^{-1} rho), applied to M = X or M = D with the
    neighbour rows of the stencil taken from zero-padded shifted copies of M.
    The value is (1/2) <X, H X> - (alpha/4) rho^T L^{-1} rho and hess_vec is
    H D + alpha (w o X). nleig_make's oracles must reproduce these bits.
    """
    _, rho_z, w_of = _nleig_parts(n, alpha)

    def hamiltonian(z, M):
        below = np.vstack([M[1:], np.zeros((1, M.shape[1]))])
        above = np.vstack([np.zeros((1, M.shape[1])), M[:-1]])
        return (2.0 + alpha * z)[:, None] * M - below - above

    def value(X):
        rho, z = rho_z(X)
        return 0.5 * ep.inner(X, hamiltonian(z, X)) - 0.25 * alpha * float(rho @ z)

    def gradient(X):
        return hamiltonian(rho_z(X)[1], X)

    def hess_vec(X, D):
        return hamiltonian(rho_z(X)[1], D) + alpha * (w_of(X, D)[:, None] * X)

    return ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient, hess_vec=hess_vec)


def expanded_nleig(n, p, alpha):
    """nleig's value, gradient and hess_vec in the form they were first written in.

    value = (1/2) <X, L X> + (alpha/4) rho^T L^{-1} rho,
    gradient = L X + alpha (L^{-1} rho) o X and
    hess_vec = L D + alpha (L^{-1} rho) o D + alpha w o X, with L X and L D
    from the stencil matvec. These order the floating-point work differently
    from the Hamiltonian form, so they agree with nleig_make to rounding, and
    the value and gradient bit for bit at alpha = 0.
    """
    L, rho_z, w_of = _nleig_parts(n, alpha)

    def value(X):
        rho, z = rho_z(X)
        return 0.5 * ep.inner(X, L.matvec(X)) + 0.25 * alpha * float(rho @ z)

    def gradient(X):
        _, z = rho_z(X)
        return L.matvec(X) + alpha * (z[:, None] * X)

    def hess_vec(X, D):
        _, z = rho_z(X)
        return L.matvec(D) + alpha * (z[:, None] * D) + alpha * (w_of(X, D)[:, None] * X)

    return ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient, hess_vec=hess_vec)

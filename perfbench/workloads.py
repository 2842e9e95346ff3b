"""The benchmark's workloads: their instances, operations and checks.

A workload's setup builds a list of operations from the run's seed. Every
round of a run executes the same list, one operation at a time (a closed
loop with one client). Calls into expen go through module attributes
(`problems.nleig_make`, `cli.run_benchmark`, ...) so that the traced run can
wrap them from outside the package.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.optimize

import expen.cli as cli
import expen.geometry as geometry
import expen.model as model
import expen.problems as problems
import expen.verify as verify

import checks

ALPHA = 1.0
GRAD_TOL = 1e-3

# nleig-wide: FR-CG from random Stiefel starts at 250 x 50. Seed 5 is left
# out: it does not reach the tolerance within 20 000 iterations. An odd
# count keeps the median solve a single solve.
WIDE_N, WIDE_P = 250, 50
WIDE_SEEDS = (0, 1, 2, 3, 4, 6, 7, 8, 9)

# nleig-tall-lbfgs: SciPy's L-BFGS-B on h at 4000 x 3. Sixteen starts keep
# the round total steady although single solves move by up to 10 % when
# the starting point changes in its last bit.
TALL_N, TALL_P = 4000, 3
TALL_SEEDS = tuple(range(16))
TALL_MAX_ITERS = 10_000

# certify: Brockett instances drawn from the run's seed, two points each.
CERTIFY_N, CERTIFY_P = 60, 6
CERTIFY_INSTANCES = 2


@dataclass(frozen=True)
class Op:
    """One operation: run() does the timed work, check() lists what is wrong with its result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass(frozen=True)
class Solve:
    """A finished nleig solve, whichever solver produced it."""

    termination: str
    stopped_at_tol: bool
    iterations: int
    beta: float
    raw_point: np.ndarray
    point: np.ndarray
    fval: float
    cert: geometry.StationarityReport

    @property
    def key(self):
        return (self.iterations, self.fval)


@dataclass(frozen=True)
class Certified:
    """What the second-order verification of one stationary point measured."""

    value: float
    reports: tuple
    lam_min: float
    lam_scale: float

    @property
    def key(self):
        return (self.value, self.lam_min)


def start_point(n, p, seed, xi_seed):
    """random_stiefel(seed), each entry multiplied by 1 + 2e-16 xi for seeded normal xi.

    xi_seed None leaves the point as drawn. The factor changes entries in
    their last bit only, which is enough to move the iteration counts.
    """
    X0 = problems.random_stiefel(problems.RandomSpec(n, p, seed))
    if xi_seed is None:
        return X0
    xi = np.random.default_rng([xi_seed, seed]).standard_normal(X0.shape)
    return X0 * (1.0 + 2e-16 * xi)


@contextmanager
def _fixed_start(seed, X0):
    # run_benchmark draws its own start from RunSpec.seed; hand it ours.
    drawn = cli.random_stiefel

    def lookup(spec):
        if spec.seed != seed or (spec.n, spec.p) != X0.shape:
            raise KeyError(f"no start prepared for {spec}")
        return X0.copy()

    cli.random_stiefel = lookup
    try:
        yield
    finally:
        cli.random_stiefel = drawn


def _frcg_via_cli(obj, seed, X0):
    n, p = X0.shape
    spec = cli.RunSpec("nleig", n, p, alpha=ALPHA, seed=seed, repeats=1, grad_tol=GRAD_TOL)
    with _fixed_start(seed, X0):
        result = cli.run_benchmark(spec)
    rep, beta = result.reports[0], result.betas[0]
    return Solve(
        termination=rep.termination.value,
        stopped_at_tol=rep.termination.value == "GradTol",
        iterations=rep.iterations,
        beta=beta,
        raw_point=rep.raw_point,
        point=rep.final_point,
        fval=rep.fval,
        cert=geometry.stationarity_report(model.ExPenModel(obj, beta), rep.raw_point),
    )


def _lbfgs(obj, X0, beta):
    n, p = X0.shape
    h = model.ExPenModel(obj, beta)
    last = {"x": None, "gnorm": np.inf}

    def value_and_grad(x):
        X = x.reshape(n, p)
        g = h.grad(X)
        last["x"], last["gnorm"] = x.copy(), float(np.linalg.norm(g))
        return h.value(X), g.ravel()

    def converged(x):
        return last["gnorm"] <= GRAD_TOL and np.array_equal(x, last["x"])

    def stop(intermediate_result):
        if converged(intermediate_result.x):
            raise StopIteration

    # gtol and ftol 0: the only stopping test is ||grad h||_F <= GRAD_TOL
    res = scipy.optimize.minimize(
        value_and_grad,
        X0.ravel(),
        jac=True,
        method="L-BFGS-B",
        callback=stop,
        options={"maxiter": TALL_MAX_ITERS, "maxfun": 10 * TALL_MAX_ITERS, "gtol": 0.0, "ftol": 0.0},
    )
    X = res.x.reshape(n, p)
    P = geometry.project_stiefel(X)
    return Solve(
        termination=str(res.message),
        stopped_at_tol=converged(res.x),
        iterations=int(res.nit),
        beta=beta,
        raw_point=X,
        point=P,
        fval=float(obj.value(P)),
        cert=geometry.stationarity_report(h, X),
    )


_check_nleig = partial(checks.nleig_failures, alpha=ALPHA, tol=GRAD_TOL)


def nleig_wide(seed, perturb=True):
    obj = problems.nleig_make(WIDE_N, WIDE_P, ALPHA)
    xi_seed = seed if perturb else None
    return [
        Op(f"frcg seed {s}", partial(_frcg_via_cli, obj, s, start_point(WIDE_N, WIDE_P, s, xi_seed)), _check_nleig)
        for s in WIDE_SEEDS
    ]


def nleig_tall_lbfgs(seed, perturb=True):
    obj = problems.nleig_make(TALL_N, TALL_P, ALPHA)
    xi_seed = seed if perturb else None
    ops = []
    for s in TALL_SEEDS:
        X0 = start_point(TALL_N, TALL_P, s, xi_seed)
        ops.append(Op(f"lbfgs seed {s}", partial(_lbfgs, obj, X0, model.default_beta(obj, X0)), _check_nleig))
    return ops


def brockett_points(B, C):
    """The global minimiser and a strict saddle of (1/2) tr(X^T B X C), in closed form.

    X = U[:, pick] V^T is stationary for every injective pick of B's
    eigenvectors U against C's eigenvectors V, with value
    (1/2) sum_j lam[pick[j]] mu[j]. The pick solving the assignment problem
    on lam_i mu_j is the minimiser; the same eigenvectors in reversed order
    give a saddle. Returns [(X, value, is_minimiser), ...].
    """
    lam, U = np.linalg.eigh(B)
    mu, V = np.linalg.eigh(C)
    rows, cols = scipy.optimize.linear_sum_assignment(np.outer(lam, mu))
    pick = np.empty(len(mu), dtype=int)
    pick[cols] = rows
    return [
        (U[:, order] @ V.T, 0.5 * float(lam[order] @ mu), minimiser)
        for order, minimiser in ((pick, True), (pick[::-1], False))
    ]


def certify_beta(B, C):
    """Penalty parameter 2 ||B||_2 ||C||_2, which puts the normal-space
    eigenvalues of the penalty Hessian above every tangent eigenvalue."""
    return 2.0 * float(np.linalg.norm(B, 2) * np.linalg.norm(C, 2))


def _certify_point(obj, h, X):
    value = float(obj.value(X))
    reports = (
        verify.fd_gradient_check(h.value, h.grad, X),
        verify.fd_hessvec_check(h.grad, h.hess_vec, X),
        verify.spectrum_correspondence(h, obj, X),
    )
    lam = np.linalg.eigvalsh(verify.assemble_hessian(h, X))
    return Certified(value, reports, float(lam[0]), float(max(-lam[0], lam[-1])))


def certify_ops(B, C, label):
    """Operations certifying the closed-form minimiser and saddle of one instance."""
    obj = problems.brockett_make(B, C)
    h = model.ExPenModel(obj, certify_beta(B, C))
    ops = []
    for X, value, minimiser in brockett_points(B, C):
        kind = "minimiser" if minimiser else "saddle"
        ops.append(Op(
            f"{label} {kind}",
            partial(_certify_point, obj, h, X),
            partial(checks.brockett_failures, B, C, X, value, minimiser),
        ))
    return ops


def certify(seed, perturb=True):
    ops = []
    for i in range(CERTIFY_INSTANCES):
        B = problems.random_symmetric(CERTIFY_N, [seed, i, 1])
        C = problems.random_symmetric(CERTIFY_P, [seed, i, 2])
        ops.extend(certify_ops(B, C, f"instance {i}"))
    return ops


# name -> setup(seed, perturb); perturb only matters to the solve workloads
WORKLOADS = {
    "nleig-wide": nleig_wide,
    "nleig-tall-lbfgs": nleig_tall_lbfgs,
    "certify": certify,
}
SOLVE_WORKLOADS = ("nleig-wide", "nleig-tall-lbfgs")

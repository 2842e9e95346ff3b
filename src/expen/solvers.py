"""Unconstrained solvers for the penalty model.

A strong Wolfe line search drives two descent methods: nonlinear
conjugate gradient with the Fletcher-Reeves ratio, and plain gradient
descent as a baseline. Both terminate on the penalty-gradient norm and
report post-projection quantities, since the benchmark protocol projects
the final iterate onto the manifold before scoring it.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exceptions import DegenerateProjectionError, DimensionError, LineSearchError, NonDescentError, NumericalError
from .geometry import feasibility, project_stiefel, riemannian_grad
from .linalg import fnorm, inner

__all__ = [
    "SolverConfig",
    "IterTrace",
    "Termination",
    "SolverReport",
    "strong_wolfe",
    "frcg_solve",
    "gd_solve",
]

# The line search: _DELTA and _SIGMA are the sufficient-decrease and curvature
# constants of the strong Wolfe conditions (0 < _DELTA <= _SIGMA <= 1/2), and
# trial steps beyond _STEP_CAP or more than _MAX_ZOOM interval refinements
# mean the search failed.
_DELTA = 1e-4
_SIGMA = 0.4
_STEP_CAP = 1e10
_MAX_ZOOM = 60
_MAX_EXPANSIONS = 200

# Warm-start clamp for the first trial step of each iteration.
_TRIAL_MIN = 1e-12
_TRIAL_MAX = 1e6


@dataclass(frozen=True)
class SolverConfig:
    """Termination parameters.

    The solvers stop once ||grad h||_F <= grad_tol or after max_iters
    iterations, and keep one IterTrace row per iteration when trace_enabled.
    """

    grad_tol: float = 1e-3
    max_iters: int = 10000
    trace_enabled: bool = False

    def __post_init__(self):
        if not (self.grad_tol >= 0.0):
            raise DimensionError(f"grad_tol must be nonnegative, got {self.grad_tol}")
        if self.grad_tol == math.inf:
            raise DimensionError(f"grad_tol must be finite, got {self.grad_tol}")
        if not (self.max_iters >= 1):
            raise DimensionError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class IterTrace:
    """One recorded iterate X_k, holding the columns of the CLI trace CSV.

    h_val is h(X_k), grad_h_norm ||grad h(X_k)||_F, feas ||X_k^T X_k - I||_F
    and f_val f(X_k). The last row carries the final iterate.
    """

    k: int
    h_val: float
    grad_h_norm: float
    feas: float
    f_val: float


class Termination(enum.Enum):
    GRAD_TOL = "GradTol"
    MAX_ITERS = "MaxIters"
    LINE_SEARCH_FAILURE = "LineSearchFailure"
    NON_FINITE = "NonFinite"
    RANK_DEFICIENT = "RankDeficient"


@dataclass(frozen=True, eq=False)
class SolverReport:
    """Outcome of a solver run.

    final_point, fval, stationarity, and feasibility describe the iterate
    after projection onto the manifold; raw_point and the raw_* fields keep
    the last iterate as the loop left it, so certified-bound checks can see
    both sides. termination_detail keeps the class and text of the line
    search error behind a LineSearchFailure. A run at whose iterate h or
    ||grad h|| is not finite ends NonFinite. A run whose last iterate is too
    close to rank deficient to project ends RankDeficient, with final_point
    None and NaN fval, stationarity and feasibility; a last iterate with a
    non-finite entry keeps the loop's stop and gets the same fields. Either
    way termination_detail names the loop's own stop and the projection
    error. termination_detail is "" after every other stop.

    certified is True only for a GradTol stop at a raw iterate inside the
    region where the stationarity certificate holds: raw_feasibility at most
    1/6 and at most (4/beta) raw_grad_h_norm. Outside it a small grad h says
    nothing about the projected point. value_calls and grad_calls count the
    points at which the loop asked for h and for grad h, the start included.
    """

    final_point: Optional[np.ndarray]
    fval: float
    iterations: int
    stationarity: float
    feasibility: float
    wall_seconds: float
    termination: Termination
    raw_point: np.ndarray
    raw_grad_h_norm: float
    raw_feasibility: float
    certified: bool
    value_calls: int
    grad_calls: int
    trace: Optional[tuple] = None
    termination_detail: str = ""


def strong_wolfe(phi, dphi, initial_step=1.0):
    """Find a step satisfying the strong Wolfe conditions for phi.

    Conditions at the returned eta, with delta = 1e-4 and sigma = 0.4:
        phi(eta) <= phi(0) + delta * eta * dphi(0)
        |dphi(eta)| <= -sigma * dphi(0)

    Bracketing starts from initial_step and doubles; an interval
    containing acceptable points is then refined by bisection. Raises
    DimensionError when initial_step is not positive, NonDescentError when
    dphi(0) >= 0, LineSearchError when the trial step exceeds 1e10 or
    refinement exhausts its budget. A trial whose phi is NaN fails the
    sufficient-decrease condition.

    Call order, which callers may rely on: after dphi(0) and phi(0), each
    dphi(t) comes right after phi(t) at the same t, and the returned eta is
    the last t passed to both. A caller can therefore keep only the latest
    trial and read the accepted point from it.
    """
    if not (initial_step > 0.0):
        raise DimensionError(f"initial_step must be positive, got {initial_step}")
    d0 = dphi(0.0)
    if d0 >= 0.0:
        raise NonDescentError(f"directional derivative at 0 is {d0:.3e}, not a descent direction")
    f0 = phi(0.0)

    def zoom(lo, hi, flo):
        for _ in range(_MAX_ZOOM):
            t = 0.5 * (lo + hi)
            ft = phi(t)
            if not ft <= f0 + _DELTA * t * d0 or ft >= flo:
                hi = t
            else:
                dt = dphi(t)
                if abs(dt) <= -_SIGMA * d0:
                    return t
                if dt * (hi - lo) >= 0.0:
                    hi = lo
                lo, flo = t, ft
        raise LineSearchError(f"zoom exhausted after {_MAX_ZOOM} refinements")

    t_prev, f_prev = 0.0, f0
    t = initial_step
    for expansion in range(_MAX_EXPANSIONS):
        if t > _STEP_CAP:
            raise LineSearchError(f"trial step {t:.3e} exceeded cap {_STEP_CAP:.0e}")
        ft = phi(t)
        if not ft <= f0 + _DELTA * t * d0 or (expansion > 0 and ft >= f_prev):
            return zoom(t_prev, t, f_prev)
        dt = dphi(t)
        if abs(dt) <= -_SIGMA * d0:
            return t
        if dt >= 0.0:
            return zoom(t, t_prev, ft)
        t_prev, f_prev = t, ft
        t *= 2.0
    raise LineSearchError(f"bracketing exhausted after {_MAX_EXPANSIONS} expansions")


def _descent_loop(model, X0, config, use_cg, clock):
    X = np.array(X0, dtype=float, copy=True)
    obj = model.objective

    start = clock()
    ev = model.at(X)  # checks the shape of X0
    h = ev.value()
    g = ev.grad()
    value_calls = grad_calls = 1
    gnorm = fnorm(g)
    D = -g

    trace = [] if config.trace_enabled else None

    def record():
        trace.append(IterTrace(k=k, h_val=h, grad_h_norm=gnorm, feas=feasibility(X), f_val=float(obj.value(X))))

    # the evaluation at X + t*D, h and grad h for the latest line-search trial;
    # by strong_wolfe's call order it is the accepted point once it returns
    last = None

    def phi(t):
        nonlocal last, value_calls
        if t == 0.0:
            return h
        Xt = t * D
        Xt += X
        ev = model.at(Xt)
        last = [ev, ev.value(), None]
        value_calls += 1
        return last[1]

    def dphi(t):
        nonlocal grad_calls
        if t == 0.0:
            return d0
        last[2] = last[0].grad()
        grad_calls += 1
        return inner(last[2], D)

    eta_prev = None
    gD_prev = None
    detail = ""
    k = 0

    while True:
        if not (math.isfinite(h) and math.isfinite(gnorm)):
            termination = Termination.NON_FINITE
            break
        if gnorm <= config.grad_tol:
            termination = Termination.GRAD_TOL
            break
        if k >= config.max_iters:
            termination = Termination.MAX_ITERS
            break

        # d0 is dphi(0); after a restart gD = -||g||^2 differs from it in
        # the last bits, so it is recomputed there
        gD = d0 = inner(g, D)
        # restart guard: the theory needs strict descent, which the FR update
        # can lose; reset to steepest descent when it does
        if gD >= -1e-12 * gnorm * fnorm(D):
            D = -g
            gD = -(gnorm * gnorm)
            d0 = inner(g, D)

        if eta_prev is None:
            trial = 1.0
        else:
            trial = eta_prev * gD_prev / gD
            trial = min(max(trial, _TRIAL_MIN), _TRIAL_MAX)

        try:
            eta = strong_wolfe(phi, dphi, initial_step=trial)
        except LineSearchError as exc:
            termination = Termination.LINE_SEARCH_FAILURE
            detail = f"{type(exc).__name__}: {exc}"
            break

        if trace is not None:
            record()

        ev, h, g_next = last
        X = ev.X
        gnorm_next = fnorm(g_next)

        if use_cg:
            tau = (gnorm_next * gnorm_next) / (gnorm * gnorm)
            D *= tau
            D -= g_next
        else:
            D = -g_next
        eta_prev, gD_prev = eta, gD
        g, gnorm = g_next, gnorm_next
        k += 1

    if trace is not None:
        record()

    wall = clock() - start
    try:
        P = project_stiefel(X)
    except (DegenerateProjectionError, NumericalError) as exc:
        stop = f"{termination.value} ({detail})" if detail else termination.value
        detail = f"{stop}, then {type(exc).__name__}: {exc}"
        if isinstance(exc, DegenerateProjectionError):
            termination = Termination.RANK_DEFICIENT
        P, fval, stationarity, feas = None, math.nan, math.nan, math.nan
    else:
        fval, stationarity, feas = float(obj.value(P)), fnorm(riemannian_grad(obj, P)), feasibility(P)
    raw_feas = feasibility(X)
    # the region of the stationarity certificate, tested as perfbench/checks.py tests it
    certified = (
        termination is Termination.GRAD_TOL and raw_feas <= 1.0 / 6.0 and raw_feas <= 4.0 / model.beta * gnorm + 1e-12
    )
    return SolverReport(
        final_point=P,
        fval=fval,
        iterations=k,
        stationarity=stationarity,
        feasibility=feas,
        wall_seconds=wall,
        termination=termination,
        raw_point=X,
        raw_grad_h_norm=gnorm,
        raw_feasibility=raw_feas,
        certified=certified,
        value_calls=value_calls,
        grad_calls=grad_calls,
        trace=tuple(trace) if trace is not None else None,
        termination_detail=detail,
    )


def frcg_solve(model, X0, config, *, clock=time.perf_counter):
    """Nonlinear conjugate gradient on the penalty model.

    Directions follow D_{k+1} = -grad h(X_{k+1}) + tau_k D_k with the
    Fletcher-Reeves ratio tau_k = ||grad h(X_{k+1})||^2 / ||grad h(X_k)||^2,
    restarted to steepest descent whenever descent degrades. Steps satisfy
    the strong Wolfe conditions. Line-search failure is a terminal status
    carrying the last iterate, not an exception.

    The clock parameter exists so callers can inject a deterministic timer;
    wall_seconds covers the iteration loop only.
    """
    return _descent_loop(model, X0, config, use_cg=True, clock=clock)


def gd_solve(model, X0, config, *, clock=time.perf_counter):
    """Steepest descent baseline with the same line search and reporting."""
    return _descent_loop(model, X0, config, use_cg=False, clock=clock)

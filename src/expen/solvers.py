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
from functools import cached_property, partial
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .exceptions import DegenerateProjectionError, DimensionError, LineSearchError, NonDescentError, NumericalError
from .geometry import feasibility, in_certificate_region, project_stiefel, tangent_project
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
    grad_tol must be nonnegative and finite, max_iters at least 1.
    """

    grad_tol: float = 1e-3
    max_iters: int = 10000
    trace_enabled: bool = False

    def __post_init__(self):
        if not (0.0 <= self.grad_tol < math.inf):
            raise DimensionError(f"grad_tol must be nonnegative and finite, got {self.grad_tol}")
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
    both sides. wall_seconds is the clock time from the evaluation at X0 to
    the loop's stop; the final projection and the scoring fall outside it.
    termination_detail keeps the class and text of the line search error
    behind a LineSearchFailure. A run at whose iterate h or ||grad h|| is
    not finite ends NonFinite. A run whose last iterate is too close to rank
    deficient to project ends RankDeficient, with final_point None and NaN
    fval, stationarity and feasibility; a last iterate with a non-finite
    entry keeps the loop's stop and gets the same fields. Either way
    termination_detail names the loop's own stop and the projection error.
    termination_detail is "" after every other stop.

    certified is True only for a GradTol stop at a raw iterate inside the
    certificate region (in_certificate_region): raw_feasibility at most 1/6
    and at most (4/beta) raw_grad_h_norm. Outside it a small grad h says
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


def strong_wolfe(f0, d0, line, initial_step=1.0):
    """Find a trial along a line that satisfies the strong Wolfe conditions.

    f0 and d0 are h and its slope at the start of the line; line(t) returns
    the trial at step t > 0, which holds t and h there and whose slope() is
    the slope of h at t, asked at most once. Conditions at the returned
    trial, with delta = 1e-4 and sigma = 0.4:
        h <= f0 + delta * t * d0
        |slope()| <= -sigma * d0

    Bracketing starts from initial_step and doubles; an interval
    containing acceptable points is then refined by bisection. An interval
    too short to split returns the trial at its lower end, if that lies
    beyond the start and below f0. Raises DimensionError when initial_step
    is not positive, NonDescentError unless d0 < 0, LineSearchError when the
    trial step exceeds 1e10, bracketing exhausts 200 expansions, the
    interval collapses otherwise, or refinement exhausts its budget. A trial
    whose h is NaN fails the sufficient-decrease condition.
    """
    if not (initial_step > 0.0):
        raise DimensionError(f"initial_step must be positive, got {initial_step}")
    if not d0 < 0.0:
        raise NonDescentError(f"directional derivative at 0 is {d0:.3e}, not a descent direction")

    def zoom(lo, hi):
        # lo is the trial (or the start) with the least h so far, hi the other end
        for refinement in range(_MAX_ZOOM):
            t = 0.5 * (lo.t + hi)
            if t == lo.t or t == hi:
                if lo.t > 0.0 and lo.h < f0:
                    return lo
                raise LineSearchError(f"zoom interval collapsed at step {t:.3e} after {refinement} refinements")
            trial = line(t)
            if not trial.h <= f0 + _DELTA * t * d0 or trial.h >= lo.h:
                hi = t
            else:
                dt = trial.slope()
                if abs(dt) <= -_SIGMA * d0:
                    return trial
                if dt * (hi - lo.t) >= 0.0:
                    hi = lo.t
                lo = trial
        raise LineSearchError(f"zoom exhausted after {_MAX_ZOOM} refinements")

    prev = SimpleNamespace(t=0.0, h=f0)  # the start of the line
    t = initial_step
    for expansion in range(_MAX_EXPANSIONS):
        if t > _STEP_CAP:
            raise LineSearchError(f"trial step {t:.3e} exceeded cap {_STEP_CAP:.0e}")
        trial = line(t)
        if not trial.h <= f0 + _DELTA * t * d0 or (expansion > 0 and trial.h >= prev.h):
            return zoom(prev, t)
        dt = trial.slope()
        if abs(dt) <= -_SIGMA * d0:
            return trial
        if dt >= 0.0:
            return zoom(trial, prev.t)
        prev = trial
        t *= 2.0
    raise LineSearchError(f"bracketing exhausted after {_MAX_EXPANSIONS} expansions")


class _Trial:
    """The line-search trial at X + tD: the step t, its Evaluation ev and h there.

    grad h is formed on first request; calls counts the h and grad h formed.
    """

    def __init__(self, calls, model, X, D, t):
        Xt = t * D
        Xt += X
        self.t, self.D, self.calls, self.ev = t, D, calls, model.at(Xt)
        self.h = self.ev.value()
        calls[0] += 1

    @cached_property
    def grad(self):
        self.calls[1] += 1
        return self.ev.grad()

    def slope(self):
        return inner(self.grad, self.D)


def _fletcher_reeves(D, g_next, gnorm, gnorm_next):
    D *= (gnorm_next * gnorm_next) / (gnorm * gnorm)
    D -= g_next
    return D


def _steepest(D, g_next, gnorm, gnorm_next):
    return -g_next


def _descent_loop(model, X0, config, direction, clock):
    """Line-search descent on h; direction(D, g_next, ||g||, ||g_next||) gives the next D.

    A direction that is not a strict descent direction, or along which the
    search fails, is replaced once by -grad h; a failure along -grad h ends
    the run LineSearchFailure.
    """
    obj = model.objective

    start = clock()
    ev = model.at(np.array(X0, dtype=float, copy=True))  # checks the shape of X0
    h = ev.value()
    g = ev.grad()
    calls = [1, 1]  # h and grad h formed, the start included
    gnorm = fnorm(g)
    D = -g

    trace = [] if config.trace_enabled else None

    def record():
        trace.append(IterTrace(k=k, h_val=h, grad_h_norm=gnorm, feas=fnorm(ev.R), f_val=float(obj.value(ev.X))))

    eta_prev = None
    d0_prev = None
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

        d0 = inner(g, D)
        try:
            if not d0 < -1e-12 * gnorm * fnorm(D):
                raise NonDescentError(f"slope {d0:.3e} along the direction is not strict descent")
            initial = 1.0 if eta_prev is None else min(max(eta_prev * d0_prev / d0, _TRIAL_MIN), _TRIAL_MAX)
            accepted = strong_wolfe(h, d0, partial(_Trial, calls, model, ev.X, D), initial_step=initial)
        except LineSearchError as exc:
            if not np.array_equal(D, -g):  # fall back once to -grad h
                D = -g
                continue
            termination = Termination.LINE_SEARCH_FAILURE
            detail = f"{type(exc).__name__}: {exc}"
            break

        if trace is not None:
            record()

        ev, h, g_next = accepted.ev, accepted.h, accepted.grad
        gnorm_next = fnorm(g_next)
        D = direction(D, g_next, gnorm, gnorm_next)
        eta_prev, d0_prev = accepted.t, d0
        g, gnorm = g_next, gnorm_next
        k += 1

    if trace is not None:
        record()

    wall = clock() - start
    try:
        P = project_stiefel(ev.X)
    except (DegenerateProjectionError, NumericalError) as exc:
        stop = f"{termination.value} ({detail})" if detail else termination.value
        detail = f"{stop}, then {type(exc).__name__}: {exc}"
        if isinstance(exc, DegenerateProjectionError):
            termination = Termination.RANK_DEFICIENT
        P, fval, stationarity, feas = None, math.nan, math.nan, math.nan
    else:
        fG = (obj.value(P), obj.gradient(P)) if obj.value_and_grad is None else obj.value_and_grad(P)
        fval, stationarity, feas = float(fG[0]), fnorm(tangent_project(P, fG[1])), feasibility(P)
    raw_feas = fnorm(ev.R)
    certified = termination is Termination.GRAD_TOL and in_certificate_region(raw_feas, gnorm, model.beta)
    return SolverReport(
        final_point=P,
        fval=fval,
        iterations=k,
        stationarity=stationarity,
        feasibility=feas,
        wall_seconds=wall,
        termination=termination,
        raw_point=ev.X,
        raw_grad_h_norm=gnorm,
        raw_feasibility=raw_feas,
        certified=certified,
        value_calls=calls[0],
        grad_calls=calls[1],
        trace=tuple(trace) if trace is not None else None,
        termination_detail=detail,
    )


def frcg_solve(model, X0, config, *, clock=time.perf_counter):
    """Nonlinear conjugate gradient on the penalty model.

    Directions follow D_{k+1} = -grad h(X_{k+1}) + tau_k D_k with the
    Fletcher-Reeves ratio tau_k = ||grad h(X_{k+1})||^2 / ||grad h(X_k)||^2.
    Steps satisfy the strong Wolfe conditions. A direction that is not a
    strict descent direction, or along which the search fails, is replaced
    once by -grad h; a failure there is a terminal status carrying the last
    iterate, not an exception.

    The clock parameter exists so callers can inject a deterministic timer;
    wall_seconds covers the iteration loop only.
    """
    return _descent_loop(model, X0, config, _fletcher_reeves, clock)


def gd_solve(model, X0, config, *, clock=time.perf_counter):
    """Steepest descent baseline with the same line search and reporting."""
    return _descent_loop(model, X0, config, _steepest, clock)

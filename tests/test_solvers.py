"""Tests for the strong Wolfe search and the descent solvers."""

import dataclasses
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expen as ep
import expen.solvers
from expen.exceptions import DimensionError, LineSearchError, NonDescentError
from expen.solvers import _DELTA, _SIGMA

from helpers import CountingClock, near_stiefel, stiefel


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = ep.SolverConfig()
        assert (cfg.grad_tol, cfg.max_iters, cfg.trace_enabled) == (1e-3, 10000, False)
        assert 0.0 < _DELTA <= _SIGMA <= 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grad_tol": float("nan")},
            {"grad_tol": float("-inf")},
            {"max_iters": -1},
            {"grad_tol": -1.0},
            {"max_iters": 0},
            {"grad_tol": float("inf")},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(DimensionError):
            ep.SolverConfig(**kwargs)


class _Point:
    """A trial of strong_wolfe on the scalar line phi, whose slope is dphi."""

    def __init__(self, phi, dphi, t):
        self.t, self.h, self.dphi = t, phi(t), dphi

    def slope(self):
        return self.dphi(self.t)


def _search(phi, dphi, initial_step=1.0):
    """The trial strong_wolfe accepts along phi from t = 0."""
    return ep.strong_wolfe(phi(0.0), dphi(0.0), partial(_Point, phi, dphi), initial_step=initial_step)


class TestStrongWolfe:
    def test_analytic_minimizer_of_shifted_quadratic(self):
        assert _search(lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0)).t == 1.0

    def test_first_accept_returns_initial_trial(self):
        trial = _search(lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0), initial_step=0.95)
        assert trial.t == 0.95

    @pytest.mark.parametrize("initial_step", [0.0, -1.0, float("nan")])
    def test_nonpositive_initial_step_rejected(self, initial_step):
        with pytest.raises(DimensionError):
            _search(lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0), initial_step=initial_step)

    def test_non_descent_raises(self):
        with pytest.raises(NonDescentError):
            _search(lambda t: t * t + t, lambda t: 2.0 * t + 1.0)

    def test_unbounded_descent_fails(self):
        with pytest.raises(LineSearchError):
            _search(lambda t: -t, lambda t: -1.0)

    def test_nan_slope_is_not_descent(self):
        trials = []

        def phi(t):
            trials.append(t)
            return -t

        with pytest.raises(NonDescentError):
            _search(phi, lambda t: float("nan"))
        assert trials == [0.0]  # the start only: no trial along the line

    def test_bracketing_exhausts_its_expansions(self):
        # slope -1 everywhere: from 1e-60, 200 doublings end at a step of
        # about 1.6, far below the step cap
        with pytest.raises(LineSearchError, match="bracketing exhausted after 200 expansions"):
            _search(lambda t: -t, lambda t: -1.0, initial_step=1e-60)

    def test_nan_trial_fails_sufficient_decrease(self):
        # dphi = 0 meets the curvature condition at every t > 0, so only the
        # sufficient-decrease test can turn the NaN trials away
        def phi(t):
            return 0.0 if t == 0.0 else float("nan")

        with pytest.raises(LineSearchError, match="zoom exhausted"):
            _search(phi, lambda t: -1.0 if t == 0.0 else 0.0)

    @pytest.mark.parametrize("minimizer", [0.01, 0.5, 3.0, 40.0])
    @pytest.mark.parametrize("curvature", [0.2, 1.0, 12.0])
    def test_conditions_hold_at_returned_step(self, minimizer, curvature):
        phi = lambda t: curvature * (t - minimizer) ** 2
        dphi = lambda t: 2.0 * curvature * (t - minimizer)
        eta = _search(phi, dphi).t
        f0, d0 = phi(0.0), dphi(0.0)
        assert phi(eta) <= f0 + _DELTA * eta * d0 + 1e-15 * abs(f0)
        assert abs(dphi(eta)) <= -_SIGMA * d0

    def test_conditions_hold_on_nonquadratic(self):
        phi = lambda t: np.cosh(t - 2.0)
        dphi = lambda t: np.sinh(t - 2.0)
        eta = _search(phi, dphi, initial_step=0.1).t
        assert phi(eta) <= phi(0.0) + _DELTA * eta * dphi(0.0)
        assert abs(dphi(eta)) <= -_SIGMA * dphi(0.0)

    @pytest.mark.parametrize(
        "phi, dphi, initial_step, path",
        [
            (lambda t: (t - 1.0) ** 2, lambda t: 2.0 * (t - 1.0), 1.0, "first"),
            (lambda t: (t - 0.95) ** 2, lambda t: 2.0 * (t - 0.95), 0.95, "first"),
            (lambda t: (t - 3.0) ** 2, lambda t: 2.0 * (t - 3.0), 1.0, "bracket"),
            (lambda t: (t - 40.0) ** 2, lambda t: 2.0 * (t - 40.0), 1.0, "bracket"),
            (lambda t: (t - 0.01) ** 2, lambda t: 2.0 * (t - 0.01), 1.0, "zoom"),
            (lambda t: (t - 0.3) ** 2, lambda t: 2.0 * (t - 0.3), 1.0, "zoom"),
            (lambda t: (t - 2.0) ** 2, lambda t: 2.0 * (t - 2.0), 3.9, "zoom"),
            (lambda t: np.cosh(t - 2.0), lambda t: np.sinh(t - 2.0), 3.9, "zoom"),
        ],
        ids=["first", "first-warm", "bracket", "bracket-long", "zoom-near",
             "zoom-flip", "zoom-overshoot", "zoom-cosh"],
    )
    def test_call_order_ends_on_accepted_step(self, phi, dphi, initial_step, path):
        # The steps the search tries follow its path (the initial step, its
        # doublings, then bisections), each slope is asked at most once, and
        # the search stops on the trial it returns.
        made, asked = [], []

        class Logged(_Point):
            def __init__(self, t):
                super().__init__(phi, dphi, t)
                made.append(self)

            def slope(self):
                asked.append(self)
                return super().slope()

        accepted = ep.strong_wolfe(phi(0.0), dphi(0.0), Logged, initial_step=initial_step)
        assert made[-1] is accepted and asked[-1] is accepted
        assert len(set(map(id, asked))) == len(asked)
        steps = [trial.t for trial in made]
        doublings = [initial_step * 2.0**j for j in range(len(steps))]
        if path == "first":
            assert steps == [initial_step]
        elif path == "bracket":
            assert len(steps) > 1 and steps == doublings
        else:
            assert accepted.t not in doublings

    def test_collapsed_interval_returns_its_lower_trial(self):
        # h levels off at t = 0.5, as it does once its decrease falls below
        # rounding, while the slope still reads descent: bisection shrinks
        # [0.5, 1] until it cannot split it, then returns the trial at 0.5
        made = []

        def line(t):
            made.append(_Point(lambda s: max(1.0 - s, 0.5), lambda s: -1.0, t))
            return made[-1]

        accepted = ep.strong_wolfe(1.0, -1.0, line, initial_step=0.5)
        assert accepted is made[0] and (accepted.t, accepted.h) == (0.5, 0.5)
        assert [trial.t for trial in made[:3]] == [0.5, 1.0, 0.75]
        assert len(made) < 2 + 60

    def test_interval_whose_lower_end_stays_at_the_start_still_fails(self):
        # every trial lies above h(0), so the lower end never leaves t = 0
        made = []

        def line(t):
            made.append(_Point(lambda s: 1.0 + s, lambda s: 1.0, t))
            return made[-1]

        with pytest.raises(LineSearchError, match="zoom exhausted after 60 refinements"):
            ep.strong_wolfe(1.0, -1.0, line)
        assert len(made) == 1 + 60


def _penalized_nleig(n, p, beta, alpha=1.0):
    obj = ep.nleig_make(n, p, alpha=alpha)
    return ep.ExPenModel(objective=obj, beta=beta)


@pytest.mark.parametrize("solve", [ep.frcg_solve, ep.gd_solve])
@pytest.mark.parametrize("trace_enabled", [False, True])
def test_one_oracle_call_per_trial(monkeypatch, solve, trace_enabled):
    # h and grad h are asked for once at X0 and once per line-search trial;
    # the accepted point is never evaluated again.
    counts = {"value": 0, "grad": 0, "trials": 0, "slopes": 0}

    def counting(name, oracle):
        def counted(evaluation):
            counts[name] += 1
            return oracle(evaluation)

        return counted

    monkeypatch.setattr(ep.Evaluation, "value", counting("value", ep.Evaluation.value))
    monkeypatch.setattr(ep.Evaluation, "grad", counting("grad", ep.Evaluation.grad))
    real_wolfe = expen.solvers.strong_wolfe

    def counting_wolfe(f0, d0, line, **kwargs):
        def counted_line(t):
            counts["trials"] += 1
            trial = line(t)
            slope = trial.slope

            def counted_slope():
                counts["slopes"] += 1
                return slope()

            trial.slope = counted_slope
            return trial

        return real_wolfe(f0, d0, counted_line, **kwargs)

    monkeypatch.setattr(expen.solvers, "strong_wolfe", counting_wolfe)
    model = _penalized_nleig(12, 3, beta=25.0)
    cfg = ep.SolverConfig(grad_tol=1e-6, max_iters=60, trace_enabled=trace_enabled)
    report = solve(model, stiefel(12, 3, seed=15), cfg)
    assert report.iterations > 10
    assert counts["trials"] > report.iterations
    assert counts["value"] == 1 + counts["trials"]
    assert counts["grad"] == 1 + counts["slopes"]
    assert (report.value_calls, report.grad_calls) == (counts["value"], counts["grad"])


def _turning_nan(n, p, first_nan_call, nan_grad=False):
    """||X||^2 whose value is NaN from the given call on, or whose gradient is NaN."""
    calls = [0]

    def value(X):
        calls[0] += 1
        return float("nan") if calls[0] >= first_nan_call else float(np.vdot(X, X))

    def gradient(X):
        return np.full_like(X, np.nan) if nan_grad else 2.0 * X

    return ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient)


@pytest.mark.parametrize("solve", [ep.frcg_solve, ep.gd_solve])
@pytest.mark.parametrize(
    "first_nan_call, nan_grad, termination",
    [
        (1, False, ep.Termination.NON_FINITE),
        (10**9, True, ep.Termination.NON_FINITE),
        (4, False, ep.Termination.LINE_SEARCH_FAILURE),
    ],
)
def test_nan_objective_never_ends_gradtol(solve, first_nan_call, nan_grad, termination):
    # Every comparison with NaN is False: a NaN h or gradient must end the run
    # as a failure, not slip past the tolerance test.
    model = ep.ExPenModel(_turning_nan(6, 2, first_nan_call, nan_grad), beta=1.0)
    X0 = np.random.default_rng(0).standard_normal((6, 2))
    report = solve(model, X0, ep.SolverConfig())
    assert report.termination is termination
    assert report.iterations == 0
    if termination is ep.Termination.LINE_SEARCH_FAILURE:
        assert report.termination_detail == "LineSearchError: zoom exhausted after 60 refinements"
    else:
        assert report.termination_detail == ""
        assert (report.value_calls, report.grad_calls) == (1, 1)


@pytest.mark.parametrize("solve", [ep.frcg_solve, ep.gd_solve])
@pytest.mark.parametrize(
    "X0, sigma_max", [(np.zeros((3, 2)), 0.0), (np.outer(np.eye(3)[0], np.eye(2)[0]), 1.0)]
)
def test_rank_deficient_last_iterate_still_reports(solve, X0, sigma_max):
    # grad h vanishes at both starts, so the loop stops GradTol at once on a
    # point the final projection cannot map onto the manifold
    model = ep.ExPenModel(ep.constant_make(3, 2), beta=1.0)
    report = solve(model, X0, ep.SolverConfig())
    assert report.termination is ep.Termination.RANK_DEFICIENT
    assert report.termination_detail == (
        "GradTol, then DegenerateProjectionError: projection undefined: "
        f"singular values range [0.000e+00, {sigma_max:.3e}]"
    )
    assert report.final_point is None
    assert np.isnan([report.fval, report.stationarity, report.feasibility]).all()
    assert report.iterations == 0
    assert np.array_equal(report.raw_point, X0)
    assert report.raw_grad_h_norm == 0.0
    assert report.raw_feasibility == ep.feasibility(X0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("solve", [ep.frcg_solve, ep.gd_solve])
@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_start_reports_without_a_projected_point(solve, entry):
    # h is not finite at such a start, so the loop stops NonFinite at once,
    # and the final projection must not make up a point for it
    X0 = np.eye(4, 2)
    X0[1, 0] = entry
    for obj in (ep.brockett_make(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([1.0, 2.0])), ep.nleig_make(4, 2, 1.0)):
        report = solve(ep.ExPenModel(obj, beta=1.0), X0, ep.SolverConfig())
        assert report.termination is ep.Termination.NON_FINITE
        assert report.termination_detail == (
            "NonFinite, then NumericalError: cannot project a 4x2 matrix with non-finite entries"
        )
        assert report.final_point is None
        assert np.isnan([report.fval, report.stationarity, report.feasibility]).all()
        assert not report.certified
        assert report.iterations == 0
        assert np.array_equal(report.raw_point, X0, equal_nan=True)


@pytest.mark.parametrize(
    "solve, n, p, seeds, certified",
    [
        (ep.frcg_solve, 60, 8, range(8), False),
        (ep.gd_solve, 60, 8, range(8), False),
        (ep.frcg_solve, 120, 20, (0, 2, 3), False),
        (ep.frcg_solve, 120, 20, (1,), True),
    ],
)
def test_certified_only_inside_the_certificate_region(solve, n, p, seeds, certified):
    # At the default beta these nleig solves all stop GradTol; the uncertified
    # ones stop at raw feasibility far beyond 1/6, mostly collapsed columns.
    obj = ep.nleig_make(n, p, alpha=1.0)
    for seed in seeds:
        X0 = ep.random_stiefel(ep.RandomSpec(n, p, seed))
        model = ep.ExPenModel(obj, ep.default_beta(obj, X0))
        report = solve(model, X0, ep.SolverConfig())
        assert report.termination is ep.Termination.GRAD_TOL
        assert report.certified is certified
        assert (report.raw_feasibility <= 1.0 / 6.0) == certified
        assert ep.stationarity_report(model, report.raw_point).certified is certified


class TestFrcgSolve:
    def test_constant_objective_stops_immediately(self):
        model = ep.ExPenModel(objective=ep.constant_make(6, 3), beta=4.0)
        report = ep.frcg_solve(model, stiefel(6, 3, seed=0), ep.SolverConfig())
        assert report.iterations == 0
        assert report.termination is ep.Termination.GRAD_TOL
        assert report.stationarity == 0.0
        assert report.feasibility <= 1e-12

    def test_monotone_descent_and_gradtol(self):
        model = _penalized_nleig(12, 4, beta=30.0)
        cfg = ep.SolverConfig(grad_tol=1e-5, max_iters=5000, trace_enabled=True)
        report = ep.frcg_solve(model, stiefel(12, 4, seed=1), cfg)
        assert report.termination is ep.Termination.GRAD_TOL
        assert report.raw_grad_h_norm <= 1e-5
        hs = [row.h_val for row in report.trace]
        assert all(a >= b - 1e-12 * (1.0 + abs(a)) for a, b in zip(hs, hs[1:]))

    def test_trace_structure(self):
        model = _penalized_nleig(8, 2, beta=20.0)
        cfg = ep.SolverConfig(grad_tol=1e-4, max_iters=300, trace_enabled=True)
        X0 = stiefel(8, 2, seed=2)
        report = ep.frcg_solve(model, X0, cfg)
        trace = report.trace
        # one row per iterate, holding the columns of the CLI trace CSV
        assert [f.name for f in dataclasses.fields(ep.IterTrace)] == ["k", "h_val", "grad_h_norm", "feas", "f_val"]
        assert [row.k for row in trace] == list(range(report.iterations + 1))
        assert trace[0].h_val == model.value(X0)
        final = trace[-1]
        assert final.grad_h_norm == report.raw_grad_h_norm
        assert final.feas == report.raw_feasibility == ep.feasibility(report.raw_point)
        obj = model.objective
        assert final.f_val == obj.value(report.raw_point)

    def test_trace_disabled_by_default(self):
        model = _penalized_nleig(6, 2, beta=10.0)
        report = ep.frcg_solve(model, stiefel(6, 2, seed=3),
                               ep.SolverConfig(max_iters=10))
        assert report.trace is None

    def test_deterministic(self):
        model = _penalized_nleig(10, 3, beta=25.0)
        cfg = ep.SolverConfig(grad_tol=1e-5, max_iters=2000)
        X0 = stiefel(10, 3, seed=4)
        a = ep.frcg_solve(model, X0, cfg)
        b = ep.frcg_solve(model, X0, cfg)
        assert np.array_equal(a.final_point, b.final_point)
        assert a.fval == b.fval and a.iterations == b.iterations

    @pytest.mark.parametrize("solve, fletcher_reeves", [(ep.frcg_solve, True), (ep.gd_solve, False)],
                             ids=["fletcher_reeves", "steepest"])
    def test_replicates_reference_recurrence(self, solve, fletcher_reeves):
        # Reimplement six iterations from the documented recurrence (restart
        # to -g when D is not a strict descent direction, warm-started trial
        # step, Wolfe search) and demand bitwise agreement with the solver,
        # covering the direction update D_{k+1} = -g_{k+1} + tau_k D_k
        # (tau_k = 0 for steepest descent) and the recorded h values.
        model = _penalized_nleig(10, 3, beta=20.0)
        X0 = stiefel(10, 3, seed=5)
        cfg = ep.SolverConfig(grad_tol=0.0, max_iters=6, trace_enabled=True)
        report = solve(model, X0, cfg)

        X = X0.copy()
        h = model.value(X)
        g = model.grad(X)
        gnorm = ep.fnorm(g)
        D = -g
        eta_prev = None
        d0_prev = None
        hs = [h]
        for _ in range(6):
            d0 = ep.inner(g, D)
            if not d0 < -1e-12 * gnorm * ep.fnorm(D):
                D = -g
                d0 = ep.inner(g, D)
            if eta_prev is None:
                trial = 1.0
            else:
                trial = min(max(eta_prev * d0_prev / d0, 1e-12), 1e6)

            class Trial:
                def __init__(self, t):
                    self.t, self.h = t, model.value(X + t * D)

                def slope(self):
                    return ep.inner(model.grad(X + self.t * D), D)

            eta = ep.strong_wolfe(h, d0, Trial, initial_step=trial).t
            X = X + eta * D
            h = model.value(X)
            g_next = model.grad(X)
            gnorm_next = ep.fnorm(g_next)
            if fletcher_reeves:
                D = -g_next + (gnorm_next * gnorm_next) / (gnorm * gnorm) * D
            else:
                D = -g_next
            eta_prev, d0_prev = eta, d0
            g, gnorm = g_next, gnorm_next
            hs.append(h)

        assert np.array_equal(report.raw_point, X)
        assert [row.h_val for row in report.trace] == hs

    @pytest.mark.parametrize("seed, termination", [(15, ep.Termination.MAX_ITERS),
                                                   (12, ep.Termination.LINE_SEARCH_FAILURE)],
                             ids=["max_iters", "line_search_failure"])
    def test_rule_giving_ascent_directions_falls_back_to_gradient_descent(self, seed, termination):
        # +grad h is never a descent direction, so every iteration after the
        # first falls back to -grad h before any trial: the run must be
        # gd_solve's, bit for bit, calls and final failure included (seed 12
        # ends on a failed search along -grad h at iteration 171).
        model = _penalized_nleig(12, 3, beta=20.0)
        X0 = stiefel(12, 3, seed=seed)
        cfg = ep.SolverConfig(grad_tol=0.0, max_iters=200, trace_enabled=True)
        ascent = expen.solvers._descent_loop(model, X0, cfg, lambda D, g_next, gnorm, gnorm_next: g_next,
                                             CountingClock())
        gd = ep.gd_solve(model, X0, cfg)
        assert ascent.termination is gd.termination is termination
        assert ascent.termination_detail == gd.termination_detail
        assert ascent.iterations == gd.iterations > 100
        assert np.array_equal(ascent.raw_point, gd.raw_point)
        assert [row.h_val for row in ascent.trace] == [row.h_val for row in gd.trace]
        assert (ascent.value_calls, ascent.grad_calls) == (gd.value_calls, gd.grad_calls)

    def test_max_iters_termination(self):
        model = _penalized_nleig(20, 5, beta=100.0)
        cfg = ep.SolverConfig(grad_tol=1e-14, max_iters=3)
        report = ep.frcg_solve(model, stiefel(20, 5, seed=6), cfg)
        assert report.termination is ep.Termination.MAX_ITERS
        assert report.iterations == 3

    def test_line_search_failure_is_terminal_status(self):
        # An objective unbounded below along tangent rays: f = -<C, X>^4.
        n, p = 3, 2
        Q = stiefel(n, p, seed=7)
        rng = np.random.default_rng(8)
        T = ep.tangent_project(Q, rng.standard_normal((n, p)))
        C = Q + T

        def value(X):
            return -float(ep.inner(C, X)) ** 4

        def gradient(X):
            return -4.0 * float(ep.inner(C, X)) ** 3 * C

        obj = ep.SmoothObjective(n=n, p=p, value=value, gradient=gradient)
        model = ep.ExPenModel(objective=obj, beta=1.0)
        report = ep.frcg_solve(model, Q, ep.SolverConfig(grad_tol=1e-10))
        assert report.termination is ep.Termination.LINE_SEARCH_FAILURE
        assert report.iterations == 0
        assert np.array_equal(report.raw_point, Q)
        assert report.feasibility <= 1e-12  # still postprocessed
        assert report.termination_detail.startswith("LineSearchError: ")

    def test_escape_at_iteration_zero_names_the_step_cap(self):
        # Brockett 30x4 at beta = 50 from seed 1's start: h is unbounded
        # below along the first direction, so the bracketing doubles the
        # step past its cap, and the report keeps the error's text.
        spec = ep.RunSpec("brockett", 30, 4, seed=1, beta_override=50.0, grad_tol=1e-6)
        report = ep.run_benchmark(spec).reports[0]
        assert report.termination is ep.Termination.LINE_SEARCH_FAILURE
        assert report.iterations == 0
        assert report.termination_detail.startswith("LineSearchError: trial step ")
        assert report.termination_detail.endswith(" exceeded cap 1e+10")

    @pytest.mark.parametrize("seed", [0, 3])
    def test_failed_conjugate_search_is_retried_along_steepest_descent(self, seed):
        # Brockett 30x4 at beta = 50 and tolerance 1e-6: the search along the
        # FR direction at iteration 1 712 (seed 0) or 2 240 (seed 3) finds no
        # trial below the rounding of h and used to end LineSearchFailure;
        # one retry along -grad h carries the run on to a certified stop.
        spec = ep.RunSpec("brockett", 30, 4, seed=seed, beta_override=50.0, grad_tol=1e-6)
        report = ep.run_benchmark(spec).reports[0]
        assert report.termination is ep.Termination.GRAD_TOL
        assert report.certified
        assert report.termination_detail == ""

    @pytest.mark.parametrize("max_iters", [5, 10000])
    def test_termination_detail_is_empty_without_line_search_failure(self, max_iters):
        model = _penalized_nleig(10, 3, beta=20.0)
        report = ep.frcg_solve(model, stiefel(10, 3, seed=4), ep.SolverConfig(max_iters=max_iters))
        expected = ep.Termination.MAX_ITERS if max_iters == 5 else ep.Termination.GRAD_TOL
        assert report.termination is expected
        assert report.termination_detail == ""

    def test_level_set_confinement_near_manifold(self):
        # Starting within feasibility 1/24 at large beta, all iterates stay
        # within feasibility 1/12.
        obj = ep.nleig_make(8, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=500.0)
        rng = np.random.default_rng(9)
        Q = stiefel(8, 3, seed=10)
        E = rng.standard_normal((8, 3))
        X0 = Q + 0.015 * E / ep.fnorm(E)
        assert ep.feasibility(X0) <= 1.0 / 24.0
        cfg = ep.SolverConfig(grad_tol=1e-4, max_iters=5000, trace_enabled=True)
        report = ep.frcg_solve(model, X0, cfg)
        assert report.termination is ep.Termination.GRAD_TOL
        assert all(row.feas <= 1.0 / 12.0 for row in report.trace)

    def test_wall_seconds_uses_injected_clock(self):
        model = ep.ExPenModel(objective=ep.constant_make(4, 2), beta=2.0)
        report = ep.frcg_solve(model, stiefel(4, 2, seed=11), ep.SolverConfig(),
                               clock=CountingClock())
        assert report.wall_seconds == 1.0

    def test_shape_mismatch_raises(self):
        model = _penalized_nleig(6, 2, beta=5.0)
        with pytest.raises(DimensionError):
            ep.frcg_solve(model, np.zeros((6, 3)), ep.SolverConfig())


class TestGdSolve:
    def test_constant_objective_stops_immediately(self):
        model = ep.ExPenModel(objective=ep.constant_make(5, 2), beta=3.0)
        report = ep.gd_solve(model, stiefel(5, 2, seed=0), ep.SolverConfig())
        assert report.iterations == 0

    def test_final_h_not_above_initial(self):
        model = _penalized_nleig(9, 3, beta=15.0)
        X0 = near_stiefel(9, 3, seed=12)
        h0 = model.value(X0)
        report = ep.gd_solve(model, X0, ep.SolverConfig(grad_tol=1e-4, max_iters=4000))
        assert model.value(report.raw_point) <= h0 + 1e-12 * (1.0 + abs(h0))

    def test_regression_small_instance_reaches_tolerance(self):
        # Documented desk-scale regression: n=50, p=5, seed 0.
        obj = ep.nleig_make(50, 5, alpha=1.0)
        X0 = stiefel(50, 5, seed=0)

        # (a) With the default beta rule the run reaches grad_tol within the
        # iteration cap (the rule's beta is too small at this scale for the
        # stationary point to be feasible, so only termination is asserted).
        rule_model = ep.ExPenModel(objective=obj, beta=ep.default_beta(obj, X0))
        rule_report = ep.gd_solve(model=rule_model, X0=X0,
                                  config=ep.SolverConfig(grad_tol=1e-3,
                                                         max_iters=10000))
        assert rule_report.termination is ep.Termination.GRAD_TOL

        # (b) With beta = 50 the solver converges to the feasible minimizer;
        # the objective value is a frozen regression expectation.
        model = ep.ExPenModel(objective=obj, beta=50.0)
        report = ep.gd_solve(model=model, X0=X0,
                             config=ep.SolverConfig(grad_tol=1e-3, max_iters=10000))
        assert report.termination is ep.Termination.GRAD_TOL
        assert report.feasibility <= 1e-10
        assert_allclose(report.fval, 7.642906, rtol=1e-5, atol=0)

    def test_deterministic(self):
        model = _penalized_nleig(8, 2, beta=18.0)
        X0 = stiefel(8, 2, seed=14)
        cfg = ep.SolverConfig(grad_tol=1e-4, max_iters=500)
        a = ep.gd_solve(model, X0, cfg)
        b = ep.gd_solve(model, X0, cfg)
        assert np.array_equal(a.final_point, b.final_point)

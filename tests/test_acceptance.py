"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Each test prints a `criterion N ... PASS/FAIL` line (visible with -s or in
captured output) and asserts the criterion at its stated tolerance, so the
pytest -v report carries exactly one verdict line per criterion.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import expen as ep
from expen.cli import TABLE_HEADER, _fmt

from helpers import brockett_bruteforce_min, newton_polish, stiefel


def _verdict(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


@pytest.fixture(scope="module")
def benchmark_run():
    """Criterion 7 protocol run, shared with criterion 8."""
    spec = ep.RunSpec(problem="nleig", n=250, p=50, alpha=1.0, seed=0,
                      repeats=3, grad_tol=1e-3, max_iters=10000)
    start = time.perf_counter()
    result = ep.run_benchmark(spec, trace=True)
    elapsed = time.perf_counter() - start
    return spec, result, elapsed


def test_criterion_1_derivative_exactness():
    start = time.perf_counter()
    worst_grad = 0.0
    worst_hess = 0.0
    ok = True
    for n, p in ((8, 3), (12, 4)):
        families = {
            "nleig": ep.nleig_make(n, p, alpha=1.0),
            "brockett": ep.brockett_make(ep.random_symmetric(n, [n, 1]),
                                         ep.random_symmetric(p, [p, 2])),
        }
        for fam, obj in families.items():
            model = ep.ExPenModel(objective=obj, beta=10.0)
            rng = np.random.default_rng([n, p, 7])
            for point in range(10):
                X = rng.standard_normal((n, p)) * 0.7
                g_rep = ep.fd_gradient_check(model.value, model.grad, X,
                                             samples=10, seed=point,
                                             name=f"{fam}-grad-{n}x{p}")
                h_rep = ep.fd_hessvec_check(model.grad, model.hess_vec, X,
                                            samples=10, seed=point,
                                            name=f"{fam}-hess-{n}x{p}")
                worst_grad = max(worst_grad, g_rep.max_rel_error)
                worst_hess = max(worst_hess, h_rep.max_rel_error)
                ok = ok and g_rep.passed and h_rep.passed
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _verdict(1, ok, f"grad ≤ {worst_grad:.3e} (tol 1e-5), "
                    f"hess ≤ {worst_hess:.3e} (tol 1e-4), {elapsed:.2f}s < 10s")
    assert worst_grad <= 1e-5
    assert worst_hess <= 1e-4
    assert elapsed < 10.0


def test_criterion_2_feasible_consistency():
    n, p = 9, 4
    objectives = [
        ep.nleig_make(n, p, alpha=1.0),
        ep.brockett_make(ep.random_symmetric(n, [2, 1]),
                         ep.random_symmetric(p, [2, 2])),
    ]
    worst_val = 0.0
    worst_grad = 0.0
    for i, obj in enumerate(objectives):
        model = ep.ExPenModel(objective=obj, beta=15.0)
        for seed in range(10):
            Q = stiefel(n, p, seed=100 * i + seed)
            f = obj.value(Q)
            worst_val = max(worst_val, abs(model.value(Q) - f) / (1.0 + abs(f)))
            rg = ep.riemannian_grad(obj, Q)
            worst_grad = max(
                worst_grad,
                ep.fnorm(model.grad(Q) - rg) / (1.0 + ep.fnorm(rg)),
            )
    ok = worst_val <= 1e-12 and worst_grad <= 1e-12
    _verdict(2, ok, f"20 points: |h-f| ≤ {worst_val:.3e}, "
                    f"‖∇h-grad f‖ ≤ {worst_grad:.3e}, tol 1e-12")
    assert worst_val <= 1e-12
    assert worst_grad <= 1e-12


def test_criterion_3_algebraic_identities():
    rng = np.random.default_rng(33)
    X = rng.standard_normal((10, 4))
    sa = ep.selfadjoint_check(X, samples=50)

    obj = ep.nleig_make(8, 3, alpha=1.0)
    Xi = rng.standard_normal((8, 3))
    ii = ep.inner_identity_check(obj, Xi, samples=50)

    # A corrupted operator that is genuinely non-self-adjoint (dropping the
    # symmetrization alone would not be: that variant is still self-adjoint
    # under the trace inner product).
    K = np.zeros((4, 4))
    K[0, 1], K[1, 0] = 1.0, -1.0

    def skewed(Z, D):
        return ep.jx_apply(Z, D) + D @ K

    sa_neg = ep.selfadjoint_check(X, samples=50, operator=skewed)
    ii_neg = ep.inner_identity_check(
        obj, Xi, samples=50,
        smoothed_grad_fn=lambda o, Z: 2.0 * ep.smoothed_grad(o, Z),
    )
    ok = sa.passed and ii.passed and not sa_neg.passed and not ii_neg.passed
    _verdict(3, ok, f"selfadjoint {sa.max_rel_error:.3e} ≤ 1e-12, "
                    f"inner identity {ii.max_rel_error:.3e} ≤ 1e-10, "
                    f"negative controls fail: {not sa_neg.passed and not ii_neg.passed}")
    assert sa.passed, sa.line()
    assert sa.tolerance == 1e-12 and sa.samples == 50
    assert ii.passed, ii.line()
    assert ii.tolerance == 1e-10 and ii.samples == 50
    assert not sa_neg.passed
    assert not ii_neg.passed


def test_criterion_4_strict_saddle():
    reports = [ep.strict_saddle_check(beta) for beta in (1.0, 10.0, 24.0)]
    worst = max(rep.max_rel_error for rep in reports)
    ok = all(rep.passed and rep.tolerance == 1e-10 for rep in reports)
    _verdict(4, ok, f"λ_min = -β within {worst:.3e} ≤ 1e-10 for β ∈ {{1, 10, 24}}")
    for rep in reports:
        assert rep.passed, rep.line()
        assert rep.tolerance == 1e-10


def test_criterion_5_eigenvalue_correspondence():
    start = time.perf_counter()

    # Analytic minimizer of a diagonal Brockett instance (n=4, p=2).
    obj_b = ep.brockett_make(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([2.0, 1.0]))
    Xstar = np.zeros((4, 2))
    Xstar[0, 0] = 1.0
    Xstar[1, 1] = 1.0
    rep_b = ep.spectrum_correspondence(
        ep.ExPenModel(objective=obj_b, beta=100.0), obj_b, Xstar)

    # Converged nonlinear-eigenvalue stationary point (n=15, p=3, alpha=1):
    # solve to the line-search floor, then Newton-polish to the checker's
    # 1e-8 stationarity precondition.
    obj_n = ep.nleig_make(15, 3, alpha=1.0)
    solve_model = ep.ExPenModel(objective=obj_n, beta=30.0)
    report = ep.frcg_solve(solve_model, stiefel(15, 3, seed=0),
                           ep.SolverConfig(grad_tol=1e-6, max_iters=20000))
    assert report.termination is ep.Termination.GRAD_TOL
    Xp = ep.project_stiefel(newton_polish(solve_model, report.raw_point))
    rep_n = ep.spectrum_correspondence(
        ep.ExPenModel(objective=obj_n, beta=500.0), obj_n, Xp)

    elapsed = time.perf_counter() - start
    ok = rep_b.passed and rep_n.passed and elapsed < 30.0
    _verdict(5, ok, f"brockett {rep_b.max_rel_error:.3e}, "
                    f"nleig {rep_n.max_rel_error:.3e}, tol 1e-6, "
                    f"{elapsed:.2f}s < 30s")
    assert rep_b.passed, rep_b.line()
    assert rep_b.tolerance == 1e-6
    assert rep_n.passed, rep_n.line()
    assert elapsed < 30.0


def test_criterion_6_solver_reaches_known_optimum():
    start = time.perf_counter()
    obj = ep.brockett_make(np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 1.0]))
    cfg = ep.SolverConfig(grad_tol=1e-8, max_iters=2000)
    best = np.inf
    for seed in range(20):
        model = ep.ExPenModel(objective=obj, beta=25.0)
        report = ep.frcg_solve(model, stiefel(3, 2, seed=seed), cfg)
        best = min(best, report.fval)
    oracle = brockett_bruteforce_min(obj, 3, 2)
    elapsed = time.perf_counter() - start
    ok = abs(best - oracle) <= 1e-6 and oracle == 2.0 and elapsed < 5.0
    _verdict(6, ok, f"best fval {best:.9f} vs brute-force {oracle}, "
                    f"|diff| ≤ 1e-6, {elapsed:.2f}s < 5s")
    assert oracle == 2.0
    assert abs(best - oracle) <= 1e-6
    assert elapsed < 5.0


def test_criterion_7_benchmark_protocol(benchmark_run, tmp_path):
    spec, result, elapsed = benchmark_run
    reports = result.reports

    converged = all(t == "GradTol" for t in result.terminations)
    stat_ok = all(rep.stationarity <= 1e-3 for rep in reports)
    feas_ok = all(rep.feasibility <= 1e-12 for rep in reports)
    iter_ok = all(rep.iterations <= 10000 for rep in reports)
    monotone = all(
        all(a[1] >= b[1] - 1e-12 * (1.0 + abs(a[1])) for a, b in zip(tr, tr[1:]))
        for tr in result.traces
    )

    paths = ep.emit_outputs([result.row], result.traces, "both", str(tmp_path))
    table = (tmp_path / "table.csv").read_text().splitlines()
    schema_ok = (
        table[0] == "solver,fval,iteration,stationarity,feasibility,wall_seconds"
        and len(table) == 2
        and len(paths) == 2 + spec.repeats
    )
    trace_header_ok = all(
        (tmp_path / f"trace_{r:03d}.csv").read_text().splitlines()[0]
        == "k,h,grad_h_norm,feasibility,fval_gap"
        for r in range(spec.repeats)
    )

    # Fval matching of the published table is attempted but not required:
    # report the gap without asserting it.
    gap = abs(result.row.fval - 2810.709) / 2810.709
    ok = all((converged, stat_ok, feas_ok, iter_ok, monotone, schema_ok,
              trace_header_ok))
    _verdict(
        7, ok,
        f"stationarity ≤ {max(r.stationarity for r in reports):.3e} (tol 1e-3), "
        f"feasibility ≤ {max(r.feasibility for r in reports):.3e} (tol 1e-12), "
        f"iters ≤ {max(r.iterations for r in reports)}, monotone trace: {monotone}, "
        f"schema ok: {schema_ok and trace_header_ok}; attempted Fval match: "
        f"fval {result.row.fval:.6f} vs 2810.709 (rel gap {gap:.2e}, not required); "
        f"{elapsed:.1f}s",
    )
    assert converged, result.terminations
    assert stat_ok and feas_ok and iter_ok
    assert monotone
    assert schema_ok and trace_header_ok


def test_readme_cli_line_matches_benchmark_run(benchmark_run):
    # the README's nleig run is the criterion 7 specification; the
    # wall-clock column is not compared
    spec, result, _ = benchmark_run
    command = "$ expen-bench --problem nleig --n 250 --p 50 --alpha 1.0 --seed 0 --repeats 3 --grad-tol 1e-3"
    assert spec == ep.RunSpec(problem="nleig", n=250, p=50, alpha=1.0, seed=0, repeats=3, grad_tol=1e-3)
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    header, row = lines[lines.index(command) + 1:lines.index(command) + 3]
    assert header.split() == TABLE_HEADER.split(",")
    cells = dict(zip(header.split(), row.split()))
    assert cells["solver"] == spec.solver
    for name in ("fval", "iteration", "stationarity", "feasibility"):
        assert cells[name] == _fmt(getattr(result.row, name)), name


def test_criterion_8_stationarity_certification(benchmark_run):
    spec, result, _ = benchmark_run
    worst_stat_ratio = 0.0
    worst_feas_ratio = 0.0
    for rep, beta in zip(result.reports, result.betas):
        assert rep.termination is ep.Termination.GRAD_TOL
        assert rep.stationarity <= 2.0 * rep.raw_grad_h_norm
        assert rep.raw_feasibility <= (4.0 / beta) * rep.raw_grad_h_norm
        worst_stat_ratio = max(worst_stat_ratio,
                               rep.stationarity / (2.0 * rep.raw_grad_h_norm))
        worst_feas_ratio = max(
            worst_feas_ratio,
            rep.raw_feasibility / ((4.0 / beta) * rep.raw_grad_h_norm),
        )
    _verdict(8, True,
             f"‖grad f(P(X))‖ ≤ 2‖∇h(X)‖ (worst ratio {worst_stat_ratio:.3f}), "
             f"feasibility ≤ (4/β)‖∇h(X)‖ (worst ratio {worst_feas_ratio:.3f})")


def test_criterion_9_postprocess_descent():
    beta = 7.5
    model = ep.ExPenModel(objective=ep.constant_make(9, 4), beta=beta)
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(50):
        Q = ep.random_stiefel(ep.RandomSpec(9, 4, int(rng.integers(1 << 31))))
        E = rng.standard_normal((9, 4))
        X = Q + rng.uniform(0.002, 0.05) * E / ep.fnorm(E)
        assert ep.feasibility(X) <= 1.0 / 6.0
        _, decrease = ep.postprocess(model, X)
        expected = 0.25 * beta * ep.feasibility(X) ** 2
        worst = max(worst, abs(decrease - expected) / (1.0 + abs(expected)))
    ok = worst <= 1e-10
    _verdict(9, ok, f"50 points in the 1/6 region: "
                    f"|decrease - (β/4)‖X^TX-I‖²| ≤ {worst:.3e}, tol 1e-10")
    assert worst <= 1e-10

"""Negative controls: the benchmark's checks must flag results known to be wrong.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_controls.py
"""

import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from expen import nleig_make  # noqa: E402


def test_green_function_matches_dense_solve():
    n = 37
    L = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    r = np.random.default_rng(0).random(n)
    np.testing.assert_allclose(checks.stencil_solve(r), np.linalg.solve(L, r), rtol=1e-12)
    X = np.random.default_rng(1).standard_normal((n, 4))
    np.testing.assert_allclose(checks.stencil_apply(X), L @ X, rtol=1e-14)


def test_infeasible_gradtol_stop_is_flagged():
    # FR-CG on nleig 120 x 20 from seed 0 under the default beta rule stops
    # with GradTol at raw feasibility 1.41, projected stationarity 7.3.
    n, p = 120, 20
    sol = workloads._frcg_via_cli(nleig_make(n, p), 0, workloads.start_point(n, p, 0, None))
    assert sol.stopped_at_tol
    fails = checks.nleig_failures(sol, alpha=1.0, tol=workloads.GRAD_TOL)
    assert any("outside the region" in f for f in fails), fails
    assert any("projected stationarity" in f for f in fails), fails


def test_point_off_stationarity_is_flagged():
    B = workloads.problems.random_symmetric(workloads.CERTIFY_N, [0, 0, 1])
    C = workloads.problems.random_symmetric(workloads.CERTIFY_P, [0, 0, 2])
    X, _, _ = workloads.brockett_points(B, C)[0]
    U, _, Vt = np.linalg.svd(X + 1e-4 * np.random.default_rng(2).standard_normal(X.shape), full_matrices=False)
    moved = U @ Vt
    value = 0.5 * float(np.sum(moved * (B @ moved @ C)))

    obj = workloads.problems.brockett_make(B, C)
    h = workloads.model.ExPenModel(obj, workloads.certify_beta(B, C))
    op = workloads.Op(
        "moved",
        lambda: workloads._certify_point(obj, h, moved),
        partial(checks.brockett_failures, B, C, moved, value, True),
    )
    _, _, _, failures = run._execute(op)
    assert failures, "a point off stationarity passed certification"

    # the independent gradient check flags it even if expen's checks passed
    fails = checks.brockett_failures(B, C, moved, value, True, workloads.Certified(value, (), 1.0, 1.0))
    assert any("Riemannian gradient" in f for f in fails), fails

"""Tests for Stiefel projection, tangent operations, and stationarity reporting."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expen as ep
from expen.exceptions import (
    DegenerateProjectionError,
    DimensionError,
    FeasibilityError,
    NumericalError,
)

from helpers import near_stiefel, stiefel


class TestFeasibility:
    def test_orthonormal_is_zero(self):
        assert ep.feasibility(stiefel(7, 3, seed=0)) <= 1e-14

    def test_zero_matrix(self):
        assert ep.feasibility(np.zeros((5, 2))) == np.sqrt(2.0)

    def test_scalar(self):
        assert ep.feasibility(np.array([[2.0]])) == 3.0


class TestProjectStiefel:
    def test_fixed_point(self):
        Q = stiefel(8, 3, seed=1)
        assert_allclose(ep.project_stiefel(Q), Q, rtol=0, atol=1e-13)

    def test_scalar_sign_map(self):
        assert ep.project_stiefel(np.array([[2.0]]))[0, 0] == 1.0

    def test_diagonal_hand_example(self):
        X = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert_allclose(ep.project_stiefel(X), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_and_feasible(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((9, 4))
        P = ep.project_stiefel(X)
        assert ep.feasibility(P) <= 1e-12 * 4
        assert_allclose(ep.project_stiefel(P), P, rtol=0, atol=1e-12)

    def test_rank_deficient_raises(self):
        X = np.zeros((4, 2))
        X[:, 0] = [1.0, 2.0, 3.0, 4.0]
        X[:, 1] = 2.0 * X[:, 0]
        with pytest.raises(DegenerateProjectionError):
            ep.project_stiefel(X)

    def test_zero_matrix_raises(self):
        with pytest.raises(DegenerateProjectionError):
            ep.project_stiefel(np.zeros((3, 2)))

    def test_wide_matrix_raises(self):
        with pytest.raises(DimensionError):
            ep.project_stiefel(np.zeros((2, 5)))

    def test_svd_failure_is_numerical_error(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", no_convergence)
        with pytest.raises(NumericalError, match="SVD did not converge for a 4x2 matrix"):
            ep.project_stiefel(np.ones((4, 2)))

    def test_nan_entry_raises_numerical_error(self):
        # an inf entry too: its SVD has NaN singular values, which no rank test rejects
        for entry in (np.nan, np.inf, -np.inf):
            X = np.ones((4, 2))
            X[1, 0] = entry
            with pytest.raises(NumericalError, match="non-finite entries"):
                ep.project_stiefel(X)

    @pytest.mark.parametrize("seed", range(10))
    def test_distance_bounded_by_feasibility(self, seed):
        # ||X - P(X)|| <= (6/11) ||X^T X - I|| inside the 1/6 region.
        X = near_stiefel(8, 3, seed)
        P = ep.project_stiefel(X)
        assert ep.fnorm(X - P) <= (6.0 / 11.0) * ep.feasibility(X) + 1e-14


class TestTangentProject:
    def test_tangent_fixed_point(self):
        rng = np.random.default_rng(0)
        Q = stiefel(7, 3, seed=2)
        D = ep.tangent_project(Q, rng.standard_normal((7, 3)))
        assert_allclose(ep.tangent_project(Q, D), D, rtol=0, atol=1e-13)

    def test_normal_direction_annihilated(self):
        Q = stiefel(6, 2, seed=3)
        S = ep.random_symmetric(2, 5)
        assert_allclose(ep.tangent_project(Q, Q @ S), np.zeros((6, 2)),
                        rtol=0, atol=1e-13)

    def test_x_itself_annihilated(self):
        Q = stiefel(6, 2, seed=4)
        assert_allclose(ep.tangent_project(Q, Q), np.zeros((6, 2)),
                        rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_result_is_tangent(self, seed):
        rng = np.random.default_rng(seed)
        Q = stiefel(9, 4, seed + 30)
        T = ep.tangent_project(Q, rng.standard_normal((9, 4)))
        assert ep.fnorm(ep.sym(T.T @ Q)) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_orthogonal_split(self, seed):
        rng = np.random.default_rng(seed + 100)
        Q = stiefel(8, 3, seed + 60)
        D = rng.standard_normal((8, 3))
        T = ep.tangent_project(Q, D)
        assert abs(ep.inner(T, D - T)) <= 1e-12 * (1.0 + ep.fnorm(D) ** 2)

    def test_self_adjoint(self):
        rng = np.random.default_rng(17)
        Q = stiefel(7, 3, seed=7)
        W = rng.standard_normal((7, 3))
        Z = rng.standard_normal((7, 3))
        a = ep.inner(ep.tangent_project(Q, W), Z)
        b = ep.inner(W, ep.tangent_project(Q, Z))
        assert abs(a - b) <= 1e-12 * (1.0 + ep.fnorm(W) * ep.fnorm(Z))

    def test_infeasible_base_point_raises(self):
        with pytest.raises(FeasibilityError):
            ep.tangent_project(np.full((4, 2), 0.9), np.zeros((4, 2)))


@pytest.mark.parametrize(
    "op",
    [
        lambda X: ep.tangent_project(X, X),
        lambda X: ep.riemannian_grad(ep.constant_make(8, 3), X),
        ep.tangent_basis,
    ],
    ids=["tangent_project", "riemannian_grad", "tangent_basis"],
)
def test_nan_point_is_not_feasible(op):
    # its feasibility is NaN, which a test of feasibility > 1e-8 would pass
    X = stiefel(8, 3, seed=4)
    X[2, 1] = np.nan
    with pytest.raises(FeasibilityError, match="= nan"):
        op(X)


class TestRiemannianGrad:
    def test_normal_gradient_gives_zero(self):
        # f = (1/2)||X||^2 has grad f = X = X*I, purely normal at feasible X.
        obj = ep.SmoothObjective(n=6, p=3,
                                 value=lambda X: 0.5 * ep.fnorm(X) ** 2,
                                 gradient=lambda X: X.copy())
        Q = stiefel(6, 3, seed=8)
        assert_allclose(ep.riemannian_grad(obj, Q), np.zeros((6, 3)),
                        rtol=0, atol=1e-13)

    def test_linear_objective_formula(self):
        rng = np.random.default_rng(5)
        C = rng.standard_normal((7, 3))
        obj = ep.linear_make(C)
        Q = stiefel(7, 3, seed=9)
        expected = C - Q @ ep.sym(Q.T @ C)
        assert_allclose(ep.riemannian_grad(obj, Q), expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_projected_gradient(self, seed):
        obj = ep.nleig_make(8, 3, alpha=1.0)
        Q = stiefel(8, 3, seed + 40)
        assert_allclose(ep.riemannian_grad(obj, Q),
                        ep.tangent_project(Q, obj.gradient(Q)),
                        rtol=0, atol=1e-13)

    def test_result_is_tangent(self):
        obj = ep.nleig_make(9, 4, alpha=0.3)
        Q = stiefel(9, 4, seed=11)
        rg = ep.riemannian_grad(obj, Q)
        assert ep.fnorm(ep.sym(rg.T @ Q)) <= 1e-12


class TestRiemannianHessQuadform:
    def test_matches_penalty_hessian_at_converged_point(self):
        # At (and in fact at any) feasible point the tangent quadratic forms
        # of the penalty and the Riemannian Hessian
        # <D, hess f(X)[D] - D sym(X^T grad f(X))> agree.
        obj = ep.nleig_make(10, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=25.0)
        report = ep.frcg_solve(model, stiefel(10, 3, seed=0),
                               ep.SolverConfig(grad_tol=1e-6, max_iters=5000))
        X = report.final_point
        G = obj.gradient(X)
        rng = np.random.default_rng(14)
        for _ in range(5):
            D = ep.tangent_project(X, rng.standard_normal((10, 3)))
            lhs = ep.inner(D, obj.hess_vec(X, D) - D @ ep.sym(X.T @ G))
            rhs = ep.inner(D, model.hess_vec(X, D))
            assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))


class TestStationarityReport:
    def test_all_zero_at_feasible_stationary_point(self):
        # Brockett with B = diag(1,2,3,4), C = diag(2,1) at X = [e1, e2].
        B = np.diag([1.0, 2.0, 3.0, 4.0])
        C = np.diag([2.0, 1.0])
        obj = ep.brockett_make(B, C)
        model = ep.ExPenModel(objective=obj, beta=10.0)
        X = np.zeros((4, 2))
        X[0, 0] = 1.0
        X[1, 1] = 1.0
        report = ep.stationarity_report(model, X)
        assert report.grad_h_norm <= 1e-12
        assert report.feasibility <= 1e-12
        assert report.projected_riem_grad_norm <= 1e-12
        assert report.certified

    def test_certified_only_inside_the_region(self):
        obj = ep.constant_make(6, 2)
        model = ep.ExPenModel(objective=obj, beta=4.0)
        far = 2.0 * stiefel(6, 2, seed=22)  # feasibility 3*sqrt(2) > 1/6
        assert not ep.stationarity_report(model, far).certified
        assert ep.stationarity_report(model, near_stiefel(6, 2, seed=23)).certified

    def test_region_has_two_halves_and_rejects_nan(self):
        beta = 8.0
        assert ep.in_certificate_region(1.0 / 6.0, 1.0, beta)
        assert not ep.in_certificate_region(np.nextafter(1.0 / 6.0, 1.0), 1.0, beta)
        # feasibility 0.1 needs ||grad h|| >= 0.2 at beta = 8, up to 1e-12
        assert ep.in_certificate_region(0.1, 0.2, beta)
        assert ep.in_certificate_region(0.1 + 5e-13, 0.2, beta)
        assert not ep.in_certificate_region(0.1 + 2e-12, 0.2, beta)
        assert not ep.in_certificate_region(0.1, 0.19, beta)
        assert not ep.in_certificate_region(np.nan, 1.0, beta)
        assert not ep.in_certificate_region(0.1, np.nan, beta)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan, np.inf])
    def test_region_needs_a_positive_finite_beta(self, beta):
        # beta = 0 used to divide by zero, and beta < 0 to answer False
        with pytest.raises(DimensionError, match=f"beta must be positive and finite, got {beta}"):
            ep.in_certificate_region(0.1, 1.0, beta)

    @pytest.mark.parametrize("seed", range(15))
    def test_feasibility_bounded_by_grad_norm_at_large_beta(self, seed):
        obj = ep.nleig_make(6, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=1e3)
        X = near_stiefel(6, 2, seed + 200)
        report = ep.stationarity_report(model, X)
        assert report.feasibility <= (4.0 / 1e3) * report.grad_h_norm + 1e-12


class TestPostprocess:
    def test_feasible_point_unchanged(self):
        obj = ep.nleig_make(6, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=8.0)
        Q = stiefel(6, 3, seed=24)
        P, decrease = ep.postprocess(model, Q)
        assert_allclose(P, Q, rtol=0, atol=1e-12)
        assert abs(decrease) <= 1e-10 * (1.0 + abs(model.value(Q)))

    @pytest.mark.parametrize("seed", range(10))
    def test_penalty_only_decrease_identity(self, seed):
        beta = 9.0
        model = ep.ExPenModel(objective=ep.constant_make(7, 3), beta=beta)
        X = near_stiefel(7, 3, seed + 300)
        P, decrease = ep.postprocess(model, X)
        expected = (beta / 4.0) * ep.feasibility(X) ** 2
        assert abs(decrease - expected) <= 1e-10 * (1.0 + abs(expected))
        assert ep.feasibility(P) <= 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_decrease_positive_near_manifold_with_large_beta(self, seed):
        obj = ep.nleig_make(8, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=500.0)
        X = near_stiefel(8, 3, seed + 400)
        _, decrease = ep.postprocess(model, X)
        assert decrease > 0.0

    def test_degenerate_input_raises(self):
        model = ep.ExPenModel(objective=ep.constant_make(4, 2), beta=1.0)
        with pytest.raises(DegenerateProjectionError):
            ep.postprocess(model, np.zeros((4, 2)))

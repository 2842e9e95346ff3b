"""Tests for the independent verification oracles."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expen as ep
import expen.verify
from expen.exceptions import DimensionError, FeasibilityError, NotStationaryError, NumericalError

from helpers import stiefel


class TestCheckReport:
    def test_passed_iff_within_tolerance(self):
        good = ep.CheckReport(name="x", max_rel_error=1e-7, tolerance=1e-5,
                              passed=True, samples=3)
        assert good.passed
        assert "status=PASS" in good.line()
        bad = ep.CheckReport(name="x", max_rel_error=1e-3, tolerance=1e-5,
                             passed=False, samples=3)
        assert "status=FAIL" in bad.line()

    def test_line_contains_fields(self):
        rep = ep.CheckReport(name="demo", max_rel_error=2.5e-9, tolerance=1e-6,
                             passed=True, samples=12)
        line = rep.line()
        assert "check=demo" in line
        assert "max_rel_error=2.500e-09" in line
        assert "tolerance=1.0e-06" in line
        assert "samples=12" in line


class TestFdGradientCheck:
    def test_penalty_gradient_passes(self):
        obj = ep.nleig_make(8, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=10.0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 3)) * 0.7
        rep = ep.fd_gradient_check(model.value, model.grad, X, samples=10,
                                   name="penalty-grad")
        assert rep.passed, rep.line()
        assert rep.samples == 10

    def test_mildly_nonlinear_case_near_machine_precision(self):
        # Penalty-free smoothed objective of a linear f at a feasible point:
        # the gradient is exact, so FD agreement reaches ~1e-9.
        rng = np.random.default_rng(1)
        C = rng.standard_normal((7, 3))
        obj = ep.linear_make(C)
        Q = stiefel(7, 3, seed=2)
        rep = ep.fd_gradient_check(
            lambda Z: obj.value(ep.apen_map(Z)),
            lambda Z: ep.smoothed_grad(obj, Z),
            Q,
            samples=10,
            tolerance=1e-9,
            name="linear-smoothed",
        )
        assert rep.passed, rep.line()

    def test_negative_control_fails(self):
        obj = ep.nleig_make(6, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=5.0)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2)) * 0.8
        rep = ep.fd_gradient_check(model.value,
                                   lambda Z: 2.0 * model.grad(Z),
                                   X, samples=5, name="corrupted")
        assert not rep.passed

    def test_deterministic_in_seed(self):
        obj = ep.nleig_make(5, 2, alpha=0.4)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 2))
        a = ep.fd_gradient_check(obj.value, obj.gradient, X, samples=6, seed=9)
        b = ep.fd_gradient_check(obj.value, obj.gradient, X, samples=6, seed=9)
        assert a == b


class TestFdHessvecCheck:
    def test_constant_objective_at_origin_is_exact(self):
        model = ep.ExPenModel(objective=ep.constant_make(4, 2), beta=3.0)
        X = np.zeros((4, 2))
        rep = ep.fd_hessvec_check(model.grad, model.hess_vec, X, samples=8,
                                  tolerance=1e-10)
        assert rep.passed, rep.line()

    def test_quadratic_objective_near_machine_precision(self):
        obj = ep.brockett_make(ep.random_symmetric(6, 0), ep.random_symmetric(3, 1))
        rng = np.random.default_rng(5)
        X = rng.standard_normal((6, 3))
        rep = ep.fd_hessvec_check(obj.gradient, obj.hess_vec, X, samples=8,
                                  tolerance=1e-8)
        assert rep.passed, rep.line()

    def test_penalty_hessian_passes_at_default_tolerance(self):
        obj = ep.nleig_make(6, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=7.0)
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 3)) * 0.6
        rep = ep.fd_hessvec_check(model.grad, model.hess_vec, X, samples=10)
        assert rep.passed, rep.line()

    def test_negative_control_fails(self):
        obj = ep.nleig_make(5, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=4.0)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((5, 2))
        rep = ep.fd_hessvec_check(model.grad,
                                  lambda Z, D: 2.0 * model.hess_vec(Z, D),
                                  X, samples=5)
        assert not rep.passed


def _nan_oracle(Z, *direction):
    """An oracle that returns NaN in every entry of a gradient, Hessian-vector
    product or Jacobian image."""
    return np.full(np.shape(direction[0] if direction else Z), np.nan)


def _nan_objective(n, p):
    return dataclasses.replace(ep.nleig_make(n, p, alpha=1.0), gradient=_nan_oracle, value_and_grad=None)


# Each sampled check on an all-NaN oracle: max() over the samples would drop
# every NaN error and report 0 and PASS.
_NAN_CHECKS = {
    "fd_gradient": lambda X, **kw: ep.fd_gradient_check(lambda Z: np.nan, _nan_oracle, X, **kw),
    "fd_hessvec": lambda X, **kw: ep.fd_hessvec_check(_nan_oracle, _nan_oracle, X, **kw),
    "inner_identity": lambda X, **kw: ep.inner_identity_check(_nan_objective(*X.shape), X, **kw),
    "selfadjoint": lambda X, **kw: ep.selfadjoint_check(X, operator=_nan_oracle, **kw),
}


@pytest.mark.parametrize("check", sorted(_NAN_CHECKS))
def test_nan_oracle_fails_the_check(check):
    X = np.random.default_rng(12).standard_normal((5, 2))
    rep = _NAN_CHECKS[check](X)
    assert np.isnan(rep.max_rel_error)
    assert not rep.passed
    assert "max_rel_error=nan" in rep.line() and "status=FAIL" in rep.line()


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("check", sorted(_NAN_CHECKS))
def test_no_samples_is_rejected(check, samples):
    # a check that draws no sample has tested nothing, however broken the oracle
    X = np.random.default_rng(12).standard_normal((5, 2))
    with pytest.raises(DimensionError, match=f"samples must be >= 1, got {samples}"):
        _NAN_CHECKS[check](X, samples=samples)


def _assemble_by_columns(model, X):
    """The dense penalty Hessian from one hess_vec call per canonical
    direction, row-major: the reference for the stacked assembly."""
    n, p = X.shape
    H = np.empty((n * p, n * p))
    E = np.zeros((n, p))
    for j in range(n * p):
        E.flat[j] = 1.0
        H[:, j] = model.hess_vec(X, E).ravel()
        E.flat[j] = 0.0
    return 0.5 * (H + H.T)


def _greedy_reference(lam_tangent, lam_penalty):
    """The list-based greedy nearest-eigenvalue matcher, with its leftover
    floor-gap term: the reference for spectrum_correspondence's worst error."""
    remaining = lam_penalty.tolist()
    worst = 0.0
    for lam in lam_tangent:
        j = min(range(len(remaining)), key=lambda i: abs(remaining[i] - lam))
        worst = max(worst, abs(remaining.pop(j) - lam) / (1.0 + abs(lam)))
    if remaining:
        top_tangent = float(np.max(lam_tangent))
        floor_gap = top_tangent - min(remaining)
        if floor_gap > 0.0:
            worst = max(worst, floor_gap / (1.0 + abs(top_tangent)))
    return worst


class TestAssembleHessian:
    @pytest.mark.parametrize("shape", [(6, 1), (7, 3), (9, 4), (5, 5)])
    @pytest.mark.parametrize("family", ["nleig", "brockett"])
    def test_bit_identical_to_column_by_column_assembly(self, family, shape):
        n, p = shape
        if family == "nleig":
            obj = ep.nleig_make(n, p, alpha=0.9)
        else:
            obj = ep.brockett_make(ep.random_symmetric(n, 5), ep.random_symmetric(p, 6))
        model = ep.ExPenModel(objective=obj, beta=5.0)
        X = np.random.default_rng(n * p).standard_normal((n, p)) * 0.6
        H = ep.assemble_hessian(model, X)
        assert np.array_equal(H, _assemble_by_columns(model, X))


    def test_constant_objective_at_origin(self):
        beta = 6.0
        model = ep.ExPenModel(objective=ep.constant_make(3, 2), beta=beta)
        H = ep.assemble_hessian(model, np.zeros((3, 2)))
        assert np.array_equal(H, -beta * np.eye(6))

    def test_output_symmetric(self):
        obj = ep.nleig_make(5, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=8.0)
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 2)) * 0.7
        H = ep.assemble_hessian(model, X)
        assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_hess_vec_probes(self, seed):
        obj = ep.nleig_make(6, 2, alpha=0.9)
        model = ep.ExPenModel(objective=obj, beta=5.0)
        rng = np.random.default_rng(seed + 50)
        X = rng.standard_normal((6, 2)) * 0.8
        H = ep.assemble_hessian(model, X)
        for _ in range(5):
            D = rng.standard_normal((6, 2))
            hv = model.hess_vec(X, D)
            assert_allclose(H @ D.ravel(), hv.ravel(),
                            rtol=1e-10, atol=1e-10)
            quad = D.ravel() @ H @ D.ravel()
            assert abs(quad - ep.inner(D, hv)) <= 1e-10 * (1.0 + abs(quad))

    def test_size_guard(self):
        model = ep.ExPenModel(objective=ep.constant_make(100, 30), beta=1.0)
        with pytest.raises(DimensionError):
            ep.assemble_hessian(model, np.zeros((100, 30)))

    def test_nan_hess_vec_raises(self):
        obj = dataclasses.replace(ep.nleig_make(4, 2, alpha=1.0), hess_vec=_nan_oracle)
        model = ep.ExPenModel(objective=obj, beta=5.0)
        X = np.random.default_rng(13).standard_normal((4, 2))
        with pytest.raises(NumericalError, match="asymmetry nan"):
            ep.assemble_hessian(model, X)


class TestTangentBasis:
    @pytest.mark.parametrize("shape", [(5, 2), (7, 3), (6, 6), (60, 6), (4, 4), (5, 1)])
    def test_dimension_and_orthonormality(self, shape):
        n, p = shape
        Q = stiefel(n, p, seed=n + p)
        B = ep.tangent_basis(Q)
        dim = n * p - p * (p + 1) // 2
        assert B.shape == (n * p, dim)
        assert_allclose(B.T @ B, np.eye(dim), rtol=0, atol=1e-12)

    def test_columns_are_tangent(self):
        Q = stiefel(6, 3, seed=20)
        B = ep.tangent_basis(Q)
        for i in range(B.shape[1]):
            D = B[:, i].reshape(6, 3)
            assert ep.fnorm(ep.sym(D.T @ Q)) <= 1e-10

    @pytest.mark.parametrize("shape", [(60, 6), (7, 3), (4, 4), (5, 1)])
    def test_spans_the_tangent_projector(self, shape):
        n, p = shape
        Q = stiefel(n, p, seed=3 * n + p)
        B = ep.tangent_basis(Q)
        # column j of the projector is tangent_project applied to the j-th
        # canonical matrix in row-major order
        P = np.empty((n * p, n * p))
        E = np.zeros((n, p))
        for j in range(n * p):
            E.flat[j] = 1.0
            P[:, j] = ep.tangent_project(Q, E).ravel()
            E.flat[j] = 0.0
        assert_allclose(B @ B.T, P, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(60, 6), (7, 3), (4, 4), (5, 1)])
    def test_infeasible_point_raises(self, shape):
        n, p = shape
        X = stiefel(n, p, seed=n + 2 * p) * (1.0 + 1e-7)
        assert ep.feasibility(X) > 1e-8
        with pytest.raises(FeasibilityError):
            ep.tangent_basis(X)


class TestSpectrumCorrespondence:
    def test_constant_objective_structure(self):
        # hess f = 0: the penalty Hessian has np - p(p+1)/2 zero eigenvalues
        # and p(p+1)/2 eigenvalues equal to 2*beta.
        beta = 9.0
        n, p = 5, 2
        obj = ep.constant_make(n, p)
        model = ep.ExPenModel(objective=obj, beta=beta)
        Q = stiefel(n, p, seed=21)
        rep = ep.spectrum_correspondence(model, obj, Q)
        assert rep.passed, rep.line()
        lam = np.linalg.eigvalsh(ep.assemble_hessian(model, Q))
        r = n * p - p * (p + 1) // 2
        assert_allclose(lam[:r], np.zeros(r), rtol=0, atol=1e-10 * (1.0 + 2 * beta))
        assert_allclose(lam[r:], np.full(p * (p + 1) // 2, 2.0 * beta),
                        rtol=1e-10, atol=1e-10)

    def test_brockett_analytic_minimizer(self):
        B = np.diag([1.0, 2.0, 3.0, 4.0])
        C = np.diag([2.0, 1.0])
        obj = ep.brockett_make(B, C)
        model = ep.ExPenModel(objective=obj, beta=100.0)
        Xstar = np.zeros((4, 2))
        Xstar[0, 0] = 1.0
        Xstar[1, 1] = 1.0
        rep = ep.spectrum_correspondence(model, obj, Xstar)
        assert rep.passed, rep.line()
        assert rep.samples == 4 * 2 - 3  # tangent dimension

    # (tangent, penalty) spectra for the 4x2 minimiser below: 5 tangent and 8
    # penalty eigenvalues, ascending, dyadic so that every gap is exact
    CRAFTED = [
        # 1.0 ties between 0.5 and 1.5: the lower index must win, which
        # leaves 1.5 for 1.25
        ([1.0, 1.25, 4.0, 6.0, 8.0], [0.5, 1.5, 4.0, 6.0, 8.0, 9.0, 9.5, 10.0]),
        # exact ties among the eigenvalues themselves
        ([1.0, 1.0, 1.0, 2.0, 2.0], [1.0, 1.0, 1.5, 1.5, 2.0, 2.5, 2.5, 3.0]),
        ([-2.0, -2.0, 0.0, 0.0, 0.0], [-3.0, -1.0, -1.0, 0.0, 0.0, 1.0, 1.0, 7.0]),
        # leftovers below the top tangent eigenvalue: the floor-gap term
        ([0.0, 1.0, 2.0, 3.0, 10.0], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 10.0, 11.0]),
        ([-1.0, 0.5, 0.75, 2.0, 2.0], [-4.0, -1.0, 0.5, 0.75, 1.0, 2.0, 2.0, 2.25]),
    ]

    @pytest.mark.parametrize("tangent, penalty", CRAFTED)
    def test_matching_equals_greedy_reference(self, monkeypatch, tangent, penalty):
        obj = ep.brockett_make(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([2.0, 1.0]))
        model = ep.ExPenModel(objective=obj, beta=100.0)
        Xstar = np.zeros((4, 2))
        Xstar[0, 0] = Xstar[1, 1] = 1.0
        spectra = {5: np.array(tangent), 8: np.array(penalty)}
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: spectra[A.shape[0]].copy())
        rep = ep.spectrum_correspondence(model, obj, Xstar)
        expected = _greedy_reference(spectra[5], spectra[8])
        assert rep.max_rel_error == expected
        assert rep.samples == 5

    @pytest.mark.parametrize("margin", [-0.5, 0.5])
    def test_unmatched_eigenvalues_are_the_normal_spectrum_at_a_brockett_saddle(self, margin):
        # At a stationary X the penalty Hessian maps X S (S symmetric) to
        # X (2 beta S - (3/2)(Sg S + S Sg)), so its eigenvalues left over by
        # the tangent ones are 2 beta - (3/2)(mu_i + mu_j), i <= j, for the
        # eigenvalues mu of Sg; the floor test passes iff 2 beta - 3 max(mu)
        # exceeds the top tangent eigenvalue. beta sits margin above that bound.
        B = ep.random_symmetric(8, [78, 0, 1])
        C = ep.random_symmetric(3, [78, 0, 2])
        X = np.linalg.eigh(B)[1][:, [7, 0, 4]] @ np.linalg.eigh(C)[1].T
        obj = ep.brockett_make(B, C)
        n, p = X.shape
        mu = np.linalg.eigvalsh(ep.sym(X.T @ obj.gradient(X)))
        basis = ep.tangent_basis(X)
        D = basis.T.reshape(-1, n, p)
        images = obj.hess_vec(X, D) - D @ ep.sym(X.T @ obj.gradient(X))
        lam_tangent = np.linalg.eigvalsh(ep.sym(basis.T @ images.reshape(len(D), n * p).T))
        assert lam_tangent[0] < 0.0  # a saddle
        beta = 0.5 * (3.0 * mu[-1] + lam_tangent[-1]) + margin
        model = ep.ExPenModel(obj, beta)

        leftover = np.linalg.eigvalsh(ep.assemble_hessian(model, X)).tolist()
        for lam in lam_tangent:
            leftover.remove(min(leftover, key=lambda x: abs(x - lam)))
        i, j = np.triu_indices(p)
        assert_allclose(sorted(leftover), np.sort(2.0 * beta - 1.5 * (mu[i] + mu[j])), rtol=0, atol=1e-12 * (1.0 + beta))
        assert ep.spectrum_correspondence(model, obj, X).passed is (margin > 0.0)

    def test_forms_the_objective_gradient_once(self):
        obj = ep.brockett_make(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([2.0, 1.0]))
        model = ep.ExPenModel(objective=obj, beta=100.0)
        Xstar = np.zeros((4, 2))
        Xstar[0, 0] = Xstar[1, 1] = 1.0
        calls = []

        def gradient(X):
            calls.append(X)
            return obj.gradient(X)

        rep = ep.spectrum_correspondence(model, dataclasses.replace(obj, gradient=gradient), Xstar)
        assert rep.passed, rep.line()
        assert len(calls) == 1

    def test_not_stationary_raises(self):
        obj = ep.nleig_make(6, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=10.0)
        with pytest.raises(NotStationaryError):
            ep.spectrum_correspondence(model, obj, stiefel(6, 2, seed=22))

    def test_nan_gradient_is_not_stationary(self):
        # a NaN Riemannian gradient norm is no proof of stationarity; let
        # through, it reaches eigvalsh, which does not converge
        obj = ep.brockett_make(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([2.0, 1.0]))
        model = ep.ExPenModel(objective=obj, beta=100.0)
        nan_grad = dataclasses.replace(obj, gradient=lambda X: np.full(X.shape, np.nan))
        with pytest.raises(NotStationaryError, match="= nan"):
            ep.spectrum_correspondence(model, nan_grad, np.eye(4, 2))


class TestStrictSaddleCheck:
    @pytest.mark.parametrize("beta", [1.0, 10.0, 24.0])
    def test_passes(self, beta):
        rep = ep.strict_saddle_check(beta)
        assert rep.passed, rep.line()
        assert rep.tolerance == 1e-10

    def test_invalid_beta_raises(self):
        with pytest.raises(DimensionError):
            ep.strict_saddle_check(0.0)

    def test_negative_control_fails(self, monkeypatch):
        # a Hessian with no eigenvalue below -beta/24 is no strict saddle
        monkeypatch.setattr(expen.verify, "assemble_hessian", lambda model, X: np.zeros((6, 6)))
        rep = ep.strict_saddle_check(24.0)
        assert not rep.passed
        assert rep.max_rel_error == 24.0 / 25.0


class TestInnerIdentityCheck:
    def test_passes_on_random_points(self):
        obj = ep.nleig_make(7, 3, alpha=1.0)
        rng = np.random.default_rng(9)
        X = rng.standard_normal((7, 3))
        rep = ep.inner_identity_check(obj, X, samples=50)
        assert rep.passed, rep.line()
        assert rep.samples == 50

    def test_exact_at_origin(self):
        obj = ep.brockett_make(ep.random_symmetric(5, 2), ep.random_symmetric(2, 3))
        rep = ep.inner_identity_check(obj, np.zeros((5, 2)), samples=1)
        assert rep.max_rel_error == 0.0

    def test_negative_control_fails(self):
        obj = ep.nleig_make(6, 2, alpha=1.0)
        rng = np.random.default_rng(10)
        X = rng.standard_normal((6, 2))
        rep = ep.inner_identity_check(
            obj, X, samples=20,
            smoothed_grad_fn=lambda o, Z: 2.0 * ep.smoothed_grad(o, Z),
        )
        assert not rep.passed


class TestSelfadjointCheck:
    @pytest.mark.parametrize("seed", range(3))
    def test_passes(self, seed):
        rng = np.random.default_rng(seed + 60)
        X = rng.standard_normal((10, 4))
        rep = ep.selfadjoint_check(X, samples=50, seed=seed)
        assert rep.passed, rep.line()

    def test_negative_control_fails(self):
        # Note: merely dropping the symmetrization in the last term does NOT
        # break self-adjointness (tr(X^T W X^T Z) = tr(W^T X Z^T X) by
        # cyclicity), so the control adds a skew post-multiplier instead.
        rng = np.random.default_rng(11)
        X = rng.standard_normal((8, 3))
        K = np.zeros((3, 3))
        K[0, 1], K[1, 0] = 1.0, -1.0

        def skewed(Z, D):
            return ep.jx_apply(Z, D) + D @ K

        rep = ep.selfadjoint_check(X, samples=20, operator=skewed)
        assert not rep.passed

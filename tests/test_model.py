"""Tests for the smooth objective container and the exact-penalty oracle."""

import dataclasses
import itertools
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import expen as ep
import expen.model
import expen.problems
from expen.exceptions import CapabilityError, DimensionError, NumericalError

from helpers import near_stiefel, reference_nleig, same_bits, stiefel


def _selection(n, p):
    """Exact selection matrix [e_1 ... e_p]: orthonormal in exact floats."""
    X = np.zeros((n, p))
    X[np.arange(p), np.arange(p)] = 1.0
    return X


class TestSmoothObjective:
    def test_field_validation(self):
        f = lambda X: 0.0
        g = lambda X: np.zeros((2, 3))
        with pytest.raises(DimensionError):
            ep.SmoothObjective(n=2, p=3, value=f, gradient=g)
        with pytest.raises(DimensionError):
            ep.SmoothObjective(n=3, p=0, value=f, gradient=g)

    def test_hess_vec_optional(self):
        obj = ep.SmoothObjective(n=3, p=2, value=lambda X: 0.0,
                                 gradient=lambda X: np.zeros((3, 2)))
        assert obj.hess_vec is None


class TestApenMap:
    def test_scalar_hand_example(self):
        # n = p = 1, X = 2: A(X) = 1.5 - 0.5*4 = -0.5, X*A(X) = -1.
        X = np.array([[2.0]])
        assert ep.apen_map(X)[0, 0] == -1.0

    def test_exact_fixed_point_on_selection(self):
        X = _selection(5, 3)
        assert np.array_equal(ep.apen_map(X), X)

    @pytest.mark.parametrize("seed", range(5))
    def test_fixed_point_on_random_stiefel(self, seed):
        Q = stiefel(8, 3, seed)
        assert_allclose(ep.apen_map(Q), Q, rtol=0, atol=1e-13)

    def test_zero_maps_to_zero(self):
        assert np.array_equal(ep.apen_map(np.zeros((4, 2))), np.zeros((4, 2)))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            ep.apen_map(np.zeros((2, 4)))


class TestJxApply:
    @pytest.mark.parametrize("seed", range(5))
    def test_tangent_identity_at_feasible_point(self, seed):
        # On the manifold the map's derivative fixes tangent directions.
        rng = np.random.default_rng(seed)
        Q = stiefel(9, 4, seed)
        D = ep.tangent_project(Q, rng.standard_normal((9, 4)))
        assert_allclose(ep.jx_apply(Q, D), D, rtol=0, atol=1e-13)

    def test_zero_direction(self):
        X = near_stiefel(6, 2, seed=1)
        assert np.array_equal(ep.jx_apply(X, np.zeros((6, 2))), np.zeros((6, 2)))

    def test_linearity_in_direction(self):
        rng = np.random.default_rng(7)
        X = near_stiefel(7, 3, seed=2)
        D1 = rng.standard_normal((7, 3))
        D2 = rng.standard_normal((7, 3))
        lhs = ep.jx_apply(X, 2.0 * D1 - 3.0 * D2)
        rhs = 2.0 * ep.jx_apply(X, D1) - 3.0 * ep.jx_apply(X, D2)
        assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    def test_directional_derivative_scaling(self):
        # || (A-map(X+tD) - A-map(X))/t - J_X(D) || shrinks linearly with t.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 3))
        D = rng.standard_normal((6, 3))
        J = ep.jx_apply(X, D)

        def err(t):
            fd = (ep.apen_map(X + t * D) - ep.apen_map(X)) / t
            return ep.fnorm(fd - J)

        e4, e5 = err(1e-4), err(1e-5)
        assert e4 / ep.fnorm(J) < 1e-2
        assert 4.0 < e4 / e5 < 25.0  # first-order remainder: error ~ O(t)


class TestSmoothedOracles:
    def test_value_and_grad_match_finite_differences(self):
        obj = ep.nleig_make(8, 3, alpha=1.0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 3)) * 0.6
        rep = ep.fd_gradient_check(
            lambda Z: obj.value(ep.apen_map(Z)),
            lambda Z: ep.smoothed_grad(obj, Z),
            X,
            samples=8,
            name="smoothed-nleig",
        )
        assert rep.passed, rep.line()

    def test_smoothed_grad_is_riemannian_grad_on_manifold(self):
        obj = ep.brockett_make(ep.random_symmetric(7, 0), ep.random_symmetric(3, 1))
        Q = stiefel(7, 3, seed=4)
        assert_allclose(ep.smoothed_grad(obj, Q), ep.riemannian_grad(obj, Q),
                        rtol=0, atol=1e-12)


class TestDefaultBeta:
    def test_rule_is_tenth_of_gradient_norm(self):
        obj = ep.nleig_make(10, 4, alpha=1.0)
        Q = stiefel(10, 4, seed=0)
        assert ep.default_beta(obj, Q) == ep.fnorm(obj.gradient(Q)) / 10.0

    def test_zero_gradient_falls_back_to_one(self):
        obj = ep.constant_make(5, 2, level=3.0)
        assert ep.default_beta(obj, stiefel(5, 2, seed=0)) == 1.0

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_gradient_norm_raises(self, entry):
        obj = dataclasses.replace(ep.nleig_make(5, 2, alpha=1.0),
                                  gradient=lambda X: np.full(X.shape, entry))
        with pytest.raises(NumericalError, match=f"is {entry}"):
            ep.default_beta(obj, stiefel(5, 2, seed=0))


class TestPenaltyValue:
    def test_scalar_hand_example(self):
        # f(y) = y, n = p = 1, X = 2, beta = 4: mapped point -1,
        # constraint residual 3, h = f(-1) + (4/4)*3^2 = 8.
        model = ep.ExPenModel(objective=ep.linear_make(np.array([[1.0]])), beta=4.0)
        assert model.value(np.array([[2.0]])) == 8.0

    def test_equals_objective_on_selection_exactly(self):
        obj = ep.nleig_make(6, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=3.0)
        X = _selection(6, 2)
        assert model.value(X) == obj.value(X)

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_objective_on_random_stiefel(self, seed):
        obj = ep.nleig_make(9, 3, alpha=0.7)
        model = ep.ExPenModel(objective=obj, beta=11.0)
        Q = stiefel(9, 3, seed)
        assert_allclose(model.value(Q), obj.value(Q),
                        rtol=1e-12, atol=1e-12)

    def test_pure_penalty_when_objective_is_zero(self):
        model = ep.ExPenModel(objective=ep.constant_make(4, 2), beta=6.0)
        X = np.zeros((4, 2))
        # residual is -I, squared norm p = 2, value (6/4)*2 = 3.
        assert model.value(X) == 3.0

    def test_beta_validation(self):
        obj = ep.constant_make(3, 2)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises((DimensionError, ValueError)):
                ep.ExPenModel(objective=obj, beta=bad)

    def test_shape_validation(self):
        model = ep.ExPenModel(objective=ep.constant_make(4, 2), beta=1.0)
        with pytest.raises(DimensionError):
            model.value(np.zeros((4, 3)))


class TestPenaltyGradient:
    def test_scalar_hand_example(self):
        # Same setup as the value example: grad f = 1 everywhere, so
        # grad h = 1*(-1/2) - 2*sym(2*1) + 4*2*(4-1) = 19.5.
        model = ep.ExPenModel(objective=ep.linear_make(np.array([[1.0]])), beta=4.0)
        assert model.grad(np.array([[2.0]]))[0, 0] == 19.5

    def test_zero_at_origin_for_constant_objective(self):
        model = ep.ExPenModel(objective=ep.constant_make(5, 2), beta=4.0)
        assert np.array_equal(model.grad(np.zeros((5, 2))), np.zeros((5, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_riemannian_grad_on_manifold(self, seed):
        obj = ep.nleig_make(8, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=9.0)
        Q = stiefel(8, 3, seed)
        rg = ep.riemannian_grad(obj, Q)
        assert ep.fnorm(model.grad(Q) - rg) <= 1e-12 * (1.0 + ep.fnorm(rg))

    def test_finite_difference_agreement(self):
        obj = ep.brockett_make(ep.random_symmetric(6, 2), ep.random_symmetric(3, 3))
        model = ep.ExPenModel(objective=obj, beta=5.0)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 3)) * 0.7
        rep = ep.fd_gradient_check(model.value, model.grad, X, samples=10,
                                   name="expen-grad")
        assert rep.passed, rep.line()


class TestPenaltyHessVec:
    def test_constant_objective_at_origin_is_minus_beta_identity(self):
        beta = 7.0
        model = ep.ExPenModel(objective=ep.constant_make(5, 3), beta=beta)
        rng = np.random.default_rng(2)
        D = rng.standard_normal((5, 3))
        assert_allclose(model.hess_vec(np.zeros((5, 3)), D), -beta * D,
                        rtol=0, atol=0)

    def test_linearity_in_direction(self):
        obj = ep.nleig_make(7, 2, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=4.0)
        X = near_stiefel(7, 2, seed=5)
        rng = np.random.default_rng(8)
        D1 = rng.standard_normal((7, 2))
        D2 = rng.standard_normal((7, 2))
        lhs = model.hess_vec(X, 1.5 * D1 + 0.5 * D2)
        rhs = 1.5 * model.hess_vec(X, D1) + 0.5 * model.hess_vec(X, D2)
        assert_allclose(lhs, rhs, rtol=0, atol=1e-11)

    @pytest.mark.parametrize("seed", range(4))
    def test_bilinear_symmetry(self, seed):
        obj = ep.nleig_make(6, 3, alpha=0.5)
        model = ep.ExPenModel(objective=obj, beta=6.0)
        rng = np.random.default_rng(seed + 40)
        X = rng.standard_normal((6, 3)) * 0.8
        W = rng.standard_normal((6, 3))
        Z = rng.standard_normal((6, 3))
        a = ep.inner(W, model.hess_vec(X, Z))
        b = ep.inner(Z, model.hess_vec(X, W))
        assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_finite_difference_agreement(self):
        obj = ep.nleig_make(6, 3, alpha=1.0)
        model = ep.ExPenModel(objective=obj, beta=8.0)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((6, 3)) * 0.6
        rep = ep.fd_hessvec_check(model.grad, model.hess_vec, X, samples=8)
        assert rep.passed, rep.line()

    @pytest.mark.parametrize("shape", [(5, 4), (2, 6, 3), (6, 3), (1, 2, 5, 3), (5,), ()])
    def test_direction_shape_validated(self, shape):
        model = ep.ExPenModel(objective=ep.nleig_make(5, 3), beta=2.0)
        with pytest.raises(DimensionError):
            model.hess_vec(np.zeros((5, 3)), np.zeros(shape))

    def test_constant_objective_stack_matches_per_direction_calls(self):
        model = ep.ExPenModel(objective=ep.constant_make(6, 2, level=3.0), beta=4.0)
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 2))
        D = rng.standard_normal((4, 6, 2))
        assert same_bits(model.hess_vec(X, D), np.stack([model.hess_vec(X, Dk) for Dk in D]))

    def test_missing_oracle_raises_capability_error(self):
        obj = ep.SmoothObjective(n=4, p=2, value=lambda X: 0.0,
                                 gradient=lambda X: np.zeros((4, 2)))
        model = ep.ExPenModel(objective=obj, beta=1.0)
        with pytest.raises(CapabilityError):
            model.hess_vec(np.zeros((4, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("seed", range(4))
    def test_tangent_quadratic_form_matches_riemannian_on_manifold(self, seed):
        obj = ep.brockett_make(ep.random_symmetric(7, 10), ep.random_symmetric(3, 11))
        model = ep.ExPenModel(objective=obj, beta=13.0)
        rng = np.random.default_rng(seed + 70)
        Q = stiefel(7, 3, seed + 20)
        D = ep.tangent_project(Q, rng.standard_normal((7, 3)))
        lhs = ep.inner(D, model.hess_vec(Q, D))
        rhs = ep.inner(D, obj.hess_vec(Q, D) - D @ ep.sym(Q.T @ obj.gradient(Q)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


class TestGradientLowerBound:
    @pytest.mark.parametrize("seed", range(20))
    def test_penalty_gradient_dominates_feasible_stationarity(self, seed):
        # Near the manifold, stationarity of the penalty certifies joint
        # smallness of the projected gradient and the feasibility residual.
        obj = ep.nleig_make(8, 3, alpha=1.0)
        X = near_stiefel(8, 3, seed)
        beta = 100.0 * max(1.0, ep.fnorm(obj.gradient(X)))
        model = ep.ExPenModel(objective=obj, beta=beta)
        report = ep.stationarity_report(model, X)
        assert report.certified  # feasibility <= 1/6 and <= (4/beta) ||grad h|| + 1e-12
        assert report.projected_riem_grad_norm <= 2.0 * report.grad_h_norm + 1e-12


class TestModelMetadata:
    def test_dimensions_exposed(self):
        model = ep.ExPenModel(objective=ep.constant_make(9, 4), beta=2.0)
        assert (model.n, model.p) == (9, 4)

    def test_fields_are_objective_and_beta(self):
        assert [f.name for f in dataclasses.fields(ep.ExPenModel)] == ["objective", "beta"]

    def test_frozen(self):
        model = ep.ExPenModel(objective=ep.constant_make(3, 2), beta=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.beta = 5.0

    @pytest.mark.parametrize("objective", [None, ep.constant_make(3, 2).value], ids=["none", "function"])
    def test_objective_must_be_a_smooth_objective(self, objective):
        with pytest.raises(DimensionError, match="SmoothObjective"):
            ep.ExPenModel(objective=objective, beta=2.0)


# The penalty oracles written straight through, the reference whose bits the
# model's evaluations must reproduce: every call recomputes
# A(X) = 1.5 I - 0.5 X^T X, X^T X - I, the mapped point and its gradient.
def _ref_parts(obj, X):
    S = X.T @ X
    A = -0.5 * S
    np.fill_diagonal(A, A.diagonal() + 1.5)
    return A, S - np.eye(obj.p), X @ A


def _ref_value(obj, beta, X):
    _, R, Y = _ref_parts(obj, X)
    return float(obj.value(Y)) + 0.25 * beta * float(np.vdot(R, R))


def _ref_grad(obj, beta, X):
    A, R, Y = _ref_parts(obj, X)
    G = np.asarray(obj.gradient(Y), dtype=float)
    return G @ A - X @ (ep.sym(X.T @ G) - beta * R)


def _ref_hess_vec_terms(obj, beta, X, D):
    # the four summands of the grouped form: HJD A, -G S_D, D (beta R - sym(X^T G))
    # and X (2 beta S_D - sym(D^T G) - sym(HJD^T X))
    A, R, Y = _ref_parts(obj, X)
    G = np.asarray(obj.gradient(Y), dtype=float)
    SD = ep.sym(D.T @ X)
    HJD = np.asarray(obj.hess_vec(Y, D @ A - X @ SD), dtype=float)
    return (
        HJD @ A,
        -(G @ SD),
        D @ (beta * R - ep.sym(X.T @ G)),
        X @ (2.0 * beta * SD - ep.sym(D.T @ G) - ep.sym(HJD.T @ X)),
    )


def _ref_hess_vec(obj, beta, X, D):
    a, b, c, d = _ref_hess_vec_terms(obj, beta, X, D)
    return a + b + c + d


# The same oracles in the expanded form A(X) = 1.5 I - 0.5 S was first written
# in: the closed form above reorders the floating-point work, so the two agree
# to rounding, not bit for bit.
def _expanded_value(obj, beta, X):
    S = X.T @ X
    R = S - np.eye(obj.p)
    fv = float(obj.value(1.5 * X - 0.5 * (X @ S)))
    return fv + 0.25 * beta * float(np.vdot(R, R))


def _expanded_grad(obj, beta, X):
    S = X.T @ X
    R = S - np.eye(obj.p)
    G = np.asarray(obj.gradient(1.5 * X - 0.5 * (X @ S)), dtype=float)
    return 1.5 * G - 0.5 * (G @ S) - X @ ep.sym(X.T @ G) + beta * (X @ R)


def _expanded_hess_vec(obj, beta, X, D):
    S = X.T @ X
    R = S - np.eye(obj.p)
    Y = 1.5 * X - 0.5 * (X @ S)
    G = np.asarray(obj.gradient(Y), dtype=float)
    JD = 1.5 * D - 0.5 * (D @ S) - X @ ep.sym(D.T @ X)
    HJD = np.asarray(obj.hess_vec(Y, JD), dtype=float)
    JHJD = 1.5 * HJD - 0.5 * (HJD @ S) - X @ ep.sym(HJD.T @ X)
    return (
        JHJD
        - D @ ep.sym(X.T @ G)
        - X @ ep.sym(D.T @ G)
        - G @ ep.sym(D.T @ X)
        + beta * (2.0 * (X @ ep.sym(X.T @ D)) + D @ R)
    )


def _nleig_case(alpha):
    def make(n, p):
        return ep.nleig_make(n, p, alpha=alpha), reference_nleig(n, p, alpha)
    return make


def _brockett_case(n, p):
    obj = ep.brockett_make(ep.random_symmetric(n, 3), ep.random_symmetric(p, 4))
    return obj, obj


_CASES = {"nleig-alpha0": _nleig_case(0.0), "nleig-alpha1": _nleig_case(1.0), "brockett": _brockett_case}


class TestClosedFormMatchesExpanded:
    """The A(X) closed form agrees with the expanded expressions to rounding."""

    n, p, beta = 7, 3, 3.0

    @pytest.mark.parametrize("case", _CASES)
    @pytest.mark.parametrize("scale", [1.0, 1.3])
    @pytest.mark.parametrize("seed", range(3))
    def test_value_grad_hess_vec(self, case, scale, seed):
        obj, _ = _CASES[case](self.n, self.p)
        model = ep.ExPenModel(obj, beta=self.beta)
        X = scale * near_stiefel(self.n, self.p, seed)
        D = np.random.default_rng(seed + 30).standard_normal((self.n, self.p))
        v = _expanded_value(obj, self.beta, X)
        assert abs(model.value(X) - v) <= 1e-12 * abs(v)
        g = _expanded_grad(obj, self.beta, X)
        assert ep.fnorm(model.grad(X) - g) <= 1e-12 * ep.fnorm(g)
        H = _expanded_hess_vec(obj, self.beta, X, D)
        assert ep.fnorm(model.hess_vec(X, D) - H) <= 1e-12 * ep.fnorm(H)


@st.composite
def _penalty_cases(draw):
    """A model on a Brockett, nleig or constant objective, a scaled Stiefel
    point and a stack of random directions."""
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["brockett", "nleig", "constant"]))
    if kind == "brockett":
        obj = ep.brockett_make(ep.random_symmetric(n, [seed, 0]), ep.random_symmetric(p, [seed, 1]))
    elif kind == "nleig":
        obj = ep.nleig_make(n, p, alpha=draw(st.floats(0.0, 3.0)))
    else:
        obj = ep.constant_make(n, p, level=1.0)
    model = ep.ExPenModel(obj, beta=draw(st.floats(0.1, 100.0)))
    X = draw(st.floats(0.5, 1.5)) * stiefel(n, p, seed)
    D = np.random.default_rng(seed).standard_normal((draw(st.integers(1, 4)), n, p))
    return model, X, D


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_penalty_cases())
def test_hess_vec_matches_expanded_and_stack_slices_match_calls(case):
    # Rounding scales with the summands, which can nearly cancel: at a 1 x 1
    # nleig point the image can be a thousandth of them, so the error is
    # measured against the larger of the image and the summands' norms.
    model, X, D = case
    H = model.hess_vec(X, D)
    for Dk, Hk in zip(D, H):
        assert same_bits(Hk, model.hess_vec(X, Dk))
        E = _expanded_hess_vec(model.objective, model.beta, X, Dk)
        terms = _ref_hess_vec_terms(model.objective, model.beta, X, Dk)
        assert ep.fnorm(Hk - E) <= 1e-12 * max(ep.fnorm(E), max(map(ep.fnorm, terms)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_penalty_cases())
def test_evaluation_matches_wrappers_in_every_call_order(case):
    model, X, D = case
    expected = {"value": model.value(X), "grad": model.grad(X), "hess_vec": model.hess_vec(X, D)}
    for order in itertools.permutations(expected):
        evaluation = model.at(X)
        for name in order:
            got = evaluation.hess_vec(D) if name == "hess_vec" else getattr(evaluation, name)()
            assert same_bits(got, expected[name])
    g1, g2 = evaluation.grad(), evaluation.grad()
    assert same_bits(g1, g2) and g1 is not g2


class TestMemoBitIdentity:
    """The model's oracles return the bits of the straight-through _ref_*
    reference in any call order, at alternating points, at points changed in
    place and from threads sharing one model. These cases exercise the
    evaluation the model shares between value, grad and hess_vec."""

    n, p, beta = 7, 3, 3.0

    def _setup(self, case, seed=0):
        obj, ref = _CASES[case](self.n, self.p)
        model = ep.ExPenModel(obj, beta=self.beta)
        X = 1.3 * near_stiefel(self.n, self.p, seed)
        return model, ref, X

    def _check_value(self, model, ref, X):
        assert same_bits(model.value(X), _ref_value(ref, self.beta, X))

    def _check_grad(self, model, ref, X):
        assert same_bits(model.grad(X), _ref_grad(ref, self.beta, X))

    @pytest.mark.parametrize("case", _CASES)
    def test_value_then_grad(self, case):
        model, ref, X = self._setup(case)
        self._check_value(model, ref, X)
        self._check_grad(model, ref, X)
        self._check_value(model, ref, X)

    @pytest.mark.parametrize("case", _CASES)
    def test_grad_then_value(self, case):
        model, ref, X = self._setup(case)
        self._check_grad(model, ref, X)
        self._check_value(model, ref, X)
        self._check_grad(model, ref, X)

    @pytest.mark.parametrize("case", _CASES)
    @pytest.mark.parametrize("k", [1, 6])
    def test_stacked_hess_vec_matches_per_direction_calls(self, case, k):
        model, ref, X = self._setup(case)
        D = np.random.default_rng(k).standard_normal((k, self.n, self.p))
        H = model.hess_vec(X, D)
        assert same_bits(H, np.stack([model.hess_vec(X, Dk) for Dk in D]))
        assert same_bits(H[-1], _ref_hess_vec(ref, self.beta, X, D[-1]))

    @pytest.mark.parametrize("case", _CASES)
    def test_hess_vec_columns_with_direction_mutated_in_place(self, case):
        # one X and one direction buffer E, rewritten between calls
        model, ref, X = self._setup(case)
        E = np.zeros((self.n, self.p))
        for j in range(self.n * self.p):
            E.flat[j] = 1.0
            assert same_bits(model.hess_vec(X, E), _ref_hess_vec(ref, self.beta, X, E))
            E.flat[j] = 0.0
        self._check_value(model, ref, X)
        self._check_grad(model, ref, X)

    @pytest.mark.parametrize("case", _CASES)
    def test_alternating_points(self, case):
        model, ref, X1 = self._setup(case, seed=1)
        X2 = 0.9 * near_stiefel(self.n, self.p, seed=2)
        D = np.random.default_rng(5).standard_normal((self.n, self.p))
        for X in (X1, X2, X1, X2, X2, X1):
            self._check_value(model, ref, X)
            self._check_grad(model, ref, X)
            assert same_bits(model.hess_vec(X, D), _ref_hess_vec(ref, self.beta, X, D))

    @pytest.mark.parametrize("case", _CASES)
    def test_point_mutated_in_place_misses(self, case):
        model, ref, X = self._setup(case, seed=3)
        self._check_value(model, ref, X)
        X[2, 1] = np.nextafter(X[2, 1], np.inf)  # one last-bit change
        self._check_grad(model, ref, X)
        self._check_value(model, ref, X)
        X[0, 0] = -0.0 if X[0, 0] == 0.0 else -X[0, 0]
        self._check_value(model, ref, X)
        self._check_grad(model, ref, X)

    def test_mutating_a_returned_gradient_changes_no_later_result(self):
        # a caller mutating a returned gradient must not change what an
        # evaluation, or the objective's own memo, gives next
        model, ref, X = self._setup("nleig-alpha0")
        g = model.grad(X)
        g[:] = np.nan
        self._check_grad(model, ref, X)
        self._check_value(model, ref, X)
        evaluation = model.at(X)
        evaluation.grad()[:] = np.nan
        assert same_bits(evaluation.grad(), _ref_grad(ref, self.beta, X))

    def test_threads_sharing_one_model_agree_with_single_thread(self):
        # More threads than cores call one nleig objective and one model at a
        # handful of points, with the interpreter switching threads often.
        n, p, beta = 30, 4, 5.0
        obj = ep.nleig_make(n, p, alpha=1.0)
        model = ep.ExPenModel(obj, beta=beta)
        ref = reference_nleig(n, p, 1.0)
        points = [1.1 * stiefel(n, p, s) for s in range(4)]
        D = np.random.default_rng(11).standard_normal((n, p))
        oracles = [
            (model.value, lambda X: _ref_value(ref, beta, X)),
            (model.grad, lambda X: _ref_grad(ref, beta, X)),
            (lambda X: model.hess_vec(X, D), lambda X: _ref_hess_vec(ref, beta, X, D)),
            (obj.value, ref.value),
            (obj.gradient, ref.gradient),
            (lambda X: obj.hess_vec(X, D), lambda X: ref.hess_vec(X, D)),
        ]
        expected = [[reference(X) for _, reference in oracles] for X in points]
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(150):
                    i = int(rng.integers(len(points)))
                    k = int(rng.integers(len(oracles)))
                    if not same_bits(oracles[k][0](points[i]), expected[i][k]):
                        errors.append((seed, i, k))
            except Exception as exc:  # reported by the assert below
                errors.append((seed, repr(exc)))

        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        threads = [threading.Thread(target=worker, args=(s,), daemon=True) for s in range(cores + 4)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert errors == []


class TestSharedEvaluation:
    """value, grad and hess_vec share the Evaluation of the last point asked:
    what a point costs, counted in evaluations built, tridiagonal solves and
    stencil matvecs (nleig applies its stencil in place, never by matvec)."""

    n, p = 9, 3

    def _setup(self, seed=0):
        model = ep.ExPenModel(ep.nleig_make(self.n, self.p, alpha=1.0), beta=2.0)
        return model, 1.1 * stiefel(self.n, self.p, seed)

    @staticmethod
    def _count(monkeypatch):
        counts = {"evaluations": 0, "solves": 0, "matvecs": 0}
        evaluation, solve, matvec = expen.model.Evaluation, expen.problems.tridiag_solve, ep.TridiagMatrix.matvec

        class CountedEvaluation(evaluation):
            def __init__(self, *args):
                counts["evaluations"] += 1
                super().__init__(*args)

        def counted_solve(T, rhs):
            counts["solves"] += 1
            return solve(T, rhs)

        def counted_matvec(T, v):
            counts["matvecs"] += 1
            return matvec(T, v)

        monkeypatch.setattr(expen.model, "Evaluation", CountedEvaluation)
        monkeypatch.setattr(expen.problems, "tridiag_solve", counted_solve)
        monkeypatch.setattr(ep.TridiagMatrix, "matvec", counted_matvec)
        return counts

    def test_grad_then_value_costs_one_evaluation_and_one_solve(self, monkeypatch):
        model, X = self._setup()
        counts = self._count(monkeypatch)
        g, v = model.grad(X), model.value(X)
        assert counts == {"evaluations": 1, "solves": 1, "matvecs": 0}
        fresh = model.at(X)
        assert same_bits(g, fresh.grad()) and same_bits(v, fresh.value())

    def test_point_changed_in_place_misses(self, monkeypatch):
        model, X = self._setup(seed=1)
        counts = self._count(monkeypatch)
        model.grad(X)
        X[4, 2] = np.nextafter(X[4, 2], np.inf)  # one last-bit change
        v = model.value(X)
        assert counts == {"evaluations": 2, "solves": 2, "matvecs": 0}
        assert same_bits(v, model.at(X).value())

    @pytest.mark.parametrize("k", [None, 5], ids=["one", "stack"])
    def test_hess_vec_costs_two_solves(self, monkeypatch, k):
        # at the last point asked: nleig's own z = L^{-1} rho and one w solve
        model, X = self._setup(seed=2)
        shape = (self.n, self.p) if k is None else (k, self.n, self.p)
        D = np.random.default_rng(2).standard_normal(shape)
        model.value(X)
        counts = self._count(monkeypatch)
        H = model.hess_vec(X, D)
        assert counts == {"evaluations": 0, "solves": 2, "matvecs": 0}
        assert same_bits(H, model.at(X).hess_vec(D))


_LAYOUTS = {
    "fortran": np.asfortranarray,
    "strided": lambda M: np.repeat(M, 2, axis=-1)[..., ::2],
}


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("case, n, p", [("nleig-alpha1", 250, 50), ("nleig-alpha1", 4000, 3), ("brockett", 60, 6)])
def test_oracles_do_not_depend_on_memory_layout(case, n, p, layout):
    # an F-ordered or strided X (and D) gets the bits of its C-ordered copy
    model = ep.ExPenModel(_CASES[case](n, p)[0], beta=3.0)
    X = near_stiefel(n, p, seed=n)
    D = np.random.default_rng(p).standard_normal((2, n, p))
    Xl, Dl = _LAYOUTS[layout](X), _LAYOUTS[layout](D)
    assert not Xl.flags.c_contiguous and np.array_equal(Xl, X) and np.array_equal(Dl, D)
    fresh = model.at(np.ascontiguousarray(Xl))
    assert same_bits(model.value(Xl), fresh.value())
    assert same_bits(model.grad(Xl), fresh.grad())
    assert same_bits(model.hess_vec(Xl, Dl), fresh.hess_vec(D))
    assert same_bits(model.at(Xl).grad(), fresh.grad())


# The other public functions that take a point or a direction, and the Frobenius
# norm and inner product that reduce them, as (X, Q, D) -> result with X near
# the manifold, Q on it and D a direction.
_POINT_FUNCTIONS = {
    "apen_map": lambda X, Q, D: ep.apen_map(X),
    "jx_apply": lambda X, Q, D: ep.jx_apply(X, D),
    "feasibility": lambda X, Q, D: ep.feasibility(X),
    "project_stiefel": lambda X, Q, D: ep.project_stiefel(X),
    "tangent_project": lambda X, Q, D: ep.tangent_project(Q, D),
    "riemannian_grad": lambda X, Q, D: ep.riemannian_grad(ep.nleig_make(*Q.shape), Q),
    "tangent_basis": lambda X, Q, D: ep.tangent_basis(Q),
    "fnorm": lambda X, Q, D: ep.fnorm(X),
    "inner": lambda X, Q, D: ep.inner(X, D),
    "selfadjoint_check": lambda X, Q, D: ep.selfadjoint_check(X, samples=2).max_rel_error,
    "fd_gradient_check": lambda X, Q, D: _nleig_fd_gradient_error(X),
}


def _objective_oracles(name, make):
    # an objective's oracles at X near the manifold, value_and_grad as its gradient with
    # the value appended, and hess_vec once with X laid out and once with D
    obj = lambda X: make(*X.shape)
    fused = lambda f_G: np.append(f_G[1], f_G[0])
    return {
        f"{name}.value": lambda X, Q, D: obj(X).value(X),
        f"{name}.gradient": lambda X, Q, D: obj(X).gradient(X),
        f"{name}.value_and_grad": lambda X, Q, D: fused(obj(X).value_and_grad(X)),
        f"{name}.hess_vec-X": lambda X, Q, D: obj(X).hess_vec(X, np.ascontiguousarray(D)),
        f"{name}.hess_vec-D": lambda X, Q, D: obj(X).hess_vec(np.ascontiguousarray(X), D),
    }


_POINT_FUNCTIONS.update(_objective_oracles("nleig", ep.nleig_make))
_POINT_FUNCTIONS.update(_objective_oracles("brockett", lambda n, p: _brockett_case(n, p)[0]))


def _nleig_fd_gradient_error(X):
    # the objective's own oracles, which fd_gradient_check hands C-ordered points only
    obj = ep.nleig_make(*X.shape)
    return ep.fd_gradient_check(obj.value, obj.gradient, X, samples=2).max_rel_error


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize(
    "function, n, p",
    [(f, n, p) for f in _POINT_FUNCTIONS if f != "tangent_basis" and not f.startswith("brockett.")
     for n, p in ((250, 50), (4000, 3))]
    + [("tangent_basis", 30, 4)]
    + [(f, 60, 6) for f in _POINT_FUNCTIONS if f.startswith("brockett.")],
)
def test_point_functions_do_not_depend_on_memory_layout(function, n, p, layout):
    # every argument F-ordered or strided gets the bits of its C-ordered copy
    args = (near_stiefel(n, p, seed=n), stiefel(n, p, seed=p), np.random.default_rng(p).standard_normal((n, p)))
    laid_out = [_LAYOUTS[layout](M) for M in args]
    assert all(not M.flags.c_contiguous and np.array_equal(M, A) for M, A in zip(laid_out, args))
    assert same_bits(_POINT_FUNCTIONS[function](*laid_out), _POINT_FUNCTIONS[function](*args))


@st.composite
def _call_sequences(draw):
    """A model on an objective with a fused oracle (nleig, Brockett) or
    without one (nleig written straight through), three points, a direction
    (or a stack, except for the straight-through nleig), and a sequence of
    (oracle, point, change the point after the call)."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(["nleig", "brockett", "reference"]))
    if kind == "nleig":
        obj = ep.nleig_make(n, p, alpha=1.0)
    elif kind == "brockett":
        obj = ep.brockett_make(ep.random_symmetric(n, [seed, 0]), ep.random_symmetric(p, [seed, 1]))
    else:
        obj = reference_nleig(n, p, 1.0)
    model = ep.ExPenModel(obj, beta=draw(st.floats(0.1, 100.0)))
    rng = np.random.default_rng(seed)
    points = [rng.uniform(0.5, 1.5) * stiefel(n, p, seed + i) for i in range(3)]
    D = rng.standard_normal((n, p) if kind == "reference" else draw(st.sampled_from([(n, p), (2, n, p)])))
    calls = draw(st.lists(
        st.tuples(st.sampled_from(["value", "grad", "hess_vec"]), st.integers(0, 5), st.booleans()),
        min_size=1,
        max_size=12,
    ))
    return model, points, D, calls


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_call_sequences())
def test_shared_evaluation_equals_a_fresh_one_in_any_interleaving(case):
    # Threads share the model. Each runs the sequence on its own copies of the
    # points (j < 3), changed in place in their last bit after a call where
    # asked, or on a new copy of a point as drawn (j >= 3), which has the
    # bits an earlier call saw before the change.
    model, points, D, calls = case
    errors = []

    def worker(t):
        mine = [X.copy() for X in points]
        try:
            for i, (name, j, change) in enumerate(calls):
                X = mine[j] if j < 3 else points[j - 3].copy()
                fresh = model.at(X.copy())
                if name == "hess_vec":
                    got, expected = model.hess_vec(X, D), fresh.hess_vec(D)
                else:
                    got, expected = getattr(model, name)(X), getattr(fresh, name)()
                if not same_bits(got, expected):
                    errors.append((t, i, name))
                if change:
                    r, c = (i + t) % X.shape[0], (i + t) % X.shape[1]
                    X[r, c] = np.nextafter(X[r, c], np.inf)
        except Exception as exc:  # reported by the assert below
            errors.append((t, repr(exc)))

    threads = [threading.Thread(target=worker, args=(t,), daemon=True) for t in range(3)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert errors == []

"""Tests for the benchmark objectives and reproducible random points."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import expen as ep
from expen.exceptions import DimensionError

from helpers import expanded_nleig, reference_nleig, same_bits, stiefel


class TestNleig:
    def test_quadratic_term_hand_example(self):
        obj = ep.nleig_make(2, 1, alpha=0.0)
        X = np.array([[1.0], [0.0]])
        assert obj.value(X) == 1.0  # (1/2) x^T L x with L = [[2,-1],[-1,2]]

    def test_coupling_term_hand_example(self):
        # rho = (1,0), L^+ rho = (2/3, 1/3), value 1 + (1/4)(2/3) = 7/6.
        obj = ep.nleig_make(2, 1, alpha=1.0)
        X = np.array([[1.0], [0.0]])
        assert_allclose(obj.value(X), 7.0 / 6.0, rtol=1e-15, atol=0)

    def test_gradient_matches_finite_differences(self):
        obj = ep.nleig_make(8, 2, alpha=1.0)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((8, 2)) * 0.7
        rep = ep.fd_gradient_check(obj.value, obj.gradient, X, samples=10,
                                   tolerance=1e-6, name="nleig-grad")
        assert rep.passed, rep.line()

    def test_hess_vec_matches_finite_differences(self):
        obj = ep.nleig_make(7, 3, alpha=0.8)
        rng = np.random.default_rng(1)
        X = rng.standard_normal((7, 3)) * 0.6
        rep = ep.fd_hessvec_check(obj.gradient, obj.hess_vec, X, samples=10)
        assert rep.passed, rep.line()

    @pytest.mark.parametrize("seed", range(5))
    def test_value_invariant_under_right_rotation(self, seed):
        # Both terms depend on X only through X X^T.
        obj = ep.nleig_make(9, 3, alpha=1.0)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((9, 3))
        Q = ep.random_stiefel(ep.RandomSpec(n=3, p=3, seed=seed + 500))
        assert abs(obj.value(X @ Q) - obj.value(X)) <= 1e-10 * (1.0 + abs(obj.value(X)))

    def test_alpha_zero_is_pure_quadratic(self):
        obj0 = ep.nleig_make(6, 2, alpha=0.0)
        L = ep.laplacian_1d(6)
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 2))
        assert_allclose(obj0.value(X), 0.5 * ep.inner(X, L.matvec(X)),
                        rtol=1e-13, atol=0)
        assert_allclose(obj0.gradient(X), L.matvec(X), rtol=1e-13, atol=0)

    def test_validation(self):
        with pytest.raises(DimensionError):
            ep.nleig_make(2, 3)
        for alpha in (-0.5, np.inf):
            with pytest.raises(DimensionError):
                ep.nleig_make(4, 2, alpha=alpha)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("shape", [(4, 2), (3, 4, 2)])
def test_nleig_hess_vec_is_nan_at_a_non_finite_point(shape):
    # the solve of diag(X D^T + D X^T) is NaN there, as value and gradient are
    obj = ep.nleig_make(4, 2, alpha=1.0)
    X = np.eye(4, 2)
    X[1, 0] = np.nan
    D = np.ones(shape)
    for H in (obj.hess_vec(X, D), ep.ExPenModel(obj, 1.0).hess_vec(X, D)):
        assert H.shape == shape
        assert np.isnan(H).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda: ep.brockett_make(np.ones((3, 2)), np.eye(2)),
        lambda: ep.brockett_make(np.eye(3), np.ones(2)),
        lambda: ep.linear_make(np.ones((2, 3))),
        lambda: ep.random_stiefel((5, 2, 0)),
        lambda: ep.nleig_make(4, 2).hess_vec(np.eye(4, 2), np.ones((2, 3, 4, 2))),
    ],
    ids=["brockett-B-not-square", "brockett-C-1d", "linear-wide", "stiefel-tuple", "nleig-hess-vec-4d"],
)
def test_malformed_input_raises(call):
    with pytest.raises(DimensionError):
        call()


class TestNleigMemo:
    """value, gradient and hess_vec return the bits of the straight-through
    formulas in every call order; what they cost is tested on the model."""

    n, p = 9, 3

    def _setup(self, alpha, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((self.n, self.p))
        return ep.nleig_make(self.n, self.p, alpha), reference_nleig(self.n, self.p, alpha), X

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_value_then_gradient_and_back(self, alpha):
        obj, ref, X = self._setup(alpha)
        assert same_bits(obj.value(X), ref.value(X))
        assert same_bits(obj.gradient(X), ref.gradient(X))
        assert same_bits(obj.value(X), ref.value(X))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_gradient_then_value(self, alpha):
        obj, ref, X = self._setup(alpha)
        assert same_bits(obj.gradient(X), ref.gradient(X))
        assert same_bits(obj.value(X), ref.value(X))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_hess_vec_with_direction_mutated_in_place(self, alpha):
        obj, ref, X = self._setup(alpha)
        E = np.zeros((self.n, self.p))
        for j in range(self.n * self.p):
            E.flat[j] = 1.0
            assert same_bits(obj.hess_vec(X, E), ref.hess_vec(X, E))
            E.flat[j] = 0.0
        assert same_bits(obj.gradient(X), ref.gradient(X))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alternating_points(self, alpha):
        obj, ref, X1 = self._setup(alpha, seed=1)
        X2 = 2.0 * X1[::-1].copy()
        D = np.ones((self.n, self.p))
        for X in (X1, X2, X1, X1, X2):
            assert same_bits(obj.value(X), ref.value(X))
            assert same_bits(obj.gradient(X), ref.gradient(X))
            assert same_bits(obj.hess_vec(X, D), ref.hess_vec(X, D))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_point_mutated_in_place_misses(self, alpha):
        obj, ref, X = self._setup(alpha, seed=2)
        assert same_bits(obj.value(X), ref.value(X))
        X[4, 2] = np.nextafter(X[4, 2], -np.inf)
        assert same_bits(obj.gradient(X), ref.gradient(X))
        assert same_bits(obj.value(X), ref.value(X))

    def test_returned_gradient_is_not_the_memo(self):
        obj, ref, X = self._setup(0.0)
        obj.gradient(X)[:] = np.nan
        assert same_bits(obj.gradient(X), ref.gradient(X))
        assert same_bits(obj.value(X), ref.value(X))


class TestNleigHamiltonianForm:
    """H X and (1/2) <X, H X> - (alpha/4) rho^T z agree with the stencil
    form L X + alpha z o X and (1/2) <X, L X> + (alpha/4) rho^T z: bit for
    bit at alpha = 0, to rounding otherwise. hess_vec, H D + alpha w o X,
    agrees with L D + alpha z o D + alpha w o X to rounding."""

    @pytest.mark.parametrize("n, p", [(1, 1), (2, 1), (7, 1), (250, 50), (4000, 3)])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(2))
    def test_agrees_with_stencil_form(self, n, p, alpha, seed):
        obj, old = ep.nleig_make(n, p, alpha), expanded_nleig(n, p, alpha)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, p)) if seed else 1.1 * stiefel(n, p, seed)
        D = rng.standard_normal((n, p))
        v, g = obj.value(X), obj.gradient(X)
        if alpha == 0.0:
            assert same_bits(v, old.value(X))
            assert same_bits(g, old.gradient(X))
        else:
            v_old, g_old = old.value(X), old.gradient(X)
            assert abs(v - v_old) <= 1e-12 * abs(v_old)
            assert ep.fnorm(g - g_old) <= 1e-12 * ep.fnorm(g_old)
        H, H_old = obj.hess_vec(X, D), old.hess_vec(X, D)
        assert ep.fnorm(H - H_old) <= 1e-12 * ep.fnorm(H_old)


class TestBrockett:
    def test_hand_example(self):
        obj = ep.brockett_make(np.diag([1.0, 2.0]), np.array([[1.0]]))
        X = np.array([[1.0], [0.0]])
        assert obj.value(X) == 0.5

    def test_zero_coefficient_matrix(self):
        obj = ep.brockett_make(np.zeros((4, 4)), np.eye(2))
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 2))
        assert obj.value(X) == 0.0
        assert np.array_equal(obj.gradient(X), np.zeros((4, 2)))

    def test_known_global_minimum_value(self):
        # Smallest B eigenvalue pairs with the largest C weight: 1*2/2 + 2*1/2 = 2.
        from helpers import brockett_bruteforce_min

        obj = ep.brockett_make(np.diag([1.0, 2.0, 3.0]), np.diag([2.0, 1.0]))
        assert brockett_bruteforce_min(obj, 3, 2) == 2.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_and_hessian_match_finite_differences(self, seed):
        B = ep.random_symmetric(6, [seed, 0])
        C = ep.random_symmetric(3, [seed, 1])
        obj = ep.brockett_make(B, C)
        rng = np.random.default_rng(seed + 600)
        X = rng.standard_normal((6, 3))
        grad_rep = ep.fd_gradient_check(obj.value, obj.gradient, X, samples=6,
                                        tolerance=1e-6, name="brockett-grad")
        hess_rep = ep.fd_hessvec_check(obj.gradient, obj.hess_vec, X, samples=6,
                                       tolerance=1e-6)
        assert grad_rep.passed, grad_rep.line()
        assert hess_rep.passed, hess_rep.line()

    def test_gradient_formula(self):
        B = ep.random_symmetric(5, 7)
        C = ep.random_symmetric(2, 8)
        obj = ep.brockett_make(B, C)
        rng = np.random.default_rng(4)
        X = rng.standard_normal((5, 2))
        assert_allclose(obj.gradient(X), B @ X @ C, rtol=1e-14, atol=0)

    def test_asymmetric_inputs_raise(self):
        good = np.eye(3)
        bad = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(DimensionError):
            ep.brockett_make(bad, np.eye(2))
        with pytest.raises(DimensionError):
            ep.brockett_make(good, np.array([[1.0, 1.0], [0.0, 1.0]]))
        # a NaN or inf entry, symmetric as it stands, is no coefficient matrix
        for entry in (np.nan, np.inf, -np.inf):
            M = np.eye(3)
            M[0, 1] = M[1, 0] = entry
            with pytest.raises(DimensionError, match="B must be finite"):
                ep.brockett_make(M, np.eye(2))
            with pytest.raises(DimensionError, match="C must be finite"):
                ep.brockett_make(good, M)


_STACK_OBJECTIVES = {
    "nleig-alpha0": lambda: ep.nleig_make(9, 3, alpha=0.0),
    "nleig-alpha1": lambda: ep.nleig_make(9, 3, alpha=1.0),
    "brockett": lambda: ep.brockett_make(ep.random_symmetric(9, 1), ep.random_symmetric(3, 2)),
    "constant": lambda: ep.constant_make(9, 3, level=1.5),
    "linear": lambda: ep.linear_make(np.random.default_rng(3).standard_normal((9, 3))),
}


class TestStackedHessVec:
    """A stack (k, n, p) of directions gets, slice for slice, the bits of one
    call per direction."""

    @pytest.mark.parametrize("name", _STACK_OBJECTIVES)
    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_per_direction_calls(self, name, k):
        obj = _STACK_OBJECTIVES[name]()
        rng = np.random.default_rng(k)
        X = rng.standard_normal((9, 3))
        D = rng.standard_normal((k, 9, 3))
        H = obj.hess_vec(X, D)
        assert same_bits(H, np.stack([obj.hess_vec(X, Dk) for Dk in D]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_nleig_stack_matches_reference(self, alpha):
        obj, ref = ep.nleig_make(9, 3, alpha), reference_nleig(9, 3, alpha)
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 3))
        D = rng.standard_normal((4, 9, 3))
        H = obj.hess_vec(X, D)
        for k in range(4):
            assert same_bits(H[k], ref.hess_vec(X, D[k]))


class TestSyntheticObjectives:
    def test_constant(self):
        obj = ep.constant_make(5, 2, level=2.5)
        rng = np.random.default_rng(5)
        X = rng.standard_normal((5, 2))
        assert obj.value(X) == 2.5
        assert np.array_equal(obj.gradient(X), np.zeros((5, 2)))
        assert np.array_equal(obj.hess_vec(X, X), np.zeros((5, 2)))

    def test_linear(self):
        rng = np.random.default_rng(6)
        C = rng.standard_normal((6, 2))
        obj = ep.linear_make(C)
        X = rng.standard_normal((6, 2))
        assert_allclose(obj.value(X), ep.inner(C, X), rtol=1e-14, atol=0)
        assert np.array_equal(obj.gradient(X), C)
        assert np.array_equal(obj.hess_vec(X, X), np.zeros((6, 2)))

    def test_random_symmetric_is_symmetric_and_deterministic(self):
        S1 = ep.random_symmetric(8, 42)
        S2 = ep.random_symmetric(8, 42)
        assert np.array_equal(S1, S2)
        assert np.array_equal(S1, S1.T)
        assert not np.array_equal(S1, ep.random_symmetric(8, 43))


class TestRandomStiefel:
    def test_deterministic_in_seed(self):
        spec = ep.RandomSpec(n=20, p=6, seed=9)
        assert np.array_equal(ep.random_stiefel(spec), ep.random_stiefel(spec))

    def test_distinct_seeds_differ(self):
        a = ep.random_stiefel(ep.RandomSpec(n=10, p=3, seed=0))
        b = ep.random_stiefel(ep.RandomSpec(n=10, p=3, seed=1))
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(5))
    def test_feasible(self, seed):
        X = ep.random_stiefel(ep.RandomSpec(n=15, p=4, seed=seed))
        assert ep.feasibility(X) <= 1e-12

    def test_square_case_is_orthogonal(self):
        X = ep.random_stiefel(ep.RandomSpec(n=5, p=5, seed=3))
        assert abs(abs(np.linalg.det(X)) - 1.0) <= 1e-10

    def test_spec_validation(self):
        with pytest.raises(DimensionError):
            ep.RandomSpec(n=2, p=3, seed=0)
        with pytest.raises(DimensionError):
            ep.RandomSpec(n=3, p=0, seed=0)
        with pytest.raises(DimensionError):
            ep.RandomSpec(n=10, p=2, seed=float("nan"))
        with pytest.raises(DimensionError):
            ep.RandomSpec(n=10.5, p=2, seed=0)

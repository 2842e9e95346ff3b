"""Tests for the dense/banded linear algebra helpers."""

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import expen as ep
from expen.exceptions import DimensionError, NotPositiveDefiniteError, NumericalError

from helpers import dense, same_bits


class TestSym:
    def test_hand_example(self):
        M = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert_allclose(ep.sym(M), np.array([[0.0, 1.0], [1.0, 0.0]]), rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_fixed_point(self, seed):
        S = ep.random_symmetric(6, seed)
        assert_allclose(ep.sym(S), S, rtol=0, atol=0)

    def test_skew_maps_to_zero(self):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((7, 7))
        K = M - M.T
        assert_allclose(ep.sym(K), np.zeros((7, 7)), rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_output_exactly_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        S = ep.sym(rng.standard_normal((9, 9)))
        assert np.array_equal(S, S.T)

    @pytest.mark.parametrize("seed", range(10))
    def test_orthogonal_projector_onto_symmetric(self, seed):
        # <sym(M), S> == <M, S> for every symmetric S.
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((8, 8))
        S = ep.random_symmetric(8, seed + 100)
        lhs = ep.inner(ep.sym(M), S)
        rhs = ep.inner(M, S)
        assert abs(lhs - rhs) <= 1e-12 * ep.fnorm(M) * ep.fnorm(S)

    def test_nonsquare_raises(self):
        for shape in ((3, 2), (4, 3, 2), (3,), ()):
            with pytest.raises(DimensionError):
                ep.sym(np.zeros(shape))

    def test_stack_matches_per_slice(self):
        M = np.random.default_rng(4).standard_normal((5, 6, 6))
        S = ep.sym(M)
        assert S.shape == M.shape
        for k in range(5):
            assert same_bits(S[k], ep.sym(M[k]))


class TestInnerAndNorm:
    @pytest.mark.parametrize("seed", range(5))
    def test_inner_matches_trace(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((6, 4))
        B = rng.standard_normal((6, 4))
        assert_allclose(ep.inner(A, B), np.trace(A.T @ B), rtol=1e-13, atol=0)

    def test_inner_returns_python_float(self):
        out = ep.inner(np.ones((2, 2)), np.ones((2, 2)))
        assert isinstance(out, float)
        assert out == 4.0

    def test_fnorm_matches_inner(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((5, 3))
        assert_allclose(ep.fnorm(A), np.sqrt(ep.inner(A, A)), rtol=1e-14, atol=0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ep.inner(np.zeros((2, 3)), np.zeros((3, 2)))


class TestTridiag:
    def test_laplacian_stencil(self):
        T = ep.laplacian_1d(4)
        expected = np.array(
            [
                [2.0, -1.0, 0.0, 0.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [0.0, 0.0, -1.0, 2.0],
            ]
        )
        assert_allclose(dense(T), expected, rtol=0, atol=0)

    def test_matvec_matches_dense(self):
        T = ep.laplacian_1d(12)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(12)
        M = rng.standard_normal((12, 3))
        assert_allclose(T.matvec(v), dense(T) @ v, rtol=1e-13, atol=1e-13)
        assert_allclose(T.matvec(M), dense(T) @ M, rtol=1e-13, atol=1e-13)

    def test_matvec_acts_along_axis_minus_two(self):
        T = ep.TridiagMatrix(diag=np.linspace(1.0, 3.0, 9), sub=np.linspace(-1.0, 0.5, 8))
        V = np.random.default_rng(1).standard_normal((4, 9, 3))
        W = T.matvec(V)
        assert W.shape == V.shape
        for k in range(4):
            assert same_bits(W[k], T.matvec(V[k]))
            for j in range(3):
                assert same_bits(W[k, :, j], T.matvec(V[k, :, j]))

    @pytest.mark.parametrize(
        "T",
        [ep.laplacian_1d(1), ep.laplacian_1d(2), ep.laplacian_1d(250),
         ep.TridiagMatrix(diag=[0.0, -0.0, 0.0], sub=[-0.0, -0.0])],
        ids=["laplacian1", "laplacian2", "laplacian250", "signed-zeros"],
    )
    def test_constant_diagonals_keep_column_broadcast_bits(self, T):
        # a constant diagonal gets the bits of the column broadcast, the
        # same as the (2, -1) stencil pass nleig_make applies
        n = T.n
        rng = np.random.default_rng(n)
        d, s = T.diag[:, None], T.sub[:, None]
        for shape in ((n,), (n, 4), (3, n, 4)):
            v = rng.standard_normal(shape)
            u = v[:, None] if v.ndim == 1 else v
            w = d * u
            w[..., :-1, :] += s * u[..., 1:, :]
            w[..., 1:, :] += s * u[..., :-1, :]
            assert same_bits(T.matvec(v), w.reshape(shape))

    def test_solve_hand_example(self):
        # 2x2 Laplacian: [[2,-1],[-1,2]] x = [1,0] -> x = [2/3, 1/3].
        T = ep.laplacian_1d(2)
        x = ep.tridiag_solve(T, np.array([1.0, 0.0]))
        assert_allclose(x, np.array([2.0 / 3.0, 1.0 / 3.0]), rtol=1e-14, atol=0)

    def test_solve_scalar(self):
        T = ep.TridiagMatrix(diag=np.array([2.0]), sub=np.zeros(0))
        assert_allclose(ep.tridiag_solve(T, np.array([4.0])), np.array([2.0]),
                        rtol=0, atol=0)
        assert_allclose(ep.tridiag_solve(T, np.array([[2.0, -8.0]])), np.array([[1.0, -4.0]]),
                        rtol=0, atol=0)

    def test_zero_rhs(self):
        T = ep.laplacian_1d(6)
        assert_allclose(ep.tridiag_solve(T, np.zeros(6)), np.zeros(6), rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_solve_matches_dense_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = 200
        # Diagonally dominant => symmetric positive definite.
        sub = rng.uniform(-1.0, 1.0, size=n - 1)
        diag = np.abs(rng.standard_normal(n)) + 2.5
        T = ep.TridiagMatrix(diag=diag, sub=sub)
        rhs = rng.standard_normal((n, 4))
        x = ep.tridiag_solve(T, rhs)
        oracle = np.linalg.solve(dense(T), rhs)
        assert_allclose(x, oracle, rtol=1e-10, atol=1e-12)

    def test_solve_residual_is_small(self):
        T = ep.laplacian_1d(150)
        rng = np.random.default_rng(9)
        rhs = rng.standard_normal(150)
        x = ep.tridiag_solve(T, rhs)
        assert ep.fnorm(T.matvec(x) - rhs) <= 1e-9 * (1.0 + ep.fnorm(rhs))

    def test_indefinite_raises(self):
        # on every solve: a failed factorization is never cached
        T = ep.TridiagMatrix(diag=np.array([1.0, -5.0, 1.0]), sub=np.array([2.0, 2.0]))
        for rhs in (np.ones(3), np.ones((3, 2)), np.zeros(3)):
            with pytest.raises(NotPositiveDefiniteError):
                ep.tridiag_solve(T, rhs)

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            ep.TridiagMatrix(diag=np.zeros(3), sub=np.zeros(3))
        T = ep.laplacian_1d(3)
        for rhs in (np.zeros(4), 3.0, np.zeros((3, 2, 2))):
            with pytest.raises(DimensionError):
                ep.tridiag_solve(T, rhs)
        for shape in ((4, 2), (2, 4, 2), (4,), (3, 4, 3), ()):
            with pytest.raises(DimensionError):
                T.matvec(np.zeros(shape))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ep.TridiagMatrix(diag=np.ones((2, 2)), sub=np.ones(1)),
            lambda: ep.TridiagMatrix(diag=np.ones(0), sub=np.ones(0)),
            lambda: ep.laplacian_1d(0),
            lambda: ep.tridiag_solve(dense(ep.laplacian_1d(3)), np.ones(3)),
            # a size n that is not an integer >= 1: not NumPy's TypeError or ValueError, nor a 0 x 0 matrix
            lambda: ep.laplacian_1d(2.5),
            lambda: ep.nleig_make(2.5, 1),
            lambda: ep.random_symmetric(2.5, 0),
            lambda: ep.random_symmetric(-1, 0),
            lambda: ep.random_symmetric(0, 0),
        ],
        ids=["diag-2d", "empty", "laplacian-0", "dense-matrix", "laplacian-2.5", "nleig-2.5",
             "random_symmetric-2.5", "random_symmetric--1", "random_symmetric-0"],
    )
    def test_malformed_matrix_raises(self, call):
        with pytest.raises(DimensionError):
            call()

    def test_factor_is_computed_once(self, monkeypatch):
        calls = []

        def counting_dpttrf(d, e):
            calls.append(d.size)
            return scipy.linalg.lapack.dpttrf(d, e)

        monkeypatch.setattr("expen.linalg.dpttrf", counting_dpttrf)
        T = ep.laplacian_1d(6)
        rng = np.random.default_rng(4)
        for rhs in (rng.standard_normal(6), rng.standard_normal((6, 3)), np.zeros(6)):
            assert_allclose(T.matvec(ep.tridiag_solve(T, rhs)), rhs, atol=1e-13)
        assert calls == [6]

    @pytest.mark.parametrize("n", [2, 250, 4000])
    def test_bit_identical_to_solveh_banded(self, n):
        rng = np.random.default_rng(n)
        sub = rng.uniform(-1.0, 1.0, size=n - 1)
        diag = np.abs(rng.standard_normal(n)) + 2.5
        T = ep.TridiagMatrix(diag=diag, sub=sub)
        ab = np.zeros((2, n))
        ab[0, 1:] = sub
        ab[1, :] = diag
        for rhs in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                    rng.standard_normal((n, 50)), rng.standard_normal(n)):
            x = ep.tridiag_solve(T, rhs)
            assert same_bits(x, scipy.linalg.solveh_banded(ab, rhs))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        with pytest.raises(ValueError):
            ep.tridiag_solve(ep.TridiagMatrix(diag=[2.0, bad, 2.0], sub=[-1.0, -1.0]), np.ones(3))
        T = ep.laplacian_1d(5)
        rhs = np.ones(5)
        rhs[2] = bad
        with pytest.raises(ValueError):
            ep.tridiag_solve(T, rhs)
        with pytest.raises(ValueError):
            ep.tridiag_solve(T, np.column_stack([np.ones(5), rhs]))
        # the failed call leaves the matrix usable
        assert_allclose(T.matvec(ep.tridiag_solve(T, np.ones(5))), np.ones(5), rtol=1e-14)
        # 1x1 systems take their own path and check the same
        with pytest.raises(ValueError):
            ep.tridiag_solve(ep.laplacian_1d(1), np.array([bad]))
        with pytest.raises(ValueError):
            ep.tridiag_solve(ep.laplacian_1d(1), np.array([[1.0, bad]]))
        with pytest.raises(ValueError):
            ep.tridiag_solve(ep.TridiagMatrix(diag=[bad], sub=[]), np.ones(1))

    def test_entries_are_copied_and_read_only(self):
        diag = np.full(4, 2.0)
        T = ep.TridiagMatrix(diag=diag, sub=np.full(3, -1.0))
        diag[0] = -1.0  # the caller's array is not the matrix
        assert T.diag[0] == 2.0
        with pytest.raises(ValueError):
            T.diag[0] = 7.0

    def test_not_positive_definite_is_numerical_error(self):
        assert issubclass(NotPositiveDefiniteError, NumericalError)


# The public functions that take a point of St(n, p), each on a 3 x 2 problem
# where it needs one. The first eight check the point with the tall-point guard
# and name themselves in its message; the verify functions check it against the
# model's or objective's (n, p).
_OBJ = ep.constant_make(3, 2)
_MODEL = ep.ExPenModel(_OBJ, 1.0)
_POINT_ENTRY_POINTS = {
    "feasibility": ep.feasibility,
    "project_stiefel": ep.project_stiefel,
    "tangent_project": lambda X: ep.tangent_project(X, X),
    "riemannian_grad": lambda X: ep.riemannian_grad(_OBJ, X),
    "tangent_basis": ep.tangent_basis,
    "apen_map": ep.apen_map,
    "jx_apply": lambda X: ep.jx_apply(X, X),
    "linear_make": ep.linear_make,
    "assemble_hessian": lambda X: ep.assemble_hessian(_MODEL, X),
    "spectrum_correspondence": lambda X: ep.spectrum_correspondence(_MODEL, _OBJ, X),
    "inner_identity_check": lambda X: ep.inner_identity_check(_OBJ, X),
}
_MALFORMED_POINTS = {"1d": (3,), "3d": (2, 3, 2), "wide": (2, 3), "n-by-0": (3, 0)}
# tangent_project's direction D at a feasible 3 x 2 X, where a stack (k, 3, 2) is well formed
_MALFORMED_DIRECTIONS = {"1d": (3,), "n-1-by-p": (2, 2)}
_MALFORMED_CASES = {
    f"{entry}-{name}": (entry, shape) for entry in _POINT_ENTRY_POINTS for name, shape in _MALFORMED_POINTS.items()
}
_MALFORMED_CASES.update({f"tangent_project-D-{name}": ("D", shape) for name, shape in _MALFORMED_DIRECTIONS.items()})
# Objective oracles read X, and D, as points of their own (n, p) and name the shape they got
_ORACLES = {
    "nleig.value": ep.nleig_make(3, 2).value,
    "brockett.gradient": ep.brockett_make(np.eye(3), np.eye(2)).gradient,
    "constant_make.hess_vec": lambda D: ep.constant_make(4, 2).hess_vec(np.eye(4, 2), D),
}
_MALFORMED_CASES.update({
    "nleig.value-1d": ("nleig.value", (3,)),
    "brockett.gradient-n-1-by-p": ("brockett.gradient", (2, 2)),
    "constant_make.hess_vec-D-3-by-3": ("constant_make.hess_vec", (3, 3)),
})


@pytest.mark.parametrize("entry, shape", list(_MALFORMED_CASES.values()), ids=list(_MALFORMED_CASES))
def test_malformed_point_raises_dimension_error(entry, shape):
    # never an IndexError or an unpacking ValueError from deep inside the call
    X = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
    call = (lambda D: ep.tangent_project(np.eye(3, 2), D)) if entry == "D" else {**_POINT_ENTRY_POINTS, **_ORACLES}[entry]
    with pytest.raises(DimensionError) as info:
        call(X)
    if entry in _ORACLES:
        assert f"got {shape}" in str(info.value)
    elif entry not in ("assemble_hessian", "spectrum_correspondence", "inner_identity_check"):
        assert str(info.value).startswith(f"{entry} ")

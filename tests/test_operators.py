import re

import numpy as np
import pytest

from codilated import operators
from codilated.operators import (
    LinearOperator,
    Problem,
    add_noise,
    deriv2_assemble,
    diagonal_operator,
    matrix_operator,
    operator_norm_sq,
)
from codilated.solvers import SolverConfig, solve


# arrays that are not real: read as floats, each would lose its imaginary part or be parsed
NOT_REAL = {"bool": np.array([True, False]), "complex": np.array([1.0 + 1.0j, 0.5]),
            "string": np.array(["1", "0.5"])}


def kernel(s, t):
    return t * (s - 1.0) if t < s else s * (t - 1.0)


class TestDiagonalOperator:
    def test_smallest_direction(self):
        op = diagonal_operator(1.0 / np.arange(1.0, 101.0))
        e = np.zeros(100)
        e[-1] = 1.0
        assert np.array_equal(op.matvec(e), e / 100.0)

    def test_identity(self):
        op = diagonal_operator(np.ones(7))
        x = np.arange(7.0)
        assert np.array_equal(op.matvec(x), x)

    def test_adjoint_probe(self):
        rng = np.random.default_rng(0)
        op = diagonal_operator(rng.uniform(0.1, 1.0, 40))
        for _ in range(100):
            x, y = rng.standard_normal(40), rng.standard_normal(40)
            lhs = op.matvec(x) @ y
            rhs = x @ op.rmatvec(y)
            scale = np.linalg.norm(op.matvec(x)) * np.linalg.norm(y) + np.linalg.norm(
                x
            ) * np.linalg.norm(op.rmatvec(y))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            diagonal_operator(np.array([]))

    @pytest.mark.parametrize("diag", [[[1.0, 2.0], [3.0, 4.0]], 2.0, np.ones((3, 1))])
    def test_rejects_all_but_a_vector(self, diag):
        # a 2 x 2 diagonal would build a dimension-4 operator whose apply fails
        with pytest.raises(ValueError, match="diagonal must be 1-D and nonempty"):
            diagonal_operator(diag)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            diagonal_operator(np.array([1.0, bad, 0.5]))


    @pytest.mark.parametrize("name", NOT_REAL)
    def test_rejects_entries_that_are_not_real(self, name):
        with pytest.raises(ValueError, match="diagonal must be real, not of dtype"):
            diagonal_operator(NOT_REAL[name])


class TestMatrixOperator:
    @pytest.mark.parametrize("a", [[1.0, 2.0], 3.0, np.zeros((0, 3)), np.zeros((3, 0)),
                                   np.ones((2, 2, 2))])
    def test_rejects_all_but_a_nonempty_matrix(self, a):
        # a vector would raise IndexError, a 0 x 3 matrix give a range of dimension 0
        with pytest.raises(ValueError, match="matrix must be 2-D and nonempty"):
            matrix_operator(a)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        a = np.eye(3)
        a[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            matrix_operator(a)

    @pytest.mark.parametrize("name", NOT_REAL)
    def test_rejects_entries_that_are_not_real(self, name):
        with pytest.raises(ValueError, match="matrix must be real, not of dtype"):
            matrix_operator(np.stack([NOT_REAL[name]] * 2))

    def test_adjoint_probe(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((13, 7))
        op = matrix_operator(a)
        assert (op.domain_dim, op.range_dim) == (7, 13)
        for _ in range(100):
            x, y = rng.standard_normal(7), rng.standard_normal(13)
            scale = np.linalg.norm(op.matvec(x)) * np.linalg.norm(y) + np.linalg.norm(
                x
            ) * np.linalg.norm(op.rmatvec(y))
            assert abs(op.matvec(x) @ y - x @ op.rmatvec(y)) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [37, 50, 100])
    def test_products_bit_identical_to_matmul(self, n):
        a = deriv2_assemble(n).matrix
        at = np.ascontiguousarray(a.T)
        op = matrix_operator(a)
        rng = np.random.default_rng(n)
        for _ in range(500):
            x = rng.standard_normal(n)
            assert np.array_equal(op.matvec(x), a @ x)
            assert np.array_equal(op.rmatvec(x), at @ x)

    @pytest.mark.parametrize("n", [37, 50, 100])
    def test_row_block_bit_identical_to_dot(self, n):
        a = deriv2_assemble(n).matrix
        at = np.ascontiguousarray(a.T)
        op = matrix_operator(a)
        rng = np.random.default_rng(n)
        for rows in range(1, 65):
            xs = rng.standard_normal((rows, n))
            assert np.array_equal(op.matvec_rows(xs), np.array([a.dot(x) for x in xs]))
            assert np.array_equal(op.rmatvec_rows(xs), np.array([at.dot(x) for x in xs]))


class TestProblem:
    def test_list_data_solve_as_array_data(self):
        op = diagonal_operator([1.0, 0.5, 0.25])
        config = SolverConfig(epsilon=0.0, max_iter=30)
        g = np.array([1.0, 2.0, 3.0])
        array_problem = Problem(op, g)
        assert array_problem.g is g  # float64 data are kept, not copied
        from_list = solve(Problem(op, [1.0, 2.0, 3.0]), config)
        from_array = solve(array_problem, config)
        assert from_list.residual_history.tobytes() == from_array.residual_history.tobytes()
        assert from_list.f_final.tobytes() == from_array.f_final.tobytes()

    @pytest.mark.parametrize("name", NOT_REAL)
    def test_rejects_data_that_are_not_real(self, name):
        # complex data would run on the real part of g . g
        with pytest.raises(ValueError, match="data g must be real, not of dtype"):
            Problem(diagonal_operator([1.0, 0.5]), NOT_REAL[name])


class TestRowBlockApply:
    def test_diagonal_block_is_rowwise(self):
        d = 1.0 / np.arange(1.0, 8.0)
        op = diagonal_operator(d)
        xs = np.random.default_rng(3).standard_normal((5, 7))
        assert np.array_equal(op.matvec_rows(xs), np.array([op.matvec(x) for x in xs]))
        assert np.array_equal(op.rmatvec_rows(xs), np.array([op.rmatvec(x) for x in xs]))

    def test_fallback_applies_rows_one_at_a_time(self):
        calls = []

        def forward(x):
            calls.append(("forward", x.shape))
            return np.array([x[0] + x[1], 2.0 * x[2]])

        def adjoint(y):
            calls.append(("adjoint", y.shape))
            return np.array([y[0], y[0], 2.0 * y[1]])

        op = LinearOperator(3, 2, forward, adjoint)
        xs = np.arange(12.0).reshape(4, 3)
        expected = [[1.0, 4.0], [7.0, 10.0], [13.0, 16.0], [19.0, 22.0]]
        assert np.array_equal(op.matvec_rows(xs), expected)
        assert calls == [("forward", (3,))] * 4
        calls.clear()
        ys = xs[:, :2]
        assert np.array_equal(op.rmatvec_rows(ys), [[0.0, 0.0, 2.0], [3.0, 3.0, 8.0],
                                                     [6.0, 6.0, 14.0], [9.0, 9.0, 20.0]])
        assert calls == [("adjoint", (2,))] * 4


class TestLinearOperator:
    @pytest.mark.parametrize("dims, message", [
        ((2.7, 2), "domain_dim must be an integer, not 2.7"),
        ((2, True), "range_dim must be an integer, not True"),
        (("3", 3), "domain_dim must be an integer, not '3'"),
        ((3, 0), "range_dim must be >= 1"),
    ])
    def test_dimensions_read_as_integers(self, dims, message):
        # each would have been read through int(): 2.7 as 2, True as 1, "3" as 3
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearOperator(*dims, np.negative, np.negative)
        op = LinearOperator(np.int64(3), 2, np.negative, np.negative)
        assert (type(op.domain_dim), op.domain_dim, op.range_dim) == (int, 3, 2)


class TestDeriv2:
    def test_symmetry_and_sign(self):
        a = deriv2_assemble(50).matrix
        assert np.array_equal(a, a.T)
        assert np.all(a < 0.0)

    def test_entries_match_adaptive_quadrature(self):
        # diagonal cells are split at the kernel kink t = s so the adaptive
        # quadrature sees smooth integrands and reaches 1e-12
        integrate = pytest.importorskip("scipy.integrate")
        n = 10
        h = 1.0 / n
        a = deriv2_assemble(n).matrix
        for i in range(1, 6):
            for j in range(1, 6):
                if i == j:
                    lower, _ = integrate.dblquad(
                        lambda t, s: t * (s - 1.0) / h,
                        (i - 1) * h, i * h, (j - 1) * h, lambda s: s,
                        epsabs=1e-15, epsrel=1e-13,
                    )
                    upper, _ = integrate.dblquad(
                        lambda t, s: s * (t - 1.0) / h,
                        (i - 1) * h, i * h, lambda s: s, j * h,
                        epsabs=1e-15, epsrel=1e-13,
                    )
                    ref = lower + upper
                else:
                    ref, _ = integrate.dblquad(
                        lambda t, s: kernel(s, t) / h,
                        (i - 1) * h, i * h, (j - 1) * h, j * h,
                        epsabs=1e-15, epsrel=1e-13,
                    )
                assert a[i - 1, j - 1] == pytest.approx(ref, abs=1e-12)

    def test_rhs_matches_quadrature(self):
        integrate = pytest.importorskip("scipy.integrate")
        n = 10
        h = 1.0 / n
        g = deriv2_assemble(n).g_vector
        for i in range(1, n + 1):
            ref, _ = integrate.quad(
                lambda s: (s**3 - s) / 6.0 / np.sqrt(h), (i - 1) * h, i * h, epsabs=1e-15
            )
            assert g[i - 1] == pytest.approx(ref, abs=1e-14)

    def test_exact_solution_projection(self):
        n = 10
        h = 1.0 / n
        f = deriv2_assemble(n).f_exact
        i = np.arange(1, n + 1)
        assert np.allclose(f, h**1.5 * (i - 0.5), rtol=0, atol=1e-16)

    def test_spectral_norm_near_continuum(self):
        est = operator_norm_sq(deriv2_assemble(50).to_operator())
        assert est.converged
        assert est.value == pytest.approx(np.pi**-4, rel=0.02)
        assert 96.5 * est.value < 1.0

    def test_discretisation_consistency(self):
        # the box-function Galerkin residual A f_N - g_N vanishes identically
        # for this kernel (exact-arithmetic identity), so the measured values
        # sit at the roundoff floor, far below any C N^-2 envelope
        for n in (25, 50):
            d2 = deriv2_assemble(n)
            res = d2.matrix @ d2.f_exact - d2.g_vector
            rel = np.linalg.norm(res) / np.linalg.norm(d2.g_vector)
            assert rel <= 50 * np.finfo(float).eps
            assert np.linalg.norm(res) <= 1e-10 * n**-2

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            deriv2_assemble(1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_rejects_a_size_that_is_not_an_integer(self, n):
        with pytest.raises(ValueError, match="discretisation size n must be an integer"):
            deriv2_assemble(n)


class TestAddNoise:
    def test_zero_epsilon(self, monkeypatch):
        monkeypatch.setattr(np.random, "default_rng", None)  # nothing is drawn
        g = np.arange(5.0)
        noisy = add_noise(g, 0.0, 7)
        assert np.array_equal(noisy, g) and noisy is not g

    def test_raw_draw_scaled_by_epsilon(self):
        expected = 0.01 * np.random.default_rng(3).standard_normal(100)
        assert np.array_equal(add_noise(np.zeros(100), 0.01, 3), expected)

    def test_determinism(self):
        a = add_noise(np.zeros(64), 0.5, 123)
        b = add_noise(np.zeros(64), 0.5, 123)
        assert np.array_equal(a, b)

    def test_distinct_seeds_decorrelated(self):
        a = add_noise(np.zeros(100), 1.0, 10)
        b = add_noise(np.zeros(100), 1.0, 11)
        rho = (a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert abs(rho) < 0.2

    def test_rejects_negative_epsilon(self):
        with pytest.raises(ValueError, match="^noise level epsilon must be finite and >= 0$"):
            add_noise(np.zeros(3), -0.1, 0)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            add_noise(np.ones(3), epsilon, 1)

    def test_rejects_complex_data(self):
        # the imaginary part would be dropped with only a warning
        with pytest.raises(ValueError, match="data g_clean must be real, not of dtype complex"):
            add_noise(NOT_REAL["complex"], 0.01, 1)

    @pytest.mark.parametrize("g_clean, epsilon, seed", [
        (np.ones(3), 0.1, True), (np.ones(3), 0.1, 1.5), (np.ones(3), 0.0, -5),
        (np.ones((3, 1)), 0.1, 1),
    ])
    def test_rejects_before_any_draw(self, monkeypatch, g_clean, epsilon, seed):
        monkeypatch.setattr(np.random, "default_rng", None)
        with pytest.raises(ValueError):
            add_noise(g_clean, epsilon, seed)


class TestOperatorNormSq:
    def test_diagonal(self):
        op = diagonal_operator(1.0 / np.arange(1.0, 51.0))
        est = operator_norm_sq(op)
        assert est.converged
        assert est.value == pytest.approx(1.0, abs=1e-8)

    def test_zero_operator(self):
        op = diagonal_operator(np.zeros(5) + 0.0)
        # beta of zeros is fine here: the diagonal may be zero
        est = operator_norm_sq(op)
        assert est.value == 0.0 and est.converged

    def test_nonconvergence_flag(self, monkeypatch):
        monkeypatch.setattr(operators, "NORM_TOL", 0.0)
        monkeypatch.setattr(operators, "NORM_MAX_ITERS", 3)
        op = diagonal_operator(np.linspace(0.5, 1.0, 30))
        est = operator_norm_sq(op)
        assert not est.converged
        assert est.iterations == 3

    @pytest.mark.parametrize("make", [
        lambda: diagonal_operator(1.0 / np.arange(1.0, 51.0)),
        lambda: deriv2_assemble(50).to_operator(),
    ])
    def test_memoised_estimate_is_the_estimate(self, make):
        op = make()
        assert op.norm_estimate == operator_norm_sq(op)
        assert op.norm_estimate is op.norm_estimate

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_quotient_stops_at_once(self, bad):
        # an operator built around the entry checks: the first Rayleigh
        # quotient is not finite, and no later one can converge
        d = np.array([1.0, bad, 0.5])
        op = LinearOperator(3, 3, lambda x: d * x, lambda x: d * x)
        est = operator_norm_sq(op)
        assert (est.converged, est.iterations) == (False, 1)
        assert not np.isfinite(est.value)


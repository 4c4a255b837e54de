import warnings
from dataclasses import replace

import numpy as np
import pytest

from codilated.experiments import PROBLEM_DEFAULTS, ExperimentSpec, build_problem
from codilated.operators import (
    LinearOperator,
    Problem,
    add_noise,
    cached_norm_sq,
    deriv2_assemble,
    diagonal_operator,
)
from codilated.orthopoly import (
    CoDilation,
    DivergentNormalization,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    chebyshev_u_scheme,
    power_basis_scheme,
    ultraspherical_scheme,
)
from codilated.solvers import (
    STAGNATION_STEPS,
    IterationState,
    Method,
    RelaxationWarning,
    SolverConfig,
    StopReason,
    adaptive_codilated_one,
    asymmetric_semi_iterative,
    batchable,
    cg_normal_equations,
    codilated_nu,
    codilated_ultraspherical,
    discrepancy_stop,
    general_semi_iterative,
    landweber,
    oracle_check,
    solve,
    solve_dilations,
)

CHEB = chebyshev_u_scheme()


def quiet_config(**kw):
    kw.setdefault("epsilon", 0.0)
    return SolverConfig(**kw)


def iterate_log(reports_from):
    """Run a solver factory with a callback collecting f_n per step."""
    log = {}

    def cb(state):
        log[state.n] = state.f_curr.copy()

    reports_from(cb)
    return log


def deriv2_problem(seed=15, n=50):
    d2 = deriv2_assemble(n)
    return add_noise(d2.to_operator(), d2.g_vector, 0.01, seed, normalize=False).as_problem()


class TestLandweber:
    def test_scalar_first_step(self):
        problem = Problem(diagonal_operator(np.array([1.0])), np.array([1.0]))
        report = landweber(problem, quiet_config(method="landweber", omega=0.25, max_iter=1))
        assert report.f_final[0] == 0.5

    def test_scalar_closed_form(self):
        # 1 - f_n = (1 - 2 omega)^n for A = [1], g = 1
        problem = Problem(diagonal_operator(np.array([1.0])), np.array([1.0]))
        log = iterate_log(
            lambda cb: landweber(
                problem, quiet_config(method="landweber", omega=0.25, max_iter=30), callback=cb
            )
        )
        for n, f in log.items():
            assert abs((1.0 - f[0]) - 0.5**n) < 1e-14

    def test_equals_general_with_degenerate_scheme(self):
        problem = deriv2_problem()
        config = quiet_config(method="landweber", omega=96.5, max_iter=120)
        log_lw = iterate_log(lambda cb: landweber(problem, config, callback=cb))
        log_gen = iterate_log(
            lambda cb: general_semi_iterative(
                problem, power_basis_scheme(), None, config, callback=cb
            )
        )
        for n in log_lw:
            assert np.max(np.abs(log_lw[n] - log_gen[n])) <= 1e-14 * max(
                1.0, np.max(np.abs(log_lw[n]))
            )

    def test_history_shape_and_maxiter(self):
        problem = deriv2_problem()
        report = landweber(problem, quiet_config(method="landweber", omega=96.5, max_iter=75))
        assert report.stop_reason is StopReason.MAX_ITER
        assert report.iterations == 75
        assert report.residual_history.shape == (76,)


class TestGeneralSemiIterative:
    def test_explicit_codilated_chebyshev_iteration(self):
        # the m = 1 co-dilated scheme has the explicit update
        # f_{n+1} = f_n + ((2-l)n + 2l - 2)/((2-l)n + 2) (f_n - f_{n-1})
        #               + 4 ((2-l)n + l)/((2-l)n + 2) omega A*(g - A f_n)
        problem = deriv2_problem()
        op, g = problem.operator, problem.g
        omega, lam = 96.5, 1.5
        config = quiet_config(omega=omega, max_iter=50)
        log = iterate_log(
            lambda cb: general_semi_iterative(
                problem, CHEB, CoDilation(1, lam), config, callback=cb
            )
        )
        f_prev = np.zeros(op.domain_dim)
        f = 2.0 * omega * op.rmatvec(g)
        for n in range(1, 50):
            assert np.max(np.abs(log[n] - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))
            a = ((2 - lam) * n + 2 * lam - 2) / ((2 - lam) * n + 2)
            b = 4 * ((2 - lam) * n + lam) / ((2 - lam) * n + 2)
            f_prev, f = f, f + a * (f - f_prev) + b * omega * op.rmatvec(g - op.matvec(f))

    def test_divergent_dilation_raises(self):
        problem = deriv2_problem()
        with pytest.raises(DivergentNormalization):
            general_semi_iterative(
                problem, CHEB, CoDilation(1, 2.5), quiet_config(omega=96.5, max_iter=500)
            )

    def test_late_non_positive_beta_rejected(self):
        # beta_1 .. beta_8 pass the scheme's own check; beta_9 = -1 is reached
        # by the coefficient stream at n = 8 (symmetric) or n = 4 (asymmetric)
        scheme = RecurrenceScheme(
            alpha=lambda n: 0.0, beta=lambda n: 0.25 if n < 9 else -1.0, symmetric=True
        )
        problem = Problem(diagonal_operator(1.0 / np.arange(1.0, 11.0)), np.ones(10))
        config = quiet_config(omega=0.9, max_iter=200)
        for method in (general_semi_iterative, asymmetric_semi_iterative):
            with pytest.raises(ValueError, match=r"beta\(9\)"):
                method(problem, scheme, None, config)

    def test_negative_dilation_still_runs(self):
        # the check is on the base beta_m, not on the dilated lam beta_m
        problem = Problem(diagonal_operator(1.0 / np.arange(1.0, 11.0)), np.ones(10))
        config = quiet_config(omega=0.9, max_iter=200)
        scheme = ultraspherical_scheme(UltrasphericalParams(2.0))
        for method in (general_semi_iterative, asymmetric_semi_iterative):
            report = method(problem, scheme, CoDilation(1, -0.5), config)
            assert report.iterations == 200


class TestCodilatedUltraspherical:
    @pytest.mark.parametrize("nu,lam", [(1.0, 0.5), (1.0, 1.5), (2.0, 1.0), (2.0, 3.5)])
    def test_matches_general_scheme_route(self, nu, lam):
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, max_iter=200)
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        dil = None if lam == 1.0 else CoDilation(1, lam)
        log_closed = iterate_log(
            lambda cb: codilated_ultraspherical(problem, nu, lam, config, callback=cb)
        )
        log_scheme = iterate_log(
            lambda cb: general_semi_iterative(problem, scheme, dil, config, callback=cb)
        )
        for n in log_closed:
            scale = max(1.0, np.max(np.abs(log_scheme[n])))
            assert np.max(np.abs(log_closed[n] - log_scheme[n])) <= 1e-11 * scale

    def test_stiefel_reduction(self):
        # nu = 1, lam = 1 is the Chebyshev-of-the-second-kind method
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, max_iter=100)
        log_closed = iterate_log(
            lambda cb: codilated_ultraspherical(problem, 1.0, 1.0, config, callback=cb)
        )
        log_cheb = iterate_log(
            lambda cb: general_semi_iterative(problem, CHEB, None, config, callback=cb)
        )
        for n in log_closed:
            scale = max(1.0, np.max(np.abs(log_cheb[n])))
            assert np.max(np.abs(log_closed[n] - log_cheb[n])) <= 1e-12 * scale

    def test_rejects_inadmissible(self):
        problem = deriv2_problem()
        with pytest.raises(ValueError):
            codilated_ultraspherical(problem, 0.5, 0.5, quiet_config())
        with pytest.raises(ValueError):
            codilated_ultraspherical(problem, 1.0, 2.0, quiet_config())


class TestAsymmetricAndNuMethods:
    @pytest.mark.parametrize("nu,lam", [(1.0, 1.0), (1.0, 1.9), (2.0, 1.0), (2.0, 3.8)])
    def test_closed_form_matches_scheme_route(self, nu, lam):
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, max_iter=500)
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        dil = None if lam == 1.0 else CoDilation(1, lam)
        log_nu = iterate_log(lambda cb: codilated_nu(problem, nu, lam, config, callback=cb))
        log_asym = iterate_log(
            lambda cb: asymmetric_semi_iterative(problem, scheme, dil, config, callback=cb)
        )
        for n in log_nu:
            scale = max(1.0, np.max(np.abs(log_asym[n])))
            assert np.max(np.abs(log_nu[n] - log_asym[n])) <= 1e-11 * scale

    def test_start_factor_nu_one(self):
        # f_1 = 4/(4 - lam) omega A* g for nu = 1
        problem = deriv2_problem()
        op, g = problem.operator, problem.g
        for lam in (0.0, 1.0, 1.5):
            log = iterate_log(
                lambda cb: codilated_nu(
                    problem, 1.0, lam, quiet_config(omega=96.5, max_iter=1), callback=cb
                )
            )
            expected = 4.0 / (4.0 - lam) * 96.5 * op.rmatvec(g)
            assert np.max(np.abs(log[1] - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_rejects_asymmetric_scheme(self):
        problem = deriv2_problem()
        skewed = power_basis_scheme()
        object.__setattr__(skewed, "symmetric", False)
        with pytest.raises(ValueError):
            asymmetric_semi_iterative(problem, skewed, None, quiet_config())


class TestOracleEquivalence:
    def test_landweber_closed_form_residuals(self):
        diag = np.array([1.0, 0.5, 0.1])
        f_true = np.array([1.0, -2.0, 0.5])
        dev = oracle_check(diag, f_true, power_basis_scheme(), None, ResidualKind.SYMMETRIC, 0.5, 30)
        assert dev <= 1e-12

    @pytest.mark.parametrize(
        "nu,lam,kind",
        [
            (1.0, 1.0, ResidualKind.SYMMETRIC),
            (1.0, 1.5, ResidualKind.SYMMETRIC),
            (2.0, 3.0, ResidualKind.SYMMETRIC),
            (1.0, 1.0, ResidualKind.ASYMMETRIC),
            (1.0, 1.5, ResidualKind.ASYMMETRIC),
            (2.0, 3.0, ResidualKind.ASYMMETRIC),
        ],
    )
    def test_scheme_methods_match_residual_polynomials(self, nu, lam, kind):
        rng = np.random.default_rng(5)
        diag = np.sqrt(np.linspace(0.05, 1.0, 10))
        f_true = rng.standard_normal(10)
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        dil = None if lam == 1.0 else CoDilation(1, lam)
        dev = oracle_check(diag, f_true, scheme, dil, kind, 0.9, 50)
        assert dev <= 1e-10

    def test_zero_iterations_exact(self):
        # at n = 0 the error is f itself and r_0 = 1
        diag = np.array([0.7, 0.2])
        dev = oracle_check(diag, np.array([1.0, 1.0]), CHEB, None, ResidualKind.SYMMETRIC, 1.0, 1)
        assert dev <= 1e-12


class TestAdaptive:
    def test_matches_lam_one_iteration_with_independent_minimiser(self):
        # reconstruct v_min from the plain lam = 1 residual track and compare
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, epsilon=0.01, max_iter=900)
        residuals = {}

        def cb(state):
            residuals[state.n] = state.residual.copy()

        codilated_nu(problem, 1.0, 1.0, quiet_config(omega=96.5, max_iter=900), callback=cb)
        report = adaptive_codilated_one(problem, config)
        assert report.stop_reason is StopReason.DISCREPANCY
        n_stop = report.iterations
        for n in range(1, min(n_stop + 1, 200)):
            dv = residuals[n] - residuals[n - 1]
            gamma = (residuals[n] @ dv) / (dv @ dv)
            v_min = residuals[n] - gamma * dv
            assert report.residual_history[n] == pytest.approx(
                np.linalg.norm(v_min), rel=1e-10
            )

    def test_minimiser_invariants(self):
        problem = deriv2_problem()
        residuals = {}

        def cb(state):
            residuals[state.n] = state.residual.copy()

        codilated_nu(problem, 1.0, 1.0, quiet_config(omega=96.5, max_iter=300), callback=cb)
        report = adaptive_codilated_one(
            problem, quiet_config(omega=96.5, epsilon=0.01, max_iter=300)
        )
        for n in range(1, min(report.iterations, 300)):
            v, v_prev = residuals[n], residuals[n - 1]
            dv = v - v_prev
            gamma = (v @ dv) / (dv @ dv)
            v_min = v - gamma * dv
            # orthogonality of the least-squares minimiser
            assert abs(v_min @ dv) <= 1e-10 * np.linalg.norm(v_min) * np.linalg.norm(dv)
            # the affine-span minimum never exceeds either endpoint
            assert np.linalg.norm(v_min) <= min(np.linalg.norm(v), np.linalg.norm(v_prev)) + 1e-12
            # dominance over the lam = 1 residual at the same step
            assert report.residual_history[n] <= np.linalg.norm(v) + 1e-12

    def test_final_correction_and_lambda(self):
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, epsilon=0.01, max_iter=2000)
        states = {}

        def cb(state):
            states[state.n] = (state.f_curr.copy(), state.f_prev.copy())

        report = adaptive_codilated_one(problem, config, callback=cb)
        n = report.iterations
        f_n, f_prev = states[n]
        gamma = report.gamma_final
        assert np.array_equal(report.f_final, f_n - gamma * (f_n - f_prev))
        expected_lam = 1.0 - (2 * n + 1) * gamma / ((2 * n - 1) * (1.0 - gamma))
        assert report.chosen_lambda == pytest.approx(expected_lam, rel=1e-14)
        assert 1.98 <= report.chosen_lambda < 2.0

    def test_stagnates_on_zero_operator(self):
        op = diagonal_operator(np.zeros(4))
        problem = Problem(op, np.ones(4))
        report = adaptive_codilated_one(problem, quiet_config(epsilon=0.01, max_iter=500))
        assert report.stop_reason is StopReason.STAGNATION
        assert report.chosen_lambda == 1.0  # gamma degenerate, iterate untouched


class TestCg:
    def test_identity_single_step(self):
        problem = Problem(diagonal_operator(np.ones(6)), np.arange(1.0, 7.0))
        report = cg_normal_equations(problem, quiet_config(method="cg"))
        assert report.iterations == 1
        assert np.max(np.abs(report.f_final - problem.g)) <= 1e-12

    def test_finite_termination_distinct_singular_values(self):
        # five distinct singular values, each repeated: Krylov dimension 5
        rng = np.random.default_rng(3)
        sv = np.repeat(np.array([1.0, 0.8, 0.5, 0.3, 0.1]), 20)
        q, _ = np.linalg.qr(rng.standard_normal((100, 100)))
        a = q @ np.diag(sv) @ q.T
        from codilated.operators import matrix_operator

        f_true = rng.standard_normal(100)
        problem = Problem(matrix_operator(a), a @ f_true)
        capped = cg_normal_equations(problem, quiet_config(method="cg", max_iter=5))
        assert np.linalg.norm(capped.f_final - f_true) <= 1e-10 * np.linalg.norm(f_true)
        # the free-running solve detects Krylov exhaustion within a few
        # roundoff-delayed steps past the exact-arithmetic termination
        free = cg_normal_equations(problem, quiet_config(method="cg"))
        assert free.iterations <= 8
        assert free.stop_reason is StopReason.STAGNATION

    def test_discrepancy_stop_on_noisy_problem(self):
        problem = deriv2_problem()
        report = cg_normal_equations(
            problem, quiet_config(method="cg", epsilon=0.01, omega=96.5)
        )
        assert report.stop_reason is StopReason.DISCREPANCY
        assert report.residual_history[-1] < 4 * 0.01
        assert 12 <= report.iterations <= 50


class TestDiscrepancyStop:
    def _state(self, rn):
        z = np.zeros(1)
        return IterationState(3, z, z, 1.0, z, rn)

    def test_thresholds(self):
        assert discrepancy_stop(self._state(0.039), 4.0, 0.01)
        assert not discrepancy_stop(self._state(0.041), 4.0, 0.01)

    def test_zero_epsilon_never_stops(self):
        assert not discrepancy_stop(self._state(1e-200), 4.0, 0.0)


class TestConfigAndDriver:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tau=1.0)
        with pytest.raises(ValueError):
            SolverConfig(omega=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(method="no-such-method")
        for bad in (float("nan"), float("inf")):
            for field in ("omega", "tau", "epsilon"):
                with pytest.raises(ValueError):
                    SolverConfig(**{field: bad})
        with pytest.raises(ValueError):
            SolverConfig(max_iter=-1)
        for bad in (float("nan"), float("inf")):
            for field in ("nu", "lam"):
                with pytest.raises(ValueError):
                    SolverConfig(**{field: bad})
            with pytest.raises(ValueError):
                CoDilation(1, bad)
        problem = Problem(diagonal_operator(np.ones(3)), np.ones(3))
        for method in (codilated_nu, codilated_ultraspherical):
            with pytest.raises(ValueError):
                method(problem, 1.0, float("nan"), quiet_config())

    def test_max_iter_defaults(self):
        assert SolverConfig(method="landweber").resolved_max_iter() == 10**6
        assert SolverConfig(method="cg").resolved_max_iter() == 10**3
        assert SolverConfig(method="codilated-nu").resolved_max_iter() == 10**4
        assert SolverConfig(method="cg", max_iter=7).resolved_max_iter() == 7

    def test_history_contract(self):
        problem = deriv2_problem()
        report = codilated_nu(problem, 1.0, 1.0, quiet_config(omega=96.5, epsilon=0.01))
        assert report.residual_history.shape == (report.iterations + 1,)
        assert report.stop_reason is StopReason.DISCREPANCY
        assert report.residual_history[-1] < 4 * 0.01
        assert report.residual_history[0] == np.linalg.norm(problem.g)

    def test_deterministic_reports(self):
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, epsilon=0.01)
        a = codilated_nu(problem, 1.0, 1.5, config)
        b = codilated_nu(problem, 1.0, 1.5, config)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert np.array_equal(a.f_final, b.f_final)

    def test_stagnation_on_zero_operator(self):
        problem = Problem(diagonal_operator(np.zeros(3)), np.ones(3))
        report = landweber(problem, quiet_config(method="landweber", epsilon=0.0))
        assert report.stop_reason is StopReason.STAGNATION

    def test_zero_cap_applies_no_operator(self):
        d = np.array([1.0, 0.5, 0.25])
        applied = []

        def apply(x):
            applied.append(x)
            return d * x

        op = LinearOperator(3, 3, apply, apply)
        cached_norm_sq(op)  # the relaxation check's norm estimate precedes the solve
        problem = Problem(op, np.ones(3))
        for method in Method:
            applied.clear()
            config = SolverConfig(method=method, omega=0.9, epsilon=0.01, max_iter=0)
            report = solve(problem, config)
            assert report.stop_reason is StopReason.MAX_ITER
            assert report.iterations == 0
            assert report.residual_history.shape == (1,)
            assert not np.any(report.f_final)
            assert applied == []

    def test_nan_data_applies_no_operator(self):
        d = np.array([1.0, 0.5, 0.25])
        applied = []

        def apply(x):
            applied.append(x)
            return d * x

        op = LinearOperator(3, 3, apply, apply)
        cached_norm_sq(op)
        problem = Problem(op, np.array([1.0, np.nan, 1.0]))
        for method in Method:
            applied.clear()
            report = solve(problem, SolverConfig(method=method, omega=0.9, max_iter=50))
            assert report.stop_reason is StopReason.DIVERGENCE
            assert report.iterations == 0
            assert applied == []

    @pytest.mark.parametrize("problem_name", ["deriv2", "diag-last"])
    def test_callback_does_not_change_solve(self, problem_name):
        _, omega, eps, tau = PROBLEM_DEFAULTS[problem_name]
        base = SolverConfig(nu=1.0, lam=1.5, omega=omega, epsilon=eps, tau=tau, max_iter=5000)
        noisy = build_problem(ExperimentSpec(problem=problem_name, config=base))
        problem = noisy.as_problem()
        for method in Method:
            config = replace(base, method=method)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RelaxationWarning)
                plain = solve(problem, config)
                watched = solve(problem, config, callback=lambda state: None)
            assert watched.iterations == plain.iterations
            assert watched.stop_reason is plain.stop_reason
            assert np.array_equal(watched.residual_history, plain.residual_history)
            assert np.array_equal(watched.f_final, plain.f_final)

    def test_stagnation_counts_from_step_one(self):
        problem = Problem(diagonal_operator(np.zeros(3)), np.ones(3))
        for callback in (None, lambda state: None):
            report = landweber(problem, quiet_config(method="landweber"), callback)
            assert report.stop_reason is StopReason.STAGNATION
            assert report.iterations == STAGNATION_STEPS + 1

    def test_solve_dispatch(self):
        problem = deriv2_problem()
        for method in Method:
            config = SolverConfig(
                method=method, nu=1.0, lam=1.5, omega=96.5, epsilon=0.01, max_iter=50
            )
            report = solve(problem, config)
            assert report.iterations <= 50


class TestRelaxationWarnings:
    def test_landweber_warns_at_one(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        with pytest.warns(RelaxationWarning):
            landweber(problem, quiet_config(method="landweber", omega=1.0, max_iter=3))

    def test_symmetric_method_warns_above_one(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        with pytest.warns(RelaxationWarning):
            codilated_ultraspherical(problem, 1.0, 1.0, quiet_config(omega=1.5, max_iter=3))

    def test_asymmetric_tolerates_equality(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RelaxationWarning)
            codilated_nu(problem, 1.0, 1.0, quiet_config(omega=1.0, max_iter=3))

    def test_symmetric_method_quiet_below_one(self):
        problem = deriv2_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RelaxationWarning)
            codilated_ultraspherical(problem, 1.0, 1.0, quiet_config(omega=96.5, max_iter=3))

    def test_warning_points_at_caller(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        for run in (
            lambda: landweber(problem, quiet_config(method="landweber", omega=1.0, max_iter=3)),
            lambda: codilated_ultraspherical(problem, 1.0, 1.0, quiet_config(omega=1.5, max_iter=3)),
        ):
            with pytest.warns(RelaxationWarning) as record:
                run()
            assert [w.filename for w in record] == [__file__]

    def test_warning_through_solve_points_at_caller(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        for config in (
            quiet_config(method="landweber", omega=1.0, max_iter=3),
            quiet_config(method="codilated-ultraspherical", omega=1.5, max_iter=3),
        ):
            with pytest.warns(RelaxationWarning) as record:
                solve(problem, config)
            assert [w.filename for w in record] == [__file__]

    def test_block_warns_once_at_caller(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        config = quiet_config(method="codilated-ultraspherical", omega=1.5, max_iter=3)
        with pytest.warns(RelaxationWarning) as record:
            solve_dilations(problem, config, [0.5, 1.0, 1.5])
        assert [w.filename for w in record] == [__file__]


BLOCK_METHODS = [Method.CODILATED_NU, Method.CODILATED_ULTRASPHERICAL]


def assert_same_solve(block, single):
    assert block.iterations == single.iterations
    assert block.stop_reason is single.stop_reason
    assert np.array_equal(block.residual_history, single.residual_history, equal_nan=True)
    assert np.array_equal(block.f_final, single.f_final, equal_nan=True)


def assert_block_equals_singles(problem, config, lams):
    reports = solve_dilations(problem, config, lams)
    assert len(reports) == len(lams)
    for lam, report in zip(lams, reports):
        assert_same_solve(report, solve(problem, replace(config, lam=lam)))
    return reports


class TestSolveDilations:
    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize("problem_name", ["deriv2", "diag-last", "diag-second"])
    def test_bit_identical_to_single_solves(self, method, problem_name):
        _, omega, eps, tau = PROBLEM_DEFAULTS[problem_name]
        config = SolverConfig(method=method, nu=2.0, omega=omega, epsilon=eps, tau=tau)
        problem = build_problem(ExperimentSpec(problem=problem_name, config=config)).as_problem()
        # unsorted, with a duplicate and a negative dilation
        reports = assert_block_equals_singles(problem, config, [3.99, 1.0, -1.0, 3.9, 1.0, 0.0])
        assert len({r.iterations for r in reports}) > 1  # rows leave the block at different steps

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize(
        "overrides, reasons",
        [
            (dict(omega=50.0, max_iter=3000), {StopReason.DIVERGENCE}),
            (dict(epsilon=0.0, max_iter=300), {StopReason.MAX_ITER}),
            (dict(max_iter=0), {StopReason.MAX_ITER}),
            (dict(max_iter=140), {StopReason.MAX_ITER, StopReason.DISCREPANCY}),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_stopped_rows(self, method, overrides, reasons):
        _, omega, eps, tau = PROBLEM_DEFAULTS["diag-last"]
        config = SolverConfig(method=method, nu=1.0, omega=omega, epsilon=eps, tau=tau)
        config = replace(config, **overrides)
        problem = build_problem(ExperimentSpec(problem="diag-last", config=config)).as_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RelaxationWarning)
            reports = assert_block_equals_singles(problem, config, [0.5, 1.0, 1.5, 1.95, 1.99])
        assert {r.stop_reason for r in reports} == reasons

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize(
        "diag, g, reasons",
        [
            ([0.0, 0.0], [1.0, 1.0], {StopReason.STAGNATION}),
            # the 1e-6 part oscillates: its rows see several runs of steps whose
            # norms agree to STAGNATION_RTOL, and the count restarts after each
            ([0.0, 0.5], [1.0, 1e-6], {StopReason.STAGNATION, StopReason.MAX_ITER}),
        ],
    )
    def test_stalling_rows(self, method, diag, g, reasons):
        problem = Problem(diagonal_operator(np.array(diag)), np.array(g))
        config = quiet_config(method=method, max_iter=400)
        reports = assert_block_equals_singles(problem, config, [-2.0, 0.5, 1.99])
        assert {r.stop_reason for r in reports} == reasons

    def test_operator_without_block_apply(self):
        d = np.array([1.0, 0.5, 0.25])
        applied = []

        def apply(x):
            applied.append(x.shape)
            return d * x

        op = LinearOperator(3, 3, apply, apply)
        cached_norm_sq(op)
        config = SolverConfig(nu=1.0, omega=0.9, epsilon=1e-3, max_iter=50)
        assert_block_equals_singles(Problem(op, np.array([1.0, -2.0, 3.0])), config, [0.5, 1.9])
        assert set(applied) == {(3,)}  # rows one at a time

        applied.clear()
        reports = solve_dilations(Problem(op, np.array([1.0, np.nan, 1.0])), config, [0.5, 1.9])
        assert [r.stop_reason for r in reports] == [StopReason.DIVERGENCE] * 2
        assert [r.iterations for r in reports] == [0, 0]
        assert applied == []

    def test_rejects_what_solve_rejects(self):
        problem = deriv2_problem()
        config = SolverConfig(method="codilated-nu", nu=1.0, omega=96.5)
        for lam in (2.0, 2.5, float("nan"), -float("inf")):
            assert not batchable(config, lam)
            with pytest.raises(ValueError):
                solve_dilations(problem, config, [1.0, lam])
        assert batchable(config, 1.99) and batchable(config, -5.0)
        assert not batchable(replace(config, nu=0.5), 0.1)  # no closed forms
        for method in set(Method) - set(BLOCK_METHODS):
            assert not batchable(replace(config, method=method), 1.0)
            with pytest.raises(ValueError):
                solve_dilations(problem, replace(config, method=method), [1.0])
        assert solve_dilations(problem, config, []) == []

import math
import warnings
from itertools import repeat

import numpy as np
import pytest

from codilated import operators
from codilated.experiments import PROBLEM_DEFAULTS, ExperimentSpec, build_problem
from codilated.operators import (
    LinearOperator,
    NormEstimate,
    Problem,
    add_noise,
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
    DILATION_KINDS,
    STAGNATION_RTOL,
    STAGNATION_STEPS,
    Method,
    RelaxationWarning,
    SolverConfig,
    StopReason,
    batchable,
    oracle_check,
    semi_iterative,
    solve,
    solve_dilations,
)
from codilated.solvers import _drive, _stop_reason
from test_orthopoly import textbook_closed_form

CHEB = chebyshev_u_scheme()
SCHEME_METHODS = [Method.GENERAL_SI, Method.ASYMMETRIC_SI]  # the methods semi_iterative runs


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
    return Problem(d2.to_operator(), add_noise(d2.g_vector, 0.01, seed))


class TestLandweber:
    def test_scalar_first_step(self):
        problem = Problem(diagonal_operator(np.array([1.0])), np.array([1.0]))
        report = solve(problem, quiet_config(method="landweber", omega=0.25, max_iter=1))
        assert report.f_final[0] == 0.5

    def test_scalar_closed_form(self):
        # 1 - f_n = (1 - 2 omega)^n for A = [1], g = 1
        problem = Problem(diagonal_operator(np.array([1.0])), np.array([1.0]))
        log = iterate_log(
            lambda cb: solve(
                problem, quiet_config(method="landweber", omega=0.25, max_iter=30), callback=cb
            )
        )
        for n, f in log.items():
            assert abs((1.0 - f[0]) - 0.5**n) < 1e-14

    def test_equals_general_with_degenerate_scheme(self):
        problem = deriv2_problem()
        config = quiet_config(method="landweber", omega=96.5, max_iter=120)
        log_lw = iterate_log(lambda cb: solve(problem, config, callback=cb))
        log_gen = iterate_log(
            lambda cb: semi_iterative(
                problem, power_basis_scheme(), None, config._replace(method="general-si"), cb
            )
        )
        for n in log_lw:
            assert np.max(np.abs(log_lw[n] - log_gen[n])) <= 1e-14 * max(
                1.0, np.max(np.abs(log_lw[n]))
            )

    def test_history_shape_and_maxiter(self):
        problem = deriv2_problem()
        report = solve(problem, quiet_config(method="landweber", omega=96.5, max_iter=75))
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
        config = quiet_config(method="general-si", omega=omega, max_iter=50)
        log = iterate_log(lambda cb: semi_iterative(problem, CHEB, CoDilation(1, lam), config, cb))
        f_prev = np.zeros(op.domain_dim)
        f = 2.0 * omega * op.rmatvec(g)
        for n in range(1, 50):
            assert np.max(np.abs(log[n] - f)) <= 1e-12 * max(1.0, np.max(np.abs(f)))
            a = ((2 - lam) * n + 2 * lam - 2) / ((2 - lam) * n + 2)
            b = 4 * ((2 - lam) * n + lam) / ((2 - lam) * n + 2)
            f_prev, f = f, f + a * (f - f_prev) + b * omega * op.rmatvec(g - op.matvec(f))

    def test_divergent_dilation_raises(self):
        problem = deriv2_problem()
        config = quiet_config(method="general-si", omega=96.5, max_iter=500)
        with pytest.raises(DivergentNormalization):
            semi_iterative(problem, CHEB, CoDilation(1, 2.5), config)

    def test_late_non_positive_beta_rejected(self):
        # beta_1 .. beta_8 pass the scheme's own check; beta_9 = -1 or NaN is
        # read by the coefficient stream's first chunk, before the solve's step 1
        problem = Problem(diagonal_operator(1.0 / np.arange(1.0, 11.0)), np.ones(10))
        for late in (-1.0, np.nan):
            scheme = RecurrenceScheme(
                alpha=lambda n: 0.0, beta=lambda n, b=late: 0.25 if n < 9 else b, symmetric=True
            )
            for method in SCHEME_METHODS:
                for max_iter in (200, 1):  # capped long before beta_9 is needed too
                    config = quiet_config(method=method, omega=0.9, max_iter=max_iter)
                    with pytest.raises(ValueError, match=r"beta\(9\)"):
                        semi_iterative(problem, scheme, None, config)

    def test_negative_dilation_still_runs(self):
        # the check is on the base beta_m, not on the dilated lam beta_m
        problem = Problem(diagonal_operator(1.0 / np.arange(1.0, 11.0)), np.ones(10))
        config = quiet_config(omega=0.9, max_iter=200)
        scheme = ultraspherical_scheme(UltrasphericalParams(2.0))
        for method in SCHEME_METHODS:
            config = config._replace(method=method)
            report = semi_iterative(problem, scheme, CoDilation(1, -0.5), config)
            assert report.iterations == 200

    def test_method_without_scheme_rejected_before_any_apply(self, monkeypatch):
        applies = []  # a stand-in apply that a solve could not run on
        for name in ("matvec", "rmatvec"):
            monkeypatch.setattr(LinearOperator, name, lambda op, x: applies.append(x))
        problem = Problem(diagonal_operator(np.ones(2)), np.ones(2))
        for method in set(Method) - set(SCHEME_METHODS):
            with pytest.raises(ValueError, match="takes no recurrence scheme"):
                semi_iterative(problem, CHEB, None, quiet_config(method=method, max_iter=5))
        assert applies == []


class TestCodilatedUltraspherical:
    @pytest.mark.parametrize("nu,lam", [(1.0, 0.5), (1.0, 1.5), (2.0, 1.0), (2.0, 3.5)])
    def test_matches_general_scheme_route(self, nu, lam):
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, max_iter=200)
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        dil = None if lam == 1.0 else CoDilation(1, lam)
        closed = config._replace(method="codilated-ultraspherical", nu=nu, lam=lam)
        log_closed = iterate_log(lambda cb: solve(problem, closed, cb))
        general = config._replace(method="general-si")
        log_scheme = iterate_log(lambda cb: semi_iterative(problem, scheme, dil, general, cb))
        for n in log_closed:
            scale = max(1.0, np.max(np.abs(log_scheme[n])))
            assert np.max(np.abs(log_closed[n] - log_scheme[n])) <= 1e-11 * scale

    def test_stiefel_reduction(self):
        # nu = 1, lam = 1 is the Chebyshev-of-the-second-kind method
        problem = deriv2_problem()
        config = quiet_config(method="codilated-ultraspherical", omega=96.5, max_iter=100)
        log_closed = iterate_log(lambda cb: solve(problem, config, cb))
        log_cheb = iterate_log(
            lambda cb: semi_iterative(problem, CHEB, None, config._replace(method="general-si"), cb)
        )
        for n in log_closed:
            scale = max(1.0, np.max(np.abs(log_cheb[n])))
            assert np.max(np.abs(log_closed[n] - log_cheb[n])) <= 1e-12 * scale

    def test_rejects_inadmissible(self):
        problem = deriv2_problem()
        for nu, lam in ((0.5, 0.5), (1.0, 2.0)):
            with pytest.raises(ValueError):
                solve(problem, quiet_config(method="codilated-ultraspherical", nu=nu, lam=lam))


class TestAsymmetricAndNuMethods:
    @pytest.mark.parametrize("nu,lam", [(1.0, 1.0), (1.0, 1.9), (2.0, 1.0), (2.0, 3.8)])
    def test_closed_form_matches_scheme_route(self, nu, lam):
        problem = deriv2_problem()
        config = quiet_config(omega=96.5, max_iter=500)
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        dil = None if lam == 1.0 else CoDilation(1, lam)
        log_nu = iterate_log(lambda cb: solve(problem, config._replace(nu=nu, lam=lam), cb))
        asymmetric = config._replace(method="asymmetric-si")
        log_asym = iterate_log(lambda cb: semi_iterative(problem, scheme, dil, asymmetric, cb))
        for n in log_nu:
            scale = max(1.0, np.max(np.abs(log_asym[n])))
            assert np.max(np.abs(log_nu[n] - log_asym[n])) <= 1e-11 * scale

    def test_start_factor_nu_one(self):
        # f_1 = 4/(4 - lam) omega A* g for nu = 1
        problem = deriv2_problem()
        op, g = problem.operator, problem.g
        for lam in (0.0, 1.0, 1.5):
            config = quiet_config(method="codilated-nu", lam=lam, omega=96.5, max_iter=1)
            log = iterate_log(lambda cb: solve(problem, config, cb))
            expected = 4.0 / (4.0 - lam) * 96.5 * op.rmatvec(g)
            assert np.max(np.abs(log[1] - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_rejects_asymmetric_scheme(self):
        problem = deriv2_problem()
        skewed = power_basis_scheme()._replace(symmetric=False)
        with pytest.raises(ValueError):
            semi_iterative(problem, skewed, None, quiet_config(method="asymmetric-si"))


class TestOracleEquivalence:
    def test_landweber_closed_form_residuals(self):
        diag = np.array([1.0, 0.5, 0.1])
        f_true = np.array([1.0, -2.0, 0.5])
        dev = oracle_check(diag, f_true, SolverConfig("landweber", omega=0.5), 30)
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
        # the recursive and the closed-form method of each kind
        rng = np.random.default_rng(5)
        diag = np.sqrt(np.linspace(0.05, 1.0, 10))
        f_true = rng.standard_normal(10)
        for method in (m for m, k in DILATION_KINDS.items() if k is kind):
            config = SolverConfig(method, nu=nu, lam=lam, omega=0.9)
            assert oracle_check(diag, f_true, config, 50) <= 1e-10

    def test_string_diag_rejected(self):
        # numeric strings would be parsed as the diagonal
        config = SolverConfig("landweber", omega=0.5)
        with pytest.raises(ValueError, match="diag must be real, not of dtype"):
            oracle_check(np.array(["1", "0.5"]), [1.0, 1.0], config, 5)

    def test_zero_iterations_exact(self):
        # at n = 0 the error is f itself and r_0 = 1
        diag = np.array([0.7, 0.2])
        dev = oracle_check(diag, np.array([1.0, 1.0]), SolverConfig("general-si"), 1)
        assert dev <= 1e-12

    def test_method_without_residual_polynomial_rejected_before_any_apply(self, monkeypatch):
        applies = []  # a stand-in apply that a solve could not run on
        for name in ("matvec", "rmatvec"):
            monkeypatch.setattr(LinearOperator, name, lambda op, x: applies.append(x))
        for method in (Method.CG, Method.ADAPTIVE_CODILATED_ONE):
            with pytest.raises(ValueError, match="no fixed residual polynomial"):
                oracle_check(np.array([0.7, 0.2]), np.ones(2), SolverConfig(method), 5)
        assert applies == []

    def test_zero_f_true_rejected_before_any_apply(self, monkeypatch):
        # deviations are relative to the sup norm of f_true, which is 0 here
        applies = []
        for name in ("matvec", "rmatvec"):
            monkeypatch.setattr(LinearOperator, name, lambda op, x: applies.append(x))
        with pytest.raises(ValueError, match="f_true must have a nonzero entry"):
            oracle_check([1.0, 0.5], [0.0, 0.0], SolverConfig("landweber", omega=0.5), 5)
        assert applies == []

    def test_mismatched_shapes_rejected_before_any_apply(self, monkeypatch):
        # broadcasting f_true against diag would check a different problem
        applies = []
        for name in ("matvec", "rmatvec"):
            monkeypatch.setattr(LinearOperator, name, lambda op, x: applies.append(x))
        config = SolverConfig("landweber", omega=0.5)
        for diag, f_true in (([1.0, 0.5, 0.1], [1.0]), ([1.0, 0.5], [[1.0, 1.0]]),
                             ([[1.0, 0.5]], [1.0, 1.0])):
            with pytest.raises(ValueError, match="must be of one shape|must be 1-D"):
                oracle_check(diag, f_true, config, 5)
        assert applies == []


class TestAdaptive:
    def test_matches_lam_one_iteration_with_independent_minimiser(self):
        # reconstruct v_min from the plain lam = 1 residual track and compare
        problem = deriv2_problem()
        config = quiet_config(method="codilated-nu", omega=96.5, max_iter=900)
        residuals = {}

        def cb(state):
            residuals[state.n] = state.residual.copy()

        solve(problem, config, callback=cb)
        report = solve(problem, config._replace(method="adaptive-codilated-one", epsilon=0.01))
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

        config = quiet_config(method="codilated-nu", omega=96.5, max_iter=300)
        solve(problem, config, callback=cb)
        report = solve(problem, config._replace(method="adaptive-codilated-one", epsilon=0.01))
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
        config = quiet_config(method="adaptive-codilated-one", omega=96.5, epsilon=0.01,
                              max_iter=2000)
        states = {}

        def cb(state):
            states[state.n] = (state.f_curr.copy(), state.f_prev.copy())

        report = solve(problem, config, callback=cb)
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
        config = quiet_config(method="adaptive-codilated-one", epsilon=0.01, max_iter=500)
        report = solve(problem, config)
        assert report.stop_reason is StopReason.STAGNATION
        assert report.chosen_lambda == 1.0  # gamma degenerate, iterate untouched

    @pytest.mark.parametrize("problem_name", ["deriv2", "diag-last", "diag-second"])
    def test_iterates_are_the_nu_method_iterates(self, problem_name):
        _, omega, eps, tau = PROBLEM_DEFAULTS[problem_name]
        config = SolverConfig(method=Method.ADAPTIVE_CODILATED_ONE, omega=omega, epsilon=eps, tau=tau)
        problem = build_problem(ExperimentSpec(problem=problem_name, config=config))
        adaptive, plain = {}, {}

        def log_into(states):
            return lambda state: states.update({state.n: (state.f_curr.copy(), state.f_prev.copy())})

        report = solve(problem, config, callback=log_into(adaptive))
        plain_config = config._replace(method=Method.CODILATED_NU, epsilon=0.0,
                                      max_iter=report.iterations)
        solve(problem, plain_config, callback=log_into(plain))
        assert report.stop_reason is StopReason.DISCREPANCY
        assert adaptive.keys() == plain.keys() == set(range(report.iterations + 1))
        for n, (f_curr, f_prev) in adaptive.items():
            assert np.array_equal(f_curr, plain[n][0]) and np.array_equal(f_prev, plain[n][1])

    def test_gamma_one_has_no_dilation(self):
        # f_1 = 1 leaves v_1 = 0; f_2 = 1.2 gives v_2 = -0.2, whose affine
        # minimiser on the line through v_1 and v_2 is v_1 itself: gamma = 1
        problem = Problem(diagonal_operator(np.array([1.0])), np.array([1.0]))
        config = SolverConfig(method="adaptive-codilated-one", omega=0.75, epsilon=0.0, max_iter=2)
        states = {}

        def cb(state):
            states[state.n] = state.f_curr.copy()

        report = solve(problem, config, callback=cb)
        assert report.iterations == 2
        assert report.stop_reason is StopReason.MAX_ITER
        assert report.gamma_final == 1.0
        assert np.isnan(report.chosen_lambda)  # no finite dilation maps to gamma = 1
        assert report.residual_history.tolist() == [1.0, 0.0, 0.0]
        assert report.f_final == pytest.approx(states[1], rel=1e-15)  # f_{n-1}


class TestCg:
    def test_identity_single_step(self):
        problem = Problem(diagonal_operator(np.ones(6)), np.arange(1.0, 7.0))
        report = solve(problem, quiet_config(method="cg"))
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
        capped = solve(problem, quiet_config(method="cg", max_iter=5))
        assert np.linalg.norm(capped.f_final - f_true) <= 1e-10 * np.linalg.norm(f_true)
        # the free-running solve detects Krylov exhaustion within a few
        # roundoff-delayed steps past the exact-arithmetic termination
        free = solve(problem, quiet_config(method="cg"))
        assert free.iterations <= 8
        assert free.stop_reason is StopReason.STAGNATION

    def test_discrepancy_stop_on_noisy_problem(self):
        problem = deriv2_problem()
        report = solve(problem, quiet_config(method="cg", epsilon=0.01, omega=96.5))
        assert report.stop_reason is StopReason.DISCREPANCY
        assert report.residual_history[-1] < 4 * 0.01
        assert 12 <= report.iterations <= 50


class TestReducedPrecisionParameters:
    # each value is exact in its type; stored as a float, it computes in binary64
    @pytest.mark.parametrize("field, value", [
        ("nu", np.float32(1.0)), ("lam", np.float32(1.5)), ("omega", np.float32(96.5)),
        ("nu", np.float16(1.0)), ("lam", np.float16(1.5)), ("omega", np.float16(96.5)),
    ], ids=lambda v: str(getattr(v, "dtype", v)))
    def test_history_equals_the_float_run(self, field, value):
        problem = deriv2_problem()
        base = SolverConfig("codilated-nu", nu=1.0, lam=1.5, omega=96.5, epsilon=0.01,
                            max_iter=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reduced = solve(problem, base._replace(**{field: value}))
        assert reduced.residual_history.tobytes() == solve(problem, base).residual_history.tobytes()


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

    def test_max_iter_defaults(self):
        assert SolverConfig(method="landweber").resolved_max_iter() == 10**6
        assert SolverConfig(method="cg").resolved_max_iter() == 10**3
        assert SolverConfig(method="codilated-nu").resolved_max_iter() == 10**4
        assert SolverConfig(method="cg", max_iter=7).resolved_max_iter() == 7

    def test_unset_cap_is_the_cap_of_config_method_on_every_entry(self, monkeypatch):
        class Reached(Exception):
            pass

        caps = []

        def driver(problem, config, *rest):
            caps.append(config.resolved_max_iter())
            raise Reached

        monkeypatch.setattr("codilated.solvers._drive", driver)
        monkeypatch.setattr("codilated.solvers._drive_block", driver)
        problem = Problem(diagonal_operator(np.array([0.5, 0.25])), np.ones(2))
        runs = [(method, lambda c: solve(problem, c)) for method in Method]
        runs += [(method, lambda c: semi_iterative(problem, CHEB, None, c))
                 for method in SCHEME_METHODS]
        runs += [(method, lambda c: solve_dilations(problem, c, [1.0])) for method in BLOCK_METHODS]
        caps_by_method = {Method.LANDWEBER: 10**6, Method.CG: 10**3}
        for method, run in runs:
            with pytest.raises(Reached):
                run(quiet_config(method=method))
            assert caps.pop() == caps_by_method.get(method, 10**4)

    def test_landweber_runs_past_the_default_cap_of_other_methods(self):
        # the residual norm is (1 - 1e-4)^n, below 4 * 0.075 first at n = 12 040
        problem = Problem(diagonal_operator(np.array([1.0, 0.01])), np.ones(2))
        report = solve(problem, quiet_config(method="landweber", omega=0.5, epsilon=0.075))
        assert report.stop_reason is StopReason.DISCREPANCY
        assert report.iterations == 12040

    def test_history_contract(self):
        problem = deriv2_problem()
        report = solve(problem, quiet_config(method="codilated-nu", omega=96.5, epsilon=0.01))
        assert report.residual_history.shape == (report.iterations + 1,)
        assert report.stop_reason is StopReason.DISCREPANCY
        assert report.residual_history[-1] < 4 * 0.01
        assert report.residual_history[0] == np.linalg.norm(problem.g)

    def test_deterministic_reports(self):
        problem = deriv2_problem()
        config = quiet_config(method="codilated-nu", lam=1.5, omega=96.5, epsilon=0.01)
        a = solve(problem, config)
        b = solve(problem, config)
        assert np.array_equal(a.residual_history, b.residual_history)
        assert np.array_equal(a.f_final, b.f_final)

    def test_stagnation_on_zero_operator(self):
        problem = Problem(diagonal_operator(np.zeros(3)), np.ones(3))
        report = solve(problem, quiet_config(method="landweber", epsilon=0.0))
        assert report.stop_reason is StopReason.STAGNATION

    def test_zero_cap_applies_no_operator(self):
        d = np.array([1.0, 0.5, 0.25])
        applied = []

        def apply(x):
            applied.append(x)
            return d * x

        op = LinearOperator(3, 3, apply, apply)
        op.norm_estimate  # the relaxation check's norm estimate precedes the solve
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
        # data that are not finite are rejected where they enter, before any solve
        op = diagonal_operator(np.array([1.0, 0.5, 0.25]))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                Problem(op, np.array([1.0, bad, 1.0]))

    @pytest.mark.parametrize("diag, g", [([1.0, 0.5, 0.25], np.ones(1)),
                                         ([0.5], np.ones(3)),
                                         ([1.0, 0.5], np.ones((2, 1)))])
    def test_data_off_the_range_rejected(self, diag, g):
        # data must be one vector of the operator's range: nothing is broadcast
        config = SolverConfig(method=Method.CODILATED_NU, omega=0.9, epsilon=0.01)
        for run in (lambda p: solve(p, config), lambda p: solve_dilations(p, config, [0.5, 1.5])):
            with pytest.raises(ValueError, match="range"):
                run(Problem(diagonal_operator(diag), g))

    def test_overflowing_data_norm_applies_no_operator(self):
        # finite data whose norm overflows: the n = 0 tests stop every method
        d = np.array([1.0, 0.5, 0.25])
        applied = []

        def apply(x):
            applied.append(x)
            return d * x

        op = LinearOperator(3, 3, apply, apply)
        op.norm_estimate
        problem = Problem(op, np.full(3, 1e200))
        for method in Method:
            applied.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)  # the stop reports the overflow
                report = solve(problem, SolverConfig(method=method, omega=0.9, max_iter=50))
            assert report.stop_reason is StopReason.DIVERGENCE
            assert report.iterations == 0
            assert applied == []

    @pytest.mark.parametrize("problem_name", ["deriv2", "diag-last"])
    def test_callback_does_not_change_solve(self, problem_name):
        _, omega, eps, tau = PROBLEM_DEFAULTS[problem_name]
        base = SolverConfig(nu=1.0, lam=1.5, omega=omega, epsilon=eps, tau=tau, max_iter=5000)
        problem = build_problem(ExperimentSpec(problem=problem_name, config=base))
        for method in Method:
            config = base._replace(method=method)
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
            report = solve(problem, quiet_config(method="landweber"), callback)
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


def replayed_stop(history, threshold, max_iter):
    """(n, reason, conditions) of the first recorded norm at which
    ``_stop_reason`` fires, with the stall count recomputed from the norms the
    textbook way, and the names of its conditions that hold there."""
    stalled, prev = 0, math.inf
    for n, rn in enumerate(history):
        if n:
            same = abs(rn - prev) < STAGNATION_RTOL * max(rn, 1e-300)
            stalled, prev = (stalled + 1 if same else 0), rn
        reason = _stop_reason(rn, threshold, stalled, n, max_iter)
        if reason is not None:
            held = {"discrepancy": rn < threshold, "divergence": not math.isfinite(rn),
                    "stagnation": stalled >= STAGNATION_STEPS, "max-iter": n >= max_iter}
            return n, reason, {name for name, holds in held.items() if holds}
    return None


class TestStopPrecedence:
    """``_drive`` on synthetic steps whose norms make several stop conditions
    hold on one step: 50 norms equal to the threshold (the stall count reaches
    49 at step 50), then a chosen norm at step 51, then rising norms up to
    step 80, after which the steps end without a reason."""

    THRESHOLD = 1.0
    BELOW = math.nextafter(1.0, 0.0)  # one ulp below: below the threshold and stalled

    @staticmethod
    def steps(norms, drawn):
        for n, rn in enumerate(norms, start=1):
            drawn.append(n)
            yield np.array([float(n)]), np.array([n - 1.0]), np.array([rn])

    @pytest.mark.parametrize(
        "last, max_iter, reason, held",
        [
            (BELOW, 51, StopReason.DISCREPANCY, {"discrepancy", "stagnation", "max-iter"}),
            (BELOW, 60, StopReason.DISCREPANCY, {"discrepancy", "stagnation"}),
            (0.5, 51, StopReason.DISCREPANCY, {"discrepancy", "max-iter"}),
            (0.5, 60, StopReason.DISCREPANCY, {"discrepancy"}),
            (math.nan, 51, StopReason.DIVERGENCE, {"divergence", "max-iter"}),
            (math.nan, 60, StopReason.DIVERGENCE, {"divergence"}),
            (math.inf, 51, StopReason.DIVERGENCE, {"divergence", "max-iter"}),
            (math.inf, 60, StopReason.DIVERGENCE, {"divergence"}),
            (1.0, 51, StopReason.STAGNATION, {"stagnation", "max-iter"}),
            (1.0, 60, StopReason.STAGNATION, {"stagnation"}),
            (2.0, 51, StopReason.MAX_ITER, {"max-iter"}),
            (2.0, 60, StopReason.MAX_ITER, {"max-iter"}),  # at step 60
        ],
    )
    def test_report_equals_stop_reason_on_recorded_norms(self, last, max_iter, reason, held):
        norms = [self.THRESHOLD] * 50 + [last] + [3.0 + j for j in range(29)]
        problem = Problem(diagonal_operator(np.ones(1)), np.array([10.0]))
        config = SolverConfig(tau=2.0, epsilon=self.THRESHOLD / 2.0, max_iter=max_iter)
        drawn = []
        report = _drive(problem, config, self.steps(norms, drawn), None)
        history = report.residual_history
        assert np.array_equal(history[1:], norms[: report.iterations], equal_nan=True)
        assert replayed_stop(history.tolist(), self.THRESHOLD, max_iter) == (
            report.iterations, report.stop_reason, held)
        assert report.stop_reason is reason
        assert drawn[-1] == report.iterations  # no step drawn after the stop
        assert report.f_final[0] == report.iterations

    def test_steps_that_end_give_their_reason(self):
        problem = Problem(diagonal_operator(np.ones(1)), np.array([10.0]))

        def steps():
            yield np.ones(1), np.zeros(1), np.array([5.0])
            return StopReason.BREAKDOWN

        report = _drive(problem, SolverConfig(max_iter=10), steps(), None)
        assert (report.iterations, report.stop_reason) == (1, StopReason.BREAKDOWN)


def textbook_two_step(problem, omega, coeffs, threshold, max_iter):
    """f_{n+1} = f_n + a_n (f_n - f_{n-1}) + b_n omega A*(g - A f_n) from
    f_0 = f_{-1} = 0, until ||g - A f_n|| < threshold or n = max_iter; the
    norms as sqrt(v @ v).  Returns the norms and the last iterate."""
    op, g = problem.operator, problem.g
    f = f_prev = np.zeros(op.domain_dim)
    v = g
    history = [math.sqrt(g @ g)]
    for a, b, _ in coeffs:
        if history[-1] < threshold or len(history) > max_iter:
            break
        f, f_prev = f + a * (f - f_prev) + b * omega * op.rmatvec(v), f
        v = g - op.matvec(f)
        history.append(math.sqrt(v @ v))
    return history, f


class TestTextbookLoop:
    """Solves on deriv2 equal a textbook loop bit for bit: the norms taken
    with ``dot`` and the stop screen change no arithmetic."""

    _, OMEGA, EPS, TAU = PROBLEM_DEFAULTS["deriv2"]

    def check(self, config, coeffs, reason):
        problem = deriv2_problem()
        report = solve(problem, config)
        history, f = textbook_two_step(
            problem, self.OMEGA, coeffs, self.TAU * self.EPS, config.resolved_max_iter())
        assert report.stop_reason is reason
        assert report.iterations == len(history) - 1
        assert report.residual_history.tolist() == history
        assert np.array_equal(report.f_final, f)

    def test_landweber_2000_steps(self):
        config = SolverConfig(method="landweber", omega=self.OMEGA, epsilon=self.EPS,
                              tau=self.TAU, max_iter=2000)
        self.check(config, repeat((0.0, 2.0, 1.0)), StopReason.MAX_ITER)

    def test_codilated_nu_to_its_stop(self):
        config = SolverConfig(method="codilated-nu", nu=2.0, lam=3.99, omega=self.OMEGA,
                              epsilon=self.EPS, tau=self.TAU)
        coeffs = textbook_closed_form(2.0, 3.99, symmetric=False)
        self.check(config, coeffs, StopReason.DISCREPANCY)


class TestRelaxationWarnings:
    def test_landweber_warns_at_one(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        with pytest.warns(RelaxationWarning):
            solve(problem, quiet_config(method="landweber", omega=1.0, max_iter=3))

    def test_symmetric_method_warns_above_one(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        with pytest.warns(RelaxationWarning):
            solve(problem, quiet_config(method="codilated-ultraspherical", omega=1.5, max_iter=3))

    def test_asymmetric_tolerates_equality(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RelaxationWarning)
            solve(problem, quiet_config(method="codilated-nu", omega=1.0, max_iter=3))

    def test_symmetric_method_quiet_below_one(self):
        problem = deriv2_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RelaxationWarning)
            solve(problem, quiet_config(method="codilated-ultraspherical", omega=96.5, max_iter=3))

    def test_warning_points_at_caller(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        for run in (
            lambda: solve(problem, quiet_config(method="landweber", omega=1.0, max_iter=3)),
            lambda: solve(
                problem, quiet_config(method="codilated-ultraspherical", omega=1.5, max_iter=3)),
            lambda: semi_iterative(
                problem, CHEB, None, quiet_config(method="general-si", omega=1.5, max_iter=3)),
        ):
            with pytest.warns(RelaxationWarning) as record:
                run()
            assert [w.filename for w in record] == [__file__]

    def test_block_warns_once_at_caller(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        config = quiet_config(method="codilated-ultraspherical", omega=1.5, max_iter=3)
        with pytest.warns(RelaxationWarning) as record:
            solve_dilations(problem, config, [0.5, 1.0, 1.5])
        assert [w.filename for w in record] == [__file__]

    @staticmethod
    def relaxation_warnings(run):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            run()
        return [w for w in record if issubclass(w.category, RelaxationWarning)]

    def test_non_finite_norm_estimate_warns_at_caller(self):
        # the power iteration meets the NaN entry at once: NormEstimate(nan, False, 1)
        d = np.array([1.0, math.nan, 0.5])
        problem = Problem(LinearOperator(3, 3, lambda x: d * x, lambda x: d * x), np.ones(3))
        config = quiet_config(method="codilated-nu", omega=0.5, max_iter=3)
        for run in (
            lambda: solve(problem, config._replace(method="landweber")),
            lambda: solve(problem, config),
            lambda: solve_dilations(problem, config, [0.5, 1.0]),
        ):
            record = self.relaxation_warnings(run)
            assert [w.filename for w in record] == [__file__]
            assert "not finite" in str(record[0].message)

    def test_every_method_but_cg_warns_once_at_caller(self):
        # omega ||A*A|| = 1.5: beyond the bound of every method
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        config = quiet_config(omega=1.5, max_iter=3)
        for method in Method:
            record = self.relaxation_warnings(lambda: solve(problem, config._replace(method=method)))
            assert [w.filename for w in record] == ([] if method is Method.CG else [__file__])
        for method in SCHEME_METHODS:
            record = self.relaxation_warnings(
                lambda: semi_iterative(problem, CHEB, None, config._replace(method=method)))
            assert [w.filename for w in record] == [__file__]
        record = self.relaxation_warnings(lambda: solve_dilations(problem, config, [0.5, 1.0, 1.5]))
        assert [w.filename for w in record] == [__file__]

    def test_cg_estimates_no_norm(self):
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        assert self.relaxation_warnings(
            lambda: solve(problem, quiet_config(method="cg", omega=1.5, max_iter=3))
        ) == []
        assert "norm_estimate" not in vars(problem.operator)

    def test_unconverged_norm_estimate_warns_once_at_caller(self, monkeypatch):
        monkeypatch.setattr(
            operators, "operator_norm_sq", lambda op: NormEstimate(0.5, False, 100000)
        )
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        config = quiet_config(method="codilated-nu", omega=1.0, max_iter=3)
        for run in (
            lambda: solve(problem, config._replace(method="landweber")),
            lambda: solve(problem, config),
            lambda: solve_dilations(problem, config, [0.5, 1.0]),
        ):
            record = self.relaxation_warnings(run)
            assert [w.filename for w in record] == [__file__]
            assert "did not converge in 100000" in str(record[0].message)
        # beyond the bound too: still one warning, which says both
        beyond = config._replace(omega=3.0)
        record = self.relaxation_warnings(lambda: solve(problem, beyond))
        assert [w.filename for w in record] == [__file__]
        assert "> 1" in str(record[0].message) and "100000" in str(record[0].message)

    def test_norm_estimated_once_per_operator(self, monkeypatch):
        calls = []

        def counted(op):
            calls.append(op)
            return NormEstimate(1.0, True, 1)

        monkeypatch.setattr(operators, "operator_norm_sq", counted)
        problem = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        other = Problem(diagonal_operator(np.ones(4)), np.ones(4))
        config = quiet_config(omega=0.9, max_iter=3)
        solve(problem, config)
        solve(problem, config._replace(method="landweber", omega=0.5))
        solve_dilations(problem, config, [0.5, 1.0])
        solve_dilations(other, config, [0.5, 1.0])
        assert calls == [problem.operator, other.operator]


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
        assert_same_solve(report, solve(problem, config._replace(lam=lam)))
    return reports


class TestSolveDilations:
    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize("problem_name", ["deriv2", "diag-last", "diag-second"])
    def test_bit_identical_to_single_solves(self, method, problem_name):
        _, omega, eps, tau = PROBLEM_DEFAULTS[problem_name]
        config = SolverConfig(method=method, nu=2.0, omega=omega, epsilon=eps, tau=tau)
        problem = build_problem(ExperimentSpec(problem=problem_name, config=config))
        # unsorted, with a duplicate and a negative dilation
        reports = assert_block_equals_singles(problem, config, [3.99, 1.0, -1.0, 3.9, 1.0, 0.0])
        assert len({r.iterations for r in reports}) > 1  # rows stop at different steps

    def test_rows_stopping_at_different_steps(self):
        # tau * eps lies between the rows' first residuals: the lam = 0.5 row stops
        # at n = 1 and the others at n = 2, 3 and 6, so stopped rows go on stepping
        # in their places while each report stays final at its own step
        _, omega, eps, _ = PROBLEM_DEFAULTS["deriv2"]
        config = SolverConfig(method=Method.CODILATED_NU, nu=1.0, omega=omega, epsilon=eps,
                              tau=7.27)
        problem = build_problem(ExperimentSpec(problem="deriv2", config=config))
        reports = assert_block_equals_singles(problem, config, [-1.0, 0.5, 1.0, 1.5, 1.95])
        assert [r.iterations for r in reports] == [2, 1, 2, 3, 6]
        assert {r.stop_reason for r in reports} == {StopReason.DISCREPANCY}

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize(
        "overrides, reasons",
        [
            (dict(omega=50.0, max_iter=3000), {StopReason.DIVERGENCE}),
            (dict(epsilon=0.0, max_iter=300), {StopReason.MAX_ITER}),
            (dict(max_iter=0), {StopReason.MAX_ITER}),
            (dict(max_iter=140), {StopReason.MAX_ITER, StopReason.DISCREPANCY}),
            # the cap is the step where a test fires: the lam = 1 row's discrepancy
            # step for both methods, and every row's divergence step
            (dict(max_iter=151), {StopReason.MAX_ITER, StopReason.DISCREPANCY}),
            (dict(omega=50.0, max_iter=69), {StopReason.DIVERGENCE}),
        ],
    )
    def test_stopped_rows(self, method, overrides, reasons):
        _, omega, eps, tau = PROBLEM_DEFAULTS["diag-last"]
        config = SolverConfig(method=method, nu=1.0, omega=omega, epsilon=eps, tau=tau)
        config = config._replace(**overrides)
        problem = build_problem(ExperimentSpec(problem="diag-last", config=config))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RelaxationWarning)
            reports = assert_block_equals_singles(problem, config, [0.5, 1.0, 1.5, 1.95, 1.99])
        assert {r.stop_reason for r in reports} == reasons

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    @pytest.mark.parametrize(
        "diag, g, max_iter, reasons",
        [
            pytest.param([0.0, 0.0], [1.0, 1.0], 400, {StopReason.STAGNATION},
                         id="diag0-g0-reasons0"),
            # the 1e-6 part oscillates: its rows see several runs of steps whose
            # norms agree to STAGNATION_RTOL, and the count restarts after each
            pytest.param([0.0, 0.5], [1.0, 1e-6], 400,
                         {StopReason.STAGNATION, StopReason.MAX_ITER}, id="diag1-g1-reasons1"),
            # stagnation fires at n = STAGNATION_STEPS + 1, which is also the cap
            pytest.param([0.0, 0.0], [1.0, 1.0], STAGNATION_STEPS + 1, {StopReason.STAGNATION},
                         id="stagnation-at-cap"),
        ],
    )
    def test_stalling_rows(self, method, diag, g, max_iter, reasons):
        problem = Problem(diagonal_operator(np.array(diag)), np.array(g))
        config = quiet_config(method=method, max_iter=max_iter)
        reports = assert_block_equals_singles(problem, config, [-2.0, 0.5, 1.99])
        assert {r.stop_reason for r in reports} == reasons

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    def test_stall_state_follows_the_dilation(self, method):
        # the first row stops by stagnation while the second row's stall count
        # runs; the stopped row goes on stepping, and neither its norms nor its
        # place may reach the second row's count
        problem = Problem(diagonal_operator(np.array([0.0, 0.5])), np.array([1.0, 1e-6]))
        config = quiet_config(method=method, max_iter=400)
        first, second, _ = assert_block_equals_singles(problem, config, [0.5, -2.0, 1.99])
        assert first.stop_reason is second.stop_reason is StopReason.STAGNATION
        assert first.iterations < second.iterations < first.iterations + STAGNATION_STEPS

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    def test_nu_one_ulp_above_one_half(self, method):
        # the closed-form denominators are O(2 nu - 1) = O(ulp) here; formed from
        # R(n) the lam = -1 one rounded to 0.0 and the solve diverged at n = 2
        problem = Problem(diagonal_operator(np.array([0.5, 0.25])), np.array([1.0, 1.0]))
        config = quiet_config(method=method, nu=0.5000000000000001, max_iter=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = assert_block_equals_singles(problem, config, [-1.0, 0.5])
        recursive = {Method.CODILATED_NU: Method.ASYMMETRIC_SI,
                     Method.CODILATED_ULTRASPHERICAL: Method.GENERAL_SI}[method]
        for lam, report in zip([-1.0, 0.5], reports):
            want = solve(problem, config._replace(method=recursive, lam=lam))
            assert (report.iterations, report.stop_reason) == (want.iterations, want.stop_reason)
            assert np.allclose(report.residual_history, want.residual_history, rtol=1e-13, atol=0)


    def test_operator_without_block_apply(self):
        d = np.array([1.0, 0.5, 0.25])
        applied = []

        def apply(x):
            applied.append(x.shape)
            return d * x

        op = LinearOperator(3, 3, apply, apply)
        op.norm_estimate
        config = SolverConfig(nu=1.0, omega=0.9, epsilon=1e-3, max_iter=50)
        assert_block_equals_singles(Problem(op, np.array([1.0, -2.0, 3.0])), config, [0.5, 1.9])
        assert set(applied) == {(3,)}  # rows one at a time

        applied.clear()  # finite data whose norm overflows stop every row at n = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the stop reports the overflow
            reports = solve_dilations(Problem(op, np.full(3, 1e200)), config, [0.5, 1.9])
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
        assert not batchable(config._replace(nu=0.5), 0.1)  # no closed forms
        for method in set(Method) - set(BLOCK_METHODS):
            assert not batchable(config._replace(method=method), 1.0)
            with pytest.raises(ValueError):
                solve_dilations(problem, config._replace(method=method), [1.0])
        assert solve_dilations(problem, config, []) == []
        # only a 1-D sequence of reals: no flattening, no parsing, and no apply
        op, applies = diagonal_operator([1.0, 0.5]), []
        for name in ("matvec", "rmatvec", "matvec_rows", "rmatvec_rows"):
            setattr(op, name, applies.append)
        for lams in ([[1.0, 1.5], [1.2, 1.4]], ["1.0", "1.5"], [1.0, True], 1.5):
            with pytest.raises(ValueError, match="1-D sequence|dilation lam must be real"):
                solve_dilations(Problem(op, np.ones(2)), config, lams)
        assert applies == []

    def test_batchable_agrees_on_what_is_not_a_real(self):
        # batchable refuses every dilation that solve_dilations refuses
        config = SolverConfig(method="codilated-nu", nu=1.0, omega=96.5)
        for lam in (True, False, "1.0", None, np.array(1.0)):
            assert not batchable(config, lam)
            with pytest.raises(ValueError):
                solve_dilations(deriv2_problem(), config, [lam])


class TestDivergenceReportedOnce:
    """omega ||A*A|| = 50 on diag-last: every solve but cg diverges, and its
    overflow is the divergence stop, with no NumPy RuntimeWarning besides."""

    @staticmethod
    def diverging(method):
        _, _, eps, tau = PROBLEM_DEFAULTS["diag-last"]
        config = SolverConfig(method=method, omega=50.0, epsilon=eps, tau=tau, max_iter=3000)
        return build_problem(ExperimentSpec(problem="diag-last", config=config)), config

    @pytest.mark.parametrize("method", sorted(set(Method) - {Method.CG}))
    def test_solve(self, method):
        problem, config = self.diverging(method)
        with pytest.warns(RelaxationWarning), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = solve(problem, config)
        assert report.stop_reason is StopReason.DIVERGENCE
        assert report.iterations == (79 if method is Method.LANDWEBER else 69)

    @pytest.mark.parametrize("method", BLOCK_METHODS)
    def test_block(self, method):
        problem, config = self.diverging(method)
        with pytest.warns(RelaxationWarning), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = solve_dilations(problem, config, [0.5, 1.5])
        assert [(r.stop_reason, r.iterations) for r in reports] == [(StopReason.DIVERGENCE, 69)] * 2

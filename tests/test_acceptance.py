"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Stochastic criteria use the repository reference
seed (experiments.DEFAULT_SEED); the bands absorb realisation variance.
Criteria 4, 5, 6, 9 and 10 call the identity functions of
``codilated.checks`` on their full grids; ``codilated checks`` runs the
same functions on condensed grids.
"""

import time
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from codilated.checks import (
    chebyshev_deviation,
    deriv2_deviation,
    determinant_deviation,
    interior_zeros_excess,
    limit_constant,
    mu_deviation,
    representation_deviation,
    sup_bound_excess,
    zero_monotonicity_excess,
)
from codilated.experiments import (
    DEFAULT_SEED,
    ExperimentSpec,
    build_problem,
    run_experiment,
    table1_rows,
)
from codilated.operators import deriv2_assemble
from codilated.orthopoly import (
    CoDilation,
    ResidualKind,
    UltrasphericalParams,
    chebyshev_u_scheme,
    eval_monic,
    mu_closed,
    residual_eval,
    ultraspherical_scheme,
)
from codilated.solvers import Method, SolverConfig, oracle_check, solve
from codilated.zeros import find_zeros, modulus_of_convergence

CHEB = chebyshev_u_scheme()
SYM = ResidualKind.SYMMETRIC
ASYM = ResidualKind.ASYMMETRIC
NUS = (0.75, 1.0, 1.5, 2.0, 3.0)


def points(*counts):
    """Union of the equispaced grids on [-1, 1] with the given point counts."""
    return np.unique(np.concatenate([np.linspace(-1.0, 1.0, k) for k in counts]))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"FAIL  criterion {num}: {desc}")
        raise
    print(f"PASS  criterion {num}: {desc}")


def deriv2_spec(method=Method.CODILATED_NU, **kw):
    kw.setdefault("omega", 96.5)
    kw.setdefault("epsilon", 0.01)
    kw.setdefault("tau", 4.0)
    return ExperimentSpec(problem="deriv2", config=SolverConfig(method=method, **kw))


def diag_spec(problem, method=Method.ADAPTIVE_CODILATED_ONE, **kw):
    kw.setdefault("omega", 1.0)
    kw.setdefault("epsilon", 0.01)
    kw.setdefault("tau", 4.0)
    return ExperimentSpec(problem=problem, config=SolverConfig(method=method, **kw))


def test_criterion_1_iteration_table():
    with criterion(1, "reference iteration counts on deriv2 (N=50, eps=0.01, omega=96.5, tau=4)"):
        t0 = time.perf_counter()
        rows = table1_rows(seed=DEFAULT_SEED)
        semi_elapsed = time.perf_counter() - t0
        counts = {
            (r["method"], r["nu"], r["lambda"]): r["iterations"]
            for r in rows
            if r["method"] == "codilated-nu"
        }
        n11 = counts[("codilated-nu", 1.0, 1.0)]
        assert abs(n11 - 1006) <= 0.15 * 1006
        assert abs(counts[("codilated-nu", 2.0, 1.0)] - 1290) <= 0.15 * 1290
        n199 = counts[("codilated-nu", 1.0, 1.99)]
        assert abs(n199 - 932) <= 0.15 * 932
        assert n199 < n11
        assert abs(counts[("codilated-nu", 2.0, 3.99998)] - 886) <= 0.20 * 886
        cg = next(r for r in rows if r["method"] == "cg")["iterations"]
        assert 12 <= cg <= 50
        assert semi_elapsed < 10.0

        t0 = time.perf_counter()
        problem = build_problem(deriv2_spec())
        lw = solve(problem, SolverConfig(method="landweber", omega=96.5, epsilon=0.01, tau=4.0))
        lw_elapsed = time.perf_counter() - t0
        assert abs(lw.iterations - 359379) <= 0.20 * 359379
        assert lw_elapsed < 600.0


def test_criterion_2_adaptive_on_deriv2():
    with criterion(2, "adaptive dilation on deriv2 in [1.98, 2) with no iteration penalty"):
        adaptive = run_experiment(deriv2_spec(method=Method.ADAPTIVE_CODILATED_ONE))
        plain = run_experiment(deriv2_spec(lam=1.0))
        assert 1.98 <= adaptive.chosen_lambda < 2.0
        assert adaptive.iterations <= plain.iterations


def test_criterion_3_adaptive_on_diagonal_problems():
    with criterion(3, "adaptive dilation on the diagonal problems"):
        last = run_experiment(diag_spec("diag-last"))
        assert 1.98 <= last.chosen_lambda < 2.0
        assert 70 <= last.iterations <= 130
        second = run_experiment(diag_spec("diag-second"))
        assert 1.35 <= second.chosen_lambda <= 1.85


def test_criterion_4_mu_consistency():
    with criterion(4, "closed-form vs recursive mu to 1e-12 (n <= 2000) and no overflow to 1e5"):
        # the closed forms reject dilations at or beyond critical, so the
        # grid is intersected with the admissible range (nu = 0.75 drops
        # lam = 1.5 = 2 nu; near-critical stays covered by 1.9 nu); down to nu
        # one ulp above 1/2, where the closed-form denominators are O(2 nu - 1)
        near_half = (0.5000000000000001, 0.5 + 2.0**-40, 0.500000001, 0.5001)
        grid = {nu: (-0.5, 0.0, 0.5, 1.0, 1.5, 1.9 * nu) for nu in NUS + near_half}
        assert mu_deviation(grid, n_sym=2000, n_asym=2000) <= 1e-12
        for nu in NUS:
            for kind in (SYM, ASYM):
                mus = mu_closed(UltrasphericalParams(nu), 1.9 * nu, 10**5, kind)
                assert np.all(np.isfinite(mus))


def test_criterion_5_polynomial_identities():
    with criterion(5, "polynomial identity suite at stated tolerances"):
        # recurrence against the Chebyshev closed forms, and three expressions
        # of the co-dilated Chebyshev combination
        assert chebyshev_deviation(40, (-0.5, 0.0, 1.5, 2.0), points(61, 81, 101)) < 1e-12

        # dilated recurrence vs numerator-polynomial representation, up to
        # the critical dilation 2 nu
        grid = {nu: (-1.0, 0.0, 0.5 * (1 + 2 * nu), 2 * nu) for nu in NUS}
        assert representation_deviation(grid, (1, 2, 3), (1, 9), 60, points(41, 81)) <= 1e-11

        # determinant identity for numerator polynomials
        pts = np.arange(-0.9, 0.95, 0.2)
        assert determinant_deviation((0.75, 1.0, 2.0), (1, 2, 4, 5), 26, pts) < 1e-10

        # affine combination of asymmetric residuals (first-kind dilation)
        ys = np.linspace(0.0, 1.0, 41)
        for lam in (0.0, 1.5, 1.9):
            dil = CoDilation(1, lam)
            for n in (1, 2, 5, 10, 25, 50, 100):
                c1 = (2 * n + 1) / ((2 - lam) * 2 * n + lam)
                c2 = (1 - lam) * (2 * n - 1) / ((2 - lam) * 2 * n + lam)
                assert abs(c1 + c2 - 1.0) <= 1e-13
                lhs = residual_eval(CHEB, dil, ASYM, n, ys)
                rhs = c1 * residual_eval(CHEB, None, ASYM, n, ys) + c2 * residual_eval(
                    CHEB, None, ASYM, n - 1, ys
                )
                assert np.max(np.abs(lhs - rhs)) < 1e-11

        # identities at x = 1: exact dyadic ratios (T_n(1) = 2^(1-n) for
        # n >= 1; the monic T_0 is 1) and U_n'(1) = n(n+1)(n+2) / (3 * 2^n)
        for n in range(31):
            assert eval_monic(CHEB, None, n, 1.0) * 2.0**n == n + 1
        for n in range(1, 31):
            assert eval_monic(CHEB, CoDilation(1, 2.0), n, 1.0) * 2.0 ** (n - 1) == 1.0
        h = 1e-6
        for n in (2, 5, 10, 20, 30):
            approx = (
                eval_monic(CHEB, None, n, 1.0 + h) - eval_monic(CHEB, None, n, 1.0 - h)
            ) / (2 * h)
            assert approx == pytest.approx(n * (n + 1) * (n + 2) / (3.0 * 2.0**n), rel=1e-6)


def test_criterion_6_zero_structure():
    with criterion(6, "zero monotonicity, interior criterion, and interlacing"):
        # extremal-zero monotonicity in the dilation, up to the m-dependent
        # critical value
        assert zero_monotonicity_excess((1.0, 1.5), (1, 2, 3), (5, 25, 50, 60, 200)) <= 1e-12

        # dilated zeros coincide with undilated for n <= m
        for nu in (1.0, 1.5):
            scheme = ultraspherical_scheme(UltrasphericalParams(nu))
            for m in (1, 2, 3):
                crit = 1.0 / (1.0 - limit_constant(scheme, m)) - 1e-6
                for lam, n in product((1.8, crit), range(1, m + 1)):
                    a = find_zeros(scheme, CoDilation(m, lam), None, n)
                    b = find_zeros(scheme, None, None, n)
                    assert np.max(np.abs(a.zeros - b.zeros)) < 1e-12

        # smallest zero of the asymmetric residual decreases with the dilation
        for nu in (1.0, 2.0):
            scheme = ultraspherical_scheme(UltrasphericalParams(nu))
            smallest = [
                find_zeros(scheme, CoDilation(1, lam), ASYM, 20).smallest
                for lam in (0.5, 1.0, 1.5 * nu, 1.95 * nu)
            ]
            assert all(b < a for a, b in zip(smallest, smallest[1:]))

        # interior criterion at the critical dilation and escape just beyond
        assert interior_zeros_excess((1.0, 2.0), 200, (10, 50, 100, 200), 0.05) < 0.0

        # interlacing of dilated and undilated zeros for m = 1, lam > 1:
        # lower half x*_j < x_j < x*_{j+1}, upper half x*_{j-1} < x_j < x*_j
        for nu in (1.0, 2.0):
            scheme = ultraspherical_scheme(UltrasphericalParams(nu))
            for lam in (1.3, 1.9):
                for n in (8, 9, 29, 30):
                    x = find_zeros(scheme, None, None, n).zeros
                    xs_d = find_zeros(scheme, CoDilation(1, lam), None, n).zeros
                    assert x.size == xs_d.size == n
                    for j in range(1, n // 2 + 1):
                        assert xs_d[j - 1] < x[j - 1] < xs_d[j]
                    for j in range(-(n // 2), 0):
                        assert xs_d[j - 1] < x[j] < xs_d[j]


def test_criterion_7_solver_oracle_equivalence():
    with criterion(7, "iterates match residual-polynomial predictions to 1e-10 (n <= 50)"):
        rng = np.random.default_rng(11)
        diag = np.sqrt(np.linspace(0.04, 1.0, 12))
        f_true = rng.standard_normal(12)
        for method, nu, lam in [
            (Method.LANDWEBER, 1.0, 1.0),
            (Method.GENERAL_SI, 1.0, 1.0),
            (Method.GENERAL_SI, 2.0, 3.0),
            (Method.CODILATED_ULTRASPHERICAL, 1.5, 2.0),
            (Method.ASYMMETRIC_SI, 1.0, 1.5),
            (Method.CODILATED_NU, 2.0, 3.0),
        ]:
            config = SolverConfig(method, nu=nu, lam=lam, omega=0.9)
            assert oracle_check(diag, f_true, config, 50) <= 1e-10


def test_criterion_8_convergence_order():
    with criterion(8, "log-log modulus slopes match the method order within 0.15"):
        ns = [16, 32, 64, 128]
        log_n = np.log(ns)
        for nu in (1.0, 2.0):
            params = UltrasphericalParams(nu)
            scheme = ultraspherical_scheme(params)
            for lam in (0.5, 1.0, 1.5):
                dil = None if lam == 1.0 else CoDilation(1, lam)
                eps = [modulus_of_convergence(scheme, dil, ASYM, n, nu) for n in ns]
                slope = np.polyfit(log_n, np.log(eps), 1)[0]
                assert abs(slope + nu) <= 0.15
        for lam in (0.0, 1.0, 1.5):
            dil = None if lam == 1.0 else CoDilation(1, lam)
            eps = [
                modulus_of_convergence(CHEB, dil, SYM, n, 1.0, symmetric_weight=True) for n in ns
            ]
            slope = np.polyfit(log_n, np.log(eps), 1)[0]
            assert abs(slope + 1.0) <= 0.15


def test_criterion_9_uniform_bound():
    with criterion(9, "uniform bound never violated over 1e4 samples per parameter pair"):
        # 25 degrees x 400 points = 1e4 samples per pair, and 401 points more
        grid = {nu: (-1.0, -0.5, 0.0, 0.5, 1.0, 0.5 * (1 + 2 * nu), 1.9 * nu) for nu in NUS}
        assert sup_bound_excess(grid, 25, points(400, 401)) <= 1e-9


def test_criterion_10_deriv2_validity():
    with criterion(10, "discretised integral operator is valid"):
        # symmetric, negative, ||A*A|| within 2 % of pi^-4 and omega = 96.5
        # admissible
        assert deriv2_deviation(50, 96.5) <= 0.02 * np.pi**-4
        # the Galerkin residual A f_N - g_N vanishes identically for this
        # kernel (exact-arithmetic identity), so consistency sits at the
        # roundoff floor at every N and the N^-2 decay comparison is vacuous
        rels = []
        for n in (25, 50):
            p = deriv2_assemble(n)
            res = p.matrix @ p.f_exact - p.g_vector
            rels.append(np.linalg.norm(res) / np.linalg.norm(p.g_vector))
        at_floor = max(rels) <= 50 * np.finfo(float).eps
        assert at_floor or rels[0] / rels[1] >= 3.0
        assert at_floor  # document: exactness, not mere N^-2 decay

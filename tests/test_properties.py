"""Property tests of zero location, of the block solver, of the solver
oracle and of stop reasons on random parameters.

Examples are drawn from a fixed seed (``derandomize=True``), so every run
checks the same cases.  Hypothesis derives that seed from the test's source
and also draws literals it finds in the code, so an edit there may change
the drawn cases; a case that must stay covered is pinned with ``@example``.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from codilated import zeros  # noqa: E402
from codilated.operators import Problem, diagonal_operator  # noqa: E402
from codilated.orthopoly import (  # noqa: E402
    CoDilation,
    ResidualKind,
    UltrasphericalParams,
    critical_constants,
    ultraspherical_scheme,
)
from codilated.solvers import (  # noqa: E402
    DILATION_KINDS,
    Method,
    RelaxationWarning,
    SolverConfig,
    StopReason,
    oracle_check,
    solve,
    solve_dilations,
)
from codilated.zeros import find_zeros  # noqa: E402
from test_zeros import located, scanned  # noqa: E402

KINDS = st.sampled_from([ResidualKind.SYMMETRIC, ResidualKind.ASYMMETRIC, None])
NUS = st.floats(min_value=-0.49, max_value=4.0)
FIXED = settings(derandomize=True, database=None, deadline=None)


@settings(FIXED, max_examples=100)
@given(
    nu=NUS,
    lam=st.floats(min_value=1e-3, max_value=9.0),
    m=st.integers(min_value=1, max_value=3),
    kind=KINDS,
    n=st.integers(min_value=1, max_value=60),
)
def test_jacobi_matches_scan(nu, lam, m, kind, n):
    # the bound of the parametrised parity test in test_zeros.py
    scheme = ultraspherical_scheme(UltrasphericalParams(nu))
    dil = CoDilation(m, lam)
    folded = kind is ResidualKind.ASYMMETRIC
    assert zeros._jacobi_eigenvalues(scheme, dil, n, folded=folded) is not None
    got, want = located(scheme, dil, kind, n), scanned(scheme, dil, kind, n)
    assert got.size == want.size
    if got.size:
        assert np.max(np.abs(got - want)) <= 1e-13


@settings(FIXED, max_examples=100)
@given(
    nu=NUS,
    fractions=st.tuples(
        st.floats(min_value=1e-6, max_value=1.0), st.floats(min_value=1e-6, max_value=1.0)
    ),
    kind=st.sampled_from([ResidualKind.SYMMETRIC, ResidualKind.ASYMMETRIC]),
    n=st.integers(min_value=1, max_value=60),
)
def test_smallest_zero_does_not_increase_in_lambda(nu, fractions, kind, n):
    # up to the critical dilation every zero stays inside, and the largest
    # eigenvalue of the Jacobi matrix grows with the dilated entry
    params = UltrasphericalParams(nu)
    crit = critical_constants(params).lambda_critical
    lo, hi = sorted(crit * f for f in fractions)
    scheme = ultraspherical_scheme(params)
    low = find_zeros(scheme, CoDilation(1, lo), kind, n)
    high = find_zeros(scheme, CoDilation(1, hi), kind, n)
    assert low.zeros.size == high.zeros.size == n
    # eigvalsh is backward stable: a few ulp of the matrix norm (about 1)
    assert high.smallest <= low.smallest + 1e-14


@st.composite
def block_cases(draw):
    """A diagonal problem with N <= 30, nu in (0.5, 4] and 2-4 admissible dilations."""
    n = draw(st.integers(min_value=1, max_value=30))
    unit = st.floats(min_value=0.0, max_value=1.0)
    diag = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    g = np.array(draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)))
    nu = draw(st.floats(min_value=0.5, max_value=4.0, exclude_min=True))
    lam = st.floats(min_value=-2.0, max_value=2.0 * nu, exclude_max=True)
    lams = draw(st.lists(lam, min_size=2, max_size=4))
    return diag, g, nu, lams


@settings(FIXED, max_examples=60)
@given(case=block_cases(), method=st.sampled_from(["codilated-nu", "codilated-ultraspherical"]),
       epsilon=st.floats(min_value=0.0, max_value=0.1))
# nu one ulp above 1/2 on zero data, where every closed-form denominator is O(ulp)
@example(case=(np.zeros(1), np.zeros(1), 0.5000000000000001, [0.0, -1.0]),
         method="codilated-nu", epsilon=0.0)
def test_block_solve_equals_single_solves(case, method, epsilon):
    diag, g, nu, lams = case
    problem = Problem(diagonal_operator(diag), g)
    config = SolverConfig(method=method, nu=nu, tau=1.5, epsilon=epsilon, max_iter=200)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RelaxationWarning)  # a norm estimate may round above 1
        reports = solve_dilations(problem, config, lams)
        singles = [solve(problem, config._replace(lam=lam)) for lam in lams]
    for block, single in zip(reports, singles, strict=True):
        assert (block.iterations, block.stop_reason) == (single.iterations, single.stop_reason)
        assert np.array_equal(block.residual_history, single.residual_history, equal_nan=True)
        assert np.array_equal(block.f_final, single.f_final, equal_nan=True)


@st.composite
def oracle_cases(draw):
    """A diagonal spectrum with N <= 20 and omega ||A*A|| <= 1, f_true of
    sup norm 1, nu in (1/2, 4] and an admissible lam in [-1, 2 nu)."""
    n = draw(st.integers(min_value=1, max_value=20))
    diag = draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n))
    f_true = np.array(draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n,
                                    max_size=n)))
    assume(f_true.any())
    f_true /= np.max(np.abs(f_true))  # deviations are relative to it: keep it off underflow
    omega = draw(st.floats(min_value=0.1, max_value=1.0))
    nu = draw(st.floats(min_value=0.5, max_value=4.0, exclude_min=True))
    lam = draw(st.floats(min_value=-1.0, max_value=2.0 * nu, exclude_max=True))
    return np.array(diag), f_true, omega, nu, lam


@settings(FIXED, max_examples=200)
@given(case=oracle_cases(), method=st.sampled_from([Method.LANDWEBER, *DILATION_KINDS]),
       n_max=st.integers(min_value=1, max_value=60))
def test_solver_error_follows_residual_polynomial(case, method, n_max):
    # the bound of the fixed cases in test_solvers.py's TestOracleEquivalence
    diag, f_true, omega, nu, lam = case
    config = SolverConfig(method, nu=nu, lam=lam, omega=omega)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RelaxationWarning)  # a norm estimate may round above 1
        dev = oracle_check(diag, f_true, config, n_max)
    assert dev <= 1e-10


@settings(FIXED, max_examples=50)
@given(case=block_cases(), omega=st.floats(min_value=0.1, max_value=50.0),
       epsilon=st.floats(min_value=0.0, max_value=0.1))
def test_non_finite_only_on_divergence(case, omega, epsilon):
    # omega ||A*A|| up to 50: past every method's range of convergence, far
    # enough for many solves to overflow within the cap
    diag, g, nu, lams = case
    problem = Problem(diagonal_operator(diag), g)
    for method in Method:
        config = SolverConfig(method=method, nu=nu, lam=lams[0], omega=omega, tau=1.5,
                              epsilon=epsilon, max_iter=200)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # relaxation and overflow warnings
            report = solve(problem, config)
        last = report.residual_history[-1]
        if not (math.isfinite(last) and np.all(np.isfinite(report.f_final))):
            assert report.stop_reason is StopReason.DIVERGENCE
        if report.stop_reason is StopReason.DISCREPANCY:
            assert last < 1.5 * epsilon

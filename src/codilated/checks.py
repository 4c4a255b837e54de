"""The paper's identities, one function each, shared by ``codilated checks``
and the acceptance suite.

Each takes its grid as plain arguments and returns one float, the worst
deviation from its identity (for a yes/no property, the worst margin), which
passes below its bound.  ``ALL_CHECKS`` runs each on a condensed grid; the
acceptance suite calls them on the full grids.
"""

from __future__ import annotations

import math
from functools import wraps

import numpy as np

from .operators import deriv2_assemble, operator_norm_sq
from .orthopoly import (
    CoDilation, ResidualKind, UltrasphericalParams, chebyshev_closed, chebyshev_u_scheme,
    critical_constants, eval_codilated_via_representation, eval_monic, mu_closed, mu_recursive,
    numerator_scheme, sup_bound_codilated, ultraspherical_scheme,
)
from .zeros import find_polynomial_zeros

PI4 = np.pi**-4
LIMIT_STEPS = 3000  # the degree at which limit_constant reads its limit
SYM, ASYM = ResidualKind.SYMMETRIC, ResidualKind.ASYMMETRIC


def _worst(identity):
    """The largest value that the generator ``identity`` yields over its grid; NaN if any is."""
    @wraps(identity)
    def worst(*args, **kwargs) -> float:
        return float(np.max(np.fromiter(identity(*args, **kwargs), float), initial=-np.inf))
    return worst


def _max_abs(values) -> float:
    return float(np.max(np.abs(values)))


@_worst
def chebyshev_deviation(n_max, lams, xs):
    """Max abs deviation of the recurrence's U_n, U*_n (n <= n_max) from the closed forms, and
    of U*_n from lam U_n + (1 - lam) x U_{n-1} and U_n + (1 - lam)/4 U_{n-2} (n >= 2)."""
    cheb = chebyshev_u_scheme()
    for n in range(n_max + 1):
        u_n = chebyshev_closed("U", n, xs)
        yield _max_abs(eval_monic(cheb, None, n, xs) - u_n)
        for lam in lams:
            star = chebyshev_closed("star", n, xs, lam=lam)
            yield _max_abs(eval_monic(cheb, CoDilation(1, lam), n, xs) - star)
            if n >= 2:
                yield _max_abs(lam * u_n + (1 - lam) * xs * chebyshev_closed("U", n - 1, xs) - star)
                yield _max_abs(u_n + (1 - lam) / 4.0 * chebyshev_closed("U", n - 2, xs) - star)


@_worst
def representation_deviation(dilations, ms, shifts, top, xs):
    """Max deviation of P*_n from lam P_n + (1 - lam) P_m P^{(m)}_{n-m} (n = m + shift, top),
    relative to |P*_n| or the larger operand: at 2 nu the sum cancels at x = +-1 by design."""
    for nu, lams in dilations.items():
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        for m in ms:
            numer = numerator_scheme(scheme, m)
            for n in sorted({m + s for s in shifts} | {top}):
                p_n, p_m = eval_monic(scheme, None, n, xs), eval_monic(scheme, None, m, xs)
                q = eval_monic(numer, None, n - m, xs)
                for lam in lams:
                    a = eval_monic(scheme, CoDilation(m, lam), n, xs)
                    b = eval_codilated_via_representation(scheme, CoDilation(m, lam), n, xs)
                    operand = np.abs(lam * p_n) + np.abs((1 - lam) * p_m * q)
                    yield float(np.max(np.abs(a - b) / np.maximum(np.abs(a), operand).clip(1e-300)))


@_worst
def determinant_deviation(nus, ms, count, xs):
    """Max rel deviation of P_{n+1} P^{(m)}_{n-m} - P^{(m)}_{n-m+1} P_n from
    -(beta_m ... beta_n) P_{m-1}, m <= n < m + count."""
    for nu in nus:
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        for m in ms:
            numer = numerator_scheme(scheme, m)
            for n in range(m, m + count):
                prod = np.prod([scheme.beta(k) for k in range(m, n + 1)])
                lhs = (eval_monic(scheme, None, n + 1, xs) * eval_monic(numer, None, n - m, xs)
                       - eval_monic(numer, None, n - m + 1, xs) * eval_monic(scheme, None, n, xs))
                rhs = -prod * eval_monic(scheme, None, m - 1, xs)
                yield float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))


@_worst
def mu_deviation(dilations, n_sym, n_asym):
    """Max rel deviation of the closed-form mu_1 .. mu_n from the value recursions (symmetric
    n_sym, asymmetric n_asym) at each lam < 2 nu, the range of the closed forms."""
    for nu, lams in dilations.items():
        scheme = ultraspherical_scheme(params := UltrasphericalParams(nu))
        for lam in (lam for lam in lams if lam < 2.0 * nu):
            for kind, n_max in ((SYM, n_sym), (ASYM, n_asym)):
                rec = mu_recursive(scheme, CoDilation(1, lam), n_max, kind)
                clo = mu_closed(params, lam, n_max, kind)
                yield float(np.max(np.abs(rec - clo) / clo))


def limit_constant(scheme, m):
    """L_m = lim P_n(1) / (P^{(m)}_{n-m}(1) P_m(1)) at n = LIMIT_STEPS, by mu-ratio products."""
    mus = mu_recursive(scheme, None, LIMIT_STEPS)
    mus_num = mu_recursive(numerator_scheme(scheme, m), None, LIMIT_STEPS)
    ratio = eval_monic(scheme, None, m, 1.0)  # P_n(1)/P^{(m)}_{n-m}(1) at n = m
    for n in range(m, LIMIT_STEPS):
        ratio *= mus_num[n - m] / mus[n]
    return ratio / eval_monic(scheme, None, m, 1.0)


@_worst
def zero_monotonicity_excess(nus, ms, ns):
    """Largest step of an extremal zero of P*_n outwards-in as lam runs over 0.5, 1, their
    midpoint and 1/(1 - L_m) - 1e-6; inf when P*_n has fewer than n zeros in [-1, 1]."""
    for nu in nus:
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        for m in ms:
            crit = 1.0 / (1.0 - limit_constant(scheme, m)) - 1e-6
            for n in ns:
                zeros = [find_polynomial_zeros(scheme, CoDilation(m, lam), n).zeros
                         for lam in (0.5, 1.0, 0.5 * (1 + crit), crit)]
                if any(z.size != n for z in zeros):
                    yield math.inf
                    return
                for prev, z in zip(zeros, zeros[1:]):
                    yield from (z[0] - prev[0], prev[-1] - z[-1])


@_worst
def interior_zeros_excess(nus, n_at_one, ns, beyond):
    """Worst margin, negative when all hold, of: P*_n(1) > 0 (n <= n_at_one) and every zero
    inside (-1, 1) (n in ns; inf if fewer than n) at lam = 2 nu, some P*_n(1) < 0 past it."""
    for nu in nus:
        scheme = ultraspherical_scheme(params := UltrasphericalParams(nu))
        crit = critical_constants(params).lambda_critical
        at, past = ([eval_monic(scheme, CoDilation(1, lam), n, 1.0) for n in range(1, n_at_one + 1)]
                    for lam in (crit, crit + beyond))
        yield from (-np.min(at), np.min(past))
        for n in ns:
            zeros = find_polynomial_zeros(scheme, CoDilation(1, crit), n).zeros
            yield from (-1.0 - zeros[0], zeros[-1] - 1.0) if zeros.size == n else (math.inf,)


@_worst
def sup_bound_excess(dilations, n_max, xs):
    """Largest excess of |P*_n(x) / P*_n(1)| (n = 1 .. n_max, m = 1) over the uniform bound."""
    for nu, lams in dilations.items():
        scheme = ultraspherical_scheme(params := UltrasphericalParams(nu))
        for lam in lams:
            bound, dil = sup_bound_codilated(params, lam), CoDilation(1, lam)
            for n in range(1, n_max + 1):
                vals = eval_monic(scheme, dil, n, xs) / eval_monic(scheme, dil, n, 1.0)
                yield _max_abs(vals) - bound


def deriv2_deviation(n, omega):
    """Abs deviation of the estimate of ||A*A|| from pi^-4; inf unless the n x n deriv2 matrix
    is symmetric and negative, the estimate converged and omega ||A*A|| < 1."""
    d2 = deriv2_assemble(n)
    a, est = d2.matrix, operator_norm_sq(d2.to_operator())
    ok = np.array_equal(a, a.T) and np.all(a < 0.0) and est.converged and omega * est.value < 1.0
    return abs(est.value - PI4) if ok else math.inf


_ABS, _REL = "max abs deviation {:.2e}", "max rel deviation {:.2e}"
# (name, function, condensed grid, bound, detail: a format string for the function's value)
ALL_CHECKS = [
    ("chebyshev-oracle", chebyshev_deviation,
     dict(n_max=40, lams=(0.0, 1.5, 2.0), xs=np.linspace(-1.0, 1.0, 41)), 1e-12, _ABS),
    ("representation", representation_deviation,
     dict(dilations=dict.fromkeys((0.75, 1.0, 2.0), (-1.0, 0.5, 1.5)), ms=(1, 2, 3),
          shifts=(1, 7), top=40, xs=np.linspace(-1.0, 1.0, 21)), 1e-11, _REL),
    ("determinant-identity", determinant_deviation,
     dict(nus=(0.75, 1.5), ms=(1, 2, 4), count=15, xs=np.arange(-0.9, 0.95, 0.2)), 1e-10, _REL),
    ("mu-consistency", mu_deviation, dict(n_sym=1000, n_asym=500, dilations={
        nu: (-0.5, 0.0, 0.5, 1.0, 1.5, 1.9 * nu) for nu in (0.75, 1.0, 1.5, 2.0, 3.0)}),
     1e-12, _REL),
    ("zero-monotonicity", zero_monotonicity_excess, dict(nus=(1.0,), ms=(1, 2), ns=(25,)),
     1e-12, "smallest decreasing / largest increasing over lam"),
    ("interior-zeros", interior_zeros_excess,
     dict(nus=(1.0, 2.0), n_at_one=200, ns=(60,), beyond=0.05),
     0.0, "sign criterion at critical and escape at critical + 0.05"),
    ("sup-bound", sup_bound_excess, dict(n_max=25, xs=np.linspace(-1.0, 1.0, 401), dilations={
        nu: (-1.0, 0.5, 1.0, 1.0 + (2 * nu - 1.0) / 2.0, 1.9 * nu) for nu in (0.75, 1.0, 2.0)}),
     1e-9, "25 degrees x 401 points per (nu, lam)"),
    ("deriv2", deriv2_deviation, dict(n=50, omega=96.5),
     0.02 * PI4, f"||A*A|| differs from pi^-4 = {PI4:.6g} by {{:.2e}}"),
]


def run_checks() -> bool:
    """Run ``ALL_CHECKS``, printing one PASS or FAIL line each; True if all pass."""
    all_ok = True
    for name, fn, grid, bound, detail in ALL_CHECKS:
        worst = fn(**grid)
        all_ok = all_ok and worst < bound
        print(f"{'PASS' if worst < bound else 'FAIL'}  {name}: {detail.format(worst)}")
    return all_ok

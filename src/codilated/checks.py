"""Fast invariant suites runnable from the command line.

Each check returns (name, passed, detail); these are condensed versions of
the full test suite, meant as a quick health verification of an install.
"""

from __future__ import annotations

import numpy as np

from .operators import deriv2_assemble, operator_norm_sq
from .orthopoly import (
    CoDilation,
    ResidualKind,
    UltrasphericalParams,
    chebyshev_closed,
    chebyshev_u_scheme,
    critical_constants,
    eval_codilated_via_representation,
    eval_monic,
    mu_closed,
    mu_recursive,
    numerator_scheme,
    sup_bound_codilated,
    ultraspherical_scheme,
)
from .zeros import find_polynomial_zeros, find_zeros

__all__ = ["run_checks", "ALL_CHECKS"]


def check_chebyshev_oracle():
    """Recurrence evaluation against the trigonometric closed forms."""
    scheme = chebyshev_u_scheme()
    xs = np.linspace(-1.0, 1.0, 41)
    worst = 0.0
    for n in range(0, 41):
        worst = max(worst, float(np.max(np.abs(
            eval_monic(scheme, None, n, xs) - chebyshev_closed("U", n, xs)
        ))))
        for lam in (0.0, 1.5, 2.0):
            dil = CoDilation(1, lam)
            worst = max(worst, float(np.max(np.abs(
                eval_monic(scheme, dil, n, xs) - chebyshev_closed("star", n, xs, lam=lam)
            ))))
    return worst < 1e-12, f"max abs deviation {worst:.2e}"


def check_representation():
    """Dilated recurrence against the numerator-polynomial representation."""
    worst = 0.0
    xs = np.linspace(-1.0, 1.0, 21)
    for nu in (0.75, 1.0, 2.0):
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        for m in (1, 2, 3):
            for lam in (-1.0, 0.5, 1.5):
                dil = CoDilation(m, lam)
                for n in (m + 1, m + 7, 40):
                    a = eval_monic(scheme, dil, n, xs)
                    b = eval_codilated_via_representation(scheme, dil, n, xs)
                    scale = float(np.max(np.abs(a))) or 1.0
                    worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    return worst < 1e-11, f"max rel deviation {worst:.2e}"


def check_determinant_identity():
    """P_{n+1} P_{n-m}^{(m)} - P_{n-m+1}^{(m)} P_n = -(beta_m ... beta_n) P_{m-1}."""
    worst = 0.0
    xs = np.arange(-0.9, 0.95, 0.2)
    for nu in (0.75, 1.5):
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        for m in (1, 2, 4):
            numer = numerator_scheme(scheme, m)
            for n in range(m, m + 15):
                prod = np.prod([scheme.beta(k) for k in range(m, n + 1)])
                lhs = eval_monic(scheme, None, n + 1, xs) * eval_monic(
                    numer, None, n - m, xs
                ) - eval_monic(numer, None, n - m + 1, xs) * eval_monic(scheme, None, n, xs)
                rhs = -prod * eval_monic(scheme, None, m - 1, xs)
                worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    return worst < 1e-10, f"max rel deviation {worst:.2e}"


def check_mu_consistency():
    """Closed-form mu sequences against the value recursions."""
    worst = 0.0
    for nu in (0.75, 1.0, 1.5, 2.0, 3.0):
        params = UltrasphericalParams(nu)
        scheme = ultraspherical_scheme(params)
        for lam in (-0.5, 0.0, 0.5, 1.0, 1.5, 1.9 * nu):
            if lam >= 2.0 * nu:  # closed forms reject dilations at critical
                continue
            for kind, n_max in ((ResidualKind.SYMMETRIC, 1000), (ResidualKind.ASYMMETRIC, 500)):
                rec = mu_recursive(scheme, CoDilation(1, lam), n_max, kind)
                clo = mu_closed(params, lam, n_max, kind)
                worst = max(worst, float(np.max(np.abs(rec - clo) / clo)))
    return worst < 1e-12, f"max rel deviation {worst:.2e}"


def check_zero_monotonicity():
    """Extremal zeros move monotonically with the dilation parameter."""
    scheme = ultraspherical_scheme(UltrasphericalParams(1.0))
    ok = True
    for m in (1, 2):
        # for this family L_m = 1/(m+1), so zeros stay inside up to (m+1)/m
        crit = (m + 1) / m
        last_smallest, last_largest = None, None
        for lam in (0.5, 1.0, 0.5 * (1 + crit), crit):
            zr = find_polynomial_zeros(scheme, CoDilation(m, lam), 25)
            ok = ok and zr.zeros.size == 25
            if last_smallest is not None:
                ok = ok and zr.zeros[0] <= last_smallest + 1e-12
                ok = ok and zr.zeros[-1] >= last_largest - 1e-12
            last_smallest, last_largest = zr.zeros[0], zr.zeros[-1]
    return ok, "smallest decreasing / largest increasing over lam"


def check_interior_zeros():
    """Zeros stay inside (-1, 1) up to the critical dilation and escape beyond."""
    ok = True
    for nu in (1.0, 2.0):
        scheme = ultraspherical_scheme(UltrasphericalParams(nu))
        crit = critical_constants(UltrasphericalParams(nu)).lambda_critical
        at = [eval_monic(scheme, CoDilation(1, crit), n, 1.0) for n in range(1, 201)]
        ok = ok and all(v > 0.0 for v in at)
        beyond = [eval_monic(scheme, CoDilation(1, crit + 0.05), n, 1.0) for n in range(1, 201)]
        ok = ok and any(v <= 0.0 for v in beyond)
        zr = find_zeros(scheme, CoDilation(1, crit), ResidualKind.SYMMETRIC, 60)
        ok = ok and zr.zeros.size == 60 and zr.zeros[0] > 0.0 and zr.zeros[-1] < 1.0
    return ok, "sign criterion at critical and escape at critical + 0.05"


def check_sup_bound():
    """Sampled normalised values never exceed the uniform bound."""
    ok = True
    xs = np.linspace(-1.0, 1.0, 401)
    for nu in (0.75, 1.0, 2.0):
        params = UltrasphericalParams(nu)
        scheme = ultraspherical_scheme(params)
        for lam in (-1.0, 0.5, 1.0, 1.0 + (2 * nu - 1.0) / 2.0, 1.9 * nu):
            bound = sup_bound_codilated(params, lam)
            dil = CoDilation(1, lam)
            for n in range(1, 26):
                at_one = eval_monic(scheme, dil, n, 1.0)
                vals = np.abs(eval_monic(scheme, dil, n, xs) / at_one)
                ok = ok and float(np.max(vals)) <= bound + 1e-9
    return ok, "25 degrees x 401 points per (nu, lam)"


def check_deriv2():
    """Symmetry, negativity, and spectrum of the discretised integral operator."""
    d2 = deriv2_assemble(50)
    a = d2.matrix
    ok = bool(np.array_equal(a, a.T)) and bool(np.all(a < 0.0))
    est = operator_norm_sq(d2.to_operator())
    ok = ok and est.converged and abs(est.value - np.pi**-4) < 0.02 * np.pi**-4
    ok = ok and 96.5 * est.value < 1.0
    return ok, f"||A*A|| = {est.value:.6g} (pi^-4 = {np.pi**-4:.6g})"


ALL_CHECKS = [
    ("chebyshev-oracle", check_chebyshev_oracle),
    ("representation", check_representation),
    ("determinant-identity", check_determinant_identity),
    ("mu-consistency", check_mu_consistency),
    ("zero-monotonicity", check_zero_monotonicity),
    ("interior-zeros", check_interior_zeros),
    ("sup-bound", check_sup_bound),
    ("deriv2", check_deriv2),
]


def run_checks(writer=print) -> bool:
    all_ok = True
    for name, fn in ALL_CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        writer(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    return all_ok

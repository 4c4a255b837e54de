"""Monic orthogonal polynomials, co-dilations, and residual polynomials.

Everything here is built on the monic three-term recurrence

    P_{n+1}(x) = (x - alpha_n) P_n(x) - beta_n P_{n-1}(x),
    P_0(x) = 1,  P_1(x) = x - alpha_0,

with coefficient sequences supplied as plain index->value functions.  A
co-dilation multiplies the single coefficient beta_m by a factor lam; the
resulting family stays orthogonal for lam > 0 and its extremal zeros move
monotonically with lam.  Residual polynomials are the normalised values
P_n(1-2y)/P_n(1) (symmetric) or P_{2n}(sqrt(1-y))/P_{2n}(1) (asymmetric)
on y in [0, 1]; they drive the semi-iterative solvers.

All arithmetic is binary64.  Evaluations are vectorised over the argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import count, islice
from typing import Callable

import numpy as np

__all__ = [
    "NormalizationVanishes",
    "DivergentNormalization",
    "RecurrenceScheme",
    "CoDilation",
    "UltrasphericalParams",
    "ResidualKind",
    "CriticalConstants",
    "chebyshev_u_scheme",
    "ultraspherical_scheme",
    "power_basis_scheme",
    "eval_monic",
    "numerator_scheme",
    "eval_codilated_via_representation",
    "chebyshev_closed",
    "ultraspherical_beta",
    "residual_eval",
    "mu_recursive",
    "mu_closed_ultraspherical",
    "mu_closed_sequence",
    "amu_closed",
    "amu_closed_sequence",
    "critical_constants",
    "numerator_quotient_at_one",
    "limit_ratio",
    "sup_bound_codilated",
]


class NormalizationVanishes(ArithmeticError):
    """The normalisation value P_n(1) is numerically zero."""


class DivergentNormalization(ArithmeticError):
    """A denominator in the mu recursion crossed zero (dilation beyond critical)."""


@dataclass(frozen=True)
class RecurrenceScheme:
    """Coefficients of a monic three-term recurrence.

    alpha and beta are pure functions of the index (alpha_n for n >= 0,
    beta_n for n >= 1), so arbitrarily long iterations need no storage.
    beta must be positive; the degenerate power basis beta == 0 used as
    an oracle for the plain Landweber residuals is admitted only behind
    ``allow_zero_beta``.
    """

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    symmetric: bool = False
    allow_zero_beta: bool = False

    def __post_init__(self):
        for n in range(8):
            if self.symmetric and self.alpha(n) != 0.0:
                raise ValueError("symmetric scheme requires alpha == 0")
            _require_beta(self, n + 1)


def _require_beta(scheme: RecurrenceScheme, n: int) -> None:
    """ValueError unless the undilated beta_n is positive, or zero where the
    scheme allows it."""
    b = scheme.beta(n)
    if b < 0.0 or (b == 0.0 and not scheme.allow_zero_beta):
        raise ValueError(f"beta({n}) = {b} must be positive")


@dataclass(frozen=True)
class CoDilation:
    """Dilation of the coefficient beta_m by the factor lam.

    lam = 1 reproduces the undilated scheme exactly.
    """

    m: int
    lam: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("dilation index m must be >= 1")
        if not math.isfinite(self.lam):
            raise ValueError("dilation factor lam must be finite")


@dataclass(frozen=True)
class UltrasphericalParams:
    """Parameter nu > -1/2 of the weight (1 - x^2)^(nu - 1/2) on [-1, 1]."""

    nu: float

    def __post_init__(self):
        if not self.nu > -0.5:
            raise ValueError("ultraspherical parameter requires nu > -1/2")

    def require_closed_forms(self):
        """The explicit x=1 formulas only exist for nu > 1/2."""
        if not self.nu > 0.5:
            raise ValueError("closed forms require nu > 1/2")


class ResidualKind(Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"


@dataclass(frozen=True)
class CriticalConstants:
    """Limit constant L1 and the largest admissible dilation 1/(1 - L1)."""

    L1: float
    lambda_critical: float


def _zero(_n: int) -> float:
    return 0.0


def chebyshev_u_scheme() -> RecurrenceScheme:
    """Monic Chebyshev polynomials of the second kind: alpha = 0, beta = 1/4."""
    return RecurrenceScheme(alpha=_zero, beta=lambda n: 0.25, symmetric=True)


def ultraspherical_beta(params: UltrasphericalParams, n: int) -> float:
    """Recurrence coefficient beta_n = n(n + 2 nu - 1) / (4 (n + nu)(n + nu - 1)).

    The n = 1 value is taken in the reduced form 1 / (2 (1 + nu)), which is
    the same rational function with the removable nu = 0 singularity cleared.
    """
    if n < 1:
        raise ValueError("beta is defined for n >= 1")
    nu = params.nu
    if n == 1:
        return 1.0 / (2.0 * (1.0 + nu))
    return n * (n + 2.0 * nu - 1.0) / (4.0 * (n + nu) * (n + nu - 1.0))


def ultraspherical_scheme(params: UltrasphericalParams) -> RecurrenceScheme:
    return RecurrenceScheme(
        alpha=_zero, beta=lambda n: ultraspherical_beta(params, n), symmetric=True
    )


def power_basis_scheme() -> RecurrenceScheme:
    """Degenerate scheme with alpha = beta = 0, i.e. P_n(x) = x^n.

    Not an orthogonal family; admitted as an oracle for the plain Landweber
    residual polynomials (1 - 2y)^n.
    """
    return RecurrenceScheme(alpha=_zero, beta=_zero, symmetric=True, allow_zero_beta=True)


def _effective_beta(scheme: RecurrenceScheme, dilation: CoDilation | None):
    if dilation is None or dilation.lam == 1.0:
        return scheme.beta
    m, lam, base = dilation.m, dilation.lam, scheme.beta

    def beta(n: int) -> float:
        return lam * base(n) if n == m else base(n)

    return beta


def eval_monic(scheme: RecurrenceScheme, dilation: CoDilation | None, n: int, x):
    """Evaluate P_n(x) (co-dilated if a dilation is given) by forward recurrence.

    x may be a scalar or an ndarray.  For the families used here |x| <= 1
    keeps all values bounded by P_n(1)-sized quantities; far outside the
    interval the monic values grow like x^n and may overflow for large n.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    xa = np.asarray(x, dtype=float)
    scalar = xa.ndim == 0
    p_prev = np.ones_like(xa)
    if n == 0:
        return float(p_prev) if scalar else p_prev
    beta = _effective_beta(scheme, dilation)
    p = xa - scheme.alpha(0)
    for k in range(1, n):
        p_prev, p = p, (xa - scheme.alpha(k)) * p - beta(k) * p_prev
    return float(p) if scalar else p


def numerator_scheme(scheme: RecurrenceScheme, m: int) -> RecurrenceScheme:
    """Scheme of the m-th numerator polynomials: the beta sequence shifted by m."""
    if m < 1:
        raise ValueError("numerator shift m must be >= 1")
    if not scheme.symmetric:
        raise ValueError("numerator polynomials are defined for symmetric schemes")
    base = scheme.beta
    return RecurrenceScheme(
        alpha=_zero,
        beta=lambda n: base(n + m),
        symmetric=True,
        allow_zero_beta=scheme.allow_zero_beta,
    )


def eval_codilated_via_representation(
    scheme: RecurrenceScheme, dilation: CoDilation, n: int, x
):
    """Co-dilated value through lam P_n + (1 - lam) P_m P_{n-m}^{(m)}.

    Independent of the dilated recurrence; agrees with ``eval_monic`` under
    the same dilation to roundoff and serves as its cross-check.
    """
    if n <= dilation.m:
        return eval_monic(scheme, None, n, x)
    m, lam = dilation.m, dilation.lam
    numer = numerator_scheme(scheme, m)
    return lam * eval_monic(scheme, None, n, x) + (1.0 - lam) * eval_monic(
        scheme, None, m, x
    ) * eval_monic(numer, None, n - m, x)


def chebyshev_closed(kind: str, n: int, x, lam: float | None = None):
    """Monic Chebyshev values from the trigonometric closed forms.

    kind is "T", "U" or "star"; "star" is the combination
    (2 - lam) U_n + (lam - 1) T_n.  Endpoints use the exact values
    U_n(1) = (n+1)/2^n and T_n(1) = 2^(1-n).  Serves as an oracle for the
    recurrence evaluation, hence restricted to |x| <= 1.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(np.abs(xa) > 1.0):
        raise ValueError("closed forms are restricted to |x| <= 1")
    if kind == "star":
        if lam is None:
            raise ValueError("kind 'star' needs the dilation factor lam")
        return (2.0 - lam) * chebyshev_closed("U", n, x) + (lam - 1.0) * chebyshev_closed(
            "T", n, x
        )
    scalar = xa.ndim == 0
    xv = np.atleast_1d(xa)
    theta = np.arccos(np.clip(xv, -1.0, 1.0))
    if kind == "T":
        vals = np.cos(n * theta) / 2.0 ** (n - 1) if n >= 1 else np.ones_like(xv)
        at_one = 2.0 ** (1 - n) if n >= 1 else 1.0
    elif kind == "U":
        if n == 0:
            vals = np.ones_like(xv)
        else:
            sin_t = np.sin(theta)
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.sin((n + 1) * theta) / (2.0**n * sin_t)
        at_one = (n + 1) / 2.0**n
    else:
        raise ValueError(f"unknown kind {kind!r}")
    vals = np.where(xv == 1.0, at_one, vals)
    vals = np.where(xv == -1.0, (-1.0) ** n * at_one, vals)
    return float(vals[0]) if scalar else vals.reshape(xa.shape)


def residual_eval(
    scheme: RecurrenceScheme,
    dilation: CoDilation | None,
    kind: ResidualKind,
    n: int,
    y,
):
    """Residual polynomial value r_n(y) or its asymmetric variant on [0, 1].

    Computed as a ratio against P(1), so the constraint r_n(0) = 1 holds
    exactly.  Raises NormalizationVanishes when |P(1)| underflows, which
    happens only for dilations beyond the critical value.
    """
    ya = np.asarray(y, dtype=float)
    if np.any((ya < 0.0) | (ya > 1.0)):
        raise ValueError("residual polynomials are defined on [0, 1]")
    if kind is ResidualKind.SYMMETRIC:
        degree, arg = n, 1.0 - 2.0 * ya
    else:
        degree, arg = 2 * n, np.sqrt(1.0 - ya)
    denom = eval_monic(scheme, dilation, degree, 1.0)
    if abs(denom) < 1e-300:
        raise NormalizationVanishes(f"P_{degree}(1) = {denom}")
    return eval_monic(scheme, dilation, degree, arg) / denom


def _entry(stream, n: int):
    """Item n (counted from 0) of an iterator."""
    return next(islice(stream, n, None))


def _mus(stream, n_max: int) -> np.ndarray:
    """The mu entries of the first n_max items of a coefficient stream."""
    return np.fromiter((mu for _, _, mu in islice(stream, n_max)), dtype=float, count=n_max)


def _recursive_coefficients(
    scheme: RecurrenceScheme, dilation: CoDilation | None, kind: ResidualKind
):
    """Stream of (a_n, b_n, mu_{n+1}), n = 0, 1, ..., from the recurrence values at 1.

    Symmetric kind: mu_{n+1} = P_n(1)/P_{n+1}(1) = 1/((1 - alpha_n) - beta_n mu_n),
    a_n = (1 - alpha_n) mu_{n+1} - 1 and b_n = 2 mu_{n+1}.  Asymmetric kind:
    the even-index ratios mu_{n+1} = P_{2n}(1)/P_{2n+2}(1)
    = 1/(1 - beta_{2n} - beta_{2n+1} - beta_{2n} beta_{2n-1} mu_n),
    a_n = (1 - beta_{2n} - beta_{2n+1}) mu_{n+1} - 1 and b_n = mu_{n+1}.
    Terms with beta_0 are absent, so b_0 is the start factor of the
    two-step iteration.  Raises DivergentNormalization when a denominator
    crosses zero, which occurs exactly when the dilation exceeds the
    critical value.  Every base beta_n the stream reaches is checked as
    ``RecurrenceScheme`` checks beta_1 .. beta_8, so a scheme that turns
    non-positive later raises ValueError there; a dilation lam <= 0 of a
    positive beta_m is not rejected by this check.
    """
    alpha, dilated = scheme.alpha, _effective_beta(scheme, dilation)

    def beta(n: int) -> float:
        _require_beta(scheme, n)
        return dilated(n)

    symmetric = kind is ResidualKind.SYMMETRIC
    coupling = b2n = 0.0
    for n in count():
        damp = 1.0 - alpha(n) if symmetric else 1.0 - b2n - beta(2 * n + 1)
        den = damp - coupling
        if den <= 0.0:
            raise DivergentNormalization(f"mu denominator {den} at n = {n}")
        mu = 1.0 / den
        yield damp * mu - 1.0, 2.0 * mu if symmetric else mu, mu
        if symmetric:
            coupling = beta(n + 1) * mu
        else:
            b2n = beta(2 * n + 2)
            coupling = b2n * beta(2 * n + 1) * mu


def mu_recursive(
    scheme: RecurrenceScheme,
    dilation: CoDilation | None,
    n_max: int,
    kind: ResidualKind = ResidualKind.SYMMETRIC,
) -> np.ndarray:
    """Normalisation coefficients mu_1 .. mu_{n_max} by the value recursion.

    mu_{n+1} = P_n(1)/P_{n+1}(1) for the symmetric kind; for the asymmetric
    kind the entries are the even-index ratios P_{2n}(1)/P_{2n+2}(1).
    Raises DivergentNormalization when a recursion denominator crosses zero,
    which occurs exactly when the dilation exceeds the critical value.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return _mus(_recursive_coefficients(scheme, dilation, kind), n_max)


def _r_values(nu: float):
    """R(0), R(1), ... with R(n) = Gamma(2 nu + 1) Gamma(n + 1) / Gamma(n + 2 nu).

    Never forms Gamma directly: R(0) = 2 nu exactly and
    R(n) = R(n-1) * n / (n - 1 + 2 nu), so no overflow for any n.
    """
    r = 2.0 * nu
    for n in count(1):
        yield r
        r = r * n / (n - 1 + 2.0 * nu)


def _require_admissible(params: UltrasphericalParams, lam: float):
    params.require_closed_forms()
    if not lam < 2.0 * params.nu:  # NaN fails too
        raise ValueError(f"dilation {lam} must be below the critical value {2.0 * params.nu}")


def _closed_form_coefficients(params: UltrasphericalParams, lam: float, kind: ResidualKind):
    """Stream of (a_n, b_n, mu_{n+1}), n = 0, 1, ..., of the co-dilated (m = 1)
    ultraspherical family from the explicit formulas.

    Symmetric kind: mu_1 = 1 and, for n >= 1, in the overflow-safe form
        mu_{n+1} = 2 (n + nu)/(n + 2 nu) *
            ((2 nu - lam) + (lam - 1) R(n)) / ((2 nu - lam) + (lam - 1) R(n + 1)).
    Asymmetric kind: amu_{n+1} = mu_{2n+1} mu_{2n+2}, from
    amu_1 = 1/(1 - lam beta_1) = (2 nu + 2)/(2 nu + 2 - lam) and an explicit
    quotient for n >= 1.  a_n and b_n are as in ``_recursive_coefficients``.
    (nu, lam) is checked when the stream is created, not on its first item.
    """
    _require_admissible(params, lam)
    return _closed_form_stream(params.nu, lam, kind is ResidualKind.SYMMETRIC)


def _closed_form_stream(nu: float, lam, symmetric: bool):
    """The closed-form stream for one dilation (a float) or for several at
    once (an ndarray, one entry per dilation).  R(n) does not depend on lam,
    so every item is computed by the same elementwise IEEE operations in the
    same order either way, and entry k of an array item equals the item of
    the float stream for lam[k] bit for bit.  The n = 0 items a_0 = 0 (and,
    for the symmetric kind, b_0 = 2 and mu_1 = 1) stay floats.
    """
    c0, c1 = 2.0 * nu - lam, lam - 1.0
    step = 1 if symmetric else 2
    ratios = islice(_r_values(nu), step, None, step)  # R(step), R(2 step), ...
    num = c0 + c1 * next(ratios)
    if symmetric:
        yield 0.0, 2.0, 1.0
    else:
        amu = (2.0 * nu + 2.0) / (2.0 * nu + 2.0 - lam)
        yield 0.0, amu, amu
    for n, r_next in enumerate(ratios, start=1):
        den = c0 + c1 * r_next
        if symmetric:
            mu = 2.0 * (n + nu) / (n + 2.0 * nu) * num / den
            yield mu - 1.0, 2.0 * mu, mu
        else:
            k = 2 * n
            amu = (
                4.0
                * (k + nu)
                * (k + nu + 1.0)
                / ((k + 2.0 * nu) * (k + 2.0 * nu + 1.0))
                * num
                / den
            )
            damp = 1.0 - (4.0 * n * n + 4.0 * nu * n + nu - 1.0) / (
                2.0 * (k + nu + 1.0) * (k + nu - 1.0)
            )
            yield damp * amu - 1.0, amu, amu
        num = den  # this step's denominator is the next step's numerator


def mu_closed_ultraspherical(params: UltrasphericalParams, lam: float, n: int) -> float:
    """Explicit mu_{n+1} for the co-dilated (m = 1) ultraspherical family, n >= 1."""
    stream = _closed_form_coefficients(params, lam, ResidualKind.SYMMETRIC)
    if n < 1:
        raise ValueError("the explicit formula holds for n >= 1")
    return _entry(stream, n)[2]


def mu_closed_sequence(params: UltrasphericalParams, lam: float, n_max: int) -> np.ndarray:
    """mu_1 .. mu_{n_max} from the explicit formula (mu_1 = 1)."""
    return _mus(_closed_form_coefficients(params, lam, ResidualKind.SYMMETRIC), n_max)


def amu_closed(params: UltrasphericalParams, lam: float, n: int) -> float:
    """Explicit asymmetric coefficient amu_{n+1} = mu_{2n+1} mu_{2n+2}.

    The explicit quotient holds for n >= 1; the n = 0 start value is
    amu_1 = 1/(1 - lam beta_1) = (2 nu + 2)/(2 nu + 2 - lam).
    """
    stream = _closed_form_coefficients(params, lam, ResidualKind.ASYMMETRIC)
    if n < 0:
        raise ValueError("index must be >= 0")
    return _entry(stream, n)[2]


def amu_closed_sequence(params: UltrasphericalParams, lam: float, n_max: int) -> np.ndarray:
    """amu_1 .. amu_{n_max} from the explicit formula."""
    return _mus(_closed_form_coefficients(params, lam, ResidualKind.ASYMMETRIC), n_max)


def critical_constants(params: UltrasphericalParams) -> CriticalConstants:
    """L1 and the critical dilation 1/(1 - L1): 2 nu for nu > 1/2, else 1."""
    if params.nu > 0.5:
        l1 = (2.0 * params.nu - 1.0) / (2.0 * params.nu)
    else:
        l1 = 0.0
    return CriticalConstants(L1=l1, lambda_critical=1.0 / (1.0 - l1))


def numerator_quotient_at_one(params: UltrasphericalParams, n: int) -> float:
    """Quotient Q_{n-1}(1)/P_n(1) of numerator and base values at x = 1, n >= 1."""
    params.require_closed_forms()
    if n < 1:
        raise ValueError("quotient is defined for n >= 1")
    nu = params.nu
    return 2.0 * nu / (2.0 * nu - 1.0) * (1.0 - _entry(_r_values(nu), n) / (2.0 * nu))


def limit_ratio(params: UltrasphericalParams, lam: float) -> float:
    """Limit of P_n*(1)/P_n(1): lam + (1 - lam)/L1; zero exactly at the critical lam."""
    params.require_closed_forms()
    consts = critical_constants(params)
    if lam > consts.lambda_critical:
        raise ValueError("limit exists only for lam <= critical dilation")
    return lam + (1.0 - lam) / consts.L1


def sup_bound_codilated(params: UltrasphericalParams, lam: float) -> float:
    """Uniform bound of |P_n*(x)/P_n*(1)| on [-1, 1] for nu > 1/2, lam < 2 nu."""
    _require_admissible(params, lam)
    if 0.0 <= lam <= 1.0:
        return 1.0
    nu = params.nu
    return abs(2.0 * nu * (2.0 * lam - 1.0) - lam) / (2.0 * nu - lam)

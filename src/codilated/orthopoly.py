"""Monic orthogonal polynomials, co-dilations, and residual polynomials.

Everything here is built on the monic three-term recurrence

    P_{n+1}(x) = (x - alpha_n) P_n(x) - beta_n P_{n-1}(x),
    P_{-1}(x) = 0,  P_0(x) = 1,  beta_0 = 0,

with coefficient sequences supplied as plain index->value functions.  A
co-dilation multiplies the single coefficient beta_m by a factor lam; the
resulting family stays orthogonal for lam > 0 and its extremal zeros move
monotonically with lam.  Residual polynomials are the normalised values
P_n(1-2y)/P_n(1) (symmetric) or P_{2n}(sqrt(1-y))/P_{2n}(1) (asymmetric)
on y in [0, 1]; they drive the semi-iterative solvers.  The asymmetric ones
are those of the even fold S_n, P_{2n}(x) = S_n(x^2) (Chihara, 1978).
``_jacobi`` is the one reader of the co-dilated coefficients, folded or not:
``eval_monic``, the recursive stream and ``zeros`` take them from it.
``residual_eval`` evaluates P_{2n}(sqrt(1-y)) unfolded, as the independent
oracle of the folded paths.  The closed-form co-dilated ultraspherical
stream takes the factors that depend on nu alone from ``_nu_factors``, a
``functools.lru_cache`` of read-only arrays shared by every stream at that
nu and kind; it is the module's one piece of state shared between calls,
and nothing in it depends on the dilation.

All arithmetic is binary64.  Evaluations are vectorised over their points,
which ``_real_points`` reads (any shape, an integer or float dtype).  The
records are ``NamedTuple``s; ``RecurrenceScheme``, ``CoDilation`` and
``UltrasphericalParams`` check theirs through ``_checked_record``, also in ``_replace``.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from itertools import count, islice
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "MAX_NU",
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
    "mu_closed",
    "critical_constants",
    "numerator_quotient_at_one",
    "limit_ratio",
    "sup_bound_codilated",
]


class NormalizationVanishes(ArithmeticError):
    """The normalisation value P_n(1) is numerically zero."""


class DivergentNormalization(ArithmeticError):
    """A denominator in the mu recursion crossed zero (dilation beyond critical)."""


def _require_integer(value, what: str, minimum: int, maximum: int | None = None) -> None:
    """ValueError unless value is an int or a NumPy integer (a bool is neither)
    >= minimum, and <= maximum where given."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{what} must be >= {minimum}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{what} must be <= {maximum}")


def _is_real(value) -> bool:
    """Whether value is an int, float or NumPy real scalar; a bool is none."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


def _require_real(value, what: str, *, above=None, at_least=None, at_most=None) -> float:
    """value as the float it denotes; ValueError unless it is a finite real
    (``_is_real``), > above, >= at_least and <= at_most where each is given.
    An int too large for a float is not finite."""
    if not _is_real(value):
        raise ValueError(f"{what} must be real, not {value!r}")
    try:  # exact for a NumPy float32 or float16, and for an int below 2^53
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, not {value!r}")
    if above is not None and not number > above:
        raise ValueError(f"{what} must be finite and > {above}")
    if at_least is not None and not number >= at_least:
        raise ValueError(f"{what} must be finite and >= {at_least}")
    if at_most is not None and not number <= at_most:
        raise ValueError(f"{what} must be finite and <= {at_most}")
    return number


def _require_flag(value, what: str) -> bool:
    """value as a bool; ValueError unless it is a bool or a NumPy bool."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a bool, not {value!r}")
    return bool(value)


def _require_instance(value, cls: type, what: str, optional: bool = False) -> None:
    """ValueError unless value is a cls, or None where ``optional``."""
    if not (isinstance(value, cls) or optional and value is None):
        kinds = f"a {cls.__name__} or None" if optional else f"a {cls.__name__}"
        raise ValueError(f"{what} must be {kinds}, not {value!r}")


def _real_points(values, what: str) -> np.ndarray:
    """values as a float64 array of any shape (a float64 array itself, not a copy);
    ValueError unless its dtype is integer or float, not bool, complex, string or object."""
    a = np.asarray(values)
    if a.dtype.kind not in "iuf":  # a signed or unsigned integer, or a float
        raise ValueError(f"{what} must be real, not of dtype {a.dtype}")
    return a.astype(float, copy=False)


def _real_array(values, what: str, ndim: int) -> np.ndarray:
    """values read by ``_real_points``; ValueError unless it has ndim axes,
    none of them empty, and every entry is finite."""
    a = _real_points(values, what)
    if a.ndim != ndim or a.size == 0:
        raise ValueError(f"{what} must be {ndim}-D and nonempty, not of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite")
    return a


def _checked_record(cls):
    """cls, a ``NamedTuple``, given a constructor that keeps the fields' signature
    and stores the values that ``_checked()`` returns for the record built as
    given (coerced, or ValueError); ``_make``, and so ``_replace``, runs it too."""
    build = cls.__new__
    cls.__new__ = functools.wraps(build)(
        lambda cls, *args, **kwargs: build(cls, *build(cls, *args, **kwargs)._checked()))
    cls._make = classmethod(lambda cls, values: cls(*values))
    return cls


@_checked_record
class RecurrenceScheme(NamedTuple):
    """Coefficients of a monic three-term recurrence.

    alpha and beta are pure functions of the index (alpha_n for n >= 0,
    beta_n for n >= 1), so arbitrarily long iterations need no storage.
    beta must be finite and positive; the degenerate power basis beta == 0
    used as an oracle for the plain Landweber residuals is admitted only
    behind ``allow_zero_beta``, a bool like ``symmetric``.  ``_jacobi`` checks each beta.

    The stock schemes' alpha and beta also take an integer index ndarray
    and return the float64 array of the values, each entry bit for bit the
    float its int index gives; ``_jacobi`` reads a whole range of
    coefficients from one such call.  A function that takes only ints still
    works there, at one call per index.
    """

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    symmetric: bool = False
    allow_zero_beta: bool = False

    def _checked(self):
        alpha, beta, *flags = self
        symmetric, allow_zero_beta = map(_require_flag, flags, self._fields[2:])
        alphas, _ = _jacobi(self, None, 0, 9, folded=False)  # beta_1 .. beta_8
        if symmetric and np.any(alphas != 0.0):
            raise ValueError("symmetric scheme requires alpha == 0")
        return alpha, beta, symmetric, allow_zero_beta


def _values(fn, idx: np.ndarray) -> np.ndarray:
    """A scheme coefficient at every index of idx: one call on the whole array
    where fn takes one (see ``RecurrenceScheme``), else one call per index."""
    try:
        values = fn(idx)
    except (TypeError, ValueError):  # an int-only function, e.g. one that branches on n
        values = None
    if np.shape(values) != idx.shape:
        values = [fn(int(k)) for k in idx]
    return np.asarray(values, dtype=float)


@_checked_record
class CoDilation(NamedTuple):
    """Dilation of the coefficient beta_m (m an integer >= 1) by the finite factor lam.

    lam = 1 reproduces the undilated scheme exactly.
    """

    m: int
    lam: float

    def _checked(self):
        _require_integer(self.m, "dilation index m", 1)
        return self.m, _require_real(self.lam, "dilation factor lam")


# The largest nu admitted.  beta_k and the asymmetric closed-form mu form
# 4 (k + nu)(k + nu +- 1), which overflows from nu ~ 6.7e153 on: beta_k then
# reads 0 and mu NaN.  Up to 1e150 it stays below 1.7e301 for every index
# k <= 1e150, far beyond any that a stream reaches.
MAX_NU = 1e150


@_checked_record
class UltrasphericalParams(NamedTuple):
    """Parameter -1/2 < nu <= MAX_NU of the weight (1 - x^2)^(nu - 1/2) on [-1, 1]."""

    nu: float

    def _checked(self):
        return (_require_real(self.nu, "ultraspherical parameter nu", above=-0.5, at_most=MAX_NU),)

    def require_closed_forms(self):
        """The explicit x=1 formulas only exist for nu > 1/2."""
        if not self.nu > 0.5:
            raise ValueError("closed forms require nu > 1/2")


class ResidualKind(Enum):
    SYMMETRIC = "symmetric"
    ASYMMETRIC = "asymmetric"


class CriticalConstants(NamedTuple):
    """Limit constant L1 and the largest admissible dilation 1/(1 - L1)."""

    L1: float
    lambda_critical: float


def _constant(value: float):
    """Index function of a constant coefficient, for an int or an index array."""

    def coefficient(n):
        return np.full(n.shape, value) if isinstance(n, np.ndarray) else value

    return coefficient


_zero = _constant(0.0)


def chebyshev_u_scheme() -> RecurrenceScheme:
    """Monic Chebyshev polynomials of the second kind: alpha = 0, beta = 1/4."""
    return RecurrenceScheme(alpha=_zero, beta=_constant(0.25), symmetric=True)


def ultraspherical_beta(params: UltrasphericalParams, n):
    """Recurrence coefficient beta_n = n(n + 2 nu - 1) / (4 (n + nu)(n + nu - 1)).

    The n = 1 value is taken in the reduced form 1 / (2 (1 + nu)), which is
    the same rational function with the removable nu = 0 singularity cleared.
    n is an int, giving a float, or an integer index ndarray; one expression serves both.
    """
    _require_instance(params, UltrasphericalParams, "params")
    array = isinstance(n, np.ndarray)
    if not array:
        _require_integer(n, "beta index n", 1)
    elif not np.issubdtype(n.dtype, np.integer):
        raise ValueError(f"beta index array must have an integer dtype, not {n.dtype}")
    elif n.min(initial=1) < 1:
        raise ValueError("beta index n must be >= 1")
    nu = params.nu
    k = np.maximum(np.asarray(n, dtype=float), 2.0)  # keeps the general form finite at nu = 0
    beta = np.where(n == 1, 1.0 / (2.0 * (1.0 + nu)),
                    k * (k + 2.0 * nu - 1.0) / (4.0 * (k + nu) * (k + nu - 1.0)))
    return beta if array else float(beta)


def ultraspherical_scheme(params: UltrasphericalParams) -> RecurrenceScheme:
    _require_instance(params, UltrasphericalParams, "params")
    return RecurrenceScheme(
        alpha=_zero, beta=lambda n: ultraspherical_beta(params, n), symmetric=True
    )


def power_basis_scheme() -> RecurrenceScheme:
    """Degenerate scheme with alpha = beta = 0, i.e. P_n(x) = x^n.

    Not an orthogonal family; admitted as an oracle for the plain Landweber
    residual polynomials (1 - 2y)^n.
    """
    return RecurrenceScheme(alpha=_zero, beta=_zero, symmetric=True, allow_zero_beta=True)


_CHUNK = 128  # stream items whose coefficients are formed at once, as arrays


def _jacobi(scheme: RecurrenceScheme, dilation: CoDilation | None, start: int, stop: int,
            folded: bool):
    """Recurrence coefficients (d_k, e_k), k in [start, stop), as float64 arrays.

    Unfolded, d_k = alpha_k and e_k = beta_k; folded (the even fold S_n of a
    symmetric scheme), d_k = beta_{2k} + beta_{2k+1} and e_k = beta_{2k-1} beta_{2k}.
    beta_0 = 0, so e_0 = 0.  The dilation scales beta_m before the fold.
    ValueError unless the scheme is a ``RecurrenceScheme``, the dilation a
    ``CoDilation`` or None, each alpha read is finite and each undilated beta
    read is finite and positive, or zero where ``allow_zero_beta`` holds.
    """
    _require_instance(scheme, RecurrenceScheme, "scheme")
    _require_instance(dilation, CoDilation, "dilation", optional=True)
    first, end = (2 * start - 1, 2 * stop) if folded else (start, stop)  # beta indices used
    lo = max(first, 1)  # beta_k = 0 for k <= 0
    idx = np.arange(lo, end)
    beta = _values(scheme.beta, idx)
    ok, what = (beta >= 0.0, ">= 0") if scheme.allow_zero_beta else (beta > 0.0, "positive")
    _require("beta", idx, beta, np.isfinite(beta) & ok, f"finite and {what}")
    b = np.concatenate((np.zeros(lo - first), beta))  # b[i] = beta_{first + i}, a copy
    if dilation is not None and first <= dilation.m < end:
        b[dilation.m - first] = dilation.lam * b[dilation.m - first]
    if folded:
        return b[1::2] + b[2::2], b[:-1:2] * b[1::2]
    idx = np.arange(start, stop)
    alpha = _values(scheme.alpha, idx)
    _require("alpha", idx, alpha, np.isfinite(alpha), "finite")
    return alpha, b


def _require(name: str, idx: np.ndarray, values: np.ndarray, ok: np.ndarray, what: str):
    """ValueError naming the first coefficient where ok is false."""
    if not ok.all():
        k = int(np.argmin(ok))
        raise ValueError(f"{name}({idx[k]}) = {values[k]} must be {what}")


def eval_monic(scheme: RecurrenceScheme, dilation: CoDilation | None, n: int, x):
    """Evaluate P_n(x) (co-dilated if a dilation is given) by forward recurrence.

    It starts from P_{-1} = 0 and P_0 = 1, with beta_0 = 0 read by ``_jacobi``.
    x may be a scalar or an ndarray.  For the families used here |x| <= 1
    keeps all values bounded by P_n(1)-sized quantities; far outside the
    interval the monic values grow like x^n and may overflow for large n.
    """
    _require_integer(n, "degree", 0)
    xa = _real_points(x, "x")
    p_prev, p = np.zeros_like(xa), np.ones_like(xa)
    alpha, beta = (c.tolist() for c in _jacobi(scheme, dilation, 0, n, folded=False))
    for k in range(n):
        p_prev, p = p, (xa - alpha[k]) * p - beta[k] * p_prev
    return float(p) if xa.ndim == 0 else p


def numerator_scheme(scheme: RecurrenceScheme, m: int) -> RecurrenceScheme:
    """Scheme of the m-th numerator polynomials: the beta sequence shifted by m."""
    _require_instance(scheme, RecurrenceScheme, "scheme")
    _require_integer(m, "numerator shift m", 1)
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
    _require_integer(n, "degree", 0)
    _require_instance(dilation, CoDilation, "dilation")
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
    recurrence evaluation, hence restricted to |x| <= 1 (NaN excluded) and
    to integer degrees n >= 0.
    """
    _require_integer(n, "degree n", 0)
    xa = _real_points(x, "x")
    if not np.all(np.abs(xa) <= 1.0):  # NaN fails too
        raise ValueError("closed forms are restricted to |x| <= 1")
    if kind == "star":
        lam = _require_real(lam, "finite dilation factor lam of kind 'star'")
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
        with np.errstate(divide="ignore", invalid="ignore"):  # the endpoints are pinned below
            vals = np.sin((n + 1) * theta) / (2.0**n * np.sin(theta))
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

    Computed as P(x)/P(1) by ``_normalised_at_one``, so the constraint
    r_n(0) = 1 holds exactly, and with its rule for a vanishing P(1).
    """
    _require_integer(n, "degree", 0)
    ya = _real_points(y, "y")
    if not np.all((ya >= 0.0) & (ya <= 1.0)):  # NaN fails too
        raise ValueError("residual polynomials are defined on [0, 1]")
    degree, arg = (2 * n, np.sqrt(1.0 - ya)) if _folded(kind) else (n, 1.0 - 2.0 * ya)
    r = _normalised_at_one(scheme, dilation, degree, arg)
    return float(r[0]) if ya.ndim == 0 else r.reshape(ya.shape)


def _normalised_at_one(scheme: RecurrenceScheme, dilation: CoDilation | None, n: int, x):
    """P_n(x)/P_n(1) as a flat array, P_n(1) from the same pass; NormalizationVanishes
    when |P_n(1)| < 1e-300: beyond the critical dilation, or past about degree 1 000."""
    values = eval_monic(scheme, dilation, n, np.append(x, 1.0))  # P(1) last, one pass
    if abs(values[-1]) < 1e-300:
        raise NormalizationVanishes(f"P_{n}(1) = {values[-1]}")
    return values[:-1] / values[-1]


def _mus(stream, n_max: int) -> np.ndarray:
    """The mu entries of the first n_max items of a coefficient stream, n_max >= 1."""
    _require_integer(n_max, "n_max", 1)
    return np.fromiter((mu for _, _, mu in islice(stream, n_max)), dtype=float, count=n_max)


def _recursive_coefficients(
    scheme: RecurrenceScheme, dilation: CoDilation | None, kind: ResidualKind
):
    """Stream of (a_n, b_n, mu_{n+1}), n = 0, 1, ..., from the recurrence values at 1.

    With (d_n, e_n) read by ``_jacobi``, _CHUNK items at a time and folded
    for the asymmetric kind: mu_{n+1} = 1/((1 - d_n) - e_n mu_n), that is
    P_n(1)/P_{n+1}(1) or P_{2n}(1)/P_{2n+2}(1); a_n = (1 - d_n) mu_{n+1} - 1;
    b_n = 2 mu_{n+1} (symmetric) or mu_{n+1}.  As e_0 = 0, b_0 is the start
    factor of the two-step iteration.  Raises DivergentNormalization when a
    denominator crosses zero, which occurs exactly when the dilation exceeds
    the critical value.  ``_jacobi`` checks the base beta_k of each chunk, so a
    later non-positive or NaN beta_k raises ValueError up to one chunk before
    it is needed; a dilation lam <= 0 of a positive beta_m is not rejected by
    this check.
    """
    folded = _folded(kind)
    scale = 1.0 if folded else 2.0
    mu = 0.0
    for start in count(0, _CHUNK):
        d, e = _jacobi(scheme, dilation, start, start + _CHUNK, folded)
        for n, damp, coupling in zip(count(start), (1.0 - d).tolist(), e.tolist()):
            den = damp - coupling * mu
            if den <= 0.0:
                raise DivergentNormalization(f"mu denominator {den} at n = {n}")
            mu = 1.0 / den
            yield damp * mu - 1.0, scale * mu, mu


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
    return _mus(_recursive_coefficients(scheme, dilation, kind), n_max)


def _r_values(nu: float, start: int = 0, carry: float | None = None, shifted: bool = False):
    """R(start), R(start + 1), ... with R(n) = Gamma(2 nu + 1) Gamma(n + 1) / Gamma(n + 2 nu),
    or with ``shifted`` e(n) = R(n) - 1, from the carry at start (R(0) or e(0) by default).

    Never forms Gamma directly: R(0) = 2 nu exactly and
    R(n) = R(n-1) * n / (n - 1 + 2 nu), so no overflow for any n;
    e(0) = 2 nu - 1 and e(n) = (n e(n-1) - (2 nu - 1)) / (n - 1 + 2 nu), whose
    terms never cancel for nu > 1/2 (e(n) <= 0 from n = 1 on), so e keeps its
    relative accuracy where R(n) - 1 would not.  A run resumed from a carry
    takes the same operations as one from 0.
    """
    two_nu = 2.0 * nu
    delta = two_nu - 1.0 if shifted else 0.0  # x - 0.0 is x: R's operations are unchanged
    r = (delta if shifted else two_nu) if carry is None else carry
    for n in count(start + 1):
        yield r
        r = (r * n - delta) / (n - 1 + two_nu)


# Below this 2 nu - 1 the closed-form denominators (2 nu - lam) + (lam - 1) R,
# which are O(2 nu - 1) there, are formed as (2 nu - 1) + (lam - 1) e with
# e = R - 1 (``_r_values``), whose terms do not cancel; above it that form
# would cancel as lam -> 2 nu, where R falls towards 0, and the R form does not.
_SHIFT_BELOW = 2.0**-6


def _shifted(nu: float) -> bool:
    return 2.0 * nu - 1.0 < _SHIFT_BELOW


def _folded(kind) -> bool:
    """Whether kind is the asymmetric (even-fold) kind; ValueError unless a ``ResidualKind``."""
    _require_instance(kind, ResidualKind, "residual kind")
    return kind is ResidualKind.ASYMMETRIC


def _require_admissible(params: UltrasphericalParams, lam):
    """lam read as a float, or as a float64 array where it is an array of one
    or more axes; ValueError unless nu > 1/2 and each dilation in lam is a
    finite real below the critical value 2 nu."""
    _require_instance(params, UltrasphericalParams, "params")
    params.require_closed_forms()
    critical = critical_constants(params).lambda_critical
    values = lam.ravel().tolist() if isinstance(lam, np.ndarray) and lam.ndim else [lam]
    bad = [x for x in values if not (_is_real(x) and -math.inf < x < critical)]  # NaN fails too
    if bad:
        raise ValueError(f"dilation {bad[0]!r} must be real and below critical value {critical}")
    return lam.astype(float, copy=False) if np.ndim(lam) else float(lam)


def _closed_form_coefficients(params: UltrasphericalParams, lam, kind: ResidualKind):
    """Stream of (a_n, b_n, mu_{n+1}), n = 0, 1, ..., of the co-dilated (m = 1)
    ultraspherical family from the explicit formulas; lam is a float or an
    array of dilations (see ``_closed_form_stream``).

    Symmetric kind: mu_1 = 1 and, for n >= 1, in the overflow-safe form
        mu_{n+1} = 2 (n + nu)/(n + 2 nu) *
            ((2 nu - lam) + (lam - 1) R(n)) / ((2 nu - lam) + (lam - 1) R(n + 1)).
    Asymmetric kind: amu_{n+1} = mu_{2n+1} mu_{2n+2}, from
    amu_1 = 1/(1 - lam beta_1) = (2 nu + 2)/(2 nu + 2 - lam) and an explicit
    quotient for n >= 1.  a_n and b_n are as in ``_recursive_coefficients``.
    Near nu = 1/2 (``_shifted``) each denominator (2 nu - lam) + (lam - 1) R
    is formed as (2 nu - 1) + (lam - 1)(R - 1), from ``_r_values``' e = R - 1.
    (nu, lam) and kind are checked when the stream is created, not on its first item.
    """
    lam = _require_admissible(params, lam)  # reads params first
    return _closed_form_stream(params.nu, lam, not _folded(kind))


def _closed_form_stream(nu: float, lam, symmetric: bool):
    """The closed-form stream for one dilation (a float) or for several at
    once (an ndarray of any shape, one entry per dilation; a column gives
    items that broadcast over the rows of a block).  The items from n = 1 on
    are formed _CHUNK at a time as float64 arrays, one row per item, by the
    same expressions for either lam.  The factors that depend on nu alone are
    read-only 1-D arrays from ``_nu_factors``, whose cache every stream at
    that nu and kind shares, each viewed as lam's column; only den,
    the quotient, a_n and b_n are formed per stream.  So each entry of an
    array item equals the float stream's item for its dilation bit for bit,
    whichever stream formed the factors.  The float stream reads its rows
    back as floats, an array stream yields row views of lam's shape; the
    n = 0 items a_0 = 0 (symmetric: b_0 = 2, mu_1 = 1) stay floats.
    """
    shifted = _shifted(nu)
    c0, c1 = 2.0 * nu - (1.0 if shifted else lam), lam - 1.0  # den = c0 + c1 (R or e)
    step, scale = (1, 2.0) if symmetric else (2, 1.0)  # b_n = scale * mu_{n+1}
    carry = next(islice(_r_values(nu, shifted=shifted), step, None))  # of the next chunk
    num = c0 + c1 * carry
    mu = 1.0 if symmetric else (2.0 * nu + 2.0) / (2.0 * nu + 2.0 - lam)
    yield 0.0, scale * mu, mu
    column = (_CHUNK,) + (1,) * np.ndim(lam)  # a chunk's n-only factors, one per row
    rows = np.ndarray.tolist if np.ndim(lam) == 0 else iter
    for start in count(1, _CHUNK):
        fac, damp, ratios = _nu_factors(nu, symmetric, start, carry)
        carry = float(ratios[-1])
        den = c0 + c1 * ratios.reshape(column)
        mu = fac.reshape(column) * np.concatenate(([num], den[:-1])) / den  # num_n is den_{n-1}
        num = den[-1]
        a = mu - 1.0 if damp is None else damp.reshape(column) * mu - 1.0
        yield from zip(rows(a), rows(scale * mu), rows(mu))


# The nu-only factors of the closed-form streams, one chunk per cache entry,
# shared by every stream at a (nu, symmetric) key: each chunk up to three
# read-only float64 arrays of _CHUNK entries, so the cache holds at most
# 1024 * 3 * 128 * 8 bytes = 3 MiB of entries.  Nothing in it depends on lam.
_MEMO_CHUNKS = 1024


@functools.lru_cache(maxsize=_MEMO_CHUNKS)
def _nu_factors(nu: float, symmetric: bool, start: int, carry: float):
    """(fac, damp, R) of the closed-form items n in [start, start + _CHUNK), start
    = 1 mod _CHUNK: fac(n) and damp(n) of the quotient (damp is None for the
    symmetric kind, whose damping is 1) and R(s (n + 1)), s = 1 (symmetric) or
    2, from the carry R(s start), which (nu, symmetric, start) already fix;
    where ``_shifted(nu)``, e = R - 1 in place of R.
    """
    step = 1 if symmetric else 2
    n = np.arange(start, start + _CHUNK)
    k = 2 * n
    with np.errstate(all="ignore"):  # a huge nu overflows these; a quotient may still warn
        if symmetric:
            fac, damp = 2.0 * (n + nu) / (n + 2.0 * nu), None
        else:
            fac = 4.0 * (k + nu) * (k + nu + 1.0) / ((k + 2.0 * nu) * (k + 2.0 * nu + 1.0))
            damp = 1.0 - (4.0 * n * n + 4.0 * nu * n + nu - 1.0) / (
                2.0 * (k + nu + 1.0) * (k + nu - 1.0)
            )
    ratios = islice(_r_values(nu, step * start, carry, _shifted(nu)), step, None, step)
    factors = (fac, damp, np.fromiter(ratios, float, _CHUNK))
    for a in factors:
        if a is not None:
            a.flags.writeable = False
    return factors


def mu_closed(
    params: UltrasphericalParams,
    lam: float,
    n_max: int,
    kind: ResidualKind = ResidualKind.SYMMETRIC,
) -> np.ndarray:
    """Normalisation coefficients mu_1 .. mu_{n_max} of the co-dilated (m = 1)
    ultraspherical family from the explicit formulas of
    ``_closed_form_coefficients``; for the asymmetric kind the entries are
    amu_{n+1} = mu_{2n+1} mu_{2n+2}.  The mirror of ``mu_recursive`` under
    ``CoDilation(1, lam)``.  ValueError unless nu > 1/2 and lam is finite and
    below the critical value 2 nu.
    """
    return _mus(_closed_form_coefficients(params, lam, kind), n_max)


def critical_constants(params: UltrasphericalParams) -> CriticalConstants:
    """L1 and the critical dilation 1/(1 - L1), taken as 2 nu exactly for nu > 1/2; else 0, 1."""
    _require_instance(params, UltrasphericalParams, "params")
    nu = params.nu
    if nu > 0.5:
        return CriticalConstants(L1=(2.0 * nu - 1.0) / (2.0 * nu), lambda_critical=2.0 * nu)
    return CriticalConstants(L1=0.0, lambda_critical=1.0)


def numerator_quotient_at_one(params: UltrasphericalParams, n: int) -> float:
    """Quotient Q_{n-1}(1)/P_n(1) of numerator and base values at x = 1, n >= 1.

    Formed as 1 - e(n)/(2 nu - 1) with e = R - 1 (``_r_values``), which keeps
    its relative accuracy as nu -> 1/2, where (2 nu - R(n))/(2 nu - 1) cancels.
    """
    _require_instance(params, UltrasphericalParams, "params")
    params.require_closed_forms()
    _require_integer(n, "quotient index n", 1)
    e_n = next(islice(_r_values(params.nu, shifted=True), n, None))
    return 1.0 - e_n / (2.0 * params.nu - 1.0)


def limit_ratio(params: UltrasphericalParams, lam: float) -> float:
    """Limit of P_n*(1)/P_n(1): lam + (1 - lam)/L1; zero exactly at the critical lam."""
    _require_instance(params, UltrasphericalParams, "params")
    params.require_closed_forms()
    consts = critical_constants(params)
    lam = _require_real(lam, "dilation lam", at_most=consts.lambda_critical)
    return lam + (1.0 - lam) / consts.L1


def sup_bound_codilated(params: UltrasphericalParams, lam: float) -> float:
    """Uniform bound of |P_n*(x)/P_n*(1)| on [-1, 1] for nu > 1/2, lam < 2 nu."""
    lam = _require_admissible(params, lam)
    if 0.0 <= lam <= 1.0:
        return 1.0
    nu = params.nu
    return abs(2.0 * nu * (2.0 * lam - 1.0) - lam) / (2.0 * nu - lam)

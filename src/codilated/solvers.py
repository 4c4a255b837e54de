"""Iteration schemes for the normal equation A*A f = A*g.

The method that runs is always config.method, with config's nu, lam and
cap: ``solve(problem, config)`` runs every method, and ``semi_iterative``
runs general-si or asymmetric-si from a recurrence scheme, the one input a
config cannot carry.

Each method is a lazy generator of steps (f_n, f_{n-1}, watched residual)
run by one driver, ``_drive``, which owns the n = 0 entry, the
residual history, the callback and the stall count.  The one stop test,
``_stop_reason`` (discrepancy, divergence, stagnation, iteration cap, in that
order), decides every stop; after a step it is called only where a screen of
its four conditions fires, and at n = 0 always.  The callback gets an
``IterationState`` (a ``NamedTuple``) only when one is set; without it a
step builds no state object.  A method may end the solve itself by
returning a StopReason: cg on breakdown or Krylov exhaustion, the adaptive
method when two consecutive residuals coincide.

Landweber, the general and asymmetric semi-iterative methods, the co-dilated
ultraspherical method, the co-dilated nu-method and the adaptive method share
the second-order update

    f_{n+1} = f_n + a_n (f_n - f_{n-1}) + b_n * omega * A*(g - A f_n),  n >= 0,

from f_0 = f_{-1} = 0, so b_0 is the start factor.  Landweber's stream
yields a_n = None, which leaves the momentum term out; every other stream
yields a number, whose term is added even where a_n = 0.  The methods
differ only in the stream of (a_n, b_n, mu_{n+1}) fed to the update:
constant for Landweber, otherwise one of the ``orthopoly`` coefficient
streams (recursive, from a scheme and a dilation, or closed-form
co-dilated ultraspherical); the adaptive method runs the nu-method's
stream at nu = lam = 1 and watches the affine-minimal residual.
The error obeys f - f_n = r_n(omega A*A) f with r_n the matching residual
polynomial, which ``_residual_polynomial`` names for a config (Landweber and
the four methods that take a dilation; cg and the adaptive method have none)
and ``oracle_check`` verifies on diagonal problems through ``solve``.

``DILATION_KINDS`` maps the four methods that take a dilation to the kind
of their residual polynomials.  ``solve_dilations`` runs its two closed-form
methods as ``_two_step`` on a block with one row per dilation, the stream
on a column of dilations and the operator's row applies, in a second loop,
``_drive_block``, that keeps ``_drive``'s history, stall count and screen
per row on Python floats.  A row that stops keeps its place with its report
final, and the block steps until the last row stops.  Each row's report is
bit-identical to the single solve's; the single-solve path pays nothing.

Each loop owns its solve: it calls the one gate, ``_gate``, which returns
the stop constants (tau * epsilon and the resolved cap), then runs under
one ``np.errstate`` that silences overflow and invalid operations, so a
non-finite residual is reported once, as the divergence stop.  The stream is
built before the loop, so an inadmissible (nu, lam) raises before any warning.
The gate checks omega ||A*A|| (the memoised ``norm_estimate``) against the
method's relaxation bound, skips cg, which has none, and warns once per solve
or block, also where the level is not finite or its estimate did not converge.

Residual norms are recomputed from v = g - A f every step; nothing is
updated incrementally, so histories do not drift over long runs.  A solve
is single-threaded and deterministic.  Distinct solves share one thing: the
closed-form streams' memo of nu-only factors in ``orthopoly``.  Its entries
are read-only, and each is the same bit for bit whichever solve formed it,
so no solve depends on another.  ``SolveReport`` and ``SolverConfig`` are
``NamedTuple``s; a config checks its fields, in ``_replace`` too (``_checked_record``).
"""

from __future__ import annotations

import math
import sys
import warnings
from enum import Enum
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .operators import Problem, diagonal_operator
from .orthopoly import (
    CoDilation,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    _checked_record,
    _closed_form_coefficients,
    _real_array,
    _recursive_coefficients,
    _require_admissible,
    _require_instance,
    _require_integer,
    _require_real,
    power_basis_scheme,
    residual_eval,
    ultraspherical_scheme,
)

__all__ = [
    "Method",
    "StopReason",
    "RelaxationWarning",
    "SolverConfig",
    "IterationState",
    "SolveReport",
    "semi_iterative",
    "oracle_check",
    "solve",
    "DILATION_KINDS",
    "batchable",
    "solve_dilations",
]

STAGNATION_STEPS = 50
STAGNATION_RTOL = 1e-15


class Method(str, Enum):
    LANDWEBER = "landweber"
    GENERAL_SI = "general-si"
    CODILATED_ULTRASPHERICAL = "codilated-ultraspherical"
    ASYMMETRIC_SI = "asymmetric-si"
    CODILATED_NU = "codilated-nu"
    ADAPTIVE_CODILATED_ONE = "adaptive-codilated-one"
    CG = "cg"


# the methods that take a dilation lam, by the kind of their residual
# polynomials; the closed-form ones also run on a block of dilations
DILATION_KINDS = {
    Method.GENERAL_SI: ResidualKind.SYMMETRIC,
    Method.CODILATED_ULTRASPHERICAL: ResidualKind.SYMMETRIC,
    Method.ASYMMETRIC_SI: ResidualKind.ASYMMETRIC,
    Method.CODILATED_NU: ResidualKind.ASYMMETRIC,
}
_CLOSED_FORM = (Method.CODILATED_ULTRASPHERICAL, Method.CODILATED_NU)


class StopReason(str, Enum):
    DISCREPANCY = "discrepancy"
    MAX_ITER = "max-iter"
    STAGNATION = "stagnation"
    BREAKDOWN = "breakdown"
    DIVERGENCE = "divergence"


class RelaxationWarning(UserWarning):
    """omega ||A*A|| exceeds the range backing the convergence guarantees."""


_DEFAULT_MAX_ITER = {
    Method.LANDWEBER: 10**6,
    Method.CG: 10**3,
}


@_checked_record
class SolverConfig(NamedTuple):
    """Method selection plus iteration parameters.

    epsilon is the noise level entering the discrepancy threshold
    tau * epsilon; max_iter of None picks the default of the method run
    (10^6 for Landweber, 10^3 for cg, 10^4 otherwise).  method may be given
    by its value, e.g. "landweber"; a real field is stored as the float it denotes.
    """

    method: Method = Method.CODILATED_NU
    nu: float = 1.0
    lam: float = 1.0
    omega: float = 1.0
    tau: float = 4.0
    epsilon: float = 0.0
    max_iter: int | None = None

    def _checked(self):
        method, nu, lam, omega, tau, epsilon, max_iter = self
        method = Method(method)
        nu, lam = (_require_real(value, "polynomial parameters nu and lam") for value in (nu, lam))
        omega = _require_real(omega, "relaxation parameter omega", above=0)
        tau = _require_real(tau, "discrepancy factor tau", above=1)
        epsilon = _require_real(epsilon, "noise level epsilon", at_least=0)
        if max_iter is not None:
            _require_integer(max_iter, "iteration cap max_iter", 0)
        return method, nu, lam, omega, tau, epsilon, max_iter

    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return _DEFAULT_MAX_ITER.get(self.method, 10**4)


class IterationState(NamedTuple):
    """Snapshot of one iteration: residual is g - A f_curr, or from n = 1 on the
    affine-minimal v_min for the adaptive method; residual_norm is recomputed
    from it every step, never updated incrementally."""

    n: int
    f_curr: np.ndarray
    f_prev: np.ndarray
    residual: np.ndarray
    residual_norm: float


class SolveReport(NamedTuple):
    """Full outcome of a solve.

    residual_history has length iterations + 1 (the n = 0 entry is ||g||);
    for the adaptive method the entries from n = 1 on are the norms of the
    per-step affine-minimal residual v_min, so a discrepancy stop always
    means the final recorded norm is below tau * epsilon.
    """

    iterations: int
    stop_reason: StopReason
    residual_history: np.ndarray
    f_final: np.ndarray
    chosen_lambda: float | None = None
    gamma_final: float | None = None


def _caller_stacklevel() -> int:
    """``warnings`` stacklevel of the first frame outside this module, counted
    from the function that calls this one, so a warning points at the user's
    call whichever public function of this module it came through."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    return level


def _gate(problem: Problem, config: SolverConfig) -> tuple[float, int]:
    """The relaxation check of config.method (module docstring); returns the stop constants."""
    method = config.method
    if method is not Method.CG:
        estimate = problem.operator.norm_estimate
        level = config.omega * estimate.value
        if method is Method.LANDWEBER:
            ok, lapse = level < 1.0 - 1e-10, ">= 1: Landweber convergence is not guaranteed"
        else:
            ok, lapse = level <= 1.0 + 1e-10, "> 1: convergence guarantees lapse"
        lapses = [] if ok else [lapse]  # NaN fails both comparisons
        if not math.isfinite(level):
            lapses = ["is not finite: the norm estimate failed"]
        elif not estimate.converged:
            lapses.append(f"rests on a norm estimate that did not converge in "
                          f"{estimate.iterations} iterations")
        if lapses:
            message = f"omega ||A*A|| = {level:.6g} " + ", and ".join(lapses)
            warnings.warn(message, RelaxationWarning, stacklevel=_caller_stacklevel())
    return config.tau * config.epsilon, config.resolved_max_iter()


def _stop_reason(rn, threshold, stalled, n, max_iter) -> StopReason | None:
    """The one stopping test, on residual norm rn at step n: discrepancy
    (rn < threshold), then divergence (rn not finite), then stagnation
    (``stalled`` steps in a row whose norms agree), then the cap."""
    if rn < threshold:
        return StopReason.DISCREPANCY
    if not math.isfinite(rn):
        return StopReason.DIVERGENCE
    if stalled >= STAGNATION_STEPS:
        return StopReason.STAGNATION
    if n >= max_iter:
        return StopReason.MAX_ITER
    return None


def _drive(problem, config, steps, callback) -> SolveReport:
    """The one iteration loop: ``_gate``, then, under one ``np.errstate``,
    history, callback and ``_stop_reason``, so an overflow is only a divergence.

    ``steps`` yields (f_n, f_{n-1}, watched residual) for n = 1, 2, ...
    and may end the solve by returning a StopReason.  It is advanced only
    while no test has fired, so a stopped solve applies no further operator.
    The tests run at n = 0 too, so finite data whose norm overflows apply no
    operator (``Problem`` rejects data that are not finite).  The stall
    count covers consecutive steps from n = 1 on whose norms agree to
    STAGNATION_RTOL; it is updated before the tests, which read it only
    where rn is finite and not below the threshold.  ``_stop_reason`` decides
    every stop, in its order; a screen of its four conditions calls it.
    """
    threshold, max_iter = _gate(problem, config)
    g = problem.g
    f = np.zeros(problem.operator.domain_dim)
    sqrt, inf = math.sqrt, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        rn = sqrt(g.dot(g))
        history = [rn]
        append = history.append
        if callback is not None:
            callback(IterationState(0, f, f, g.copy(), rn))
        reason = _stop_reason(rn, threshold, 0, 0, max_iter)
        prev, stalled, n = inf, 0, 0
        while reason is None:
            try:
                f, f_prev, v = next(steps)
            except StopIteration as stop:
                reason = stop.value
                break
            n += 1
            rn = sqrt(v.dot(v))
            append(rn)
            if callback is not None:
                callback(IterationState(n, f, f_prev, v, rn))
            same = abs(rn - prev) < STAGNATION_RTOL * (rn if rn > 1e-300 else 1e-300)
            stalled = stalled + 1 if same else 0
            prev = rn
            if rn < threshold or not rn < inf or stalled >= STAGNATION_STEPS or n >= max_iter:
                reason = _stop_reason(rn, threshold, stalled, n, max_iter)
    return SolveReport(n, reason, np.asarray(history), f)


def _two_step(problem, omega, coeffs, applies=None, state=None):
    """Steps (f_n, f_{n-1}, g - A f_n) of the second-order update; coeffs
    yields (a_n, b_n, mu_{n+1}), of which only a_n and b_n are read.

    It runs from state = (f_0, f_{-1}, g - A f_0), by default f_0 = f_{-1} = 0,
    with applies = (matvec, rmatvec), by default the single applies.  A None
    a_n, which only Landweber's stream yields, leaves the momentum term out.
    """
    op, g = problem.operator, problem.g
    matvec, rmatvec = applies or (op.matvec, op.rmatvec)
    f, f_prev, v = state or (np.zeros(op.domain_dim),) * 2 + (g,)
    for a, b, _ in coeffs:
        step = b * omega * rmatvec(v)
        f_prev, f = f, f + step if a is None else f + a * (f - f_prev) + step
        v = g - matvec(f)
        yield f, f_prev, v


def semi_iterative(problem: Problem, scheme: RecurrenceScheme, dilation: CoDilation | None,
                   config: SolverConfig, callback=None) -> SolveReport:
    """config.method, general-si or asymmetric-si, driven by an arbitrary
    monic recurrence scheme and dilation in place of config's nu and lam.

    general-si has residual polynomials P_n(1 - 2y)/P_n(1) and reduces to
    Landweber for the power-basis scheme; asymmetric-si has P_{2n}(sqrt(1-y))
    /P_{2n}(1), which vanish at y = 1, so omega ||A*A|| = 1 is tolerated, and
    needs a symmetric scheme.  Any other method raises ValueError before any
    apply.
    """
    method = config.method
    if method not in (Method.GENERAL_SI, Method.ASYMMETRIC_SI):
        raise ValueError(f"method {method.value} takes no recurrence scheme")
    _require_instance(scheme, RecurrenceScheme, "scheme")
    _require_instance(dilation, CoDilation, "dilation", optional=True)
    kind = DILATION_KINDS[method]
    if kind is ResidualKind.ASYMMETRIC and not scheme.symmetric:
        raise ValueError("asymmetric residual polynomials need a symmetric scheme")
    steps = _two_step(problem, config.omega, _recursive_coefficients(scheme, dilation, kind))
    return _drive(problem, config, steps, callback)


def _adaptive(problem: Problem, config: SolverConfig, callback) -> SolveReport:
    """Adaptive variant of the co-dilated 1-method.

    Runs the lam = 1 co-dilated nu-method at nu = 1 while tracking the
    minimal-norm point v_min = v_n - gamma (v_n - v_{n-1}) on the affine
    line through the last two residuals; stops once ||v_min|| < tau *
    epsilon, then maps the minimising gamma back to the dilation parameter
    and applies the matching correction to the iterate.  gamma = 1, where
    v_min is v_{n-1}, has no finite dilation: chosen_lambda is NaN.
    """
    kind = DILATION_KINDS[Method.CODILATED_NU]
    coeffs = _closed_form_coefficients(UltrasphericalParams(1.0), 1.0, kind)
    f = f_prev = np.zeros(problem.operator.domain_dim)
    gamma = 0.0

    def steps():
        nonlocal f, f_prev, gamma
        v_prev = problem.g
        for f, f_prev, v in _two_step(problem, config.omega, coeffs):
            dv = v - v_prev
            dv2 = float(dv.dot(dv))
            if dv2 < 1e-300:
                # consecutive residuals coincide: gamma is indeterminate
                gamma = 0.0
                yield f, f_prev, v
                return StopReason.STAGNATION
            gamma = float(v.dot(dv)) / dv2
            yield f, f_prev, v - gamma * dv
            v_prev = v

    report = _drive(problem, config, steps(), callback)
    n = report.iterations
    den = (2.0 * n - 1.0) * (1.0 - gamma)  # zero only at gamma = 1
    return report._replace(
        f_final=f - gamma * (f - f_prev),
        chosen_lambda=1.0 - (2.0 * n + 1.0) * gamma / den if den else math.nan,
        gamma_final=gamma,
    )


def _cg_steps(problem):
    """Conjugate gradients on A*A f = A*g in factored least-squares form.

    The direction algebra uses the classical recursive residual; the
    reported and stopping norms are recomputed from g - A f each step.
    Exhaustion of the Krylov space (normal residual at roundoff) stops
    with STAGNATION; nonpositive direction curvature is a BREAKDOWN and
    the current iterate is returned as-is.
    """
    op, g = problem.operator, problem.g
    f = np.zeros(op.domain_dim)
    r = g
    p = s = op.rmatvec(r)
    gamma = gamma0 = float(s.dot(s))
    while True:
        q = op.matvec(p)
        qq = float(q.dot(q))
        if qq <= 0.0:
            return StopReason.BREAKDOWN
        alpha = gamma / qq
        f_prev, f = f, f + alpha * p
        r = r - alpha * q
        yield f, f_prev, g - op.matvec(f)
        s = op.rmatvec(r)
        gamma_new = float(s.dot(s))
        if gamma_new <= (1e-14) ** 2 * gamma0:
            # Krylov space exhausted: no further progress possible
            return StopReason.STAGNATION
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new


def _residual_polynomial(config: SolverConfig):
    """(scheme, dilation, kind) of the residual polynomials r_n of config's
    method, f - f_n = r_n(omega A*A) f: Landweber's (1 - 2y)^n from the power
    basis, else the co-dilated (m = 1) ultraspherical family at config's nu and
    lam.  ValueError for cg and the adaptive method, which have none."""
    method = config.method
    if method is Method.LANDWEBER:
        return power_basis_scheme(), None, ResidualKind.SYMMETRIC
    if method not in DILATION_KINDS:
        raise ValueError(f"method {method.value} has no fixed residual polynomial")
    return (ultraspherical_scheme(UltrasphericalParams(config.nu)), CoDilation(1, config.lam),
            DILATION_KINDS[method])


def oracle_check(diag, f_true, config: SolverConfig, n_max: int) -> float:
    """Worst deviation between solver error and residual-polynomial prediction.

    Builds the noiseless diagonal problem g = A f_true, runs ``solve`` under
    config with epsilon = 0 for n_max steps, and compares f_true - f_n against
    r_n(omega sigma_i^2) f_true componentwise at every step, r_n the method's
    residual polynomial.  Deviations are measured relative to the sup norm of
    f_true.  A diag or f_true that is not a nonempty finite real vector, the
    two of different lengths, an all-zero f_true, an n_max that is not an
    integer >= 0, cg and the adaptive method raise ValueError before any apply.
    """
    scheme, dilation, kind = _residual_polynomial(config)
    _require_integer(n_max, "n_max", 0)
    d, f_true = _real_array(diag, "diag", 1), _real_array(f_true, "f_true", 1)
    if f_true.shape != d.shape:
        raise ValueError(f"diag and f_true must be of one shape, not {d.shape} and {f_true.shape}")
    scale = float(np.max(np.abs(f_true)))
    if scale == 0.0:
        raise ValueError("f_true must have a nonzero entry: deviations are relative to it")
    problem = Problem(diagonal_operator(d), d * f_true)
    y = config.omega * d * d
    worst = 0.0

    def cb(state):
        nonlocal worst
        predicted = residual_eval(scheme, dilation, kind, state.n, y) * f_true
        dev = float(np.max(np.abs((f_true - state.f_curr) - predicted)))
        worst = max(worst, dev / scale)

    solve(problem, config._replace(epsilon=0.0, max_iter=n_max), callback=cb)
    return worst


def solve(problem: Problem, config: SolverConfig, callback=None) -> SolveReport:
    """Run config.method; the methods of ``DILATION_KINDS`` use the co-dilated
    (m = 1) ultraspherical family at config's nu and lam, which cg and the
    adaptive method ignore.  Landweber is f_{n+1} = f_n + 2 omega A*(g - A f_n);
    codilated-ultraspherical at nu = lam = 1 is Stiefel's Chebyshev method, and
    codilated-nu at lam = 1 the classical nu-method, with the start iterate
    f_1 = (2 nu + 2)/(2 nu + 2 - lam) omega A* g."""
    method = config.method
    if method in _CLOSED_FORM:
        coeffs = _closed_form_coefficients(UltrasphericalParams(config.nu), config.lam,
                                           DILATION_KINDS[method])
        steps = _two_step(problem, config.omega, coeffs)
    elif method in DILATION_KINDS:
        scheme, dilation, _ = _residual_polynomial(config)
        return semi_iterative(problem, scheme, dilation, config, callback)
    elif method is Method.LANDWEBER:
        steps = _two_step(problem, config.omega, repeat((None, 2.0, 1.0)))
    elif method is Method.CG:
        steps = _cg_steps(problem)
    else:
        return _adaptive(problem, config, callback)
    return _drive(problem, config, steps, callback)


def batchable(config: SolverConfig, lam: float) -> bool:
    """Whether ``solve_dilations`` accepts lam under config (whose own lam
    is ignored): codilated-nu or codilated-ultraspherical at an admissible
    dilation."""
    try:
        _require_admissible(UltrasphericalParams(config.nu), lam)
    except ValueError:
        return False
    return config.method in _CLOSED_FORM


def solve_dilations(problem: Problem, config: SolverConfig, lams) -> list[SolveReport]:
    """``solve(problem, config._replace(lam=lam))`` for each lam in lams, as
    one block iteration with one row per dilation.

    Every report equals the single solve's bit for bit: each row takes the
    same IEEE operations in the same order (``_two_step`` on the closed-form
    stream of a column of dilations, row-block operator applies whose rows
    equal the single applies, row norms sqrt(v . v)), and each row keeps
    ``_drive``'s stall count and screen for its dilation, so ``_stop_reason``
    stops it at the step and for the reason it stops the single solve.  A
    stopped row's report is final at that step, but the row steps on until
    the last row stops.  The relaxation check runs once per call.  Raises
    ValueError unless lams is a 1-D sequence of reals, and where ``batchable``
    is false for some lam; no callback.
    """
    if config.method not in _CLOSED_FORM:
        raise ValueError(f"method {config.method.value} has no block iteration")
    if np.ndim(lams) != 1:
        raise ValueError(f"dilations must be a 1-D sequence, not of shape {np.shape(lams)}")
    column = np.array([_require_real(lam, "dilation lam") for lam in lams]).reshape(-1, 1)
    kind = DILATION_KINDS[config.method]
    coeffs = _closed_form_coefficients(UltrasphericalParams(config.nu), column, kind)
    return _drive_block(problem, config, coeffs, len(column))


def _drive_block(problem, config, coeffs, size) -> list[SolveReport]:
    """``_drive`` over ``_two_step`` on a size x N block of iterates.

    ``coeffs`` yields (a_n, b_n, mu_{n+1}) whose entries broadcast over the
    block's rows, one row per dilation.  The n = 0 tests see only g, so they
    stop every row or none.  Later each row keeps, per dilation and on
    Python floats, what ``_drive`` keeps for a solve: the history, the
    previous norm and the stall count, updated by ``_drive``'s expression
    and screened by its four comparisons, with ``_stop_reason`` called only
    where the screen fires.  A stopped row keeps its place, its report final
    and skipped by the loop from then on, while the one ``_two_step`` steps
    every row until the last stops, which the shared cap bounds.
    """
    threshold, max_iter = _gate(problem, config)
    op, g, inf = problem.operator, problem.g, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        rn0 = math.sqrt(g.dot(g))
        reason = _stop_reason(rn0, threshold, 0, 0, max_iter)
        histories = [[rn0] for _ in range(size)]
        f = np.zeros((size, op.domain_dim))
        reports = [None if reason is None else SolveReport(0, reason, np.asarray(h), row.copy())
                   for h, row in zip(histories, f)]
        prevs, stalls, n = [inf] * size, [0] * size, 0  # per row, as _drive starts them
        start = f, f, np.broadcast_to(g, (size, g.size))
        steps = _two_step(problem, config.omega, coeffs, (op.matvec_rows, op.rmatvec_rows), start)
        while None in reports:  # a stop at n = 0, or an empty block, takes no step
            f, _, v = next(steps)
            n += 1
            for i, rn in enumerate(np.sqrt(np.vecdot(v, v)).tolist()):
                if reports[i] is not None:
                    continue  # stopped: its report is final
                histories[i].append(rn)
                same = abs(rn - prevs[i]) < STAGNATION_RTOL * (rn if rn > 1e-300 else 1e-300)
                stalled = stalls[i] + 1 if same else 0
                prevs[i], stalls[i] = rn, stalled
                if rn < threshold or not rn < inf or stalled >= STAGNATION_STEPS or n >= max_iter:
                    reason = _stop_reason(rn, threshold, stalled, n, max_iter)
                    reports[i] = SolveReport(n, reason, np.asarray(histories[i]), f[i].copy())
    return reports

"""Iteration schemes for the normal equation A*A f = A*g.

Each method is a lazy generator of steps (f_n, f_{n-1}, mu_n, watched
residual) run by one driver, ``_drive``, which owns the n = 0 entry, the
residual history, the callback and the discrepancy, divergence, stagnation
and iteration-cap tests.  The callback gets an ``IterationState`` only when
one is set; without it a step builds no state object.  A method may end the
solve itself by returning a StopReason: cg on breakdown or Krylov
exhaustion, the adaptive method when two consecutive residuals coincide.

Landweber, the general and asymmetric semi-iterative methods, the co-dilated
ultraspherical method and the co-dilated nu-method share the second-order
update

    f_{n+1} = f_n + a_n (f_n - f_{n-1}) + b_n * omega * A*(g - A f_n),  n >= 0,

from f_0 = f_{-1} = 0, so b_0 is the start factor.  Where a_n = 0 (every
Landweber step, and n = 0 of every stream) the update skips the momentum
term: while f_n - f_{n-1} is finite, adding 0 * (f_n - f_{n-1}) changes at
most the sign of a zero entry of f_{n+1}, which never reaches a residual
norm.  The methods differ only in the stream of (a_n, b_n, mu_{n+1}) fed to
the update: constant for Landweber, otherwise one of the ``orthopoly``
coefficient streams (recursive, from a scheme and a dilation, or
closed-form co-dilated ultraspherical).  The error obeys
f - f_n = r_n(omega A*A) f with r_n the matching residual polynomial, which
is what ``oracle_check`` verifies on diagonal problems.

``solve_dilations`` runs the update for the two closed-form methods on a
block with one row per dilation: the stream takes an array of dilations,
the operator applies rows of the block, and a second loop,
``_drive_block``, applies ``_drive``'s tests in ``_drive``'s order row by
row and drops a row once it stops.  Each row's report is bit-identical to
the single solve's.  ``_drive`` and ``_two_step`` stay the single-solve
path, so it pays nothing for the block.

Residual norms are recomputed from v = g - A f every step; nothing is
updated incrementally, so histories do not drift over long runs.  A solve
is single-threaded and deterministic; distinct solves share no mutable
state.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .operators import LinearOperator, Problem, cached_norm_sq, diagonal_operator
from .orthopoly import (
    CoDilation,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    _closed_form_coefficients,
    _closed_form_stream,
    _recursive_coefficients,
    _require_admissible,
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
    "discrepancy_stop",
    "landweber",
    "general_semi_iterative",
    "codilated_ultraspherical",
    "asymmetric_semi_iterative",
    "codilated_nu",
    "adaptive_codilated_one",
    "cg_normal_equations",
    "oracle_check",
    "solve",
    "batchable",
    "solve_dilations",
]

STAGNATION_STEPS = 50
STAGNATION_RTOL = 1e-15
_BLOCK_HISTORY_CHUNK = 1024  # steps of block norms kept as arrays before stacking


class Method(str, Enum):
    LANDWEBER = "landweber"
    GENERAL_SI = "general-si"
    CODILATED_ULTRASPHERICAL = "codilated-ultraspherical"
    ASYMMETRIC_SI = "asymmetric-si"
    CODILATED_NU = "codilated-nu"
    ADAPTIVE_CODILATED_ONE = "adaptive-codilated-one"
    CG = "cg"


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


@dataclass
class SolverConfig:
    """Method selection plus iteration parameters.

    epsilon is the noise level entering the discrepancy threshold
    tau * epsilon; max_iter of None picks the per-method default
    (10^6 for Landweber, 10^3 for cg, 10^4 otherwise).
    """

    method: Method = Method.CODILATED_NU
    nu: float = 1.0
    lam: float = 1.0
    omega: float = 1.0
    tau: float = 4.0
    epsilon: float = 0.0
    max_iter: int | None = None

    def __post_init__(self):
        self.method = Method(self.method)
        if not (np.isfinite(self.nu) and np.isfinite(self.lam)):
            raise ValueError("polynomial parameters nu and lam must be finite")
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError("relaxation parameter omega must be finite and > 0")
        if not (np.isfinite(self.tau) and self.tau > 1):
            raise ValueError("discrepancy factor tau must be finite and > 1")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("noise level epsilon must be finite and >= 0")
        if self.max_iter is not None and self.max_iter < 0:
            raise ValueError("iteration cap max_iter must be >= 0")

    def resolved_max_iter(self) -> int:
        if self.max_iter is not None:
            return self.max_iter
        return _DEFAULT_MAX_ITER.get(self.method, 10**4)


@dataclass(slots=True)
class IterationState:
    """Snapshot of one iteration; residual_norm is always recomputed
    from residual = g - A f_curr, never updated incrementally."""

    n: int
    f_curr: np.ndarray
    f_prev: np.ndarray
    mu_curr: float
    residual: np.ndarray
    residual_norm: float


@dataclass
class SolveReport:
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


def discrepancy_stop(state: IterationState, tau: float, epsilon: float) -> bool:
    """Morozov discrepancy principle: stop once ||A f_n - g|| < tau * epsilon."""
    return state.residual_norm < tau * epsilon


def _caller_stacklevel() -> int:
    """``warnings`` stacklevel of the first frame outside this module, counted
    from the function that calls this one, so a warning points at the user's
    call whether it came through ``solve`` or a method function."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    return level


def _check_relaxation(op: LinearOperator, omega: float, method: Method) -> None:
    level = omega * cached_norm_sq(op)
    if method is Method.LANDWEBER:
        if level >= 1.0 - 1e-10:
            warnings.warn(
                f"omega ||A*A|| = {level:.6g} >= 1: Landweber convergence is not guaranteed",
                RelaxationWarning,
                stacklevel=_caller_stacklevel(),
            )
    elif level > 1.0 + 1e-10:
        warnings.warn(
            f"omega ||A*A|| = {level:.6g} > 1: convergence guarantees lapse",
            RelaxationWarning,
            stacklevel=_caller_stacklevel(),
        )


def _drive(problem, config, steps, callback) -> SolveReport:
    """The one iteration loop: history, callback and the stopping tests.

    ``steps`` yields (f_n, f_{n-1}, mu_n, watched residual) for n = 1, 2, ...
    and may end the solve by returning a StopReason.  It is advanced only
    while no test has fired, so a stopped solve applies no further operator.
    A non-finite residual norm stops the solve with DIVERGENCE, at n = 0 too,
    so NaN data apply no operator.  Stagnation is STAGNATION_STEPS
    consecutive steps from n = 1 on whose norms agree to STAGNATION_RTOL.
    """
    threshold = config.tau * config.epsilon
    max_iter = config.resolved_max_iter()
    g = problem.g
    f = np.zeros(problem.operator.domain_dim)
    rn = math.sqrt(g @ g)
    history = [rn]
    if callback is not None:
        callback(IterationState(0, f, f, 1.0, g.copy(), rn))
    reason = None
    if rn < threshold:
        reason = StopReason.DISCREPANCY
    elif not math.isfinite(rn):
        reason = StopReason.DIVERGENCE
    elif max_iter == 0:
        reason = StopReason.MAX_ITER
    prev, stalled = math.inf, 0
    n = 0
    while reason is None:
        try:
            f, f_prev, mu, v = next(steps)
        except StopIteration as stop:
            reason = stop.value
            break
        n += 1
        rn = math.sqrt(v @ v)
        history.append(rn)
        if callback is not None:
            callback(IterationState(n, f, f_prev, mu, v, rn))
        if rn < threshold:
            reason = StopReason.DISCREPANCY
        elif not math.isfinite(rn):
            reason = StopReason.DIVERGENCE
        else:
            stalled = stalled + 1 if abs(rn - prev) < STAGNATION_RTOL * max(rn, 1e-300) else 0
            prev = rn
            if stalled >= STAGNATION_STEPS:
                reason = StopReason.STAGNATION
            elif n >= max_iter:
                reason = StopReason.MAX_ITER
    return SolveReport(n, reason, np.asarray(history), f)


def _two_step(problem, omega, coeffs):
    """Iterates of the second-order update; coeffs yields (a_n, b_n, mu_{n+1}).

    A zero a_n skips the momentum term, which would only add 0 * (f - f_prev).
    """
    op, g = problem.operator, problem.g
    matvec, rmatvec = op.matvec, op.rmatvec
    f = f_prev = np.zeros(op.domain_dim)
    v = g
    for a, b, mu in coeffs:
        step = b * omega * rmatvec(v)
        f_prev, f = f, f + step if a == 0.0 else f + a * (f - f_prev) + step
        v = g - matvec(f)
        yield f, f_prev, mu, v


def landweber(problem: Problem, config: SolverConfig, callback=None) -> SolveReport:
    """f_{n+1} = f_n + 2 omega A*(g - A f_n) from f_0 = 0."""
    _check_relaxation(problem.operator, config.omega, Method.LANDWEBER)
    coeffs = repeat((0.0, 2.0, 1.0))
    return _drive(problem, config, _two_step(problem, config.omega, coeffs), callback)


def general_semi_iterative(
    problem: Problem,
    scheme: RecurrenceScheme,
    dilation: CoDilation | None,
    config: SolverConfig,
    callback=None,
) -> SolveReport:
    """Semi-iterative method driven by an arbitrary monic recurrence scheme.

    Reduces to ``landweber`` when alpha = beta = 0.
    """
    _check_relaxation(problem.operator, config.omega, Method.GENERAL_SI)
    coeffs = _recursive_coefficients(scheme, dilation, ResidualKind.SYMMETRIC)
    return _drive(problem, config, _two_step(problem, config.omega, coeffs), callback)


def codilated_ultraspherical(
    problem: Problem, nu: float, lam: float, config: SolverConfig, callback=None
) -> SolveReport:
    """Symmetric-residual method with explicit co-dilated ultraspherical
    coefficients (dilation index m = 1); lam = 1 is the Chebyshev method
    of Stiefel for nu = 1."""
    coeffs = _closed_form_coefficients(UltrasphericalParams(nu), lam, ResidualKind.SYMMETRIC)
    _check_relaxation(problem.operator, config.omega, Method.CODILATED_ULTRASPHERICAL)
    return _drive(problem, config, _two_step(problem, config.omega, coeffs), callback)


def asymmetric_semi_iterative(
    problem: Problem,
    scheme: RecurrenceScheme,
    dilation: CoDilation | None,
    config: SolverConfig,
    callback=None,
) -> SolveReport:
    """Method whose residual polynomials are P_{2n}(sqrt(1-y))/P_{2n}(1);
    these vanish at y = 1, so omega ||A*A|| = 1 is tolerated."""
    if not scheme.symmetric:
        raise ValueError("asymmetric residual polynomials need a symmetric scheme")
    _check_relaxation(problem.operator, config.omega, Method.ASYMMETRIC_SI)
    coeffs = _recursive_coefficients(scheme, dilation, ResidualKind.ASYMMETRIC)
    return _drive(problem, config, _two_step(problem, config.omega, coeffs), callback)


def codilated_nu(
    problem: Problem, nu: float, lam: float, config: SolverConfig, callback=None
) -> SolveReport:
    """Co-dilated nu-method: asymmetric residuals with explicit coefficients.

    lam = 1 reproduces the classical nu-method; the start iterate is
    f_1 = (2 nu + 2)/(2 nu + 2 - lam) omega A* g.
    """
    coeffs = _closed_form_coefficients(UltrasphericalParams(nu), lam, ResidualKind.ASYMMETRIC)
    _check_relaxation(problem.operator, config.omega, Method.CODILATED_NU)
    return _drive(problem, config, _two_step(problem, config.omega, coeffs), callback)


def adaptive_codilated_one(problem: Problem, config: SolverConfig, callback=None) -> SolveReport:
    """Adaptive variant of the co-dilated 1-method.

    Runs the lam = 1 iteration while tracking the minimal-norm point
    v_min on the affine line through the last two residuals; stops once
    ||v_min|| < tau * epsilon, then maps the minimising gamma back to the
    dilation parameter and applies the matching correction to the iterate.
    """
    _check_relaxation(problem.operator, config.omega, Method.ADAPTIVE_CODILATED_ONE)
    op, g, omega = problem.operator, problem.g, config.omega
    f = f_prev = np.zeros(op.domain_dim)
    gamma = 0.0

    def steps():
        nonlocal f, f_prev, gamma
        f = (4.0 / 3.0) * omega * op.rmatvec(g)
        v_prev, v = g, g - op.matvec(f)
        n = 1
        while True:
            dv = v - v_prev
            dv2 = float(dv @ dv)
            if dv2 < 1e-300:
                # consecutive residuals coincide: gamma is indeterminate
                gamma = 0.0
                yield f, f_prev, gamma, v
                return StopReason.STAGNATION
            gamma = float(v @ dv) / dv2
            yield f, f_prev, gamma, v - gamma * dv
            f_prev, f = f, f + (2.0 * n - 1.0) / (2.0 * n + 3.0) * (f - f_prev) + 4.0 * omega * (
                2.0 * n + 1.0
            ) / (2.0 * n + 3.0) * op.rmatvec(v)
            v_prev, v = v, g - op.matvec(f)
            n += 1

    report = _drive(problem, config, steps(), callback)
    n = report.iterations
    report.chosen_lambda = 1.0 - (2.0 * n + 1.0) * gamma / ((2.0 * n - 1.0) * (1.0 - gamma))
    report.gamma_final = gamma
    report.f_final = f - gamma * (f - f_prev)
    return report


def _cg_steps(problem):
    op, g = problem.operator, problem.g
    f = np.zeros(op.domain_dim)
    r = g.copy()
    s = op.rmatvec(r)
    p = s.copy()
    gamma = gamma0 = float(s @ s)
    while True:
        q = op.matvec(p)
        qq = float(q @ q)
        if qq <= 0.0:
            return StopReason.BREAKDOWN
        alpha = gamma / qq
        f_prev, f = f, f + alpha * p
        r = r - alpha * q
        yield f, f_prev, alpha, g - op.matvec(f)
        s = op.rmatvec(r)
        gamma_new = float(s @ s)
        if gamma_new <= (1e-14) ** 2 * gamma0:
            # Krylov space exhausted: no further progress possible
            return StopReason.STAGNATION
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new


def cg_normal_equations(problem: Problem, config: SolverConfig, callback=None) -> SolveReport:
    """Conjugate gradients on A*A f = A*g in factored least-squares form.

    The direction algebra uses the classical recursive residual; the
    reported and stopping norms are recomputed from g - A f each step.
    Exhaustion of the Krylov space (normal residual at roundoff) stops
    with STAGNATION; nonpositive direction curvature is a BREAKDOWN and
    the current iterate is returned as-is.
    """
    return _drive(problem, config, _cg_steps(problem), callback)


def oracle_check(
    diag,
    f_true,
    scheme: RecurrenceScheme,
    dilation: CoDilation | None,
    kind: ResidualKind,
    omega: float,
    n_max: int,
) -> float:
    """Worst deviation between solver error and residual-polynomial prediction.

    Builds the noiseless diagonal problem g = A f_true, runs the solver
    matching ``kind`` for n_max steps, and compares f_true - f_n against
    r_n(omega sigma_i^2) f_true componentwise at every step.  Deviations
    are measured relative to the sup norm of f_true.
    """
    d = np.asarray(diag, dtype=float)
    f_true = np.asarray(f_true, dtype=float)
    op = diagonal_operator(d)
    problem = Problem(op, d * f_true)
    y = omega * d * d
    scale = float(np.max(np.abs(f_true)))
    worst = 0.0

    def cb(state):
        nonlocal worst
        predicted = residual_eval(scheme, dilation, kind, state.n, y) * f_true
        dev = float(np.max(np.abs((f_true - state.f_curr) - predicted)))
        worst = max(worst, dev / scale)

    config = SolverConfig(method=Method.GENERAL_SI, omega=omega, epsilon=0.0, max_iter=n_max)
    if kind is ResidualKind.SYMMETRIC:
        general_semi_iterative(problem, scheme, dilation, config, callback=cb)
    else:
        asymmetric_semi_iterative(problem, scheme, dilation, config, callback=cb)
    return worst


def solve(problem: Problem, config: SolverConfig, callback=None) -> SolveReport:
    """Dispatch on config.method; scheme-based methods use the co-dilated
    (m = 1) ultraspherical family with the config's nu and lam."""
    method = config.method
    if method is Method.LANDWEBER:
        return landweber(problem, config, callback)
    if method is Method.CG:
        return cg_normal_equations(problem, config, callback)
    if method is Method.ADAPTIVE_CODILATED_ONE:
        return adaptive_codilated_one(problem, config, callback)
    if method is Method.CODILATED_ULTRASPHERICAL:
        return codilated_ultraspherical(problem, config.nu, config.lam, config, callback)
    if method is Method.CODILATED_NU:
        return codilated_nu(problem, config.nu, config.lam, config, callback)
    scheme = ultraspherical_scheme(UltrasphericalParams(config.nu))
    dilation = None if config.lam == 1.0 else CoDilation(1, config.lam)
    if method is Method.GENERAL_SI:
        return general_semi_iterative(problem, scheme, dilation, config, callback)
    return asymmetric_semi_iterative(problem, scheme, dilation, config, callback)


# closed-form methods that run on a block of dilations, by residual kind
_BLOCK_KINDS = {
    Method.CODILATED_ULTRASPHERICAL: ResidualKind.SYMMETRIC,
    Method.CODILATED_NU: ResidualKind.ASYMMETRIC,
}


def _block_kind(config: SolverConfig, lams) -> ResidualKind:
    """Residual kind of the block iteration; ValueError, as ``solve`` would
    raise it, for another method or an inadmissible dilation."""
    kind = _BLOCK_KINDS.get(config.method)
    if kind is None:
        raise ValueError(f"method {config.method.value} has no block iteration")
    params = UltrasphericalParams(config.nu)
    for lam in lams:
        if not math.isfinite(lam):
            raise ValueError("polynomial parameters nu and lam must be finite")
        _require_admissible(params, lam)
    return kind


def batchable(config: SolverConfig, lam: float) -> bool:
    """Whether ``solve_dilations`` accepts lam under config (whose own lam
    is ignored): codilated-nu or codilated-ultraspherical at an admissible
    dilation."""
    try:
        _block_kind(config, [lam])
    except ValueError:
        return False
    return True


def solve_dilations(problem: Problem, config: SolverConfig, lams) -> list[SolveReport]:
    """``solve(problem, replace(config, lam=lam))`` for each lam in lams, as
    one block iteration with one row per dilation.

    Every report equals the single solve's bit for bit: each row takes the
    same IEEE operations in the same order (the closed-form stream over an
    array of dilations, row-block operator applies whose rows equal the
    single applies, row norms sqrt(v . v)), and the stopping tests are
    ``_drive``'s, in its order, row by row.  Where a_n = 0 at n >= 1 a row
    adds 0 * (f_n - f_{n-1}), which the single update skips; as there, this
    changes at most the sign of a zero entry.  A row leaves the block when
    it stops, so a capped or diverged row costs the others nothing.  The
    relaxation check runs once per call.  Raises ValueError where ``batchable``
    is false for some lam; no callback.
    """
    kind = _block_kind(config, lams)
    if len(lams) == 0:
        return []
    symmetric = kind is ResidualKind.SYMMETRIC
    coeffs = _closed_form_stream(config.nu, np.array(lams, dtype=float), symmetric)
    _check_relaxation(problem.operator, config.omega, config.method)
    return _drive_block(problem, config, coeffs, len(lams))


def _drive_block(problem, config, coeffs, size) -> list[SolveReport]:
    """``_drive`` over ``_two_step`` on a size x N block of iterates.

    ``coeffs`` yields (a_n, b_n, mu_{n+1}) with one entry per dilation,
    except that a_0 = 0 and b_0 may be floats.  The n = 0 tests see only g,
    so they stop every row or none.  Later the tests run row by row on
    Python floats only when a cheap screen (a non-finite norm sum, a norm
    below the threshold, a stalled row or the cap) says some row stops;
    stopped rows then leave the block.  Each row's history is kept as
    pieces, one per removal or per _BLOCK_HISTORY_CHUNK steps.
    """
    threshold = config.tau * config.epsilon
    max_iter = config.resolved_max_iter()
    op, g, omega = problem.operator, problem.g, config.omega
    rn0 = math.sqrt(g @ g)
    reason = None
    if rn0 < threshold:
        reason = StopReason.DISCREPANCY
    elif not math.isfinite(rn0):
        reason = StopReason.DIVERGENCE
    elif max_iter == 0:
        reason = StopReason.MAX_ITER
    if reason is not None:
        n0 = np.asarray([rn0])
        return [SolveReport(0, reason, n0.copy(), np.zeros(op.domain_dim)) for _ in range(size)]
    pieces = [[np.asarray([rn0])] for _ in range(size)]
    outcomes = [None] * size
    rows = np.arange(size)  # block row -> dilation index
    live = slice(None)  # the entries of a coefficient item still in the block
    _, b, _ = next(coeffs)  # a_0 = 0: f_1 = f_0 + b_0 omega A*g
    f = 0.0 + np.broadcast_to(np.multiply(b, omega), (size,))[:, None] * op.rmatvec(g)
    f_prev = np.zeros_like(f)
    v = g - op.matvec_rows(f)
    # prev = NaN fails the stagnation test at n = 1, as _drive's inf does;
    # stalled is all zero whenever stalling is false
    prev, stalled, stalling = np.full(size, np.nan), np.zeros(size, dtype=int), False
    recorded = []

    def keep_recorded():
        for i, piece in enumerate(np.stack(recorded, axis=1)):
            pieces[rows[i]].append(piece)
        recorded.clear()

    n = 1
    while True:
        rn = np.sqrt(np.vecdot(v, v))
        recorded.append(rn)
        # a row that stops by discrepancy or divergence leaves with any count
        same = np.abs(rn - prev) < STAGNATION_RTOL * np.maximum(rn, 1e-300)
        prev = rn
        if stalling or True in same.tolist():
            stalled = np.where(same, stalled + 1, 0)
            stalling = bool(stalled.any())
        norms = rn.tolist()
        if (
            n >= max_iter
            or not math.isfinite(sum(norms))
            or min(norms) < threshold
            or (stalling and stalled.max() >= STAGNATION_STEPS)
        ):
            stop = np.zeros(len(norms), dtype=bool)
            for i, rn_i in enumerate(norms):
                if rn_i < threshold:
                    reason = StopReason.DISCREPANCY
                elif not math.isfinite(rn_i):
                    reason = StopReason.DIVERGENCE
                elif stalled[i] >= STAGNATION_STEPS:
                    reason = StopReason.STAGNATION
                elif n >= max_iter:
                    reason = StopReason.MAX_ITER
                else:
                    continue
                stop[i] = True
                outcomes[rows[i]] = (n, reason, f[i].copy())
            if stop.any():
                keep_recorded()
                if stop.all():
                    break
                keep = ~stop
                rows, f, f_prev, v, prev, stalled = (
                    x[keep] for x in (rows, f, f_prev, v, prev, stalled)
                )
                live = rows
        if len(recorded) == _BLOCK_HISTORY_CHUNK:
            keep_recorded()
        a, b, _ = next(coeffs)
        a, b = a[live], b[live]
        step = (b * omega)[:, None] * op.rmatvec_rows(v)
        f_prev, f = f, f + a[:, None] * (f - f_prev) + step
        v = g - op.matvec_rows(f)
        n += 1
    return [
        SolveReport(iters, reason, np.concatenate(piece), f_final)
        for piece, (iters, reason, f_final) in zip(pieces, outcomes)
    ]

"""Driver overhead per step: ``solve`` against a plain loop of the same NumPy calls.

    python tools/stepcost.py [--repeats N] [--landweber-steps K]

On the stock ``deriv2`` problem (N = 50, omega = 96.5, eps = 0.01, tau = 4,
seed 15) each method is solved with ``codilated.solvers.solve`` and then
replayed by a plain loop written here: the same matrix products, vector
updates and norms, with the coefficients listed in advance and no stopping
test.  Landweber's loop runs in data space, as the solve does: one product
with I - 2 omega A A* per step.  The loop runs the solve's iteration count,
and the script asserts that its residual history equals the solve's bit for
bit.  It prints the best of N timings per step of both, and their
difference: the cost of the driver, the step generators and the coefficient
streams.  ``general-si`` and ``asymmetric-si`` run the co-dilated
ultraspherical scheme at nu = 1, lam = 1.5 through the recursive
coefficient stream.

The block cases run dilations of ``codilated-nu`` through ``solve_dilations``
and replay them by a plain loop over the same block of rows, which, as the
solve does, steps every row until the last one stops and records each row's
history up to its solve's iteration count: the ``table1`` nu = 2 dilations
on ``deriv2`` (L = 8), and the ``sweep-zeros`` block, the 20 admissible
dilations of 1.0:2.2:0.05 at nu = 1 on ``diag-last`` (N = 100, seed 15).
Every row's history must equal its report's bit for bit; the times are per
row-step of the rows' iteration counts, their sum.  The ``src/`` tree next to
this script is the one measured.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from itertools import count, islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from codilated.experiments import (  # noqa: E402
    PROBLEM_DEFAULTS,
    TABLE1_ROWS,
    ExperimentSpec,
    build_problem,
)
from codilated.operators import deriv2_assemble  # noqa: E402
from codilated.orthopoly import (  # noqa: E402
    CoDilation,
    ResidualKind,
    UltrasphericalParams,
    _closed_form_coefficients,
    _closed_form_stream,
    _recursive_coefficients,
    ultraspherical_scheme,
)
from codilated.solvers import (  # noqa: E402
    Method,
    SolverConfig,
    batchable,
    solve,
    solve_dilations,
)


def nu_coefficients(nu, lam, count):
    stream = _closed_form_coefficients(UltrasphericalParams(nu), lam, ResidualKind.ASYMMETRIC)
    return list(islice(stream, count))


def recursive_coefficients(nu, lam, kind, count):
    """The general-si (symmetric) or asymmetric-si items of the m = 1 dilation."""
    scheme = ultraspherical_scheme(UltrasphericalParams(nu))
    return list(islice(_recursive_coefficients(scheme, CoDilation(1, lam), kind), count))


def plain_two_step(a, at, g, omega, coeffs):
    """History of f_{n+1} = f_n + a_n (f_n - f_{n-1}) + b_n omega A*(g - A f_n)."""
    sqrt = math.sqrt
    f = f_prev = np.zeros(a.shape[1])
    v = g
    history = [sqrt(g.dot(g))]
    for a_n, b_n, _ in coeffs:
        step = b_n * omega * at.dot(v)
        f_prev, f = f, f + step if a_n == 0.0 else f + a_n * (f - f_prev) + step
        v = g - a.dot(f)
        history.append(sqrt(v.dot(v)))
    return history


def plain_block(mv, rmv, g, omega, coeffs, counts):
    """Row histories of the same update on a block with one row per dilation
    (coeffs: items of one entry per row, b_0 included; mv and rmv apply A and
    A* to a vector or to every row of a block); every row steps until the
    last stops, and row i records its first counts[i] steps."""
    histories = [[math.sqrt(g.dot(g))] for _ in counts]
    _, b, _ = coeffs[0]
    f = (b * omega)[:, None] * rmv(g)
    f_prev = np.zeros_like(f)
    v = g - mv(f)
    for n in count(1):
        for history, k, rn in zip(histories, counts, np.sqrt(np.vecdot(v, v)).tolist()):
            if n <= k:
                history.append(rn)
        if n == len(coeffs):
            return histories
        a_n, b_n, _ = coeffs[n]
        step = (b_n * omega)[:, None] * rmv(v)
        f_prev, f = f, f + a_n[:, None] * (f - f_prev) + step
        v = g - mv(f)


def plain_landweber(gram, g, omega, steps):
    """History of Landweber in data space, v <- (I - 2 omega A A*) v from v = g,
    and the sum of the v_n, from which the solve forms f once, at the end
    (gram = A A*, formed once, as the operator keeps it)."""
    sqrt = math.sqrt
    c = 2.0 * omega
    damped = np.identity(g.size) - c * gram
    total = np.zeros(g.size)
    v = g
    history = [sqrt(g.dot(g))]
    for _ in range(steps):
        total += v
        v = damped.dot(v)
        history.append(sqrt(v.dot(v)))
    return history


def plain_adaptive(a, at, g, omega, coeffs):
    """History of the affine-minimal residuals of the nu = lam = 1 nu-method."""
    sqrt = math.sqrt
    f = f_prev = np.zeros(a.shape[1])
    v = g
    history = [sqrt(g.dot(g))]
    for a_n, b_n, _ in coeffs:
        step = b_n * omega * at.dot(v)
        f_prev, f = f, f + step if a_n == 0.0 else f + a_n * (f - f_prev) + step
        v_prev, v = v, g - a.dot(f)
        dv = v - v_prev
        gamma = float(v.dot(dv)) / float(dv.dot(dv))
        v_min = v - gamma * dv
        history.append(sqrt(v_min.dot(v_min)))
    return history


def plain_cg(a, at, g, steps):
    sqrt = math.sqrt
    f = np.zeros(a.shape[1])
    r = g.copy()
    s = at.dot(r)
    p = s.copy()
    gamma = float(s.dot(s))
    history = [sqrt(g.dot(g))]
    for _ in range(steps):
        q = a.dot(p)
        alpha = gamma / float(q.dot(q))
        f = f + alpha * p
        r = r - alpha * q
        v = g - a.dot(f)
        history.append(sqrt(v.dot(v)))
        s = at.dot(r)
        gamma_new = float(s.dot(s))
        p = s + (gamma_new / gamma) * p
        gamma = gamma_new
    return history


def best_of(repeats, *fns):
    """Best time of each function over ``repeats`` interleaved rounds, so a
    drift of the machine's speed reaches all of them alike; and their results."""
    best = [math.inf] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return best, [fn() for fn in fns]


def print_row(name, k, t_solve, t_plain):
    us_solve, us_plain = 1e6 * t_solve / k, 1e6 * t_plain / k
    print(f"{name:<24}{k:>8}{us_solve:>15.2f}{us_plain:>15.2f}"
          f"{us_solve - us_plain:>10.2f}{us_solve / us_plain:>7.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=15, help="timings per case (best kept)")
    parser.add_argument("--landweber-steps", type=int, default=5000,
                        help="Landweber iteration cap (its discrepancy stop is 345 071)")
    args = parser.parse_args(argv)

    n, omega, eps, tau = PROBLEM_DEFAULTS["deriv2"]
    base = SolverConfig(omega=omega, epsilon=eps, tau=tau)
    problem = build_problem(ExperimentSpec(problem="deriv2", config=base))
    a = np.ascontiguousarray(deriv2_assemble(n).matrix)
    at = np.ascontiguousarray(a.T)
    gram = a @ a.T
    g = problem.g

    def two_step_replay(plain, coefficients):
        def replay(k):
            coeffs = coefficients(k)  # listed outside the timed loop
            return lambda: plain(a, at, g, omega, coeffs)
        return replay

    def nu_one(k):
        return nu_coefficients(1.0, 1.0, k)

    def recursive(kind):
        return lambda k: recursive_coefficients(1.0, 1.5, kind, k)

    # (method, its lam, its plain loop: iteration count -> the timed replay)
    cases = [
        (Method.LANDWEBER, 1.0, lambda k: lambda: plain_landweber(gram, g, omega, k)),
        (Method.GENERAL_SI, 1.5, two_step_replay(plain_two_step, recursive(ResidualKind.SYMMETRIC))),
        (Method.ASYMMETRIC_SI, 1.5,
         two_step_replay(plain_two_step, recursive(ResidualKind.ASYMMETRIC))),
        (Method.CODILATED_NU, 1.0, two_step_replay(plain_two_step, nu_one)),
        (Method.ADAPTIVE_CODILATED_ONE, 1.0, two_step_replay(plain_adaptive, nu_one)),
        (Method.CG, 1.0, lambda k: lambda: plain_cg(a, at, g, k)),
    ]
    print(f"{'method':<24}{'steps':>8}{'solve us/step':>15}{'plain us/step':>15}"
          f"{'overhead':>10}{'ratio':>7}")
    for method, lam, replay in cases:
        max_iter = args.landweber_steps if method is Method.LANDWEBER else None
        config = base._replace(method=method, lam=lam, max_iter=max_iter)
        name = method.value if lam == 1.0 else f"{method.value} lam={lam}"
        k = solve(problem, config).iterations  # warm-up; also memoises the norm estimate
        (t_solve, t_plain), (report, history) = best_of(
            args.repeats, lambda: solve(problem, config), replay(k))
        if history != report.residual_history.tolist():
            raise AssertionError(f"{name}: the plain loop's history differs from the solve's")
        print_row(name, k, t_solve, t_plain)

    table1 = base._replace(method=Method.CODILATED_NU, nu=2.0)
    table1_lams = [lam for method, nu, lam in TABLE1_ROWS
                   if method is Method.CODILATED_NU and nu == 2.0]
    n_d, omega_d, eps_d, tau_d = PROBLEM_DEFAULTS["diag-last"]
    sweep = SolverConfig(method=Method.CODILATED_NU, nu=1.0, omega=omega_d, epsilon=eps_d,
                         tau=tau_d)
    spec = ExperimentSpec(problem="diag-last", config=sweep, sweep=(1.0, 2.2, 0.05))
    d = 1.0 / np.arange(1.0, n_d + 1.0)  # diag-last's A
    blocks = [
        ("table1 nu=2", problem, table1, table1_lams,
         lambda x: np.matvec(a, x), lambda x: np.matvec(at, x)),
        ("sweep-zeros", build_problem(spec), sweep,
         [lam for lam in spec.sweep_values() if batchable(sweep, lam)],
         lambda x: d * x, lambda x: d * x),
    ]
    for name, block_problem, config, lams, mv, rmv in blocks:
        counts = [r.iterations for r in solve_dilations(block_problem, config, lams)]  # warm-up
        coeffs = list(islice(_closed_form_stream(config.nu, np.array(lams), False), max(counts)))
        (t_solve, t_plain), (reports, histories) = best_of(
            args.repeats, lambda: solve_dilations(block_problem, config, lams),
            lambda: plain_block(mv, rmv, block_problem.g, config.omega, coeffs, counts))
        if histories != [r.residual_history.tolist() for r in reports]:
            raise AssertionError(f"{name}: the plain loop's row histories differ from the reports'")
        print_row(f"{name} L={len(lams)}", sum(counts), t_solve, t_plain)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

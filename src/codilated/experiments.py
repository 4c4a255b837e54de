"""Reproducible experiment setups: problems, single solves, sweeps, tables.

Three stock problems are provided:

* ``diag-last``    A = diag(1, 1/2, ..., 1/N), data e_N + eps * w.  The data
                   sit (up to noise) on the eigenvector of A*A with the
                   smallest eigenvalue, so dilations near critical pay off.
* ``diag-second``  same operator, data e_2 + eps * w: dominated by the
                   second-largest eigenvalue, where dilation barely helps.
* ``deriv2``       the Galerkin-discretised Green's-function integral
                   equation from the operators module.

A problem size is an integer from 2 to the problem's MAX_N, checked before
anything of its size is built.  All randomness flows through one seed (default
DEFAULT_SEED); identical specs produce byte-identical CSV output.  The
perturbation is the raw (unnormalised) Gaussian draw scaled by the nominal
noise level, the convention under which the reference iteration counts
were produced; the discrepancy threshold still uses the nominal level.
Sweep points and table rows are independent solves of one problem
instance.  A sweep needs a method of ``solvers.DILATION_KINDS`` and locates the zeros of its
residual kind.  The admissible points of a closed-form sweep are solved
together by ``solvers.solve_dilations``, whose reports equal the single
solves' bit for bit; every other point and every table row runs through
one point runner that records a failed solve in the row instead of
raising.  Sweep values are read as the floats they denote, in ascending
order (``_sweep_values``), so the rows of a sweep and of ``zeros --sweep``
do not depend on the order of an explicit list; a sweep range spans at most
MAX_SWEEP_POINTS points.  ``run_sweep`` returns its rows; ``SweepRow`` is a
``NamedTuple``, so a row is written as the tuple it is.

Every file the package writes goes through ``write_lines`` here, in
bounded memory, with ``_fmt`` as the one rule for a CSV field; a problem
dump writes the very arrays ``build_problem`` assembled for the solve.
"""

from __future__ import annotations

import warnings
from itertools import chain, islice
from typing import NamedTuple

import numpy as np

from .operators import Problem, add_noise, deriv2_assemble, diagonal_operator
from .orthopoly import CoDilation, _checked_record, _require_flag, _require_integer, _require_real
from .solvers import (
    DILATION_KINDS,
    Method,
    SolveReport,
    SolverConfig,
    _residual_polynomial,
    batchable,
    solve,
    solve_dilations,
)
from .zeros import ZeroReport, _check_degree, find_zeros

__all__ = [
    "DEFAULT_SEED",
    "MAX_N",
    "MAX_SWEEP_POINTS",
    "PROBLEM_DEFAULTS",
    "ExperimentSpec",
    "SweepRow",
    "build_problem",
    "run_experiment",
    "run_sweep",
    "table1_rows",
    "write_array_csv",
    "write_lines",
    "write_report_csv",
    "write_sweep_csv",
    "write_table_csv",
]

DEFAULT_SEED = 15
MAX_SWEEP_POINTS = 10**5  # points of one sweep range

# per-problem defaults: (N, omega, epsilon, tau)
PROBLEM_DEFAULTS = {
    "diag-last": (100, 1.0, 0.01, 4.0),
    "diag-second": (100, 1.0, 0.01, 4.0),
    "deriv2": (50, 96.5, 0.01, 4.0),
}
# largest problem size per problem: deriv2 assembles n x n float64 arrays, 32 MiB
# each at n = 2048 (about four at once); a diagonal problem's vectors take 8 MiB
MAX_N = {"diag-last": 2**20, "diag-second": 2**20, "deriv2": 2**11}


@_checked_record
class ExperimentSpec(NamedTuple):
    """One experiment: a problem, a solver configuration (by default
    ``SolverConfig()``) and optionally a dilation sweep.  It names no output
    file: the caller writes one (``write_report_csv``, ``write_sweep_csv``).

    A malformed sweep range, a problem size that is not an integer in 2 ..
    ``MAX_N`` of the problem, a zero degree outside 1 .. ``zeros.MAX_DEGREE``, a
    config that is not a ``SolverConfig`` or a seed that is not an integer >= 0
    raises ValueError here, before any solve or allocation.
    """

    problem: str = "deriv2"
    n: int | None = None
    config: SolverConfig = SolverConfig()
    sweep: tuple[float, float, float] | list[float] | None = None
    seed: int = DEFAULT_SEED
    zero_degree: int | None = None

    def _checked(self):
        _problem_size(self.problem, self.n)
        if not isinstance(self.config, SolverConfig):
            raise ValueError(f"config must be a SolverConfig, not {self.config!r}")
        _require_integer(self.seed, "seed", 0)
        if self.zero_degree is not None:
            _check_degree(self.zero_degree, "zero degree")
        self.sweep_values()  # rejects a malformed range here, not at the first sweep
        return self

    def sweep_values(self) -> list[float]:
        return [] if self.sweep is None else _sweep_values(self.sweep)


def _problem_size(problem: str, n: int | None) -> int:
    """n, or the problem's default size; ValueError unless the problem is known and n
    is an integer with 2 <= n <= MAX_N[problem], before anything of size n is built."""
    if not isinstance(problem, str) or problem not in PROBLEM_DEFAULTS:
        raise ValueError(f"unknown problem {problem!r}; choose from {sorted(PROBLEM_DEFAULTS)}")
    n = PROBLEM_DEFAULTS[problem][0] if n is None else n
    _require_integer(n, "problem size n", 2)
    if n > MAX_N[problem]:
        raise ValueError(f"problem size n must be <= {MAX_N[problem]} for {problem}")
    return n


def _sweep_values(sweep) -> list[float]:
    """Dilation values of a (min, max, step) range or of an explicit list.

    A range must be of finite reals with step > 0 and min <= max, so it is
    never empty, and span at most MAX_SWEEP_POINTS points, checked before any
    is formed; the entries of a list must be finite reals.  Each value is the
    float its entry denotes, and the values ascend.  A sweep of any other
    type, a string among them, raises ValueError.
    """
    if not isinstance(sweep, (tuple, list)):
        raise ValueError(f"sweep must be a (min, max, step) tuple or a list, not {sweep!r}")
    if not isinstance(sweep, tuple):
        return sorted(_require_real(lam, "sweep values") for lam in sweep)
    lo, hi, step = (_require_real(value, "sweep range") for value in sweep)
    if not (step > 0 and lo <= hi):
        raise ValueError("sweep range must be finite with step > 0 and min <= max")
    steps = np.floor((hi - lo) / step + 1e-9)  # a float: inf where the quotient overflows
    if steps >= MAX_SWEEP_POINTS:
        raise ValueError(f"sweep range has more than {MAX_SWEEP_POINTS} points")
    return [lo + k * step for k in range(int(steps) + 1)]


def build_problem(spec: ExperimentSpec, dump: str | None = None) -> Problem:
    """The experiment's operator and its data under the seeded noise realisation.

    With a ``dump`` prefix, the problem as built is also written, each array
    to ``{dump}_{name}.csv``: g_clean, g_noisy and, for deriv2, the matrix
    and f_exact.
    """
    n = _problem_size(spec.problem, spec.n)
    if spec.problem == "deriv2":
        d2 = deriv2_assemble(n)
        op, g_clean = d2.to_operator(), d2.g_vector
        assembled = {"matrix": d2.matrix, "f_exact": d2.f_exact}
    else:
        op = diagonal_operator(1.0 / np.arange(1.0, n + 1.0))
        g_clean = np.zeros(n)
        g_clean[-1 if spec.problem == "diag-last" else 1] = 1.0
        assembled = {}
    g_noisy = add_noise(g_clean, spec.config.epsilon, spec.seed)
    if dump:
        for name, a in {"g_clean": g_clean, "g_noisy": g_noisy, **assembled}.items():
            write_array_csv(f"{dump}_{name}.csv", a)
    return Problem(op, g_noisy)


def run_experiment(spec: ExperimentSpec, dump: str | None = None) -> SolveReport:
    """Solve the spec's problem; a ``dump`` prefix writes that very problem
    first (see ``build_problem``)."""
    return solve(build_problem(spec, dump), spec.config)


class SweepRow(NamedTuple):
    """One sweep point; the fields are the sweep CSV columns, in order."""

    lam: float
    iterations: int
    stop_reason: str
    final_residual: float
    smallest_zero: float


def _run_point(problem: Problem, config: SolverConfig) -> tuple[int, str, float, float | None]:
    """(iterations, stop reason, final residual, chosen lambda) of one solve.

    A failed solve is recorded in the stop reason, not raised, so a sweep or
    table goes on past it.
    """
    try:
        report = solve(problem, config)
    except ArithmeticError as exc:
        return 0, f"error:{type(exc).__name__}", float("nan"), None
    except ValueError:
        # dilation outside the method's admissible range
        return 0, "error:inadmissible", float("nan"), None
    return _outcome(report)


def _outcome(report: SolveReport) -> tuple[int, str, float, float | None]:
    final = float(report.residual_history[-1])
    return report.iterations, report.stop_reason.value, final, report.chosen_lambda


def _locate_zeros(scheme, dilation: CoDilation, kind, degree: int) -> ZeroReport:
    """``find_zeros``' report, or, where the zeros cannot be located, an empty
    report and one warning, so that a sweep goes on past the point."""
    try:
        return find_zeros(scheme, dilation, kind, degree)
    except ArithmeticError as exc:
        warnings.warn(f"lambda={dilation.lam!r}: zero not located: {exc}", stacklevel=3)
        return ZeroReport(degree, dilation.lam, np.empty(0))


def run_sweep(spec: ExperimentSpec) -> list[SweepRow]:
    """One solve per dilation value, in the ascending order of ``sweep_values``.

    A method without a dilation, and a nu outside the ultraspherical range
    nu > -1/2, raise ValueError before any solve.  The admissible points of
    a closed-form method (``batchable``) are solved together by
    ``solve_dilations``, bit-identical to one solve each; every other point
    goes through ``_run_point``, which records a failed solve in its row.  The
    zero is the smallest of the method's residual kind, even where the solve is
    inadmissible, and NaN, with a warning, where it cannot be located.
    """
    config = spec.config
    if config.method not in DILATION_KINDS:
        raise ValueError(f"method {config.method.value} takes no dilation to sweep")
    lams = spec.sweep_values()
    if not lams:
        raise ValueError("a sweep needs at least one dilation value")
    scheme, _, kind = _residual_polynomial(config)  # checks nu before any solve
    problem = build_problem(spec)
    in_block = [batchable(config, lam) for lam in lams]
    block = [lam for lam, flag in zip(lams, in_block) if flag]
    reports = iter(solve_dilations(problem, config, block) if block else [])
    rows = []
    for lam, flag in zip(lams, in_block):
        if flag:
            iters, reason, final, _ = _outcome(next(reports))
        else:
            iters, reason, final, _ = _run_point(problem, config._replace(lam=lam))
        zero = float("nan")
        if spec.zero_degree is not None:
            zero = _locate_zeros(scheme, CoDilation(1, lam), kind, spec.zero_degree).smallest
        rows.append(SweepRow(lam, iters, reason, final, zero))
    return rows


# (method, nu, lam) rows of the iteration-count table; the adaptive row
# reports its own optimal dilation, cg and Landweber ignore nu/lam.
TABLE1_ROWS = (
    [(Method.CODILATED_NU, 1.0, lam) for lam in (0.0, 0.5, 1.0, 1.5, 1.9, 1.99)]
    + [(Method.ADAPTIVE_CODILATED_ONE, 1.0, None)]
    + [(Method.CODILATED_NU, 1.0, 1.9999)]
    + [(Method.CODILATED_NU, 2.0, lam) for lam in (0.0, 0.5, 1.0, 3.9, 3.99, 3.999, 3.9999, 3.99998)]
    + [(Method.CG, None, None)]
)


def table1_rows(seed: int = DEFAULT_SEED, include_landweber: bool = False) -> list[dict]:
    """Iteration counts of every method on the deriv2 problem (N = 50,
    eps = 0.01, omega = 96.5, tau = 4).  The Landweber row is opt-in:
    it needs a few hundred thousand iterations.
    """
    rows = list(TABLE1_ROWS)
    if _require_flag(include_landweber, "include_landweber"):
        rows.append((Method.LANDWEBER, None, None))
    _, omega, eps, tau = PROBLEM_DEFAULTS["deriv2"]
    base = SolverConfig(omega=omega, epsilon=eps, tau=tau)
    problem = build_problem(ExperimentSpec(problem="deriv2", config=base, seed=seed))
    out = []
    for method, nu, lam in rows:
        config = base._replace(method=method, nu=1.0 if nu is None else nu,
                               lam=1.0 if lam is None else lam)
        iters, reason, _, chosen = _run_point(problem, config)
        out.append({"method": method.value, "nu": nu,
                    "lambda": chosen if chosen is not None else lam,
                    "iterations": iters, "stop_reason": reason})
    return out


_WRITE_CHUNK = 4096  # lines joined per write


def _fmt(value) -> str:
    """CSV field: "" for None, shortest round-trip form for floats, else str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _csv_row(values) -> str:
    return ",".join(map(_fmt, values))


def write_lines(path, lines) -> None:
    """Write each line followed by a newline as UTF-8 text; no lines, an empty
    file.  ``lines`` is read once, lazily, ``_WRITE_CHUNK`` lines per write."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8") as fh:
        while chunk := list(islice(lines, _WRITE_CHUNK)):
            fh.write("\n".join([*chunk, ""]))  # the "" ends the chunk's last line


def write_array_csv(path, a) -> None:
    """One row of a 2-D array per line, comma separated; a vector, one value per line."""
    a = np.asarray(a, dtype=float)
    write_lines(path, map(_csv_row, (a[:, None] if a.ndim == 1 else a).tolist()))


def write_report_csv(path, report: SolveReport, config: SolverConfig, seed: int) -> None:
    """Header block of key=value comment lines, then (n, residual_norm) rows."""
    header = {"method": config.method.value, "nu": config.nu, "lambda": config.lam,
              "omega": config.omega, "tau": config.tau, "epsilon": config.epsilon, "seed": seed,
              "stop_reason": report.stop_reason.value, "chosen_lambda": report.chosen_lambda}
    lines = [f"# {key}={_fmt(value)}" for key, value in header.items()] + ["n,residual_norm"]
    rows = (f"{n},{rn!r}" for n, rn in enumerate(report.residual_history.tolist()))
    write_lines(path, chain(lines, rows))


def write_sweep_csv(path, rows: list[SweepRow], zero_degree: int | None) -> None:
    lines = [] if zero_degree is None else [f"# zero_degree={zero_degree}"]
    lines.append("lambda,iterations,stop_reason,final_residual,smallest_zero")
    write_lines(path, chain(lines, map(_csv_row, rows)))


def write_table_csv(path, rows: list[dict]) -> None:
    columns = ("method", "nu", "lambda", "iterations", "stop_reason")
    write_lines(path, [",".join(columns), *(_csv_row(row[k] for k in columns) for row in rows)])

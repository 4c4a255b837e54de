"""Reproducible experiment setups: problems, single solves, sweeps, tables.

Three stock problems are provided:

* ``diag-last``    A = diag(1, 1/2, ..., 1/N), data e_N + eps * w.  The data
                   sit (up to noise) on the eigenvector of A*A with the
                   smallest eigenvalue, so dilations near critical pay off.
* ``diag-second``  same operator, data e_2 + eps * w: dominated by the
                   second-largest eigenvalue, where dilation barely helps.
* ``deriv2``       the Galerkin-discretised Green's-function integral
                   equation from the operators module.

All randomness flows through one seed (default DEFAULT_SEED); identical
specs produce byte-identical CSV output.  The perturbation is the raw
(unnormalised) Gaussian draw scaled by the nominal noise level, the
convention under which the reference iteration counts were produced;
the discrepancy threshold still uses the nominal level.  Sweep points
and table rows are independent solves of one problem instance.  Two or
more admissible points of a closed-form sweep (codilated-nu,
codilated-ultraspherical) are solved together by
``solvers.solve_dilations``, whose reports equal the single solves' bit for
bit; every other point and every table row runs through one point runner
that records a failed solve in the row instead of raising.  Sweep rows are
sorted by the dilation parameter, so the order of an explicit list does not
change the output.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, replace

import numpy as np

from .operators import (
    NoisyProblem,
    _fmt,
    _write_lines,
    add_noise,
    deriv2_assemble,
    diagonal_operator,
)
from .orthopoly import CoDilation, ResidualKind, UltrasphericalParams, ultraspherical_scheme
from .solvers import (
    Method,
    SolveReport,
    SolverConfig,
    batchable,
    solve,
    solve_dilations,
)
from .zeros import find_zeros

__all__ = [
    "DEFAULT_SEED",
    "PROBLEM_DEFAULTS",
    "ExperimentSpec",
    "SweepRow",
    "SweepResult",
    "build_problem",
    "run_experiment",
    "run_sweep",
    "table1_rows",
    "write_report_csv",
    "write_sweep_csv",
    "write_table_csv",
]

DEFAULT_SEED = 15

# per-problem defaults: (N, omega, epsilon, tau)
PROBLEM_DEFAULTS = {
    "diag-last": (100, 1.0, 0.01, 4.0),
    "diag-second": (100, 1.0, 0.01, 4.0),
    "deriv2": (50, 96.5, 0.01, 4.0),
}


@dataclass
class ExperimentSpec:
    """One experiment: a problem, a solver configuration, optionally a
    dilation sweep, and an output path."""

    problem: str = "deriv2"
    n: int | None = None
    config: SolverConfig = field(default_factory=SolverConfig)
    sweep: tuple[float, float, float] | list[float] | None = None
    seed: int = DEFAULT_SEED
    zero_degree: int | None = None
    out: str | None = None

    def __post_init__(self):
        if self.problem not in PROBLEM_DEFAULTS:
            raise ValueError(
                f"unknown problem {self.problem!r}; choose from {sorted(PROBLEM_DEFAULTS)}"
            )
        self.sweep_values()  # rejects a malformed range here, not at the first sweep

    def sweep_values(self) -> list[float]:
        return [] if self.sweep is None else _sweep_values(self.sweep)


def _sweep_values(sweep) -> list[float]:
    """Dilation values of a (min, max, step) range or of an explicit list.

    A range must be finite with step > 0 and min <= max, so it is never empty;
    the entries of a list must be finite.
    """
    if not isinstance(sweep, tuple):
        if not all(np.isfinite(lam) for lam in sweep):
            raise ValueError("sweep values must be finite")
        return list(sweep)
    lo, hi, step = sweep
    if not (np.isfinite(lo) and np.isfinite(hi) and step > 0 and lo <= hi):
        raise ValueError("sweep range must be finite with step > 0 and min <= max")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def build_problem(spec: ExperimentSpec) -> NoisyProblem:
    """Assemble the experiment's problem with its seeded noise realisation."""
    n = spec.n if spec.n is not None else PROBLEM_DEFAULTS[spec.problem][0]
    if n < 2:
        raise ValueError("problem size n must be >= 2")
    eps = spec.config.epsilon
    if spec.problem == "deriv2":
        d2 = deriv2_assemble(n)
        return add_noise(d2.to_operator(), d2.g_vector, eps, spec.seed, normalize=False)
    op = diagonal_operator(1.0 / np.arange(1.0, n + 1.0))
    g = np.zeros(n)
    g[-1 if spec.problem == "diag-last" else 1] = 1.0
    return add_noise(op, g, eps, spec.seed, normalize=False)


def run_experiment(spec: ExperimentSpec) -> SolveReport:
    noisy = build_problem(spec)
    return solve(noisy.as_problem(), spec.config)


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; the fields are the sweep CSV columns, in order."""

    lam: float
    iterations: int
    stop_reason: str
    final_residual: float
    smallest_zero: float


@dataclass(frozen=True)
class SweepResult:
    rows: list[SweepRow]
    zero_degree: int | None


def _run_point(noisy: NoisyProblem, config: SolverConfig) -> tuple[int, str, float, float | None]:
    """(iterations, stop reason, final residual, chosen lambda) of one solve.

    A failed solve is recorded in the stop reason, not raised, so a sweep or
    table goes on past it.
    """
    try:
        report = solve(noisy.as_problem(), config)
    except ArithmeticError as exc:
        return 0, f"error:{type(exc).__name__}", float("nan"), None
    except ValueError:
        # dilation outside the method's admissible range
        return 0, "error:inadmissible", float("nan"), None
    return _outcome(report)


def _outcome(report: SolveReport) -> tuple[int, str, float, float | None]:
    final = float(report.residual_history[-1])
    return report.iterations, report.stop_reason.value, final, report.chosen_lambda


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """One solve per dilation value; rows sorted by the dilation parameter.

    Two or more admissible points of a closed-form method (``batchable``)
    are solved together by ``solve_dilations``, bit-identical to one solve
    each; every other point goes through ``_run_point``.  Per-point failures are
    recorded in the row and the sweep continues.  The attached zero is
    computed even where the solve is inadmissible.
    """
    lams = sorted(spec.sweep_values())
    if not lams:
        raise ValueError("spec has no sweep values")
    noisy = build_problem(spec)
    config = spec.config
    in_block = [batchable(config, lam) for lam in lams]
    if sum(in_block) < 2:  # a lone block row costs more per step than a single solve
        in_block = [False] * len(lams)
    block = [lam for lam, flag in zip(lams, in_block) if flag]
    reports = iter(solve_dilations(noisy.as_problem(), config, block) if block else [])
    if spec.zero_degree is not None:
        scheme = ultraspherical_scheme(UltrasphericalParams(config.nu))
    rows = []
    for lam, flag in zip(lams, in_block):
        if flag:
            iters, reason, final, _ = _outcome(next(reports))
        else:
            iters, reason, final, _ = _run_point(noisy, replace(config, lam=lam))
        zero = float("nan")
        if spec.zero_degree is not None:
            zr = find_zeros(scheme, CoDilation(1, lam), ResidualKind.ASYMMETRIC, spec.zero_degree)
            if zr.zeros.size:
                zero = zr.smallest
        rows.append(SweepRow(lam, iters, reason, final, zero))
    return SweepResult(rows=rows, zero_degree=spec.zero_degree)


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
    if include_landweber:
        rows.append((Method.LANDWEBER, None, None))
    _, omega, eps, tau = PROBLEM_DEFAULTS["deriv2"]
    base = SolverConfig(omega=omega, epsilon=eps, tau=tau)
    noisy = build_problem(ExperimentSpec(problem="deriv2", config=base, seed=seed))
    out = []
    for method, nu, lam in rows:
        config = replace(base, method=method, nu=1.0 if nu is None else nu,
                         lam=1.0 if lam is None else lam)
        iters, reason, _, chosen = _run_point(noisy, config)
        out.append(
            {
                "method": method.value,
                "nu": nu,
                "lambda": chosen if chosen is not None else lam,
                "iterations": iters,
                "stop_reason": reason,
            }
        )
    return out


def write_report_csv(path, report: SolveReport, config: SolverConfig, seed: int) -> None:
    """Header block of key=value comment lines, then (n, residual_norm) rows."""
    lines = [
        f"# method={config.method.value}",
        f"# nu={_fmt(config.nu)}",
        f"# lambda={_fmt(config.lam)}",
        f"# omega={_fmt(config.omega)}",
        f"# tau={_fmt(config.tau)}",
        f"# epsilon={_fmt(config.epsilon)}",
        f"# seed={seed}",
        f"# stop_reason={report.stop_reason.value}",
        f"# chosen_lambda={_fmt(report.chosen_lambda)}",
        "n,residual_norm",
    ]
    lines.extend(f"{n},{rn!r}" for n, rn in enumerate(report.residual_history.tolist()))
    _write_lines(path, lines)


def write_sweep_csv(path, result: SweepResult) -> None:
    lines = [] if result.zero_degree is None else [f"# zero_degree={result.zero_degree}"]
    lines.append("lambda,iterations,stop_reason,final_residual,smallest_zero")
    lines.extend(",".join(map(_fmt, astuple(row))) for row in result.rows)
    _write_lines(path, lines)


def write_table_csv(path, rows: list[dict]) -> None:
    columns = ("method", "nu", "lambda", "iterations", "stop_reason")
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(row[key]) for key in columns) for row in rows)
    _write_lines(path, lines)

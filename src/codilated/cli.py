"""Command-line front end.

Subcommands: solve, sweep, table1, zeros, checks.  Options may also come
from a plain-text key=value config file (--config); command-line flags
override file entries.  Sweeps and tables run their solves one after
another in this process.  This module handles arguments and stdout; the
experiments module writes every file.  Only the checks command imports the
invariant suites.  Exit codes: 0 success, 1 configuration error (a
malformed flag among them), arithmetic failure such as a vanishing
normalisation (or failed checks), 2 solve ended at the iteration cap, 3
solve stopped on a non-finite residual (divergence).
"""

from __future__ import annotations

import argparse
import re
import sys
import warnings

from .experiments import (
    DEFAULT_SEED,
    PROBLEM_DEFAULTS,
    ExperimentSpec,
    _csv_row,
    _locate_zeros,
    _problem_size,
    _sweep_values,
    run_experiment,
    run_sweep,
    table1_rows,
    write_lines,
    write_report_csv,
    write_sweep_csv,
    write_table_csv,
)
from .orthopoly import CoDilation, ResidualKind, UltrasphericalParams, ultraspherical_scheme
from .solvers import Method, SolverConfig, StopReason
from .zeros import find_zeros

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGENCE = 3
_STOP_EXIT = {StopReason.DIVERGENCE: EXIT_DIVERGENCE, StopReason.MAX_ITER: EXIT_MAX_ITER}


def _parse_sweep(text: str):
    """min:max:step triple or a comma-separated explicit list."""
    if ":" in text:
        lo, hi, step = (float(part) for part in text.split(":"))
        return (lo, hi, step)
    return [float(part) for part in text.split(",")]


def _read_config_file(path: str) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# the solve and sweep options: key -> (type, SolverConfig or ExperimentSpec
# field, None for the output path, argparse extras).  Each key is a
# config-file key of both and, with "-" for "_", a flag, of sweep alone for
# the _SWEEP_ONLY keys and of solve alone for the _SOLVE_ONLY ones, which the
# other command would ignore; a flag overrides the file entry.
_OPTIONS = {
    "problem": (str, "problem", {"choices": sorted(PROBLEM_DEFAULTS)}),
    "method": (str, "method", {"choices": [m.value for m in Method]}),
    "n": (int, "n", {"help": "problem size override"}),
    "nu": (float, "nu", {}),
    "lambda": (float, "lam", {}),
    "omega": (float, "omega", {}),
    "eps": (float, "epsilon", {"help": "noise level"}),
    "tau": (float, "tau", {}),
    "seed": (int, "seed", {}),
    "max_iter": (int, "max_iter", {}),
    "out": (str, None, {"help": "output CSV path"}),
    "sweep": (_parse_sweep, "sweep", {"help": "min:max:step or explicit list"}),
    "zero_degree": (int, "zero_degree", {}),
}
_SWEEP_ONLY = ("sweep", "zero_degree")
_SOLVE_ONLY = ("lambda",)
_CONFIG_FIELDS = set(SolverConfig._fields)


def _add_common(parser: argparse.ArgumentParser, sweep: bool = False):
    parser.add_argument("--config", help="key=value file; flags override its entries")
    for key, (kind, _, extras) in _OPTIONS.items():
        if key not in (_SOLVE_ONLY if sweep else _SWEEP_ONLY):
            parser.add_argument("--" + key.replace("_", "-"), type=kind, **extras)


def _merged(args) -> dict:
    merged: dict = {}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in _OPTIONS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _OPTIONS[key][0](value)
    merged.update((k, v) for k, v in vars(args).items() if k in _OPTIONS and v is not None)
    return merged


def _build_spec(args) -> tuple[ExperimentSpec, str | None]:
    """The spec of the merged options, and the output path; omega, eps and tau
    default to the problem's, every other field to its record's default."""
    merged = _merged(args)
    out = merged.pop("out", None)
    problem = merged.get("problem", "deriv2")
    _problem_size(problem, None)
    _, omega, eps, tau = PROBLEM_DEFAULTS[problem]
    config, spec = {"omega": omega, "epsilon": eps, "tau": tau}, {}
    for key, value in merged.items():
        field = _OPTIONS[key][1]
        (config if field in _CONFIG_FIELDS else spec)[field] = value
    return ExperimentSpec(config=SolverConfig(**config), **spec), out


def _cmd_solve(args) -> int:
    spec, out = _build_spec(args)
    report = run_experiment(spec, args.dump_problem)
    line = (
        f"method={spec.config.method.value} iterations={report.iterations} "
        f"stop={report.stop_reason.value} final_residual={float(report.residual_history[-1])!r}"
    )
    if report.chosen_lambda is not None:
        line += f" chosen_lambda={float(report.chosen_lambda)!r}"
    print(line)
    if out:
        write_report_csv(out, report, spec.config, spec.seed)
    return _STOP_EXIT.get(report.stop_reason, EXIT_OK)


def _cmd_sweep(args) -> int:
    spec, out = _build_spec(args)
    rows = run_sweep(spec)
    for row in rows:
        print(f"lambda={row.lam!r} iterations={row.iterations} stop={row.stop_reason}")
    if out:
        write_sweep_csv(out, rows, spec.zero_degree)
    return EXIT_OK


def _cmd_table1(args) -> int:
    rows = table1_rows(seed=args.seed, include_landweber=args.with_landweber)
    for row in rows:
        print(
            f"{row['method']:<24} nu={row['nu']} lambda={row['lambda']} "
            f"iterations={row['iterations']} ({row['stop_reason']})"
        )
    if args.out:
        write_table_csv(args.out, rows)
    return EXIT_OK


def _cmd_zeros(args) -> int:
    scheme = ultraspherical_scheme(UltrasphericalParams(args.nu))
    kind = None if args.kind == "polynomial" else ResidualKind(args.kind)
    if args.sweep is not None:
        header, rows = "lambda,smallest_zero,located", []
        for lam in _sweep_values(args.sweep):
            zr = _locate_zeros(scheme, CoDilation(args.m, lam), kind, args.degree)
            rows.append((lam, zr.smallest, zr.zeros.size))
    else:
        lam = 1.0 if args.lam is None else args.lam
        zr = find_zeros(scheme, CoDilation(args.m, lam), kind, args.degree)
        header, rows = "index,zero", enumerate(zr.zeros.tolist(), start=1)
    lines = [header, *map(_csv_row, rows)]
    print(*lines, sep="\n")
    if args.out:
        write_lines(args.out, lines)
    return EXIT_OK


def _cmd_checks(_args) -> int:
    from .checks import run_checks  # only this command pays for compiling the suites

    return EXIT_OK if run_checks() else EXIT_CONFIG


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ValueError, which ``main`` reports
    as a configuration error, where argparse would exit with code 2.  A token
    that starts with "-" and then a digit or ".digit" (-1:1:0.5, -1e-3) is a
    value, where argparse would take all but a plain negative decimal for a flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codilated",
        description="Semi-iterative accelerated Landweber solvers built from "
        "co-dilated orthogonal polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solve and write its report CSV")
    _add_common(p_solve)
    p_solve.add_argument("--dump-problem", help="prefix for problem CSV dumps")
    p_solve.set_defaults(fn=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="one solve per dilation value")
    _add_common(p_sweep, sweep=True)
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_table = sub.add_parser("table1", help="iteration-count table on deriv2")
    p_table.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_table.add_argument("--with-landweber", action="store_true")
    p_table.add_argument("--out")
    p_table.set_defaults(fn=_cmd_table1)

    p_zeros = sub.add_parser("zeros", help="zeros of residual or base polynomials")
    p_zeros.add_argument("--nu", type=float, default=1.0)
    one_or_many = p_zeros.add_mutually_exclusive_group()
    one_or_many.add_argument("--lambda", dest="lam", type=float, default=None)
    p_zeros.add_argument("--m", type=int, default=1)
    p_zeros.add_argument(
        "--kind", choices=["symmetric", "asymmetric", "polynomial"], default="asymmetric"
    )
    p_zeros.add_argument("--degree", type=int, required=True)
    one_or_many.add_argument("--sweep", type=_parse_sweep)
    p_zeros.add_argument("--out")
    p_zeros.set_defaults(fn=_cmd_zeros)

    p_checks = sub.add_parser("checks", help="run the invariant suites")
    p_checks.set_defaults(fn=_cmd_checks)
    return parser


def main(argv=None) -> int:
    """Run one command; a warning it raises is shown as one ``warning:`` line."""
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = format_warning


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

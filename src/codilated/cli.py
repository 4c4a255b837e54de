"""Command-line front end.

Subcommands: solve, sweep, table1, zeros, checks.  Options may also come
from a plain-text key=value config file (--config); command-line flags
override file entries.  Sweeps and tables run their solves one after
another in this process.  Exit codes: 0 success, 1 configuration error
(or failed checks), 2 solve ended at the iteration cap, 3 solve stopped on
a non-finite residual (divergence).
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    DEFAULT_SEED,
    PROBLEM_DEFAULTS,
    ExperimentSpec,
    _sweep_values,
    build_problem,
    run_experiment,
    run_sweep,
    table1_rows,
    write_report_csv,
    write_sweep_csv,
    write_table_csv,
)
from .checks import run_checks
from .operators import _write_lines, save_matrix_csv, save_vector_csv
from .orthopoly import CoDilation, ResidualKind, UltrasphericalParams, ultraspherical_scheme
from .solvers import Method, SolverConfig, StopReason
from .zeros import find_polynomial_zeros, find_zeros

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MAX_ITER = 2
EXIT_DIVERGENCE = 3


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


_FILE_KEYS = {
    "problem": str,
    "method": str,
    "nu": float,
    "lambda": float,
    "omega": float,
    "eps": float,
    "tau": float,
    "seed": int,
    "n": int,
    "max_iter": int,
    "sweep": _parse_sweep,
    "zero_degree": int,
    "out": str,
}


def _add_common(parser: argparse.ArgumentParser, sweep: bool = False):
    parser.add_argument("--config", help="key=value file; flags override its entries")
    parser.add_argument("--problem", choices=sorted(PROBLEM_DEFAULTS))
    parser.add_argument("--method", choices=[m.value for m in Method])
    parser.add_argument("--n", type=int, help="problem size override")
    parser.add_argument("--nu", type=float)
    parser.add_argument("--lambda", dest="lam", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--eps", type=float, help="noise level")
    parser.add_argument("--tau", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-iter", dest="max_iter", type=int)
    parser.add_argument("--out", help="output CSV path")
    if sweep:
        parser.add_argument("--sweep", type=_parse_sweep, help="min:max:step or explicit list")
        parser.add_argument("--zero-degree", dest="zero_degree", type=int)


def _merged(args) -> dict:
    merged: dict = {}
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            if key not in _FILE_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _FILE_KEYS[key](value)
    for key in _FILE_KEYS:
        value = getattr(args, "lam" if key == "lambda" else key, None)
        if value is not None:
            merged[key] = value
    return merged


def _build_spec(merged: dict) -> ExperimentSpec:
    problem = merged.get("problem", "deriv2")
    if problem not in PROBLEM_DEFAULTS:
        raise ValueError(f"unknown problem {problem!r}")
    _, omega_d, eps_d, tau_d = PROBLEM_DEFAULTS[problem]
    config = SolverConfig(
        method=merged.get("method", Method.CODILATED_NU),
        nu=merged.get("nu", 1.0),
        lam=merged.get("lambda", 1.0),
        omega=merged.get("omega", omega_d),
        tau=merged.get("tau", tau_d),
        epsilon=merged.get("eps", eps_d),
        max_iter=merged.get("max_iter"),
    )
    return ExperimentSpec(
        problem=problem,
        n=merged.get("n"),
        config=config,
        sweep=merged.get("sweep"),
        seed=merged.get("seed", DEFAULT_SEED),
        zero_degree=merged.get("zero_degree"),
        out=merged.get("out"),
    )


def _cmd_solve(args) -> int:
    merged = _merged(args)
    spec = _build_spec(merged)
    if args.dump_problem:
        noisy = build_problem(spec)
        save_vector_csv(args.dump_problem + "_g_clean.csv", noisy.g_clean)
        save_vector_csv(args.dump_problem + "_g_noisy.csv", noisy.g_noisy)
        if spec.problem == "deriv2":
            from .operators import deriv2_assemble

            d2 = deriv2_assemble(spec.n or PROBLEM_DEFAULTS["deriv2"][0])
            save_matrix_csv(args.dump_problem + "_matrix.csv", d2.matrix)
            save_vector_csv(args.dump_problem + "_f_exact.csv", d2.f_exact)
    report = run_experiment(spec)
    line = (
        f"method={spec.config.method.value} iterations={report.iterations} "
        f"stop={report.stop_reason.value} final_residual={float(report.residual_history[-1])!r}"
    )
    if report.chosen_lambda is not None:
        line += f" chosen_lambda={float(report.chosen_lambda)!r}"
    print(line)
    if spec.out:
        write_report_csv(spec.out, report, spec.config, spec.seed)
    if report.stop_reason is StopReason.DIVERGENCE:
        return EXIT_DIVERGENCE
    return EXIT_MAX_ITER if report.stop_reason is StopReason.MAX_ITER else EXIT_OK


def _cmd_sweep(args) -> int:
    merged = _merged(args)
    spec = _build_spec(merged)
    if spec.sweep is None:
        raise ValueError("sweep requires --sweep")
    result = run_sweep(spec)
    for row in result.rows:
        print(f"lambda={row.lam!r} iterations={row.iterations} stop={row.stop_reason}")
    if spec.out:
        write_sweep_csv(spec.out, result)
    return EXIT_OK


def _cmd_table1(args) -> int:
    rows = table1_rows(
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        include_landweber=args.with_landweber,
    )
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

    def locate(dil):
        if kind is None:
            return find_polynomial_zeros(scheme, dil, args.degree)
        return find_zeros(scheme, dil, kind, args.degree)

    lines = []
    if args.sweep is not None:
        lines.append("lambda,smallest_zero,located")
        for lam in _sweep_values(args.sweep):
            zr = locate(CoDilation(args.m, lam))
            smallest = repr(zr.smallest) if zr.zeros.size else "nan"
            lines.append(f"{float(lam)!r},{smallest},{zr.zeros.size}")
    else:
        zr = locate(None if args.lam is None or args.lam == 1.0 else CoDilation(args.m, args.lam))
        lines.append("index,zero")
        lines.extend(f"{j},{float(z)!r}" for j, z in enumerate(zr.zeros, start=1))
    for line in lines:
        print(line)
    if args.out:
        _write_lines(args.out, lines)
    return EXIT_OK


def _cmd_checks(_args) -> int:
    return EXIT_OK if run_checks() else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_table.add_argument("--seed", type=int)
    p_table.add_argument("--with-landweber", action="store_true")
    p_table.add_argument("--out")
    p_table.set_defaults(fn=_cmd_table1)

    p_zeros = sub.add_parser("zeros", help="zeros of residual or base polynomials")
    p_zeros.add_argument("--nu", type=float, default=1.0)
    p_zeros.add_argument("--lambda", dest="lam", type=float, default=None)
    p_zeros.add_argument("--m", type=int, default=1)
    p_zeros.add_argument(
        "--kind", choices=["symmetric", "asymmetric", "polynomial"], default="asymmetric"
    )
    p_zeros.add_argument("--degree", type=int, required=True)
    p_zeros.add_argument("--sweep", type=_parse_sweep)
    p_zeros.add_argument("--out")
    p_zeros.set_defaults(fn=_cmd_zeros)

    p_checks = sub.add_parser("checks", help="run the invariant suites")
    p_checks.set_defaults(fn=_cmd_checks)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

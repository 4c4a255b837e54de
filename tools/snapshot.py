"""Record the command-line output of a fixed list of codilated runs.

    python tools/snapshot.py OUT_DIR

Each run goes through ``codilated.cli.main`` in this process, using the
``src/`` tree next to this script, with its own directory under OUT_DIR as
the working directory.  The directory keeps the arguments (``argv.txt``),
the exit code (``exit_code.txt``), the standard output (``stdout.txt``) and
every file the run wrote.  Standard error (relaxation warnings, error
messages) is not recorded.

A refactor shows that it changed no output by snapshotting both trees and
comparing them byte for byte:

    git archive PARENT | tar -x -C /tmp/parent && cp -r tools /tmp/parent/
    python /tmp/parent/tools/snapshot.py /tmp/snap-parent
    python tools/snapshot.py /tmp/snap-change
    diff -r /tmp/snap-parent /tmp/snap-change
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from codilated.cli import main  # noqa: E402

METHODS = ("landweber", "general-si", "codilated-ultraspherical", "asymmetric-si",
           "codilated-nu", "adaptive-codilated-one", "cg")
PROBLEMS = ("deriv2", "diag-last", "diag-second")
ZERO_KINDS = ("symmetric", "asymmetric", "polynomial")


def runs():
    """(directory name, argv) of every recorded run; outputs use relative paths."""
    for problem in PROBLEMS:
        for method in METHODS:
            for lam in ("1.0", "1.5"):
                yield f"solve_{problem}_{method}_{lam}", [
                    "solve", "--problem", problem, "--method", method, "--lambda", lam,
                    "--max-iter", "5000", "--out", "out.csv"]
    yield "solve_deriv2_landweber_full", [
        "solve", "--problem", "deriv2", "--method", "landweber", "--out", "out.csv"]
    yield "solve_deriv2_codilated-nu_2_3.99998", [
        "solve", "--problem", "deriv2", "--method", "codilated-nu", "--nu", "2",
        "--lambda", "3.99998", "--out", "out.csv"]
    yield "solve_deriv2_dump_problem", [
        "solve", "--problem", "deriv2", "--max-iter", "5", "--dump-problem", "deriv2",
        "--out", "out.csv"]
    yield "table1", ["table1", "--out", "out.csv"]
    yield "sweep_diag-last_zero_degree", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "1.0:2.2:0.05",
        "--zero-degree", "150", "--out", "out.csv"]
    for method in ("general-si", "asymmetric-si"):
        yield f"sweep_deriv2_{method}", [
            "sweep", "--problem", "deriv2", "--method", method, "--nu", "2",
            "--sweep=-0.5:4.4:0.3", "--out", "out.csv"]
    # closed-form sweeps, solved as one block of dilations
    yield "sweep_deriv2_codilated-nu_2", [
        "sweep", "--problem", "deriv2", "--method", "codilated-nu", "--nu", "2",
        "--sweep", "3.84:3.99:0.01", "--out", "out.csv"]
    yield "sweep_deriv2_codilated-ultraspherical", [
        "sweep", "--problem", "deriv2", "--method", "codilated-ultraspherical",
        "--sweep", "0:1.9:0.1", "--out", "out.csv"]
    yield "sweep_diag-last_divergence", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "0.5:2.1:0.2",
        "--omega", "50", "--max-iter", "3000", "--out", "out.csv"]
    yield "sweep_diag-last_max_iter", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "0.5:2.1:0.2",
        "--eps", "0", "--max-iter", "300", "--out", "out.csv"]
    for kind in ZERO_KINDS:
        zeros = ["zeros", "--nu", "1", "--kind", kind, "--degree", "150"]
        yield f"zeros_{kind}", zeros + ["--lambda", "1.9", "--out", "out.csv"]
        yield f"zeros_{kind}_sweep", zeros + ["--sweep", "1.0:2.2:0.05", "--out", "out.csv"]
    # lam <= 0 has no Jacobi matrix: these pin the scan-and-bisect path
    for kind in ("symmetric", "polynomial"):
        for lam in ("-1", "0"):
            yield f"zeros_{kind}_scan_{lam}", [
                "zeros", "--nu", "1", "--kind", kind, "--degree", "40", f"--lambda={lam}",
                "--out", "out.csv"]


def record(run_dir: Path, argv: list[str]) -> int:
    run_dir.mkdir()
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(cwd)
    (run_dir / "argv.txt").write_text(shlex.join(argv) + "\n", encoding="utf-8")
    (run_dir / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    (run_dir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return code


def snapshot(out_dir: Path) -> None:
    out_dir.mkdir(parents=True)  # refuses an existing directory: no stale files
    for name, argv in runs():
        code = record(out_dir / name, argv)
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tools/snapshot.py OUT_DIR")
    snapshot(Path(sys.argv[1]).resolve())

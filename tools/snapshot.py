"""Record the command-line output of a fixed list of codilated runs.

    python tools/snapshot.py OUT_DIR
    python tools/snapshot.py --manifest FILE

Each run goes through ``codilated.cli.main`` in this process, using the
``src/`` tree next to this script, with its own directory under OUT_DIR as
the working directory.  The directory keeps the arguments (``argv.txt``),
the exit code (``exit_code.txt``; the code of a ``SystemExit`` that ``main``
raises counts as the run's exit code), the standard output (``stdout.txt``) and
every file the run wrote.  Any other exception that escapes ``main`` is written
to ``exception.txt`` (its traceback to standard error) and counts as exit code
1, the interpreter's code for it.
A run named in ``CONFIG_FILES`` first writes its config file there as
``run.cfg``.  Standard error (relaxation warnings, error messages) is not
recorded.

With ``--manifest`` the runs go to a temporary directory, and FILE gets one
``run/file size sha256`` line per file, sorted, each ``stdout.txt`` line
followed by the file's lines, each prefixed with ``| ``.  The tier-1 test
``tests/test_snapshot.py`` runs the same runs and compares them with the
committed ``tests/snapshot_manifest.txt``.  A change that moves an output
regenerates that file; its diff shows each moved run and file:

    python tools/snapshot.py --manifest tests/snapshot_manifest.txt
    git diff tests/snapshot_manifest.txt

Two trees can also be compared byte for byte:

    git archive PARENT | tar -x -C /tmp/parent && cp -r tools /tmp/parent/
    python /tmp/parent/tools/snapshot.py /tmp/snap-parent
    python tools/snapshot.py /tmp/snap-change
    diff -r /tmp/snap-parent /tmp/snap-change
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shlex
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from codilated.cli import main  # noqa: E402

METHODS = ("landweber", "general-si", "codilated-ultraspherical", "asymmetric-si",
           "codilated-nu", "adaptive-codilated-one", "cg")
PROBLEMS = ("deriv2", "diag-last", "diag-second")
ZERO_KINDS = ("symmetric", "asymmetric", "polynomial")
# config files of the --config runs, by run name
CONFIG_FILES = {
    # every solve key from the file; --lambda overrides the file's entry
    "solve_config_file": "problem=diag-last\nmethod=codilated-nu\nn=60\nnu=1.5\n"
    "lambda=2.5\nomega=0.9\neps=0.02\ntau=3.5\nseed=7\nmax_iter=4000\nout=file.csv\n",
    "sweep_config_file": "# the sweep keys\nproblem=diag-last\nsweep=1.0:1.95:0.15\n"
    "zero_degree=40\nout=out.csv\n",
}


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
    # a diagonal problem has no matrix or exact solution to dump: g_clean and g_noisy only
    yield "solve_diag-last_dump_problem", [
        "solve", "--problem", "diag-last", "--max-iter", "5", "--dump-problem", "diag-last",
        "--out", "out.csv"]
    # two residuals whose affine minimiser is the older one: gamma = 1 has no dilation
    yield "solve_diag-last_adaptive_gamma_one", [
        "solve", "--problem", "diag-last", "--method", "adaptive-codilated-one", "--n", "2",
        "--omega", "3", "--eps", "0", "--max-iter", "2", "--out", "out.csv"]
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
    # a symmetric method's zero curve is of its own residual kind
    yield "sweep_diag-last_codilated-ultraspherical_zero_degree", [
        "sweep", "--problem", "diag-last", "--method", "codilated-ultraspherical",
        "--sweep", "1.0,1.5", "--zero-degree", "20", "--out", "out.csv"]
    # methods without a dilation have no sweep: exit 1, no CSV
    for method, max_iter in (("adaptive-codilated-one", "500"), ("landweber", "300")):
        yield f"sweep_diag-last_{method}", [
            "sweep", "--problem", "diag-last", "--method", method,
            "--sweep", "1.0,1.5", "--max-iter", max_iter, "--out", "out.csv"]
    # nu <= -1/2 has no ultraspherical family: exit 1 before any solve, no CSV
    for method in ("general-si", "codilated-nu"):
        yield f"sweep_diag-last_{method}_invalid_nu", [
            "sweep", "--problem", "diag-last", "--method", method, "--nu=-0.75",
            "--sweep", "1.0,1.5", "--out", "out.csv"]
    yield "sweep_diag-last_divergence", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "0.5:2.1:0.2",
        "--omega", "50", "--max-iter", "3000", "--out", "out.csv"]
    yield "sweep_diag-last_max_iter", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "0.5:2.1:0.2",
        "--eps", "0", "--max-iter", "300", "--out", "out.csv"]
    # omega A*A ~ 1e-300 leaves every iterate at roundoff from 0: each row stops by stagnation
    yield "sweep_diag-last_stagnation", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "0.5:1.5:0.5",
        "--omega", "1e-300", "--out", "out.csv"]
    # two stop tests fire at the cap: the precedence of the one stop test names the reason
    yield "sweep_diag-last_stagnation_at_cap", [
        "sweep", "--problem", "diag-last", "--nu", "1", "--sweep", "0.5:1.5:0.5",
        "--omega", "1e-300", "--max-iter", "51", "--out", "out.csv"]
    yield "solve_deriv2_codilated-nu_discrepancy_at_cap", [
        "solve", "--problem", "deriv2", "--method", "codilated-nu", "--lambda", "1.0",
        "--max-iter", "1010", "--out", "out.csv"]
    # tau * eps between the rows' first residuals: the lam = 0.5 row leaves the block
    # at n = 1, the others at n = 2, 3 and 6, so the block restarts three times
    yield "sweep_deriv2_codilated-nu_restarts", [
        "sweep", "--problem", "deriv2", "--nu", "1", "--sweep=-1,0.5,1,1.5,1.95",
        "--tau", "7.27", "--out", "out.csv"]
    yield "solve_config_file", ["solve", "--config", "run.cfg", "--lambda", "2.9"]
    yield "sweep_config_file", ["sweep", "--config", "run.cfg"]
    for kind in ZERO_KINDS:
        zeros = ["zeros", "--nu", "1", "--kind", kind, "--degree", "150"]
        yield f"zeros_{kind}", zeros + ["--lambda", "1.9", "--out", "out.csv"]
        yield f"zeros_{kind}_sweep", zeros + ["--sweep", "1.0:2.2:0.05", "--out", "out.csv"]
    # at nu = 1 every beta_n with n >= 2 is 1/4; at nu != 1 each Jacobi entry has its own value
    for nu, lam in (("0.5", "0.8"), ("2.5", "4.9")):
        for kind in ZERO_KINDS:
            yield f"zeros_{kind}_nu{nu}", [
                "zeros", "--nu", nu, "--kind", kind, "--degree", "150", "--lambda", lam,
                "--out", "out.csv"]
    yield "zeros_asymmetric_nu2.5_m2", [
        "zeros", "--nu", "2.5", "--kind", "asymmetric", "--degree", "150", "--m", "2",
        "--lambda", "1.7", "--out", "out.csv"]
    yield "zeros_symmetric_nu2.5_sweep", [
        "zeros", "--nu", "2.5", "--kind", "symmetric", "--degree", "150",
        "--sweep", "0.5:5.5:0.25", "--out", "out.csv"]
    # a dilation index beyond the matrix leaves the family undilated
    yield "zeros_polynomial_nu2.5_m200", [
        "zeros", "--nu", "2.5", "--kind", "polynomial", "--degree", "5", "--m", "200",
        "--lambda", "1.5", "--out", "out.csv"]
    # lam <= 0 has no Jacobi matrix: these pin the scan-and-bisect path
    for kind in ZERO_KINDS:
        for lam in ("-1", "0"):
            yield f"zeros_{kind}_scan_{lam}", [
                "zeros", "--nu", "1", "--kind", kind, "--degree", "40", f"--lambda={lam}",
                "--out", "out.csv"]
    # P_1100(1) underflows to 0: the scan of P_n refuses the degree as the residual
    # kinds do, exit 1 and no CSV
    yield "zeros_polynomial_scan_underflow", [
        "zeros", "--nu", "1", "--kind", "polynomial", "--lambda=-0.5", "--degree", "1100",
        "--out", "out.csv"]
    # a zeros sweep records the lam = -0.5 point, whose P_1200(1) underflows, as nan
    # with no zeros located, and goes on: exit 0
    yield "zeros_asymmetric_sweep_zero_not_located", [
        "zeros", "--nu", "1", "--kind", "asymmetric", "--degree", "600", "--sweep=-0.5,1.0",
        "--out", "out.csv"]
    # the lam = -0.5 row's zero is not located (P_2200(1) underflows): nan in its row, exit 0
    yield "sweep_diag-last_zero_not_located", [
        "sweep", "--problem", "diag-last", "--sweep=-0.5,1.0", "--zero-degree", "1100",
        "--max-iter", "20", "--out", "out.csv"]
    # "-" and a digit after a flag is its value, not a flag
    yield "sweep_diag-last_negative_range", [
        "sweep", "--problem", "diag-last", "--sweep", "-1:1:0.5", "--max-iter", "20",
        "--out", "out.csv"]
    yield "solve_diag-last_negative_lambda", [
        "solve", "--problem", "diag-last", "--lambda", "-1e-3", "--max-iter", "20",
        "--out", "out.csv"]
    # the invariant suite: its stdout carries each check's worst deviation
    yield "checks", ["checks"]
    # malformed flags are configuration errors
    yield "malformed_solve_n", ["solve", "--n", "abc"]
    yield "malformed_sweep_method", ["sweep", "--method", "nosuch"]
    yield "malformed_zeros_degree", ["zeros", "--degree", "x"]
    yield "malformed_command", ["nosuch"]
    # a dilation flag that a sweep would ignore is refused: exit 1, no CSV
    yield "sweep_lambda_flag", [
        "sweep", "--problem", "diag-last", "--n", "20", "--sweep", "1,1.5", "--lambda", "1.9",
        "--out", "out.csv"]
    yield "zeros_sweep_and_lambda", [
        "zeros", "--degree", "5", "--sweep", "1:2:0.5", "--lambda", "1.5", "--out", "out.csv"]
    # a degree above zeros.MAX_DEGREE is refused before any solve or allocation
    yield "zeros_degree_over_bound", ["zeros", "--degree", "1000000", "--out", "out.csv"]
    yield "sweep_diag-last_zero_degree_over_bound", [
        "sweep", "--problem", "diag-last", "--sweep", "1.0,1.5", "--zero-degree", "1000000",
        "--out", "out.csv"]
    # a problem size one above experiments.MAX_N is refused before anything of its size
    # is built; the iteration cap keeps a tree without the bound cheap
    yield "solve_deriv2_n_over_bound", [
        "solve", "--problem", "deriv2", "--n", "2049", "--max-iter", "5", "--out", "out.csv"]
    yield "sweep_diag-last_n_over_bound", [
        "sweep", "--problem", "diag-last", "--n", "1048577", "--sweep", "1.0,1.5",
        "--max-iter", "5", "--out", "out.csv"]
    # nu above orthopoly.MAX_NU, where the closed forms overflow, is refused before any
    # solve; the iteration cap keeps a tree without the bound cheap
    yield "solve_nu_over_bound", [
        "solve", "--problem", "diag-last", "--nu", "1e200", "--max-iter", "5", "--out", "out.csv"]
    yield "sweep_nu_over_bound", [
        "sweep", "--problem", "diag-last", "--nu", "1e200", "--sweep", "1.0,1.5",
        "--max-iter", "5", "--out", "out.csv"]


def record(run_dir: Path, argv: list[str], config: str | None = None) -> int:
    run_dir.mkdir()
    if config is not None:
        (run_dir / "run.cfg").write_text(config, encoding="utf-8")
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(run_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - an escaped error is the run's outcome
        code = 1
        traceback.print_exc()
        (run_dir / "exception.txt").write_text(f"{type(exc).__name__}: {exc}\n", encoding="utf-8")
    finally:
        os.chdir(cwd)
    (run_dir / "argv.txt").write_text(shlex.join(argv) + "\n", encoding="utf-8")
    (run_dir / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    (run_dir / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    return code


def snapshot(out_dir: Path) -> None:
    out_dir.mkdir(parents=True)  # refuses an existing directory: no stale files
    for name, argv in runs():
        code = record(out_dir / name, argv, CONFIG_FILES.get(name))
        print(f"{name}: exit {code}", file=sys.stderr)


def manifest(out_dir: Path) -> str:
    """The manifest of a snapshot directory (see the module docstring)."""
    lines = []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        lines.append(f"{path.relative_to(out_dir).as_posix()} {len(data)} "
                     f"{hashlib.sha256(data).hexdigest()}")
        if path.name == "stdout.txt":
            lines.extend(f"| {line}" for line in data.decode("utf-8").splitlines())
    return "".join(f"{line}\n" for line in lines)


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--manifest":
        with tempfile.TemporaryDirectory() as tmp:
            snapshot(Path(tmp) / "snap")
            text = manifest(Path(tmp) / "snap")
        Path(sys.argv[2]).write_text(text, encoding="utf-8")
    elif len(sys.argv) == 2:
        snapshot(Path(sys.argv[1]).resolve())
    else:
        raise SystemExit("usage: python tools/snapshot.py OUT_DIR | --manifest FILE")

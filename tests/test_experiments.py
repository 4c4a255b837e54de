import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from codilated import cli, experiments
from codilated.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_MAX_ITER, EXIT_OK, main
from codilated.experiments import (
    DEFAULT_SEED,
    MAX_SWEEP_POINTS,
    PROBLEM_DEFAULTS,
    ExperimentSpec,
    _run_point,
    _sweep_values,
    build_problem,
    run_experiment,
    run_sweep,
    table1_rows,
    write_array_csv,
    write_lines,
    write_report_csv,
    write_sweep_csv,
)
from codilated.operators import LinearOperator, deriv2_assemble
from codilated.orthopoly import CoDilation, ResidualKind, UltrasphericalParams, ultraspherical_scheme
from codilated.solvers import Method, RelaxationWarning, SolverConfig, StopReason
from codilated.zeros import find_zeros


def spec_for(problem, method=Method.CODILATED_NU, **config_kw):
    _, omega, eps, tau = PROBLEM_DEFAULTS[problem]
    config_kw.setdefault("omega", omega)
    config_kw.setdefault("epsilon", eps)
    config_kw.setdefault("tau", tau)
    return ExperimentSpec(problem=problem, config=SolverConfig(method=method, **config_kw))


def run_cli_process(argv):
    """The CLI run as a user runs it, so Python's own filters and stderr show the warnings."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-m", "codilated.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestProblemConstruction:
    def test_defaults_match_reference_setup(self):
        assert PROBLEM_DEFAULTS["diag-last"] == (100, 1.0, 0.01, 4.0)
        assert PROBLEM_DEFAULTS["diag-second"] == (100, 1.0, 0.01, 4.0)
        assert PROBLEM_DEFAULTS["deriv2"] == (50, 96.5, 0.01, 4.0)

    def test_diag_problems(self):
        problem = build_problem(spec_for("diag-last", epsilon=0.0))  # the clean data
        assert problem.operator.domain_dim == 100
        assert problem.g[-1] == 1.0 and np.count_nonzero(problem.g) == 1
        problem2 = build_problem(spec_for("diag-second", epsilon=0.0))
        assert problem2.g[1] == 1.0 and np.count_nonzero(problem2.g) == 1

    def test_raw_noise_level_recorded(self):
        g = build_problem(spec_for("deriv2")).g
        realised = np.linalg.norm(g - deriv2_assemble(50).g_vector)
        # raw draw: about eps * sqrt(N), nowhere near the nominal eps
        assert 0.04 <= realised <= 0.11

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="no-such-problem")
        for n in (None, 50):
            spec = ExperimentSpec(problem="deriv2", n=n)
            with pytest.raises(ValueError, match="unknown problem 'nosuch'"):
                spec._replace(problem="nosuch")

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="deriv2", sweep=(1.0, 2.0, -0.5))
        spec = ExperimentSpec(problem="deriv2", sweep=(1.0, 2.0, 0.5))
        assert spec.sweep_values() == [1.0, 1.5, 2.0]
        spec_list = ExperimentSpec(problem="deriv2", sweep=[1.9, 1.0])
        assert spec_list.sweep_values() == [1.0, 1.9]

    def test_sweep_range_bounded_before_expansion(self):
        top = float(MAX_SWEEP_POINTS)
        assert len(_sweep_values((0.0, top - 1.0, 1.0))) == MAX_SWEEP_POINTS
        for sweep in [(0.0, 1.0, 1e-12), (0.0, top, 1.0), (-1e308, 1e308, 1.0)]:
            with pytest.raises(ValueError, match="more than"):
                _sweep_values(sweep)
        with pytest.raises(ValueError, match="more than"):
            ExperimentSpec(problem="deriv2", sweep=(0.0, 1.0, 1e-12))


class TestProblemSizeBound:
    """A problem size above the problem's bound is refused before anything of
    its size is built: the assembly and noise stand-ins raise if reached."""

    class Reached(Exception):
        pass

    @pytest.fixture
    def assembly(self, monkeypatch):
        calls = []

        def refuse(*args, name, **kwargs):
            calls.append(name)
            raise self.Reached(name)

        for name in ("deriv2_assemble", "diagonal_operator", "add_noise"):
            monkeypatch.setattr(experiments, name, lambda *a, name=name, **k: refuse(name=name))
        return calls

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "deriv2", "--n", "20000"],
        ["solve", "--problem", "diag-last", "--n", "2000000"],
        ["sweep", "--problem", "diag-last", "--n", "2000000", "--sweep", "1.0,1.5"],
        ["sweep", "--problem", "deriv2", "--n", "20000", "--sweep", "1.0,1.5"],
    ])
    def test_cli_exits_with_one_error_line(self, assembly, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        assert (assembly, out.exists()) == ([], False)
        err = capsys.readouterr().err
        assert err.startswith("error: problem size n must be <= ") and err.count("\n") == 1

    @pytest.mark.parametrize("problem", sorted(PROBLEM_DEFAULTS))
    def test_bound_checked_in_spec_and_build(self, assembly, problem):
        bound = experiments.MAX_N[problem]
        with pytest.raises(ValueError, match=f"must be <= {bound}"):
            ExperimentSpec(problem=problem, n=bound + 1)
        spec = ExperimentSpec(problem=problem, n=bound)  # the bound itself is admitted
        with pytest.raises(self.Reached):
            build_problem(spec)
        with pytest.raises(ValueError, match=f"must be <= {bound}"):
            spec._replace(n=bound + 1)
        assert len(assembly) == 1

    @pytest.mark.parametrize("n", [50.5, 60.0, True, "50"])
    def test_non_integer_size_rejected(self, assembly, n):
        # deriv2 at n = 50.5 would assemble 51 points with the spacing 1/50.5
        for problem in sorted(PROBLEM_DEFAULTS):
            with pytest.raises(ValueError, match="must be an integer"):
                ExperimentSpec(problem=problem, n=n)
        assert assembly == []


class TestGoldenRuns:
    def test_diag_last_nu_method_golden(self):
        # frozen with the reference seed; the data sit on the smallest
        # singular direction, forcing the first oscillation window of the
        # residual polynomial at y = 1e-4
        report = run_experiment(spec_for("diag-last"))
        assert report.stop_reason is StopReason.DISCREPANCY
        assert report.iterations == 151

    def test_diag_last_adaptive_golden(self):
        report = run_experiment(spec_for("diag-last", method=Method.ADAPTIVE_CODILATED_ONE))
        assert report.iterations == 97
        assert report.chosen_lambda == pytest.approx(1.9921563, abs=2e-7)

    def test_diag_second_adaptive_golden(self):
        report = run_experiment(spec_for("diag-second", method=Method.ADAPTIVE_CODILATED_ONE))
        assert report.iterations == 71
        assert report.chosen_lambda == pytest.approx(1.6067595, abs=2e-7)

    @pytest.mark.parametrize("method", [Method.CODILATED_NU, Method.LANDWEBER])
    def test_divergence_stops_early(self, method):
        # omega ||A*A|| = 50: the iterates blow up within a hundred steps
        spec = spec_for("diag-last", method=method, omega=50.0, max_iter=3000)
        with pytest.warns(RelaxationWarning):
            report = run_experiment(spec)
        assert report.stop_reason is StopReason.DIVERGENCE
        assert report.iterations < 100
        assert np.isfinite(report.residual_history[:-1]).all()

    def test_zero_noise_hits_iteration_cap(self):
        spec = spec_for("diag-last", epsilon=0.0, max_iter=300)
        report = run_experiment(spec)
        assert report.stop_reason is StopReason.MAX_ITER


class TestSweep:
    def test_monotone_benefit_towards_critical(self):
        spec = spec_for("diag-last")._replace(sweep=[1.0, 1.5, 1.9, 1.99])
        rows = run_sweep(spec)
        counts = [r.iterations for r in rows]
        assert all(b <= a + 2 for a, b in zip(counts, counts[1:]))

    def test_critical_value_does_not_converge(self):
        # asymmetric-si reaches lam = 2 exactly
        spec = spec_for("diag-last", Method.ASYMMETRIC_SI, max_iter=2000)._replace(sweep=[2.0])
        (row,) = run_sweep(spec)
        assert row.stop_reason in ("max-iter", "stagnation")

    def test_shuffled_list_equals_range(self, tmp_path):
        spec = spec_for("diag-last")._replace(sweep=(1.0, 1.9, 0.3))
        ranged, shuffled = tmp_path / "r.csv", tmp_path / "s.csv"
        write_sweep_csv(ranged, run_sweep(spec), None)
        values = spec.sweep_values()
        shuffled_spec = spec._replace(sweep=[values[k] for k in (2, 0, 3, 1)])
        write_sweep_csv(shuffled, run_sweep(shuffled_spec), None)
        assert ranged.read_bytes() == shuffled.read_bytes()

    @pytest.mark.parametrize("method", [Method.CODILATED_NU, Method.CODILATED_ULTRASPHERICAL])
    @pytest.mark.parametrize("problem", ["deriv2", "diag-last", "diag-second"])
    def test_block_points_equal_point_runner(self, method, problem):
        # admissible points run as one block, 4.0 and 4.2 through the point runner
        spec = spec_for(problem, method, nu=2.0)
        spec = spec._replace(sweep=[3.9, 1.0, 4.0, 1.0, 4.2, 3.99, -0.5])
        problem = build_problem(spec)
        rows = run_sweep(spec)
        assert [row.lam for row in rows] == sorted(spec.sweep)
        for row in rows:
            iterations, reason, final, _ = _run_point(problem, spec.config._replace(lam=row.lam))
            assert (row.iterations, row.stop_reason) == (iterations, reason)
            assert repr(row.final_residual) == repr(final)
        assert [row.stop_reason for row in rows].count("error:inadmissible") == 2

    @pytest.mark.parametrize(
        "sweep, single_solves",
        [([1.0, 1.5, 1.9], 0), ([1.0, 1.5, 2.5], 1), ([1.5, 2.5], 1), ([1.5], 0)],
    )
    def test_every_admissible_point_joins_the_block(self, monkeypatch, sweep, single_solves):
        # a lone admissible point runs as a one-row block too; only 2.5 >= 2 nu is single
        calls = []
        solve = experiments.solve
        monkeypatch.setattr(experiments, "solve", lambda *a: calls.append(a) or solve(*a))
        run_sweep(spec_for("diag-last", nu=1.0)._replace(sweep=sweep))
        assert len(calls) == single_solves

    @pytest.mark.parametrize("zero_degree", [None, 20])
    @pytest.mark.parametrize("method", [Method.GENERAL_SI, Method.CODILATED_NU])
    def test_invalid_nu_raises_before_any_solve(self, monkeypatch, method, zero_degree):
        # nu <= -1/2 has no ultraspherical family, whether or not zeros are located
        built = []
        monkeypatch.setattr(experiments, "build_problem", built.append)
        spec = spec_for("diag-last", method, nu=-0.75)._replace(sweep=[1.0, 1.5],
                                                                zero_degree=zero_degree)
        with pytest.raises(ValueError, match="nu > -1/2"):
            run_sweep(spec)
        assert built == []

    def test_zero_curve_attachment(self):
        # smallest zero decreases towards the critical dilation, then the
        # reported in-interval root jumps to the second-smallest branch
        spec = spec_for("diag-last", max_iter=400)._replace(sweep=[1.0, 1.5, 1.9, 2.0, 2.1, 2.2],
                                                             zero_degree=150)
        rows = run_sweep(spec)
        zeros = {r.lam: r.smallest_zero for r in rows}
        assert zeros[1.5] < zeros[1.0]
        assert zeros[1.9] < zeros[1.5]
        assert zeros[2.0] < zeros[1.9]
        assert zeros[2.2] > zeros[2.0]

    @pytest.mark.parametrize(
        "method, kind",
        [(Method.CODILATED_ULTRASPHERICAL, ResidualKind.SYMMETRIC),
         (Method.GENERAL_SI, ResidualKind.SYMMETRIC),
         (Method.CODILATED_NU, ResidualKind.ASYMMETRIC),
         (Method.ASYMMETRIC_SI, ResidualKind.ASYMMETRIC)],
    )
    def test_zero_curve_of_the_method_residual(self, method, kind):
        spec = spec_for("diag-last", method, max_iter=300)._replace(sweep=[1.0, 1.5],
                                                                     zero_degree=20)
        scheme = ultraspherical_scheme(UltrasphericalParams(1.0))
        for row in run_sweep(spec):
            want = find_zeros(scheme, CoDilation(1, row.lam), kind, 20).smallest
            assert row.smallest_zero == want

    @pytest.mark.parametrize(
        "method", [Method.LANDWEBER, Method.CG, Method.ADAPTIVE_CODILATED_ONE]
    )
    def test_method_without_dilation_rejected(self, method):
        # each row would repeat one solve under a lambda that was never used
        spec = spec_for("diag-last", method, max_iter=300)._replace(sweep=[1.0, 1.5])
        with pytest.raises(ValueError, match="dilation"):
            run_sweep(spec)

    def test_failed_point_recorded_not_raised(self):
        # general-si's scheme route raises beyond critical
        spec = spec_for("diag-last", Method.GENERAL_SI, max_iter=50)._replace(sweep=[2.5])
        (row,) = run_sweep(spec)
        assert row.stop_reason == "error:DivergentNormalization"

    def test_failed_zero_location_recorded_not_raised(self):
        # lam = -0.5 has no Jacobi matrix, and the scan's P_1200(1) underflows to 0
        spec = spec_for("diag-last", max_iter=20)._replace(sweep=[1.0, -0.5], zero_degree=600)
        with pytest.warns(UserWarning, match=r"lambda=-0\.5: .*P_1200\(1\) = 0\.0") as caught:
            rows = run_sweep(spec)
        assert len(caught) == 1
        assert [(row.lam, row.iterations) for row in rows] == [(-0.5, 20), (1.0, 20)]
        assert math.isnan(rows[0].smallest_zero)
        scheme = ultraspherical_scheme(UltrasphericalParams(1.0))
        want = find_zeros(scheme, CoDilation(1, 1.0), ResidualKind.ASYMMETRIC, 600).smallest
        assert rows[1].smallest_zero == want


class TestTable:
    def test_rows_and_reference_counts(self):
        rows = table1_rows()
        by_key = {(r["method"], r["nu"], None if r["method"] != "codilated-nu" else r["lambda"]): r
                  for r in rows}
        assert by_key[("codilated-nu", 1.0, 1.0)]["iterations"] == 1010
        assert by_key[("codilated-nu", 2.0, 1.0)]["iterations"] == 1288
        assert by_key[("cg", None, None)]["iterations"] == 22
        adaptive = next(r for r in rows if r["method"] == "adaptive-codilated-one")
        assert adaptive["iterations"] == 885
        assert adaptive["lambda"] == pytest.approx(1.99737, abs=1e-5)
        assert not any(r["method"] == "landweber" for r in rows)

    def test_landweber_opt_in_listed_last(self, monkeypatch):
        # the row's iteration count is criterion 1's; here only its place and config
        configs = []

        def record(noisy, config):
            configs.append(config)
            return 1, "discrepancy", 0.0, None

        monkeypatch.setattr(experiments, "_run_point", record)
        rows = table1_rows(include_landweber=True)
        assert len(configs) == len(rows) == 18
        _, omega, eps, tau = PROBLEM_DEFAULTS["deriv2"]
        last = configs[-1]
        assert (last.method, last.omega, last.epsilon, last.tau) == (
            Method.LANDWEBER, omega, eps, tau)
        assert rows[-1]["method"] == "landweber"


class TestCsvEmission:
    def test_report_csv_layout(self, tmp_path):
        spec = spec_for("diag-last", method=Method.ADAPTIVE_CODILATED_ONE)
        report = run_experiment(spec)
        path = tmp_path / "report.csv"
        write_report_csv(path, report, spec.config, spec.seed)
        lines = path.read_text().splitlines()
        assert lines[0] == "# method=adaptive-codilated-one"
        assert f"# seed={DEFAULT_SEED}" in lines
        header_at = lines.index("n,residual_norm")
        assert len(lines) - header_at - 1 == report.iterations + 1
        n, rn = lines[-1].split(",")
        assert int(n) == report.iterations
        assert float(rn) == report.residual_history[-1]

    def test_byte_identical_across_runs(self, tmp_path):
        spec = spec_for("deriv2")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report_csv(a, run_experiment(spec), spec.config, spec.seed)
        write_report_csv(b, run_experiment(spec), spec.config, spec.seed)
        assert a.read_bytes() == b.read_bytes()

    def test_vector_roundtrip(self, tmp_path):
        v = np.array([1.0, -0.25, 1e-17, 3.141592653589793])
        path = tmp_path / "v.csv"
        write_array_csv(path, v)
        assert np.array_equal(np.loadtxt(path), v)

    def test_matrix_roundtrip(self, tmp_path):
        m = np.random.default_rng(0).standard_normal((4, 3))
        path = tmp_path / "m.csv"
        write_array_csv(path, m)
        assert np.array_equal(np.loadtxt(path, delimiter=","), m)

    @pytest.mark.parametrize(
        "lines, text",
        [([], ""), ([""], "\n"), (["a"], "a\n"), (["a", "", "b,c"], "a\n\nb,c\n")],
    )
    def test_write_lines_exact_bytes(self, tmp_path, lines, text):
        # each line ends in one newline; no lines gives an empty file
        path = tmp_path / "lines.csv"
        write_lines(path, lines)
        assert path.read_bytes() == text.encode("utf-8")
        write_lines(path, iter(lines))  # a one-pass iterable too
        assert path.read_bytes() == text.encode("utf-8")

    def test_write_lines_holds_one_chunk_at_a_time(self, monkeypatch):
        # each write joins at most one chunk, and a line is read only once
        # every earlier chunk has been written
        chunk = experiments._WRITE_CHUNK
        writes, read_after = [], []

        class Recorder:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def write(self, text):
                writes.append(text)

        def lines():
            for k in range(3 * chunk + 5):
                read_after.append(len(writes))
                yield str(k)

        monkeypatch.setattr(experiments, "open", lambda *a, **kw: Recorder(), raising=False)
        write_lines("unused.csv", lines())
        assert [text.count("\n") for text in writes] == [chunk, chunk, chunk, 5]
        assert read_after == [k // chunk for k in range(3 * chunk + 5)]
        assert "".join(writes) == "".join(f"{k}\n" for k in range(3 * chunk + 5))

    def test_long_report_equals_per_row_reference(self, tmp_path):
        # a history over three write chunks plus a remainder, of widely ranging floats
        size = 3 * experiments._WRITE_CHUNK + 17
        rng = np.random.default_rng(7)
        history = rng.uniform(0.5, 1.0, size) * 10.0 ** rng.integers(-300, 300, size)
        spec = spec_for("diag-last")
        report = run_experiment(spec)._replace(residual_history=history)
        header, full = tmp_path / "header.csv", tmp_path / "full.csv"
        empty = report._replace(residual_history=history[:0])
        write_report_csv(header, empty, spec.config, spec.seed)
        write_report_csv(full, report, spec.config, spec.seed)
        rows = "".join(f"{n},{float(history[n])!r}\n" for n in range(size))
        assert header.read_text().endswith("\nn,residual_norm\n")
        assert full.read_bytes() == (header.read_text() + rows).encode("utf-8")


class TestCli:
    def test_solve_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main(
            ["solve", "--problem", "diag-last", "--method", "codilated-nu",
             "--nu", "1", "--lambda", "1.5", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert out.exists()
        assert "iterations=" in capsys.readouterr().out

    def test_solve_maxiter_exit_code(self, tmp_path):
        code = main(
            ["solve", "--problem", "diag-last", "--eps", "0", "--max-iter", "40"]
        )
        assert code == EXIT_MAX_ITER

    def test_adaptive_gamma_one_exit_code(self, capsys):
        # two steps reach residual 0; the last minimiser is gamma = 1, which no
        # finite dilation gives
        with pytest.warns(RelaxationWarning):
            code = main(["solve", "--problem", "diag-last", "--method", "adaptive-codilated-one",
                         "--n", "2", "--omega", "3", "--eps", "0", "--max-iter", "2"])
        assert code == EXIT_MAX_ITER
        out = capsys.readouterr().out
        assert "iterations=2 stop=max-iter" in out
        assert "chosen_lambda=nan" in out

    def test_config_error_exit_code(self, capsys):
        assert main(["solve", "--problem", "deriv2", "--tau", "0.5"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_solve_divergence_exit_code(self, capsys):
        with pytest.warns(RelaxationWarning) as record:
            code = main(["solve", "--problem", "diag-last", "--omega", "50", "--max-iter", "3000"])
        assert code == EXIT_DIVERGENCE
        assert "stop=divergence" in capsys.readouterr().out
        assert [w.category for w in record] == [RelaxationWarning]  # no NumPy overflow besides

    def test_non_finite_parameters_rejected(self, capsys):
        for argv in (["solve", "--problem", "diag-last", "--lambda", "nan"],
                     ["solve", "--problem", "diag-last", "--nu", "inf"],
                     ["solve", "--problem", "diag-last", "--method", "general-si", "--lambda", "nan"],
                     ["zeros", "--degree", "6", "--lambda", "nan"]):
            assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.count("error:") == 4

    @pytest.mark.parametrize("problem", ["diag-last", "diag-second"])  # deriv2_assemble checks n itself
    def test_tiny_problem_rejected(self, problem, capsys):
        assert main(["solve", "--problem", problem, "--n", "1"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# reference setup\nproblem=diag-last\nmethod=codilated-nu\nnu=1\nlambda=1.0\nmax_iter=20\n"
        )
        out = tmp_path / "out.csv"
        code = main(
            ["solve", "--config", str(cfg), "--lambda", "1.9", "--out", str(out)]
        )
        assert code == EXIT_MAX_ITER  # capped at 20 iterations
        header = out.read_text().splitlines()
        assert "# lambda=1.9" in header  # flag overrides the file entry
        assert "# method=codilated-nu" in header

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key=1\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG

    def test_config_file_line_without_equals(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem diag-last\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: malformed config line: problem diag-last\n"

    # a non-default value for every solve and sweep option, with the base
    # arguments it runs on
    OPTION_CASES = {
        "problem": ("diag-second", ["solve"]),
        "method": ("asymmetric-si", ["solve"]),
        "n": ("30", ["solve"]),
        "nu": ("2", ["solve"]),
        "lambda": ("1.5", ["solve"]),
        "omega": ("50", ["solve"]),
        "eps": ("0.02", ["solve"]),
        "tau": ("3", ["solve"]),
        "seed": ("3", ["solve"]),
        "max_iter": ("100", ["solve"]),
        "out": ("other.csv", ["solve"]),
        "sweep": ("1.0:1.5:0.25", ["sweep", "--problem", "diag-last"]),
        "zero_degree": ("20", ["sweep", "--problem", "diag-last", "--sweep", "1.0,1.5"]),
    }

    def test_option_cases_cover_every_option(self):
        assert set(self.OPTION_CASES) == set(cli._OPTIONS)

    @pytest.mark.parametrize("key", sorted(OPTION_CASES))
    def test_flag_and_config_entry_agree(self, key, tmp_path, monkeypatch, capsys):
        value, base = self.OPTION_CASES[key]
        if key != "out":
            base = base + ["--out", "out.csv"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        outcomes = []
        for name, extra in (("flag", ["--" + key.replace("_", "-"), value]),
                            ("file", ["--config", str(cfg)])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RelaxationWarning)
                code = main(base + extra)
            files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
            outcomes.append((code, capsys.readouterr().out, files))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2]  # the run wrote its CSV

    @pytest.mark.parametrize("argv", [
        ["sweep", "--problem", "diag-last", "--n", "20", "--sweep", "1,1.5", "--lambda", "1.9"],
        ["zeros", "--degree", "5", "--sweep", "1:2:0.5", "--lambda", "1.5"],
    ])
    def test_dilation_flag_a_sweep_would_ignore_rejected(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "--lambda" in err[0]
        assert not out.exists()

    def test_sweep_accepts_a_file_lambda(self, tmp_path, capsys):
        # as solve accepts a file's sweep: one file may serve both commands
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda=1.9\n")
        base = ["sweep", "--problem", "diag-last", "--n", "20", "--sweep", "1,1.5"]
        assert main(base) == EXIT_OK
        plain = capsys.readouterr().out
        assert main(base + ["--config", str(cfg)]) == EXIT_OK
        assert capsys.readouterr().out == plain

    def test_config_file_unknown_problem(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=nosuch\n")
        assert main(["solve", "--config", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_config_file_unknown_problem_lists_the_choices(self, tmp_path, capsys):
        # the library's one rule for a problem name, reached through a config file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem=nosuch\n")
        assert main(["sweep", "--config", str(cfg), "--sweep", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: unknown problem 'nosuch'; choose from ['deriv2', 'diag-last', 'diag-second']\n")

    @pytest.mark.parametrize("argv", [
        ["solve", "--n", "abc"],
        ["sweep", "--method", "nosuch"],
        ["zeros", "--degree", "x"],
        ["zeros"],  # --degree is required
        ["nosuch"],
        ["solve", "--problem", "-x"],  # "-" and a letter is a flag, not a value
    ])
    def test_malformed_flag_is_config_error(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["table1", "--seed", "-1"],
        ["solve", "--problem", "diag-last", "--seed", "-3"],
    ], ids=["table1", "solve"])
    def test_negative_seed_names_the_flag(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--problem", "diag-last", "--max-iter", "20", "--sweep", "-1:1:0.5"],
        ["sweep", "--problem", "diag-last", "--max-iter", "20", "--sweep", "-1,0.5"],
        ["solve", "--problem", "diag-last", "--max-iter", "20", "--lambda", "-1e-3"],
    ], ids=["range", "list", "exponent"])
    def test_negative_value_after_its_flag(self, argv, capsys):
        # "-" then a digit is a value, as after "=": argparse alone reads only a
        # plain negative decimal so, and took these for flags
        code = main(argv)
        spaced = capsys.readouterr()
        assert main([*argv[:-2], f"{argv[-2]}={argv[-1]}"]) == code != EXIT_CONFIG
        assert capsys.readouterr() == spaced and spaced.err == ""

    def test_warnings_are_one_line_each(self):
        # the relaxation warning of the block and the lam = -0.5 row's zero warning
        done = run_cli_process(["sweep", "--problem", "diag-last", "--sweep=-0.5,1.0",
                                "--zero-degree", "600", "--omega", "50", "--max-iter", "20"])
        assert done.returncode == EXIT_OK
        err = done.stderr.splitlines()
        assert len(err) == 2 and all(line.startswith("warning: ") for line in err)
        assert not any(".py" in line for line in err)

    def test_sweep_zero_not_located_is_one_warning(self, tmp_path):
        # the lam = -0.5 row's zero cannot be located; the sweep still writes both rows
        out = tmp_path / "sweep.csv"
        done = run_cli_process(["sweep", "--problem", "diag-last", "--sweep=-0.5,1.0",
                                "--zero-degree", "600", "--max-iter", "20", "--out", str(out)])
        assert done.returncode == EXIT_OK
        assert done.stderr == "warning: lambda=-0.5: zero not located: P_1200(1) = 0.0\n"
        rows = out.read_text().splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["-0.5", "1.0"]
        assert rows[0].endswith(",nan") and not rows[1].endswith(",nan")

    def test_zeros_sweep_records_a_zero_not_located(self, capsys):
        argv = ["zeros", "--nu", "1", "--kind", "asymmetric", "--degree", "600"]
        with pytest.warns(UserWarning) as record:
            code = main([*argv, "--sweep=-0.5,1.0"])
        assert code == EXIT_OK
        assert [str(w.message) for w in record] == [
            "lambda=-0.5: zero not located: P_1200(1) = 0.0"]
        assert capsys.readouterr().out.splitlines() == [
            "lambda,smallest_zero,located", "-0.5,nan,0", "1.0,6.842467448642253e-06,600"]
        assert main([*argv, "--lambda=-0.5"]) == EXIT_CONFIG  # one zero set: an error
        assert "error: P_1200(1) = 0.0" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["solve", "--help"])
        assert exit_.value.code == 0
        assert "--max-iter" in capsys.readouterr().out

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--problem", "diag-last", "--method", "codilated-nu",
             "--nu", "1", "--sweep", "1.0:1.9:0.45", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda,iterations,stop_reason,final_residual,smallest_zero"
        assert len(lines) == 4  # 1.0, 1.45, 1.9

    def test_sweep_of_method_without_dilation_exits_1(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--problem", "diag-last", "--method", "landweber",
             "--sweep", "1.0,1.5", "--max-iter", "300", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert main(["sweep", "--problem", "diag-last"]) == EXIT_CONFIG  # no --sweep
        assert capsys.readouterr().err.count("error:") == 2

    def test_zero_degree_below_one_rejected_before_any_solve(self, monkeypatch, capsys):
        calls = []
        for name in ("build_problem", "solve", "solve_dilations"):
            monkeypatch.setattr(experiments, name, lambda *a, name=name: calls.append(name))
        for degree in ("0", "-3"):
            code = main(["sweep", "--problem", "diag-last", "--sweep", "1:1.5:0.5",
                         "--zero-degree", degree])
            assert code == EXIT_CONFIG
        assert calls == []
        assert capsys.readouterr().err.count("zero degree must be >= 1") == 2
        with pytest.raises(ValueError, match="zero degree"):
            ExperimentSpec(problem="diag-last", zero_degree=0)

    @pytest.mark.parametrize("degree", ["4097", "1000000"])
    def test_zero_degree_above_bound_rejected_before_any_solve(self, monkeypatch, capsys,
                                                               tmp_path, degree):
        calls = []
        for name in ("build_problem", "solve", "solve_dilations", "find_zeros"):
            monkeypatch.setattr(experiments, name, lambda *a, name=name: calls.append(name))
        out = tmp_path / "out.csv"
        code = main(["sweep", "--problem", "diag-last", "--sweep", "1:1.5:0.5",
                     "--zero-degree", degree, "--out", str(out)])
        assert (code, calls, out.exists()) == (EXIT_CONFIG, [], False)
        assert capsys.readouterr().err == "error: zero degree must be <= 4096\n"

    def test_zeros_dilation_index_checked_at_every_lambda(self, capsys):
        # lambda = 1, given or not, builds the same dilation as any other lambda
        base = ["zeros", "--degree", "6", "--m", "0"]
        for extra in ([], ["--lambda", "1"], ["--lambda", "1.5"], ["--sweep", "1.0,1.5"]):
            assert main(base + extra) == EXIT_CONFIG
        assert capsys.readouterr().err.count("dilation index m must be >= 1") == 4

    def test_zeros_single_and_sweep(self, tmp_path, capsys):
        code = main(["zeros", "--nu", "1", "--kind", "symmetric", "--degree", "6"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "index,zero"
        assert len(out) == 7
        zfile = tmp_path / "zeros.csv"
        code = main(
            ["zeros", "--nu", "1", "--kind", "asymmetric", "--degree", "20",
             "--sweep", "1.0:2.0:0.5", "--out", str(zfile)]
        )
        assert code == EXIT_OK
        lines = zfile.read_text().splitlines()
        assert lines[0] == "lambda,smallest_zero,located"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == sorted(values, reverse=True)

    def test_zeros_sweep_rows_ascend(self, capsys):
        # as a sweep's rows: the order of an explicit list does not change the output
        assert main(["zeros", "--degree", "5", "--sweep", "2,1"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[0] for line in lines] == ["lambda", "1.0", "2.0"]
        assert main(["zeros", "--degree", "5", "--sweep", "1,2"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == lines

    @pytest.mark.parametrize("sweep", ["1:2:0", "2:1:0.5", "nan,1.0"])
    def test_bad_sweep_range_rejected(self, sweep, capsys):
        # zeros and sweep share the range check
        assert main(["zeros", "--degree", "6", "--sweep", sweep]) == EXIT_CONFIG
        assert main(["sweep", "--problem", "diag-last", "--sweep", sweep]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("error:") == 2

    def test_table1_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "method,nu,lambda,iterations,stop_reason"
        assert len(lines) == 18  # 17 rows without the Landweber opt-in

    @pytest.mark.parametrize("zero_degree", [[], ["--zero-degree", "20"]])
    @pytest.mark.parametrize("method", ["general-si", "codilated-nu"])
    def test_sweep_of_invalid_nu_exits_1(self, tmp_path, capsys, method, zero_degree):
        out = tmp_path / "out.csv"
        code = main(["sweep", "--problem", "diag-last", "--method", method, "--nu=-0.75",
                     "--sweep", "1.0,1.5", *zero_degree, "--out", str(out)])
        assert code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "diag-last", "--max-iter", "5"],
        ["sweep", "--problem", "diag-last", "--sweep", "1.0,1.5", "--max-iter", "5"],
        ["zeros", "--degree", "20"],
    ], ids=["solve", "sweep", "zeros"])
    def test_nu_over_bound_exits_1_before_any_apply(self, tmp_path, capsys, monkeypatch, argv):
        # at nu = 1e200 the formulas overflow (a NaN residual reads as divergence,
        # beta(2) as 0), so the bound must stop each command before any apply
        applies, build = [], experiments.diagonal_operator

        def counting(diag):
            op = build(diag)
            return LinearOperator(op.domain_dim, op.range_dim, *(
                lambda x, apply=apply: applies.append(apply) or apply(x)
                for apply in (op.matvec, op.rmatvec, op.matvec_rows, op.rmatvec_rows)))

        monkeypatch.setattr(experiments, "diagonal_operator", counting)
        out = tmp_path / "out.csv"
        assert main(argv + ["--nu", "1e200", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ultraspherical parameter requires nu <= MAX_NU = 1e+150\n"
        assert applies == [] and not out.exists()

    def test_dump_problem(self, tmp_path):
        prefix = str(tmp_path / "deriv2")
        code = main(
            ["solve", "--problem", "deriv2", "--max-iter", "5", "--dump-problem", prefix]
        )
        assert code == EXIT_MAX_ITER
        g = np.loadtxt(prefix + "_g_noisy.csv")
        m = np.loadtxt(prefix + "_matrix.csv", delimiter=",")
        assert g.shape == (50,) and m.shape == (50, 50)

    def test_dump_problem_builds_and_assembles_once(self, tmp_path, monkeypatch):
        calls = {"build_problem": 0, "deriv2_assemble": 0}

        def counted(name):
            fn = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, wrapper)

        counted("build_problem")
        counted("deriv2_assemble")
        prefix = str(tmp_path / "deriv2")
        code = main(
            ["solve", "--problem", "deriv2", "--max-iter", "5", "--dump-problem", prefix]
        )
        assert code == EXIT_MAX_ITER
        assert calls == {"build_problem": 1, "deriv2_assemble": 1}

    def test_dump_problem_of_diagonal_problem(self, tmp_path):
        prefix = str(tmp_path / "diag")
        code = main(
            ["solve", "--problem", "diag-last", "--max-iter", "5", "--dump-problem", prefix]
        )
        assert code == EXIT_MAX_ITER
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["diag_g_clean.csv", "diag_g_noisy.csv"]
        problem = build_problem(spec_for("diag-last"))
        np.testing.assert_array_equal(np.loadtxt(prefix + "_g_noisy.csv"), problem.g)

    @pytest.mark.parametrize(
        "command", [["zeros", "--degree", "6"], ["sweep", "--problem", "diag-last"]]
    )
    def test_oversized_sweep_range_rejected(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*command, "--sweep", "0:1:1e-12", "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("error:") == 1
        assert not out.exists()

    def test_zeros_polynomial_kind(self, capsys):
        code = main(["zeros", "--nu", "1", "--kind", "polynomial", "--degree", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        zeros = [float(line.split(",")[1]) for line in out[1:]]
        assert len(zeros) == 4
        assert zeros[0] == pytest.approx(-zeros[-1], abs=1e-13)  # symmetric family

    def test_arithmetic_error_exit_code(self, capsys):
        # the scan path for lambda <= 0 cannot normalise: P_1100(1) underflows
        code = main(["zeros", "--nu", "1", "--kind", "symmetric", "--degree", "1100",
                     "--lambda=-1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "P_1100(1)" in err

    def test_checks_subcommand(self, capsys):
        assert main(["checks"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") >= 8

    def test_checks_subcommand_failing_check(self, capsys, monkeypatch):
        from codilated import checks

        # no deviation is below a bound of -inf, so the representation check fails
        table = [entry[:3] + (-math.inf,) + entry[4:] if entry[0] == "representation" else entry
                 for entry in checks.ALL_CHECKS]
        monkeypatch.setattr(checks, "ALL_CHECKS", table)
        assert main(["checks"]) == EXIT_CONFIG
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == [f"{entry[0]}:" for entry in table]
        assert lines[1].startswith("FAIL  representation: max rel deviation ")
        assert all(line.startswith("PASS  ") for i, line in enumerate(lines) if i != 1)

    def test_checks_nan_deviation_fails(self, monkeypatch):
        from codilated import checks

        # at x = 0, a zero of P_1, the m = 2 relative deviation is 0/0, after finite m = 1 ones
        with np.errstate(invalid="ignore"):
            worst = checks.determinant_deviation((1.0,), (1, 2), 3, np.array([0.0, 0.5]))
        assert math.isnan(worst) and not worst < 1e-10
        # a NaN margin after the first value compared: P*_2(1), then every largest zero
        evaluate, locate = checks.eval_monic, checks.find_zeros
        monkeypatch.setattr(checks, "eval_monic",
                            lambda s, d, n, x: math.nan if n == 2 else evaluate(s, d, n, x))
        assert math.isnan(checks.interior_zeros_excess((1.0,), 5, (), 0.05))
        monkeypatch.setattr(checks, "eval_monic", evaluate)
        monkeypatch.setattr(checks, "find_zeros", lambda s, d, k, n: locate(s, d, k, n)._replace(
            zeros=np.append(locate(s, d, k, n).zeros[:-1], math.nan)))
        assert math.isnan(checks.interior_zeros_excess((1.0,), 5, (10,), 0.05))
        assert math.isnan(checks.zero_monotonicity_excess((1.0,), (1,), (5,)))

    def test_checks_lost_zero_reads_inf(self, monkeypatch):
        from codilated import checks

        # L_1 = 0.6 puts the last dilation near 2.5 > 2 nu, where P*_25 loses a zero in [-1, 1]
        monkeypatch.setattr(checks, "limit_constant", lambda scheme, m: 0.6)
        assert checks.zero_monotonicity_excess((1.0,), (1,), (25,)) == math.inf

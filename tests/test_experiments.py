from dataclasses import replace

import numpy as np
import pytest

from codilated import experiments
from codilated.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_MAX_ITER, EXIT_OK, main
from codilated.experiments import (
    DEFAULT_SEED,
    PROBLEM_DEFAULTS,
    ExperimentSpec,
    _run_point,
    build_problem,
    run_experiment,
    run_sweep,
    table1_rows,
    write_report_csv,
    write_sweep_csv,
)
from codilated.solvers import Method, RelaxationWarning, SolverConfig, StopReason


def spec_for(problem, method=Method.CODILATED_NU, **config_kw):
    _, omega, eps, tau = PROBLEM_DEFAULTS[problem]
    config_kw.setdefault("omega", omega)
    config_kw.setdefault("epsilon", eps)
    config_kw.setdefault("tau", tau)
    return ExperimentSpec(problem=problem, config=SolverConfig(method=method, **config_kw))


class TestProblemConstruction:
    def test_defaults_match_reference_setup(self):
        assert PROBLEM_DEFAULTS["diag-last"] == (100, 1.0, 0.01, 4.0)
        assert PROBLEM_DEFAULTS["diag-second"] == (100, 1.0, 0.01, 4.0)
        assert PROBLEM_DEFAULTS["deriv2"] == (50, 96.5, 0.01, 4.0)

    def test_diag_problems(self):
        noisy = build_problem(spec_for("diag-last"))
        assert noisy.operator.domain_dim == 100
        assert noisy.g_clean[-1] == 1.0 and np.count_nonzero(noisy.g_clean) == 1
        noisy2 = build_problem(spec_for("diag-second"))
        assert noisy2.g_clean[1] == 1.0 and np.count_nonzero(noisy2.g_clean) == 1

    def test_raw_noise_level_recorded(self):
        noisy = build_problem(spec_for("deriv2"))
        realised = np.linalg.norm(noisy.g_noisy - noisy.g_clean)
        assert noisy.epsilon == pytest.approx(realised, rel=1e-14)
        # raw draw: about eps * sqrt(N), nowhere near the nominal eps
        assert 0.04 <= realised <= 0.11

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="no-such-problem")

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="deriv2", sweep=(1.0, 2.0, -0.5))
        spec = ExperimentSpec(problem="deriv2", sweep=(1.0, 2.0, 0.5))
        assert spec.sweep_values() == [1.0, 1.5, 2.0]
        spec_list = ExperimentSpec(problem="deriv2", sweep=[1.9, 1.0])
        assert spec_list.sweep_values() == [1.9, 1.0]


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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
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
        spec = spec_for("diag-last")
        spec.sweep = [1.0, 1.5, 1.9, 1.99]
        rows = run_sweep(spec).rows
        counts = [r.iterations for r in rows]
        assert all(b <= a + 2 for a, b in zip(counts, counts[1:]))

    def test_critical_value_does_not_converge(self):
        spec = spec_for("diag-last", max_iter=2000)
        spec.config.method = Method.ASYMMETRIC_SI  # reaches lam = 2 exactly
        spec.sweep = [2.0]
        (row,) = run_sweep(spec).rows
        assert row.stop_reason in ("max-iter", "stagnation")

    def test_shuffled_list_equals_range(self, tmp_path):
        spec = spec_for("diag-last")
        spec.sweep = (1.0, 1.9, 0.3)
        ranged, shuffled = tmp_path / "r.csv", tmp_path / "s.csv"
        write_sweep_csv(ranged, run_sweep(spec))
        values = spec.sweep_values()
        spec.sweep = [values[k] for k in (2, 0, 3, 1)]
        write_sweep_csv(shuffled, run_sweep(spec))
        assert ranged.read_bytes() == shuffled.read_bytes()

    @pytest.mark.parametrize("method", [Method.CODILATED_NU, Method.CODILATED_ULTRASPHERICAL])
    @pytest.mark.parametrize("problem", ["deriv2", "diag-last", "diag-second"])
    def test_block_points_equal_point_runner(self, method, problem):
        # admissible points run as one block, 4.0 and 4.2 through the point runner
        spec = spec_for(problem, method, nu=2.0)
        spec.sweep = [3.9, 1.0, 4.0, 1.0, 4.2, 3.99, -0.5]
        noisy = build_problem(spec)
        rows = run_sweep(spec).rows
        assert [row.lam for row in rows] == sorted(spec.sweep)
        for row in rows:
            iterations, reason, final, _ = _run_point(noisy, replace(spec.config, lam=row.lam))
            assert (row.iterations, row.stop_reason) == (iterations, reason)
            assert repr(row.final_residual) == repr(final)
        assert [row.stop_reason for row in rows].count("error:inadmissible") == 2

    @pytest.mark.parametrize(
        "sweep, single_solves",
        [([1.0, 1.5, 1.9], 0), ([1.0, 1.5, 2.5], 1), ([1.5, 2.5], 2), ([1.5], 1)],
    )
    def test_block_needs_two_admissible_points(self, monkeypatch, sweep, single_solves):
        calls = []
        solve = experiments.solve
        monkeypatch.setattr(experiments, "solve", lambda *a: calls.append(a) or solve(*a))
        spec = spec_for("diag-last", nu=1.0)
        spec.sweep = sweep
        run_sweep(spec)
        assert len(calls) == single_solves

    def test_zero_curve_attachment(self):
        # smallest zero decreases towards the critical dilation, then the
        # reported in-interval root jumps to the second-smallest branch
        spec = spec_for("diag-last", max_iter=400)
        spec.sweep = [1.0, 1.5, 1.9, 2.0, 2.1, 2.2]
        spec.zero_degree = 150
        rows = run_sweep(spec).rows
        zeros = {r.lam: r.smallest_zero for r in rows}
        assert zeros[1.5] < zeros[1.0]
        assert zeros[1.9] < zeros[1.5]
        assert zeros[2.0] < zeros[1.9]
        assert zeros[2.2] > zeros[2.0]

    def test_failed_point_recorded_not_raised(self):
        spec = spec_for("diag-last", max_iter=50)
        spec.config.method = Method.GENERAL_SI  # scheme route raises beyond critical
        spec.sweep = [2.5]
        (row,) = run_sweep(spec).rows
        assert row.stop_reason == "error:DivergentNormalization"


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

    def test_landweber_opt_in_listed_last(self):
        rows = table1_rows(include_landweber=True)
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

    def test_config_error_exit_code(self, capsys):
        assert main(["solve", "--problem", "deriv2", "--tau", "0.5"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_solve_divergence_exit_code(self, capsys):
        with pytest.warns(RelaxationWarning):
            code = main(["solve", "--problem", "diag-last", "--omega", "50", "--max-iter", "3000"])
        assert code == EXIT_DIVERGENCE
        assert "stop=divergence" in capsys.readouterr().out

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

    def test_dump_problem(self, tmp_path):
        prefix = str(tmp_path / "deriv2")
        code = main(
            ["solve", "--problem", "deriv2", "--max-iter", "5", "--dump-problem", prefix]
        )
        assert code == EXIT_MAX_ITER
        g = np.loadtxt(prefix + "_g_noisy.csv")
        m = np.loadtxt(prefix + "_matrix.csv", delimiter=",")
        assert g.shape == (50,) and m.shape == (50, 50)

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

"""The package's records.  Every record is a NamedTuple; those that check
their values, ``SolverConfig`` and ``ExperimentSpec`` among them, do so through
``orthopoly._checked_record``, whose constructor ``_replace`` also runs.  No
package class is a dataclass, and importing the package does not load
``dataclasses``."""

import copy
import dataclasses
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import codilated
from codilated import checks, cli, experiments, operators, orthopoly, solvers, zeros
from codilated.experiments import ExperimentSpec, SweepRow, write_sweep_csv
from codilated.operators import (
    Deriv2Problem,
    NormEstimate,
    Problem,
    add_noise,
    diagonal_operator,
)
from codilated.orthopoly import (
    CoDilation,
    CriticalConstants,
    RecurrenceScheme,
    ResidualKind,
    UltrasphericalParams,
    chebyshev_u_scheme,
)
from codilated.solvers import IterationState, Method, SolveReport, SolverConfig
from codilated.zeros import MAX_DEGREE, ZeroReport

VALUE_RECORDS = (NormEstimate, Deriv2Problem, CriticalConstants, IterationState, ZeroReport,
                 SweepRow, SolveReport)
# the validating records, each built from valid values
CHECKED_RECORDS = {
    Problem: lambda: Problem(diagonal_operator([1.0, 0.5]), np.ones(2)),
    RecurrenceScheme: chebyshev_u_scheme,
    CoDilation: lambda: CoDilation(1, 1.5),
    UltrasphericalParams: lambda: UltrasphericalParams(1.0),
    SolverConfig: SolverConfig,
    ExperimentSpec: lambda: ExperimentSpec("diag-last", 20, sweep=[1.0, 1.5]),
}
SRC = Path(codilated.__file__).resolve().parents[1]
SYM = ResidualKind.SYMMETRIC


def package_classes():
    modules = (codilated, cli, experiments, operators, orthopoly, solvers, zeros, checks)
    return {cls for module in modules for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__.startswith("codilated")}


def test_no_package_class_is_a_dataclass():
    assert [cls for cls in package_classes() if dataclasses.is_dataclass(cls)] == []


def test_import_loads_neither_dataclasses_nor_checks():
    code = ("import sys, codilated, codilated.experiments, codilated.cli; "
            "print('dataclasses' in sys.modules, 'codilated.checks' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.split() == ["False", "False"]


def test_sweep_row_fields_in_csv_column_order(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [SweepRow(1.5, 7, "discrepancy", 0.25, 0.125)], None)
    header, row = path.read_text().splitlines()
    assert header.replace("lambda", "lam").split(",") == list(SweepRow._fields)
    assert row == "1.5,7,discrepancy,0.25,0.125"


def build(cls):
    return CHECKED_RECORDS[cls]() if cls in CHECKED_RECORDS else cls(*range(len(cls._fields)))


@pytest.mark.parametrize("cls", VALUE_RECORDS + tuple(CHECKED_RECORDS),
                         ids=lambda cls: cls.__name__)
def test_named_tuples_reject_attribute_assignment(cls):
    record = build(cls)
    assert isinstance(record, tuple) and type(record) is cls
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    with pytest.raises(AttributeError):
        record.extra = -1


def test_norm_estimate_positional():
    estimate = NormEstimate(0.5, False, 3)
    assert (estimate.value, estimate.converged, estimate.iterations) == (0.5, False, 3)
    assert estimate == (0.5, False, 3)


def test_solve_report_defaults_and_replace():
    report = SolveReport(3, "discrepancy", np.ones(4), np.zeros(2))
    assert (report.chosen_lambda, report.gamma_final) == (None, None)
    changed = report._replace(chosen_lambda=1.5)
    assert (changed.chosen_lambda, report.chosen_lambda) == (1.5, None)


@pytest.mark.parametrize("build_bad, message", [
    (lambda: Problem(diagonal_operator([1.0, 0.5]), np.ones(3)), "not a vector of the operator"),
    (lambda: Problem(diagonal_operator([1.0]), np.array([math.nan])), "data g must be finite"),
    (lambda: RecurrenceScheme(lambda n: 0.5 + 0 * n, lambda n: 0.25 + 0 * n, symmetric=True),
     "symmetric scheme requires alpha == 0"),
    (lambda: RecurrenceScheme(lambda n: 0 * n, lambda n: 0.0 * n), "must be finite and positive"),
    (lambda: CoDilation(0, 1.5), "dilation index m must be >= 1"),
    (lambda: CoDilation(1, math.inf), "dilation factor lam must be finite"),
    (lambda: UltrasphericalParams(-0.5), r"nu must be finite and > -0\.5"),
    (lambda: UltrasphericalParams(math.nan), "ultraspherical parameter nu must be finite"),
    # a real field takes an int, a float or a NumPy real scalar, stored as the float it denotes
    (lambda: CoDilation(1, "1.5"), "dilation factor lam must be real, not '1.5'"),
    (lambda: UltrasphericalParams("1.0"), "ultraspherical parameter nu must be real"),
    (lambda: UltrasphericalParams(True), "ultraspherical parameter nu must be real"),
    (lambda: SolverConfig(nu="1.0"), "nu and lam must be real"),
    (lambda: SolverConfig(lam=np.array(1.5)), "nu and lam must be real"),
    (lambda: SolverConfig(omega=True), "omega must be real, not True"),
    (lambda: SolverConfig(tau=4 + 0j), "tau must be real"),
    (lambda: SolverConfig(epsilon="0.01"), "epsilon must be real"),
    (lambda: add_noise([1.0], "0.01", 1), "epsilon must be real"),
    (lambda: add_noise([1.0], 0.01, True), "seed must be an integer, not True"),
    (lambda: add_noise([1.0], 0.01, 1.5), "seed must be an integer, not 1.5"),
    (lambda: add_noise([1.0], 0.0, -5), "seed must be >= 0"),  # checked where nothing is drawn
    (lambda: add_noise(np.ones((3, 1)), 0.01, 1),
     r"g_clean must be 1-D and nonempty, not of shape \(3, 1\)"),
    (lambda: ExperimentSpec("diag-last", sweep="1:2:0.5"), "sweep must be a"),
    (lambda: ExperimentSpec("diag-last", sweep={1.0: 2}), "sweep must be a"),
    (lambda: ExperimentSpec("diag-last", sweep=(1.0, "2", 0.5)), "sweep range must be real"),
    (lambda: ExperimentSpec("diag-last", sweep=[1.0, True]), "sweep values must be real"),
], ids=["problem-shape", "problem-nan", "scheme-symmetric", "scheme-beta", "dilation-m",
        "dilation-lam", "nu-bound", "nu-nan", "dilation-lam-str", "nu-str", "nu-bool",
        "config-nu-str", "config-lam-array", "config-omega-bool", "config-tau-complex",
        "config-epsilon-str", "noise-epsilon-str", "noise-seed-bool", "noise-seed-float",
        "noise-seed-negative-at-zero-epsilon", "noise-data-column", "sweep-str", "sweep-dict", "sweep-range-str",
        "sweep-list-bool"])
def test_checked_records_raise(build_bad, message):
    with pytest.raises(ValueError, match=message):
        build_bad()


@pytest.mark.parametrize("cls, change", [
    (Problem, {"g": np.ones(3)}),
    (RecurrenceScheme, {"alpha": lambda n: 0.5 + 0 * n}),
    (CoDilation, {"m": 0}),
    (UltrasphericalParams, {"nu": -1.0}),
    (SolverConfig, {"epsilon": math.nan}),
    (ExperimentSpec, {"problem": "nosuch"}),
], ids=["Problem", "RecurrenceScheme", "CoDilation", "UltrasphericalParams", "SolverConfig",
        "ExperimentSpec"])
def test_replace_of_checked_record_checks(cls, change):
    record = build(cls)
    with pytest.raises(ValueError):
        record._replace(**change)


def test_checked_records_keep_their_constructors():
    assert CoDilation(m=2, lam=0.5) == CoDilation(2, 0.5) == (2, 0.5)
    assert repr(CoDilation(2, 0.5)) == "CoDilation(m=2, lam=0.5)"
    scheme = chebyshev_u_scheme()
    assert (scheme.symmetric, scheme.allow_zero_beta) == (True, False)
    assert scheme._replace(symmetric=False).symmetric is False
    assert UltrasphericalParams(nu=2.0).nu == 2.0
    # a real is stored as the float it denotes, so a float32 computes in binary64
    assert type(SolverConfig(omega=2).omega) is float


def test_real_fields_are_stored_as_floats():
    assert type(CoDilation(1, np.float32(1.5)).lam) is float
    assert type(UltrasphericalParams(np.int64(2)).nu) is float
    assert [type(lam) for lam in ExperimentSpec(sweep=[np.float16(1.5), 2]).sweep_values()] == [
        float, float]
    # an int beyond the floats is not finite, rather than an OverflowError at the solve
    with pytest.raises(ValueError, match="omega must be finite"):
        SolverConfig(omega=10**400)


@pytest.mark.parametrize("kwargs, message", [
    ({"method": "nosuch"}, "is not a valid Method"),
    ({"nu": math.nan}, "nu and lam must be finite"),
    ({"lam": math.inf}, "nu and lam must be finite"),
    ({"omega": -1.0}, "omega must be finite and > 0"),
    ({"tau": 1.0}, "tau must be finite and > 1"),
    ({"epsilon": -0.5}, "epsilon must be finite and >= 0"),
    ({"max_iter": -1}, "max_iter must be >= 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer"),
    ({"max_iter": True}, "max_iter must be an integer"),
])
def test_solver_config_checks_at_construction_and_replace(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**kwargs)
    with pytest.raises(ValueError, match=message):
        SolverConfig(nu=2.0)._replace(**kwargs)


def test_solver_config_replace_coerces():
    base = SolverConfig(nu=2.0, omega=0.5)
    changed = base._replace(method="landweber", lam=1.5)
    assert changed.method is Method.LANDWEBER
    assert changed == SolverConfig(Method.LANDWEBER, 2.0, 1.5, 0.5)
    assert base == SolverConfig(nu=2.0, omega=0.5)  # unchanged
    with pytest.raises(ValueError, match="unexpected field names"):
        base._replace(nosuch=1)


def test_solver_config_value_semantics():
    config = SolverConfig(method="cg", max_iter=7)
    assert config.method is Method.CG
    assert repr(config) == ("SolverConfig(method=<Method.CG: 'cg'>, nu=1.0, lam=1.0, "
                            "omega=1.0, tau=4.0, epsilon=0.0, max_iter=7)")
    assert config == SolverConfig(Method.CG, max_iter=7)
    assert config != SolverConfig(Method.CG)
    assert SolverConfig(max_iter=np.int64(7)).resolved_max_iter() == 7
    with pytest.raises(AttributeError):
        config.lam = 1.5
    with pytest.raises(AttributeError):
        config.lamda = 1.5
    assert hash(config) == hash(SolverConfig(Method.CG, max_iter=7))


def test_solver_config_fields_are_the_cli_config_options():
    option_fields = {field for _, field, _ in cli._OPTIONS.values()}
    # None: the output path, which the command line carries outside the spec
    assert option_fields - set(ExperimentSpec._fields) - {None} == set(SolverConfig._fields)
    assert cli._CONFIG_FIELDS == set(SolverConfig._fields)


@pytest.mark.parametrize("kwargs, message", [
    ({"problem": "nosuch"}, "unknown problem"),
    ({"zero_degree": 0}, "zero degree must be >= 1"),
    ({"zero_degree": MAX_DEGREE + 1}, f"zero degree must be <= {MAX_DEGREE}"),
    ({"sweep": (1.0, 0.5, 0.1)}, "sweep range must be finite"),
    ({"sweep": [1.0, math.nan]}, "sweep values must be finite"),
    ({"config": None}, "config must be a SolverConfig"),
    ({"config": {}}, "config must be a SolverConfig"),
    ({"seed": True}, "seed must be an integer"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": "7"}, "seed must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),  # also where epsilon = 0, as here, draws no noise
])
def test_experiment_spec_checks_at_construction_and_replace(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**kwargs)
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(problem="diag-last")._replace(**kwargs)


def test_experiment_spec_value_semantics():
    spec = ExperimentSpec("diag-last", 20, seed=3)
    assert spec.config == SolverConfig()
    assert spec == ExperimentSpec(problem="diag-last", n=20, config=SolverConfig(), seed=3)
    assert spec._replace(zero_degree=MAX_DEGREE).zero_degree == MAX_DEGREE
    assert repr(spec).startswith("ExperimentSpec(problem='diag-last', n=20, config=SolverConfig(")
    with pytest.raises(AttributeError):
        spec.sweep = [1.0, 1.5]
    assert spec._replace(sweep=[1.0, 1.5]).sweep_values() == [1.0, 1.5]


@pytest.mark.parametrize("cls", tuple(CHECKED_RECORDS), ids=lambda cls: cls.__name__)
def test_checked_records_are_plain_named_tuples(cls):
    assert cls.__bases__ == (tuple,)  # no private base between the record and tuple


@pytest.mark.parametrize("cls", tuple(CHECKED_RECORDS), ids=lambda cls: cls.__name__)
def test_checked_record_signatures_list_their_fields(cls):
    params = inspect.signature(cls).parameters
    assert list(params) == list(cls._fields)
    assert {name: p.default for name, p in params.items()
            if p.default is not p.empty} == cls._field_defaults


@pytest.mark.parametrize("cls", tuple(CHECKED_RECORDS), ids=lambda cls: cls.__name__)
def test_checked_records_survive_pickling_and_copies(cls):
    record = build(cls)
    copies = [copy.deepcopy(record), cls._make(record)]
    if cls not in (Problem, RecurrenceScheme):  # their functions are local, so not picklable
        copies.append(pickle.loads(pickle.dumps(record)))
        assert copies[-1] == record
    for copied in copies:
        assert type(copied) is cls
        assert [type(value) for value in copied] == [type(value) for value in record]


QUARTER = lambda n: 0.25 + 0 * n  # noqa: E731
ZERO = lambda n: 0 * n  # noqa: E731


@pytest.mark.parametrize("build_bad, message", [
    (lambda: RecurrenceScheme(ZERO, QUARTER, symmetric="no"), "symmetric must be a bool, not 'no'"),
    (lambda: RecurrenceScheme(ZERO, QUARTER, allow_zero_beta=1),
     "allow_zero_beta must be a bool, not 1"),
    (lambda: chebyshev_u_scheme()._replace(symmetric=None), "symmetric must be a bool, not None"),
    (lambda: zeros.modulus_of_convergence(chebyshev_u_scheme(), None, SYM, 3, 1.0,
                                          symmetric_weight="no"),
     "symmetric_weight must be a bool, not 'no'"),
    (lambda: experiments.table1_rows(include_landweber="no"),
     "include_landweber must be a bool, not 'no'"),
    (lambda: ExperimentSpec(problem=["x"]), r"unknown problem \['x'\]"),
    (lambda: ExperimentSpec()._replace(problem={"deriv2": 1}), "unknown problem {'deriv2': 1}"),
], ids=["scheme-symmetric-str", "scheme-allow-zero-beta-int", "scheme-replace-none",
        "modulus-weight-str", "table1-landweber-str", "spec-problem-list", "spec-problem-dict"])
def test_flags_and_problem_names_by_their_kind(build_bad, message):
    with pytest.raises(ValueError, match=message):
        build_bad()


def no_apply(x):
    raise AssertionError("an operator was applied before the arguments were read")


U = chebyshev_u_scheme()
UNAPPLIED = Problem(operators.LinearOperator(2, 2, no_apply, no_apply), np.ones(2))
DILATION_READERS = {
    "eval_monic": lambda d: orthopoly.eval_monic(U, d, 3, 0.5),
    "representation": lambda d: orthopoly.eval_codilated_via_representation(U, d, 3, 0.5),
    "residual_eval": lambda d: orthopoly.residual_eval(U, d, SYM, 3, 0.5),
    "mu_recursive": lambda d: orthopoly.mu_recursive(U, d, 3),
    "find_zeros": lambda d: zeros.find_zeros(U, d, SYM, 3),
    "modulus": lambda d: zeros.modulus_of_convergence(U, d, SYM, 3, 1.0),
    "semi_iterative": lambda d: solvers.semi_iterative(UNAPPLIED, U, d,
                                                       SolverConfig("general-si", omega=0.9)),
}


@pytest.mark.parametrize("dilation", [(1, 1.5), [1, 1.5], 1.5], ids=["tuple", "list", "float"])
@pytest.mark.parametrize("name", DILATION_READERS)
def test_dilations_by_their_kind(name, dilation):
    # read where it enters: before any evaluation, and before the norm estimate's applies
    with pytest.raises(ValueError, match=r"^dilation must be a CoDilation"):
        DILATION_READERS[name](dilation)


SCHEME_READERS = {
    "semi_iterative": lambda s: solvers.semi_iterative(UNAPPLIED, s, None,
                                                       SolverConfig("general-si", omega=0.9)),
    "eval_monic": lambda s: orthopoly.eval_monic(s, None, 3, 0.5),
    "residual_eval": lambda s: orthopoly.residual_eval(s, None, SYM, 3, 0.5),
    "find_zeros": lambda s: zeros.find_zeros(s, None, SYM, 3),
    "mu_recursive": lambda s: orthopoly.mu_recursive(s, None, 3),
    "numerator_scheme": lambda s: orthopoly.numerator_scheme(s, 1),
}
PARAMS_READERS = {
    "ultraspherical_beta": lambda q: orthopoly.ultraspherical_beta(q, 1),
    "ultraspherical_scheme": orthopoly.ultraspherical_scheme,
    "critical_constants": orthopoly.critical_constants,
    "mu_closed": lambda q: orthopoly.mu_closed(q, 1.5, 3),
    "sup_bound_codilated": lambda q: orthopoly.sup_bound_codilated(q, 1.5),
    "numerator_quotient_at_one": lambda q: orthopoly.numerator_quotient_at_one(q, 1),
    "limit_ratio": lambda q: orthopoly.limit_ratio(q, 1.5),
}

PROBLEM, CONFIG = "problem must be a Problem", "config must be a SolverConfig"
# (reader, message, an argument of another kind), by what is read where
SOLVE_ARGUMENT_READERS = {
    "solve-problem": (lambda p: solvers.solve(p, SolverConfig()), PROBLEM, (1, 2)),
    "solve-config": (lambda c: solvers.solve(UNAPPLIED, c), CONFIG, ("cg",)),
    "semi_iterative-problem": (
        lambda p: solvers.semi_iterative(p, U, None, SolverConfig("general-si")), PROBLEM, (1, 2)),
    "semi_iterative-config": (
        lambda c: solvers.semi_iterative(UNAPPLIED, U, None, c), CONFIG, ("general-si",)),
    "oracle_check-config": (lambda c: solvers.oracle_check([1.0], [1.0], c, 3), CONFIG, None),
    "solve_dilations-problem": (
        lambda p: solvers.solve_dilations(p, SolverConfig(), [1.0]), PROBLEM, (1, 2)),
    "solve_dilations-config": (lambda c: solvers.solve_dilations(UNAPPLIED, c, [1.0]), CONFIG,
                               SolverConfig()._asdict()),
    "problem-operator": (lambda o: Problem(o, np.ones(2)), "operator must be a LinearOperator",
                         "x"),
}


@pytest.mark.parametrize("read, what, bad", [
    *((read, "scheme must be a RecurrenceScheme", (0.0, 0.25)) for read in SCHEME_READERS.values()),
    *((read, "params must be a UltrasphericalParams", 1.5) for read in PARAMS_READERS.values()),
    *SOLVE_ARGUMENT_READERS.values(),
], ids=[*SCHEME_READERS, *PARAMS_READERS, *SOLVE_ARGUMENT_READERS])
def test_schemes_and_params_by_their_kind(read, what, bad):
    # read where they enter, so before the norm estimate's applies (UNAPPLIED raises on one)
    with pytest.raises(ValueError, match=rf"^{what}, not {re.escape(repr(bad))}$"):
        read(bad)


def test_representation_reads_its_degree_and_dilation():
    with pytest.raises(ValueError, match="degree must be an integer, not None"):
        orthopoly.eval_codilated_via_representation(U, CoDilation(1, 1.5), None, 0.5)
    with pytest.raises(ValueError, match="dilation must be a CoDilation, not None"):
        orthopoly.eval_codilated_via_representation(U, None, 3, 0.5)


def test_flags_are_stored_as_bools():
    scheme = RecurrenceScheme(ZERO, QUARTER, symmetric=np.bool_(True),
                              allow_zero_beta=np.bool_(False))
    assert (scheme.symmetric, scheme.allow_zero_beta) == (True, False)
    assert [type(flag) for flag in scheme[2:]] == [bool, bool]

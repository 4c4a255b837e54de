"""The split of the package's records: value carriers are NamedTuples,
records that validate, mutate or go through ``dataclasses.replace`` stay
dataclasses."""

import dataclasses
import inspect

import pytest

import codilated
from codilated import cli, experiments, operators, orthopoly, solvers, zeros
from codilated.experiments import SweepResult, SweepRow, write_sweep_csv
from codilated.operators import Deriv2Problem, NoisyProblem, NormEstimate
from codilated.orthopoly import CriticalConstants
from codilated.solvers import IterationState
from codilated.zeros import ZeroReport

DATACLASSES = {"Problem", "RecurrenceScheme", "CoDilation", "UltrasphericalParams",
               "SolverConfig", "SolveReport", "ExperimentSpec"}
NAMED_TUPLES = (NormEstimate, NoisyProblem, Deriv2Problem, CriticalConstants, IterationState,
                ZeroReport, SweepRow, SweepResult)


def package_classes():
    modules = (codilated, cli, experiments, operators, orthopoly, solvers, zeros,
               codilated.checks)
    return {cls for module in modules for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__.startswith("codilated")}


def test_dataclasses_are_exactly_the_validating_records():
    found = {cls.__name__ for cls in package_classes() if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


def test_sweep_row_fields_in_csv_column_order(tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, SweepResult([SweepRow(1.5, 7, "discrepancy", 0.25, 0.125)], None))
    header, row = path.read_text().splitlines()
    assert header.replace("lambda", "lam").split(",") == list(SweepRow._fields)
    assert row == "1.5,7,discrepancy,0.25,0.125"


@pytest.mark.parametrize("cls", NAMED_TUPLES, ids=lambda cls: cls.__name__)
def test_named_tuples_reject_attribute_assignment(cls):
    record = cls(*range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    with pytest.raises(AttributeError):
        record.extra = -1


def test_norm_estimate_positional():
    estimate = NormEstimate(0.5, False, 3)
    assert (estimate.value, estimate.converged, estimate.iterations) == (0.5, False, 3)
    assert estimate == (0.5, False, 3)

"""Spans around the public calls into each codilated layer, from outside.

No source file is edited: the tracer replaces module attributes (the names
the calling layer looks up) with wrappers and restores them afterwards.

* A span records its name, start, end, parent and the id of the workload
  execution it belongs to.  Spans are kept in memory and written as JSON
  lines when the benchmark ends.
* Per-call work that happens hundreds of thousands of times (operator
  applications, residual-polynomial evaluations) is not a span: it adds a
  call count, a busy time and, for evaluations, a point count to the
  enclosing span.
* A layer's self time is the duration of its spans minus their child spans
  and minus the busy time of aggregated calls into other layers; the
  aggregated busy time is the self time of the layer that was called.
  Layer self times therefore add up to the ``cli.main`` wall time.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "experiments", "solvers", "operators", "orthopoly", "zeros")
STOP_REASONS = ("discrepancy", "max-iter", "stagnation", "breakdown")
ASSEMBLY = ("operators.deriv2_assemble", "operators.matrix_operator",
            "operators.diagonal_operator", "operators.add_noise")
CSV_WRITERS = ("experiments.write_report_csv", "experiments.write_sweep_csv",
               "experiments.write_table_csv")

# per-layer metrics of one traced execution: name -> (unit, better)
LAYER_METRICS = {
    "operators.matvec_calls": ("count", "lower"),
    "operators.rmatvec_calls": ("count", "lower"),
    "operators.apply_s": ("s", "lower"),
    "operators.self_s": ("s", "lower"),
    "operators.norm_estimate_s": ("s", "lower"),
    "operators.norm_estimate_iters": ("count", "lower"),
    "operators.norm_estimate_converged": ("frac", "higher"),
    "operators.assemble_s": ("s", "lower"),
    "solvers.solves": ("count", "higher"),
    "solvers.iterations": ("count", "lower"),
    "solvers.self_s": ("s", "lower"),
    "solvers.self_us_per_step": ("us", "lower"),
    "solvers.stop.discrepancy": ("count", "higher"),
    **{f"solvers.stop.{reason}": ("count", "lower") for reason in STOP_REASONS[1:]},
    "solvers.rejected": ("count", "lower"),
    "solvers.errors": ("count", "lower"),
    "orthopoly.residual_eval_calls": ("count", "lower"),
    "orthopoly.residual_eval_points": ("count", "lower"),
    "orthopoly.residual_eval_s": ("s", "lower"),
    "zeros.find_zeros_calls": ("count", "higher"),
    "zeros.roots_found": ("count", "higher"),
    "zeros.self_s": ("s", "lower"),
    "zeros.points_per_root": ("points/root", "lower"),
    "experiments.build_problem_s": ("s", "lower"),
    "experiments.sweep_points": ("count", "higher"),
    "experiments.self_s": ("s", "lower"),
    "experiments.csv_bytes": ("bytes", "lower"),
    "experiments.csv_write_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
}


class Span:
    __slots__ = ("name", "run", "parent", "start", "end", "attrs", "calls", "child_s")

    def __init__(self, name, run, parent, start):
        self.name = name
        self.run = run
        self.parent = parent
        self.start = start
        self.end = start
        self.attrs = {}
        self.calls = {}  # aggregated call key -> [count, busy seconds, points]
        self.child_s = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = None
        self._stack: list[Span] = []
        self._epoch = time.perf_counter()

    def call(self, name, fn, *args, annotate=None, **kwargs):
        """Run fn inside a span; ``annotate(result)`` adds attributes."""
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.run, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                span.attrs.update(annotate(result))
            return result
        except Exception as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start

    def spanned(self, name, fn, annotate=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, annotate=annotate, **kwargs)
        return wrapper

    def counted(self, key, fn, points=None):
        """Wrap fn so each call adds to the enclosing span's aggregate."""
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args):
            t0 = clock()
            out = fn(*args)
            busy = clock() - t0
            calls = stack[-1].calls
            rec = calls.get(key)
            if rec is None:
                rec = calls[key] = [0, 0.0, 0]
            rec[0] += 1
            rec[1] += busy
            if points is not None:
                rec[2] += points(args)
            return out
        return wrapper

    def targets(self, pkg):
        """(owner, attribute, wrapper) triples covering every layer boundary
        the workloads cross.  Wrappers are built around the current
        attributes, so they compose with other wrappers already in place."""
        cli, experiments, operators, zeros = pkg.cli, pkg.experiments, pkg.operators, pkg.zeros
        out = []

        def span(owner, attr, name, annotate=None):
            out.append((owner, attr, self.spanned(name, getattr(owner, attr), annotate)))

        for attr in ("run_experiment", "run_sweep", "table1_rows",
                     "write_report_csv", "write_sweep_csv", "write_table_csv"):
            span(cli, attr, f"experiments.{attr}")
        span(experiments, "build_problem", "experiments.build_problem")
        for attr in ("deriv2_assemble", "diagonal_operator", "add_noise"):
            span(experiments, attr, f"operators.{attr}")
        span(operators, "matrix_operator", "operators.matrix_operator")
        span(operators, "operator_norm_sq", "operators.operator_norm_sq",
             lambda est: {"iterations": est.iterations, "converged": bool(est.converged)})
        span(experiments, "solve", "solvers.solve",
             lambda rep: {"iterations": rep.iterations, "stop": rep.stop_reason.value})
        span(experiments, "find_zeros", "zeros.find_zeros", lambda rep: {"roots": int(rep.zeros.size)})
        op_cls = operators.LinearOperator
        out.append((op_cls, "matvec", self.counted("operators.matvec", op_cls.matvec)))
        out.append((op_cls, "rmatvec", self.counted("operators.rmatvec", op_cls.rmatvec)))
        out.append((zeros, "residual_eval", self.counted(
            "orthopoly.residual_eval", zeros.residual_eval, points=lambda args: np.size(args[4]))))
        return out

    def write(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "run": span.run,
                    "parent": index[id(span.parent)] if span.parent is not None else None,
                    "name": span.name,
                    "start": span.start - self._epoch,
                    "end": span.end - self._epoch,
                    "attrs": span.attrs,
                    "calls": span.calls,
                }) + "\n")


@contextmanager
def patched(targets):
    """Set each owner.attribute to its replacement; restore on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for owner, attr, replacement in targets:
        setattr(owner, attr, replacement)
    try:
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_self_times(spans) -> dict:
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        busy = 0.0
        for key, (_, call_busy, _) in span.calls.items():
            self_s[key.split(".", 1)[0]] += call_busy
            busy += call_busy
        self_s[span.layer] += span.duration - span.child_s - busy
    return self_s


def execution_metrics(spans, csv_bytes) -> dict:
    """Per-layer metrics of one traced execution (the spans of one run id)."""
    calls = {}
    for span in spans:
        for key, rec in span.calls.items():
            tot = calls.setdefault(key, [0, 0.0, 0])
            for k in range(3):
                tot[k] += rec[k]

    def named(name):
        return [s for s in spans if s.name == name]

    def total(names):
        return sum(s.duration for s in spans if s.name in names)

    zero = [0, 0.0, 0]
    matvec, rmatvec = calls.get("operators.matvec", zero), calls.get("operators.rmatvec", zero)
    evals = calls.get("orthopoly.residual_eval", zero)
    self_s = layer_self_times(spans)
    norms = named("operators.operator_norm_sq")
    solves = named("solvers.solve")
    done = [s for s in solves if "error" not in s.attrs]
    iterations = sum(s.attrs["iterations"] for s in done)
    roots = sum(s.attrs.get("roots", 0) for s in named("zeros.find_zeros"))
    root = next(s for s in spans if s.parent is None)
    metrics = {
        "operators.matvec_calls": matvec[0],
        "operators.rmatvec_calls": rmatvec[0],
        "operators.apply_s": matvec[1] + rmatvec[1],
        "operators.self_s": self_s["operators"],
        "operators.norm_estimate_s": total(("operators.operator_norm_sq",)),
        "operators.norm_estimate_iters": sum(s.attrs.get("iterations", 0) for s in norms),
        "operators.norm_estimate_converged":
            sum(bool(s.attrs.get("converged")) for s in norms) / len(norms) if norms else 0.0,
        "operators.assemble_s": total(ASSEMBLY),
        "solvers.solves": len(solves),
        "solvers.iterations": iterations,
        "solvers.self_s": self_s["solvers"],
        "solvers.self_us_per_step": 1e6 * self_s["solvers"] / iterations if iterations else 0.0,
        **{f"solvers.stop.{r}": sum(s.attrs["stop"] == r for s in done) for r in STOP_REASONS},
        "solvers.rejected": sum(s.attrs.get("error") == "ValueError" for s in solves),
        "solvers.errors": sum(s.attrs.get("error") not in (None, "ValueError") for s in solves),
        "orthopoly.residual_eval_calls": evals[0],
        "orthopoly.residual_eval_points": evals[2],
        "orthopoly.residual_eval_s": evals[1],
        "zeros.find_zeros_calls": len(named("zeros.find_zeros")),
        "zeros.roots_found": roots,
        "zeros.self_s": self_s["zeros"],
        "zeros.points_per_root": evals[2] / roots if roots else 0.0,
        "experiments.build_problem_s": total(("experiments.build_problem",)),
        "experiments.sweep_points": sum(s.parent.name == "experiments.run_sweep" for s in solves),
        "experiments.self_s": self_s["experiments"],
        "experiments.csv_bytes": csv_bytes,
        "experiments.csv_write_s": total(CSV_WRITERS),
        "cli.self_s": self_s["cli"],
        "trace.wall_s": root.duration,
    }
    return metrics, self_s


def median_metrics(per_execution: list[dict]) -> dict:
    """Low median of each metric over executions: a measured value, so counts stay whole."""
    return {name: statistics.median_low([m[name] for m in per_execution]) for name in per_execution[0]}

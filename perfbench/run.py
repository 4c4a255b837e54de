"""Benchmark of the codilated command line, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare PARENT_DIR CHANGE_DIR
    python3 perfbench/run.py --smoke

A run drives one workload (workloads.py) in-process through
``codilated.cli.main``, the path a user takes, with ``--seed N`` passed on
as the workload seed.  The loop is closed, single process and serial: the
next execution starts when the previous one has returned and its output
CSV has been checked.  Executions repeat until ``--seconds`` are spent
(at least one).  BLAS threads are pinned to one in this process's
environment and recorded.

``--trace 0`` measures the end-to-end metrics with tracing off (the
reference clock of refclock.py runs throughout):

* ``wall_s``       one execution, from ``cli.main`` entry to the CSV written;
* ``steps_per_s``  solver iterations in the output CSV per second of wall;
* ``steps_per_ref`` the same per reference-kernel time (refclock.py), which
                   cancels swings in machine speed; gated, as it depends on
                   neither the seed nor the machine's momentary speed;
* ``ref_ms``       the reference-kernel time itself;
* ``setup_s``      import codilated, build the problem, estimate its norm,
                   each in a fresh interpreter (median of several), scaled
                   by a reference-import probe to a fixed import speed
                   (probe_setup.py); gated; the unscaled times are
                   printed too;
* ``peak_rss_mb``  peak resident memory of this process;
* ``failed_frac``  failed operations / attempted operations.

``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics of the traced ones (spans.py) plus
``trace.overhead_frac``, the median over adjacent pairs of traced over
untraced wall, minus 1.

Every metric is printed by name with its unit; the last line of standard
output is the JSON result.  A run record (machine, versions, work done,
samples, metrics) goes to ``perfbench/out/runs/`` and spans to
``perfbench/out/traces/``; ``--compare`` reads two directories of run
records.  ``--smoke`` runs every workload once per mode at the reference
seed and checks that every metric is reported with its unit and that the
output checks pass.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before NumPy loads its BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from datetime import datetime, timezone  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import compare  # noqa: E402
import spans  # noqa: E402
from refclock import RefClock  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS, Check, Taps  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# end-to-end metrics: name -> (unit, better); GATED are the ones in BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "steps_per_ref": ("1/ref", "higher"),
    "ref_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_frac": ("frac", "lower"),
}
GATED = ("steps_per_ref", "setup_s")
PER_LAYER = {**spans.LAYER_METRICS, "trace.overhead_frac": ("frac", "lower")}
SETUP_PROBES = 7
REFERENCE_IMPORT_S = 0.05  # nominal reference-import time that setup_s is scaled to


def import_codilated():
    sys.path.insert(0, str(SRC))
    try:
        import codilated
        import codilated.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import codilated from {SRC}: {exc}")
    if not Path(codilated.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: codilated imported from {codilated.__file__}, not from {SRC}")
    return codilated


def environment() -> dict:
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def _probe(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_probe(workload, seed) -> dict:
    """Set-up times of one fresh interpreter, between two reference-import
    probes (probe_setup.py); ``scaled_s`` is the set-up time at the import
    speed where the reference imports take REFERENCE_IMPORT_S."""
    before = _probe("reference")["reference_s"]
    sample = _probe(workload.problem, str(seed))
    sample["reference_s"] = (before + _probe("reference")["reference_s"]) / 2.0
    sample["scaled_s"] = sample["setup_s"] * REFERENCE_IMPORT_S / sample["reference_s"]
    return sample


def execute(pkg, workload, seed, csv_path, taps, tracer=None):
    """One execution: its start time, wall seconds, Check and output CSV size."""
    taps.reset()
    argv = workload.argv(seed, str(csv_path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = tracer.call("cli.main", pkg.cli.main, argv) if tracer else pkg.cli.main(argv)
            crash = None
        except Exception:
            rc, crash = None, traceback.format_exc()
        wall = time.perf_counter() - t0
    text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
    csv_path.unlink(missing_ok=True)  # a later execution must write its own
    if crash is not None:
        check = Check(workload.attempted)
        check.fail_all(f"cli.main raised:\n{crash}")
    else:
        try:
            check = workload.check(seed, rc, text, taps)
        except (ValueError, IndexError, KeyError) as exc:
            check = Check(workload.attempted)
            check.fail_all(f"malformed output CSV: {exc!r}")
        if rc != 0:
            check.problems.append(err.getvalue().strip())
    return t0, wall, check, len(text.encode())


def summary(values) -> dict:
    """Median, sample count and the highest percentile with >= 10 samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for pct in (99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
            break
    return out


def _untraced(pkg, workload, seed, seconds, probes, csv_path, taps):
    """Executions with tracing off, the reference clock running and the
    set-up probes spread evenly over the run."""
    walls, refs, checks, setup = [], [], [], []
    t_start = time.perf_counter()
    with RefClock() as clock:
        while True:
            while len(setup) < probes and time.perf_counter() - t_start >= len(setup) * seconds / probes:
                setup.append(setup_probe(workload, seed))
            t0, wall, check, _ = execute(pkg, workload, seed, csv_path, taps)
            ref, interrupted = clock.window(t0, t0 + wall)
            walls.append(wall - interrupted)
            refs.append(ref)
            checks.append(check)
            if time.perf_counter() - t_start + 0.5 * statistics.median(walls) >= seconds:
                break
    while len(setup) < probes:
        setup.append(setup_probe(workload, seed))
    return walls, refs, checks, setup


def _traced(pkg, workload, seed, seconds, csv_path, taps, tracer):
    """Pairs of one untraced and one traced execution, alternating which
    goes first; returns the pairs' walls, the checks and the traced
    executions' per-layer metrics and layer self times."""
    pairs, checks, layer_runs, layer_self = [], [], [], []
    t_start = time.perf_counter()
    for k in itertools.count():
        wall = {}
        for traced in ((False, True), (True, False))[k % 2]:
            if traced:
                tracer.run = f"{workload.name}-{seed}-{k}"
                first = len(tracer.spans)
                with spans.patched(tracer.targets(pkg)):
                    _, wall[traced], check, nbytes = execute(pkg, workload, seed, csv_path, taps, tracer)
                metrics, self_s = spans.execution_metrics(tracer.spans[first:], nbytes)
                layer_runs.append(metrics)
                layer_self.append(self_s)
            else:
                _, wall[traced], check, _ = execute(pkg, workload, seed, csv_path, taps)
            checks.append(check)
        pairs.append((wall[False], wall[True]))
        if time.perf_counter() - t_start + 0.5 * sum(pairs[-1]) >= seconds:
            return pairs, checks, layer_runs, layer_self


def measure(pkg, workload, seed, seconds, trace, probes=SETUP_PROBES) -> dict:
    started = datetime.now(timezone.utc)
    taps = Taps()
    tracer = spans.Tracer()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    t_start = time.perf_counter()
    try:
        with spans.patched(taps.targets(pkg.experiments)):
            if trace:
                pairs, checks, layer_runs, layer_self = _traced(
                    pkg, workload, seed, seconds, tmp / "out.csv", taps, tracer)
            else:
                walls, refs, checks, setup = _untraced(
                    pkg, workload, seed, seconds, probes, tmp / "out.csv", taps)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    elapsed = time.perf_counter() - t_start

    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    last = checks[-1]
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "started": started.isoformat(),
        "elapsed_s": elapsed,
        "environment": environment(),
        "executions": len(checks),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for c in checks for p in c.problems][:20],
        "work_per_execution": {
            "solves": last.solves,
            "iterations": last.steps,
            "zero_locations": last.zero_locations,
            "roots_found": last.roots,
            "sweep_points": last.sweep_points,
        },
    }
    metrics = {}

    def put(name, value, spec, **extra):
        unit, better = spec
        metrics[name] = {"value": value, "unit": unit, "better": better, **extra}

    if not trace:
        rates = [c.steps / w for c, w in zip(checks, walls)]
        ref_rates = [c.steps * r / w for c, w, r in zip(checks, walls, refs)]
        setup_s = [s["scaled_s"] for s in setup]
        put("wall_s", statistics.median(walls), END_TO_END["wall_s"], **summary(walls))
        put("steps_per_s", statistics.median(rates), END_TO_END["steps_per_s"], **summary(rates))
        put("steps_per_ref", statistics.median(ref_rates), END_TO_END["steps_per_ref"], **summary(ref_rates))
        put("ref_ms", 1e3 * statistics.median(refs), END_TO_END["ref_ms"], **summary([1e3 * r for r in refs]))
        put("setup_s", statistics.median(setup_s), END_TO_END["setup_s"], **summary(setup_s),
            **{f"unscaled_{part}": statistics.median(s[part] for s in setup)
               for part in ("setup_s", "import_s", "build_s", "norm_s", "reference_s")},
            norm_converged=all(s["norm_converged"] for s in setup))
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, END_TO_END["peak_rss_mb"])
        put("failed_frac", failed / attempted, END_TO_END["failed_frac"], failed=failed, attempted=attempted)
        record["samples"] = {"wall_s": walls, "ref_s": refs, "setup": setup}
    else:
        for name, value in spans.median_metrics(layer_runs).items():
            put(name, value, PER_LAYER[name])
        put("trace.overhead_frac", statistics.median(t / u for u, t in pairs) - 1.0,
            PER_LAYER["trace.overhead_frac"], pairs=len(pairs))
        record["work_per_execution"]["residual_eval_points"] = metrics["orthopoly.residual_eval_points"]["value"]
        record["layer_self_s"] = spans.median_metrics(layer_self)
        record["samples"] = {"untraced_traced_wall_s": pairs}
        (OUT / "traces").mkdir(exist_ok=True)
        tracer.write(OUT / "traces" / f"{workload.name}_seed{seed}_{started:%Y%m%dT%H%M%S}_{os.getpid()}.jsonl")
    record["metrics"] = metrics
    (OUT / "runs").mkdir(exist_ok=True)
    path = OUT / "runs" / f"{workload.name}_seed{seed}_trace{trace}_{started:%Y%m%dT%H%M%S}_{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))
    return record


def report(record) -> dict:
    """Print the run's metrics by name and return the JSON result object."""
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['executions']} executions in {record['elapsed_s']:.1f} s, "
          f"{record['attempted']} operations, {record['failed']} failed")
    print("  work per execution: " + ", ".join(f"{k}={v}" for k, v in record["work_per_execution"].items()))
    env = record["environment"]
    print(f"  git {env['git_sha']}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"{env['blas']}, BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}, src lines {env['src_lines']}")
    for problem in record["problems"]:
        print(f"  FAILED: {problem}")
    for name, m in record["metrics"].items():
        extra = ", ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}"
                          for k, v in m.items() if k not in ("value", "unit", "better"))
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']:<11} {('(' + extra + ')') if extra else ''}")
    if record["trace"]:
        wall = record["metrics"]["trace.wall_s"]["value"]
        print("  layer self time: " + ", ".join(
            f"{layer} {t:.4g} s ({t / wall:.1%})" for layer, t in record["layer_self_s"].items()))
    names = GATED if not record["trace"] else tuple(PER_LAYER)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n]["value"], "unit": record["metrics"][n]["unit"]}
                    for n in names},
    }


def smoke(pkg) -> int:
    """Each workload once per mode at the reference seed: every metric
    present with its unit, BENCHMARK.json in agreement, checks passing."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    errors = []
    if set(declared) != set(GATED) | set(PER_LAYER):
        errors.append(f"BENCHMARK.json metrics differ from {GATED} and the per-layer set")
    for name, (unit, _) in {**END_TO_END, **PER_LAYER}.items():
        if name in declared and declared[name] != unit:
            errors.append(f"BENCHMARK.json declares {name} in {declared[name]!r}, not {unit!r}")
    for workload in WORKLOADS.values():
        for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
            before = len(errors)
            record = measure(pkg, workload, REFERENCE_SEED, 0, trace, probes=1)
            result = report(record)
            label = f"{workload.name} trace {trace}"
            for name, (unit, _) in expected.items():
                if record["metrics"].get(name, {}).get("unit") != unit:
                    errors.append(f"{label}: metric {name} missing or without unit {unit}")
            if not result["correct"]:
                errors.append(f"{label}: {result['failed']} of {result['attempted']} operations failed")
            print(f"{'PASS' if len(errors) == before else 'FAIL'}  smoke {label}")
    for error in errors:
        print(f"FAIL  {error}")
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return compare.compare(*args.compare, {m["name"]: m["bound"] for m in spec["end_to_end"]})
    pkg = import_codilated()
    if args.smoke:
        return smoke(pkg)
    if args.workload is None:
        parser.error("--workload is required")
    result = report(measure(pkg, WORKLOADS[args.workload], args.seed, args.seconds, args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Set-up measurements, each in a fresh interpreter.

    python3 perfbench/probe_setup.py PROBLEM SEED   # the package's set-up
    python3 perfbench/probe_setup.py reference      # the import-speed reference

The set-up probe times ``import codilated``, building a workload's problem
(``experiments.build_problem``) and estimating its norm
(``operators.operator_norm_sq``).  The reference probe times importing a
fixed list of standard-library modules that neither NumPy nor the package
loads.  Set-up is import work, and on a 2-core x86-64 VM shared with other
tenants its time drifted by a third from one minute to the next while its
ratio to the reference imports stayed within 2 % (15-second medians).
NumPy is imported before either clock starts: it is a dependency whose
import time this repository does not control.  Each probe prints its
times as JSON.
"""

import importlib
import json
import sys
import time
from pathlib import Path

import numpy  # noqa: F401

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_MODULES = (
    "decimal", "sqlite3", "xml.etree.ElementTree", "email.message", "http.client",
    "csv", "fractions", "unittest", "tarfile", "difflib",
)


def reference() -> dict:
    loaded = [name for name in REFERENCE_MODULES if name in sys.modules]
    if loaded:
        raise SystemExit(f"reference modules already imported: {loaded}")
    t0 = time.perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return {"reference_s": time.perf_counter() - t0}


def setup(problem: str, seed: int) -> dict:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import codilated
    from codilated.experiments import ExperimentSpec, build_problem
    from codilated.operators import operator_norm_sq
    from codilated.solvers import SolverConfig

    t1 = time.perf_counter()
    if not Path(codilated.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"codilated imported from {codilated.__file__}, not from {SRC}")
    spec = ExperimentSpec(problem=problem, seed=seed, config=SolverConfig(epsilon=0.01))
    noisy = build_problem(spec)
    t2 = time.perf_counter()
    estimate = operator_norm_sq(noisy.operator)
    t3 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "build_s": t2 - t1,
        "norm_s": t3 - t2,
        "setup_s": t3 - t0,
        "norm_converged": bool(estimate.converged),
    }


if __name__ == "__main__":
    result = reference() if sys.argv[1:] == ["reference"] else setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(result))

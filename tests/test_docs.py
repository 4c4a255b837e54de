"""README's library example runs, and every public name resolves."""

import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import codilated

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["experiments", "operators", "orthopoly", "solvers", "zeros"]


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    lines = out.getvalue().splitlines()
    iterations, stop = lines[0].split()  # and the smallest zero on the second line
    assert int(iterations) > 0 and "discrepancy" in stop.lower() and len(lines) == 2


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"codilated.{name}")
    assert module.__all__, name
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_every_module_all():
    modules = [importlib.import_module(f"codilated.{name}")
               for name in ("operators", "orthopoly", "solvers", "zeros")]
    assert codilated.__all__ == [name for module in modules for name in module.__all__]
    for module in modules:
        assert all(getattr(codilated, name) is getattr(module, name) for name in module.__all__)
    restored = ["solve_dilations", "batchable", "DILATION_KINDS", "MAX_NU", "MAX_DEGREE"]
    assert all(hasattr(codilated, name) for name in restored)

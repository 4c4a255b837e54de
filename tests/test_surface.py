"""``tools/surface.py`` counts the public settable values as written by hand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "surface.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("surface", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_zeros_surface_matches_hand_count():
    # find_zeros 4 parameters, modulus_of_convergence 6 (symmetric_weight has a
    # default) and ZeroReport 3 fields; MAX_DEGREE, a constant, adds nothing
    assert load_tool().surface("zeros") == (13, 1)


def test_main_prints_totals(capsys):
    tool = load_tool()
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    values, options = (sum(tool.surface(name)[k] for name in tool.MODULES) for k in (0, 1))
    assert lines[-2].split() == ["total", str(values), str(options)]
    assert lines[-1] == f"src/ lines {tool.src_lines()}" and tool.src_lines() > 0

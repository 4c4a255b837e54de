"""``tools/surface.py`` counts the public settable values as written by hand."""

from conftest import load_tool


def test_zeros_surface_matches_hand_count():
    # find_zeros 4 parameters, modulus_of_convergence 6 (symmetric_weight has a
    # default) and ZeroReport 3 fields; MAX_DEGREE, a constant, adds nothing
    assert load_tool("surface").surface("zeros") == (13, 1)


def test_main_prints_totals(capsys):
    tool = load_tool("surface")
    tool.main()
    lines = capsys.readouterr().out.splitlines()
    values, options = (sum(tool.surface(name)[k] for name in tool.MODULES) for k in (0, 1))
    assert lines[-2].split() == ["total", str(values), str(options)]
    assert lines[-1] == f"src/ lines {tool.src_lines()}" and tool.src_lines() > 0


def test_package_totals_are_pinned():
    # a new public value or option must show in this line of its diff
    tool = load_tool("surface")
    assert tuple(sum(tool.surface(name)[k] for name in tool.MODULES) for k in (0, 1)) == (170, 28)

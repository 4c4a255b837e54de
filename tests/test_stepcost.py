"""``tools/stepcost.py`` in process at a small size: its plain loops must
replay every solve's residual history bit for bit, which the tool asserts."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "stepcost.py"


def test_plain_loops_replay_every_solve(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its src/
    spec = importlib.util.spec_from_file_location("stepcost", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--repeats", "1", "--landweber-steps", "50"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["method", "steps", "solve"]
    assert [row.split()[0] for row in rows] == [
        "landweber", "general-si", "asymmetric-si", "codilated-nu", "adaptive-codilated-one",
        "cg", "table1", "sweep-zeros"]
    assert rows[0].split()[1] == "50"

"""``tools/stepcost.py`` in process at a small size: its plain loops must
replay every solve's residual history bit for bit, which the tool asserts."""

import sys

from conftest import load_tool


def test_plain_loops_replay_every_solve(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends its src/
    assert load_tool("stepcost").main(["--repeats", "1", "--landweber-steps", "50"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["method", "steps", "solve"]
    assert [row.split()[0] for row in rows] == [
        "landweber", "general-si", "asymmetric-si", "codilated-nu", "adaptive-codilated-one",
        "cg", "table1", "sweep-zeros"]
    assert rows[0].split()[1] == "50"

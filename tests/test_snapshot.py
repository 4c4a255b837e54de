"""Every output byte of the runs of ``tools/snapshot.py``, against the committed
manifest ``snapshot_manifest.txt``.  A change that moves an output regenerates
the manifest (``python tools/snapshot.py --manifest tests/snapshot_manifest.txt``)
and says which runs moved and why."""

from pathlib import Path

import pytest
from conftest import load_tool

MANIFEST = Path(__file__).with_name("snapshot_manifest.txt")


def parse(text: str) -> dict[str, tuple[str, list[str]]]:
    """run/file -> ("size sha256", the lines of a stdout.txt, else [])."""
    entries = {}
    for line in text.splitlines():
        if line.startswith("| "):
            entries[name][1].append(line[2:])
        else:
            name, digest = line.split(" ", 1)
            entries[name] = (digest, [])
    return entries


def moved(want: dict, got: dict) -> list[str]:
    """One line per run/file that is missing, new or changed; a changed stdout.txt
    also shows its first differing line."""
    lines = [f"{name}: missing" for name in sorted(want.keys() - got.keys())]
    lines += [f"{name}: new" for name in sorted(got.keys() - want.keys())]
    for name in sorted(want.keys() & got.keys()):
        (want_digest, want_lines), (got_digest, got_lines) = want[name], got[name]
        if want_digest == got_digest:
            continue
        lines.append(f"{name}: {want_digest} -> {got_digest}")
        if name.endswith("/stdout.txt"):
            k = next((k for k, pair in enumerate(zip(want_lines, got_lines))
                      if pair[0] != pair[1]), min(len(want_lines), len(got_lines)))
            lines.append(f"  line {k + 1}: {want_lines[k:k + 1]} -> {got_lines[k:k + 1]}")
    return lines


# relaxation warnings go to standard error, which a snapshot does not record
@pytest.mark.filterwarnings("ignore")
def test_outputs_match_manifest(tmp_path):
    tool = load_tool("snapshot")
    tool.snapshot(tmp_path / "snap")
    report = moved(parse(MANIFEST.read_text(encoding="utf-8")),
                   parse(tool.manifest(tmp_path / "snap")))
    assert not report, "snapshot outputs moved:\n" + "\n".join(report)


def test_report_names_the_moved_file_and_line():
    want = parse("a/stdout.txt 4 x\n| one\n| two\nb/out.csv 1 y\nc/argv.txt 2 z\n")
    got = parse("a/stdout.txt 4 w\n| one\n| 2\nb/out.csv 1 y\nd/argv.txt 2 z\n")
    assert moved(want, got) == [
        "c/argv.txt: missing", "d/argv.txt: new", "a/stdout.txt: 4 x -> 4 w",
        "  line 2: ['two'] -> ['2']"]
    assert moved(want, want) == []

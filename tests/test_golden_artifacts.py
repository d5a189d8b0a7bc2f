"""Byte-for-byte pins on schedule artifacts.

The files under ``tests/golden/`` are the stall report
(``repro-asr inspect --seq 8 --arch {A1,A2,A3} --json``) and the
program listing with its A2 Gantt (``repro-asr program --seq 8 --arch
A2``).  They print cycles as floats, so a change in the schedule's
placement or in its number types shows up here.  After an intended
change, regenerate a file with the same command and review the diff.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (f"inspect_seq8_{arch}.json", ["inspect", "--seq", "8", "--arch", arch, "--json"])
    for arch in ("A1", "A2", "A3")
] + [("program_seq8_A2.txt", ["program", "--seq", "8", "--arch", "A2"])]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_artifact_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()

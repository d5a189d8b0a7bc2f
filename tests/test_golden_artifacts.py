"""Byte-for-byte pins on schedule artifacts.

The files under ``tests/golden/`` are the stall report
(``repro-asr inspect --seq 8 --arch {A1,A2,A3} --json``), the program
listing with its A2 Gantt (``repro-asr program --seq 8 --arch A2``),
the A4 search report (``repro-asr optimize --seq {8,32} --json``) and
the sha256 of a canonical per-op listing of the A4 winner program
(:func:`program_listing`).  They print cycles as floats, so a change in
the schedule's placement or in its number types shows up here.  After
an intended change, regenerate a file with the same command and review
the diff.  ``cli_defaults.json`` pins the CLI parser instead (see
``tests/test_cli.py``).
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.hw.dse import synthesize_a4

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    (f"inspect_seq8_{arch}.json", ["inspect", "--seq", "8", "--arch", arch, "--json"])
    for arch in ("A1", "A2", "A3")
] + [("program_seq8_A2.txt", ["program", "--seq", "8", "--arch", "A2"])] + [
    (f"optimize_seq{s}_A3.json", ["optimize", "--seq", str(s), "--json"])
    for s in (8, 32)
]


def program_listing(program) -> str:
    """One line per op ``(op_id, kind, label, engines, cycles, deps,
    inputs, block)``, then one per block with every ``BlockIR`` field,
    then the schedule params and pass names the program carries."""
    lines = []
    for op in program.ops:
        inputs = ",".join(f"{ref.kind}:{ref.key}" for ref in op.inputs)
        lines.append(
            f"op {op.op_id} {op.kind.value} {op.label} "
            f"[{','.join(op.engines)}] {op.cycles} "
            f"deps={','.join(map(str, op.deps))} in={inputs} block={op.block}"
        )
    for blk in program.blocks:
        lines.append(
            f"block {blk.label} ops={','.join(map(str, blk.op_ids))} "
            f"load={blk.load_cycles} hint={blk.channel_hint} "
            f"override={blk.overhead_override} group={blk.merge_group} "
            f"merged_load={blk.merged_load_cycles} bytes={blk.load_bytes}"
        )
    lines.append(f"schedule_params {program.meta.get('schedule_params')}")
    lines.append(f"passes {program.meta.get('passes')}")
    return "\n".join(lines) + "\n"


def listing_sha256(program) -> str:
    return hashlib.sha256(program_listing(program).encode()).hexdigest()


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_artifact_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("s", [8, 32])
def test_a4_program_listing_matches_golden(s):
    digest = listing_sha256(synthesize_a4(s=s).program)
    expected = (GOLDEN / f"a4_program_seq{s}_A3.sha256").read_text().split()[0]
    assert digest == expected

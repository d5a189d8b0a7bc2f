"""Byte-for-byte pins on the lowering itself.

``tests/golden/lowering_programs.sha256`` holds one sha256 per lowered
program of :data:`CASES`: the full pass over five lengths with and
without head waves, the encoder stack, the decode step at three prefix
lengths and the single-block and single-layer scopes, for the paper
model and a small one.  The digest covers every field of the program
(:func:`lowering_listing`): each op, block and output, the meta, and
the block and merge-group spans.  After an intended change to the
lowering, regenerate the file with

    PYTHONPATH=src:. python tests/test_hw_lowering_golden.py --write

and review why every changed digest changed.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from repro.config import ModelConfig
from repro.hw.kernels import Fabric
from repro.hw.program import LoweringSpec, lower
from tests.reference_lowering import lowering_listing

GOLDEN = Path(__file__).resolve().parent / "golden" / "lowering_programs.sha256"

MODELS = {
    "paper": ModelConfig(),
    "small": ModelConfig(
        d_model=64, num_heads=4, d_ff=96, num_encoders=3, num_decoders=2
    ),
}


def _cases() -> list[tuple[str, str, str, int, int | None, int | None]]:
    """(case id, model name, scope, s, t, parallel_heads)."""
    cases = []
    for name in MODELS:
        for s in (1, 8, 19, 32, 40):
            for ph in (None, 2):
                cases.append((name, "full_pass", s, None, ph))
        cases.append((name, "encoder_stack", 32, None, None))
        cases.append((name, "encoder_stack", 8, None, 2))
        for t in (1, 5, 20):
            cases.append((name, "decode_step", 32, t, None))
        cases.append((name, "decode_step", 8, 5, 2))
        for scope in ("mha", "ffn", "encoder_layer", "decoder_layer"):
            cases.append((name, scope, 8, None, None))
            cases.append((name, scope, 8, 3, 2))
    return [
        (f"{name}:{scope}:s={s}:t={t}:ph={ph}", name, scope, s, t, ph)
        for name, scope, s, t, ph in cases
    ]


CASES = _cases()


def lowering_sha256(case_id: str) -> str:
    _, name, scope, s, t, ph = next(c for c in CASES if c[0] == case_id)
    program = lower(LoweringSpec(scope, MODELS[name], Fabric(), s, t, ph))
    return hashlib.sha256(lowering_listing(program).encode()).hexdigest()


def _golden() -> dict[str, str]:
    digests = {}
    for line in GOLDEN.read_text().splitlines():
        digest, case_id = line.split(maxsplit=1)
        digests[case_id] = digest
    return digests


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case_id for case_id, *_ in CASES)


@pytest.mark.parametrize("case_id", [c[0] for c in CASES])
def test_lowering_matches_golden(case_id):
    assert lowering_sha256(case_id) == _golden()[case_id]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_hw_lowering_golden.py --write")
    GOLDEN.write_text(
        "".join(f"{lowering_sha256(c[0])}  {c[0]}\n" for c in CASES)
    )
    print(f"wrote {len(CASES)} digests to {GOLDEN}")

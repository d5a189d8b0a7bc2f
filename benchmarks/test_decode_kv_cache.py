"""KV-cached autoregressive decode vs a full-prefix decode loop.

The synthesized hardware always runs its padded ``hw_seq_len`` pass, so
a naive decode loop pays a full decoder-stack pass per emitted token.
The KV-cached path steps a 1-row query through the fabric instead;
this benchmark pins its two contracts:

* functional — greedy transcripts are byte-identical to the golden
  model's stateless full-prefix decode;
* cost — per-token fabric compute grows with the cached prefix but
  stays strictly below the full padded pass, and the whole cached
  decode is cheaper than ``steps x full pass``.
"""

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.config import ModelConfig
from repro.decoding.greedy import greedy_decode
from repro.hw.accelerator import TransformerAccelerator
from repro.model import Transformer
from repro.model.ops import log_softmax
from repro.model.params import init_transformer_params

HW_SEQ_LEN = 32
DECODE_TOKENS = 8


@pytest.fixture(scope="module")
def accel():
    cfg = ModelConfig(
        d_model=64,
        num_heads=2,
        d_ff=128,
        num_encoders=1,
        num_decoders=2,
        vocab_size=31,
    )
    return TransformerAccelerator(
        init_transformer_params(cfg, seed=5), hw_seq_len=HW_SEQ_LEN
    )


@pytest.fixture(scope="module")
def features(accel):
    rng = np.random.default_rng(41)
    return (
        0.5 * rng.standard_normal((HW_SEQ_LEN - 4, accel.config.d_model))
    ).astype(np.float32)


def run_cached_decode(accel, features):
    session = accel.decode_session(features)
    for step in range(DECODE_TOKENS):
        session.step(3 + step % 5)
    return session


def test_cached_step_compute(benchmark, accel, features):
    session = benchmark(run_cached_decode, accel, features)
    lm = accel.latency_model
    full_pass = sum(lm.decoder_compute_cycles(HW_SEQ_LEN))

    per_step = session.step_compute_cycles
    emit(
        "KV-cached decode: fabric compute per step (small config)",
        ["prefix length t", "cached step cycles", "full padded pass"],
        [[t + 1, c, full_pass] for t, c in enumerate(per_step)],
        float_fmt="{:.0f}",
    )
    # Per-token compute cycles strictly decrease as the prefix grows
    # shorter than hw_seq_len (equivalently: strictly increase in t)...
    assert all(b > a for a, b in zip(per_step, per_step[1:]))
    # ...and every step undercuts the padded full-prefix pass.
    assert max(per_step) < full_pass
    # Asymptotics: the whole cached decode (including the one-time
    # cross-attention K/V prefill) beats steps x full pass.
    cached_total = session.prefill_cycles + sum(per_step)
    assert cached_total < DECODE_TOKENS * full_pass


def test_greedy_transcripts_byte_identical(accel, features):
    session = accel.decode_session(features)
    model = Transformer(accel.params)

    def full_prefix_step(tokens):
        hidden = model.decode(tokens, session.memory)
        return log_softmax(model.output_logits(hidden[-1]), axis=-1)

    legacy = greedy_decode(
        full_prefix_step, sos_id=1, eos_id=2, max_len=HW_SEQ_LEN - 1
    )
    cached = greedy_decode(
        session.step_fn(), sos_id=1, eos_id=2, max_len=HW_SEQ_LEN - 1
    )
    assert legacy.tobytes() == cached.tobytes()


def test_modeled_autoregressive_account(benchmark, accel):
    report = benchmark(accel.autoregressive_report, DECODE_TOKENS)
    d = report.details
    emit(
        "KV-cached decode: scheduled latency account",
        ["metric", "value"],
        [
            ["tokens", d["decode_tokens"]],
            ["total cycles", d["decode_total_cycles"]],
            ["per-token cycles", d["decode_per_token_cycles"]],
            ["first step cycles", d["decode_first_step_cycles"]],
            ["last step cycles", d["decode_last_step_cycles"]],
            ["steady tokens/s", d["decode_steady_tokens_per_s"]],
            ["latency (ms)", report.latency_ms],
        ],
        float_fmt="{:.2f}",
    )
    assert d["decode_total_cycles"] == report.total_cycles
    assert d["decode_first_step_cycles"] < d["decode_last_step_cycles"]
    assert d["decode_steady_tokens_per_s"] > 0

"""Tests for block-level execution: MHA / FFN / encoder / decoder
programs on the fabric must agree numerically with the golden model,
and their block spans with the closed-form cycle sums."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw.controller import LatencyModel
from repro.hw.program import LoweringSpec, execute_program, lower
from repro.model.attention import attention_head, multi_head_attention
from repro.model.decoder import decoder_layer
from repro.model.encoder import encoder_layer
from repro.model.ffn import feed_forward
from repro.model.masks import causal_mask
from repro.model.params import init_transformer_params
from tests.reference_cycles import (
    add_norm_cycles,
    decoder_cycles,
    encoder_cycles,
    ffn_cycles,
)

PARAMS = init_transformer_params(seed=11)  # full 512-dim paper config
ENC = PARAMS.encoders[0]
DEC = PARAMS.decoders[0]

S = 12
RTOL = 5e-4
ATOL = 5e-4


@pytest.fixture(scope="module")
def x():
    return np.random.default_rng(1).standard_normal((S, 512)).astype(np.float32)


@pytest.fixture(scope="module")
def memory():
    return np.random.default_rng(2).standard_normal((S, 512)).astype(np.float32)


def _run_block(scope, fabric, root, inputs, s, t=None, parallel_heads=None):
    """Lower one block scope for the paper model and run it on ``root``."""
    program = lower(LoweringSpec(scope, ModelConfig(), fabric, s, t, parallel_heads))
    return execute_program(program, root=root, inputs=inputs)


def mha_block(fabric, x_q, x_kv, params, mask=None, parallel_heads=None):
    """(output, cycles) of one MHA block program."""
    run = _run_block(
        "mha", fabric, params, {"x_q": x_q, "x_kv": x_kv, "mask": mask},
        x_kv.shape[-2], x_q.shape[-2], parallel_heads,
    )
    return run.outputs["output"], run.block_compute_cycles["mha"]


def decoder_block(fabric, x, memory, params, self_mask=None):
    """The run of one decoder layer program (blocks ``dec1m``/``dec1f``)."""
    return _run_block(
        "decoder_layer", fabric, params,
        {"x": x, "memory": memory, "self_mask": self_mask},
        memory.shape[-2], x.shape[-2],
    )


def _head_output(fabric, x, params, head, mask=None):
    """One head's MM3 output inside a functional MHA block run."""
    model = ModelConfig(d_model=params.d_model, num_heads=params.num_heads)
    program = lower(LoweringSpec("mha", model, fabric, x.shape[-2]))
    run = execute_program(
        program, root=params, inputs={"x_q": x, "x_kv": x, "mask": mask}
    )
    (mm3,) = [op for op in program.ops if op.label == f"h{head}:MM3"]
    return run.values[mm3.op_id]


class TestAttentionHead:
    def test_matches_reference(self, fabric, x):
        hw = _head_output(fabric, x, ENC.mha, head=3)
        ref = attention_head(x, x, ENC.mha, head=3)
        np.testing.assert_allclose(hw, ref, rtol=RTOL, atol=ATOL)

    def test_masked_head_matches_reference(self, fabric, x):
        mask = causal_mask(S)
        hw = _head_output(fabric, x, DEC.self_mha, 0, mask=mask)
        ref = attention_head(x, x, DEC.self_mha, 0, mask=mask)
        np.testing.assert_allclose(hw, ref, rtol=RTOL, atol=ATOL)


class TestMhaBlock:
    def test_matches_reference(self, fabric, x):
        hw, _ = mha_block(fabric, x, x, ENC.mha)
        ref = multi_head_attention(x, x, ENC.mha)
        np.testing.assert_allclose(hw, ref, rtol=RTOL, atol=ATOL)

    def test_cross_attention_matches(self, fabric, x, memory):
        hw, _ = mha_block(fabric, x, memory, DEC.cross_mha)
        ref = multi_head_attention(x, memory, DEC.cross_mha)
        np.testing.assert_allclose(hw, ref, rtol=RTOL, atol=ATOL)

    def test_parallel_heads_same_output_different_cycles(self, fabric, x):
        full, full_cycles = mha_block(fabric, x, x, ENC.mha, parallel_heads=8)
        waves, wave_cycles = mha_block(fabric, x, x, ENC.mha, parallel_heads=2)
        np.testing.assert_array_equal(full, waves)
        assert wave_cycles != full_cycles

    def test_parallel_heads_validation(self, fabric, x):
        with pytest.raises(ValueError):
            mha_block(fabric, x, x, ENC.mha, parallel_heads=16)


class TestFfnBlock:
    def test_matches_reference(self, fabric, x):
        run = _run_block("ffn", fabric, ENC.ffn, {"x": x}, S)
        ref = feed_forward(x, ENC.ffn)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=RTOL, atol=2e-3)

    def test_cycles_match_estimator(self, fabric, x):
        run = _run_block("ffn", fabric, ENC.ffn, {"x": x}, S)
        assert run.block_compute_cycles["ffn"] == ffn_cycles(fabric, S, 512, 2048)


class TestAddNormBlock:
    def test_matches_reference(self, fabric, x):
        """Add-Norm1 of an encoder layer program: the residual add of
        the MHA output and the layer input, then the Norm, priced as
        the split add plus the norm."""
        from repro.model.layernorm import add_norm

        program = lower(LoweringSpec("encoder_layer", ModelConfig(), fabric, S))
        run = execute_program(program, root=ENC, inputs={"x": x})
        (an1,) = [op for op in program.ops if op.label == "Add-Norm1"]
        mha_out = run.values[an1.inputs[0].key]
        ref = add_norm(mha_out, x, ENC.norm1.weight, ENC.norm1.bias)
        np.testing.assert_allclose(run.values[an1.op_id], ref, rtol=RTOL, atol=ATOL)
        assert an1.cycles == add_norm_cycles(fabric, S, 512)


class TestEncoderBlock:
    def test_matches_reference(self, fabric, x):
        run = _run_block("encoder_layer", fabric, ENC, {"x": x}, S)
        ref = encoder_layer(x, ENC)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=1e-3, atol=2e-3)

    def test_cycles_match_estimator(self, fabric, x):
        run = _run_block("encoder_layer", fabric, ENC, {"x": x}, S)
        assert run.block_compute_cycles["enc1"] == encoder_cycles(
            fabric, S, 8, 512, 2048
        )


class TestDecoderBlock:
    def test_matches_reference(self, fabric, x, memory):
        run = decoder_block(fabric, x, memory, DEC, self_mask=causal_mask(S))
        ref = decoder_layer(x, memory, DEC)
        np.testing.assert_allclose(run.outputs["output"], ref, rtol=1e-3, atol=2e-3)

    def test_cycle_split_matches_estimator(self, fabric, x, memory):
        run = decoder_block(fabric, x, memory, DEC, self_mask=causal_mask(S))
        m, f = decoder_cycles(fabric, S, S, 8, 512, 2048)
        assert run.block_compute_cycles["dec1m"] == m
        assert run.block_compute_cycles["dec1f"] == f


def _span(fabric, scope, s, parallel_heads=None):
    """Block compute cycles of a paper-model block program."""
    program = lower(LoweringSpec(
        scope, ModelConfig(), fabric, s, parallel_heads=parallel_heads
    ))
    (span,) = program.block_spans.values()
    return span


class TestCycleEstimators:
    """The lowered programs' block spans behave as the paper says."""

    def test_ffn_roughly_double_mha(self, fabric):
        """Section 5.1.4: the FFN block consumes ~2x the MHA latency."""
        for s in (16, 32):
            ratio = _span(fabric, "ffn", s) / _span(fabric, "mha", s)
            assert 1.5 < ratio < 3.0

    def test_encoder_cycles_monotone_in_s(self, fabric):
        lm = LatencyModel()
        values = [lm.encoder_compute_cycles(s) for s in (4, 8, 16, 32)]
        assert values == sorted(values)

    def test_dse_latency_ordering(self, fabric):
        """Table 5.3: fewer parallel heads -> more latency."""
        lat = [_span(fabric, "mha", 32, parallel_heads=p) for p in (8, 4, 2, 1)]
        assert lat == sorted(lat)

    def test_decoder_mha_part_exceeds_encoder_mha(self, fabric):
        m, _ = LatencyModel().decoder_compute_cycles(16)
        assert m > _span(fabric, "mha", 16)

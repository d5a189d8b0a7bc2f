"""Tests for block-level execution: MHA / FFN / encoder / decoder on
the fabric must agree numerically with the golden model."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw.blocks import (
    add_norm_block,
    decoder_block,
    decoder_cycles,
    encoder_block,
    encoder_cycles,
    ffn_block,
    ffn_cycles,
    mha_block,
    mha_cycles,
)
from repro.hw.program import LoweringSpec, execute_program, lower
from repro.model.attention import attention_head, multi_head_attention
from repro.model.decoder import decoder_layer
from repro.model.encoder import encoder_layer
from repro.model.ffn import feed_forward
from repro.model.masks import causal_mask
from repro.model.params import init_transformer_params

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
        hw = mha_block(fabric, x, x, ENC.mha)
        ref = multi_head_attention(x, x, ENC.mha)
        np.testing.assert_allclose(hw.output, ref, rtol=RTOL, atol=ATOL)

    def test_cross_attention_matches(self, fabric, x, memory):
        hw = mha_block(fabric, x, memory, DEC.cross_mha)
        ref = multi_head_attention(x, memory, DEC.cross_mha)
        np.testing.assert_allclose(hw.output, ref, rtol=RTOL, atol=ATOL)

    def test_parallel_heads_same_output_different_cycles(self, fabric, x):
        full = mha_block(fabric, x, x, ENC.mha, parallel_heads=8)
        waves = mha_block(fabric, x, x, ENC.mha, parallel_heads=2)
        np.testing.assert_array_equal(full.output, waves.output)
        assert waves.cycles != full.cycles

    def test_parallel_heads_validation(self, fabric, x):
        with pytest.raises(ValueError):
            mha_block(fabric, x, x, ENC.mha, parallel_heads=16)


class TestFfnBlock:
    def test_matches_reference(self, fabric, x):
        hw = ffn_block(fabric, x, ENC.ffn)
        ref = feed_forward(x, ENC.ffn)
        np.testing.assert_allclose(hw.output, ref, rtol=RTOL, atol=2e-3)

    def test_cycles_match_estimator(self, fabric, x):
        hw = ffn_block(fabric, x, ENC.ffn)
        assert hw.cycles == ffn_cycles(fabric, S, 512, 2048)


class TestAddNormBlock:
    def test_matches_reference(self, fabric, x):
        from repro.model.layernorm import add_norm

        residual = (x * 0.5).astype(np.float32)
        hw = add_norm_block(fabric, x, residual, ENC.norm1.weight, ENC.norm1.bias)
        ref = add_norm(x, residual, ENC.norm1.weight, ENC.norm1.bias)
        np.testing.assert_allclose(hw.output, ref, rtol=RTOL, atol=ATOL)


class TestEncoderBlock:
    def test_matches_reference(self, fabric, x):
        hw = encoder_block(fabric, x, ENC)
        ref = encoder_layer(x, ENC)
        np.testing.assert_allclose(hw.output, ref, rtol=1e-3, atol=2e-3)

    def test_cycles_match_estimator(self, fabric, x):
        hw = encoder_block(fabric, x, ENC)
        assert hw.cycles == encoder_cycles(fabric, S, 8, 512, 2048)


class TestDecoderBlock:
    def test_matches_reference(self, fabric, x, memory):
        hw = decoder_block(fabric, x, memory, DEC, self_mask=causal_mask(S))
        ref = decoder_layer(x, memory, DEC)
        np.testing.assert_allclose(hw.output, ref, rtol=1e-3, atol=2e-3)

    def test_cycle_split_matches_estimator(self, fabric, x, memory):
        hw = decoder_block(fabric, x, memory, DEC, self_mask=causal_mask(S))
        m, f = decoder_cycles(fabric, S, S, 8, 512, 2048)
        assert hw.mha_cycles == m
        assert hw.ffn_cycles == f
        assert hw.cycles == m + f


class TestCycleEstimators:
    def test_ffn_roughly_double_mha(self, fabric):
        """Section 5.1.4: the FFN block consumes ~2x the MHA latency."""
        for s in (16, 32):
            mha = mha_cycles(fabric, s, s, 8, 512)
            ffn = ffn_cycles(fabric, s, 512, 2048)
            assert 1.5 < ffn / mha < 3.0

    def test_encoder_cycles_monotone_in_s(self, fabric):
        values = [encoder_cycles(fabric, s, 8, 512, 2048) for s in (4, 8, 16, 32)]
        assert values == sorted(values)

    def test_dse_latency_ordering(self, fabric):
        """Table 5.3: fewer parallel heads -> more latency."""
        lat = [
            mha_cycles(fabric, 32, 32, 8, 512, parallel_heads=p)
            for p in (8, 4, 2, 1)
        ]
        assert lat == sorted(lat)

    def test_decoder_mha_part_exceeds_encoder_mha(self, fabric):
        m, _ = decoder_cycles(fabric, 16, 16, 8, 512, 2048)
        assert m > mha_cycles(fabric, 16, 16, 8, 512)

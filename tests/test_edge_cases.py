"""Edge cases and failure injection across the stack: degenerate
inputs, non-finite values, boundary sequence lengths, minimal configs."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw.accelerator import TransformerAccelerator
from repro.hw.controller import LatencyModel
from repro.hw.kernels import Fabric, mm1_product, mm2_product
from repro.hw.scheduler import BlockWork, schedule_a1, schedule_a2, schedule_a3
from repro.model.params import init_transformer_params
from repro.model.transformer import Transformer


class TestDegenerateSequences:
    def test_sequence_length_one(self, small_params, rng):
        """s = 1: a single feature vector through the whole stack."""
        accel = TransformerAccelerator(small_params, hw_seq_len=4)
        ref = Transformer(small_params)
        feats = rng.standard_normal((1, 512)).astype(np.float32)
        toks = np.array([0])
        np.testing.assert_allclose(
            accel.forward(feats, toks).logits,
            ref.forward(feats, toks),
            rtol=2e-3,
            atol=2e-3,
        )

    def test_hw_seq_len_one(self, small_params, rng):
        accel = TransformerAccelerator(small_params, hw_seq_len=1)
        feats = rng.standard_normal((1, 512)).astype(np.float32)
        out = accel.forward(feats, np.array([0]))
        assert out.logits.shape == (1, small_params.config.vocab_size)

    def test_latency_model_s_equals_one(self):
        lm = LatencyModel()
        assert lm.latency_ms(1, "A3") > 0

    def test_full_hw_length_no_padding(self, small_params, rng):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        feats = rng.standard_normal((8, 512)).astype(np.float32)
        ref = Transformer(small_params)
        np.testing.assert_allclose(
            accel.forward(feats, np.array([0, 1])).logits,
            ref.forward(feats, np.array([0, 1])),
            rtol=2e-3,
            atol=2e-3,
        )


class TestNonFiniteInjection:
    """NaN/Inf corruption must propagate visibly, never silently
    produce plausible-looking numbers."""

    def test_nan_features_poison_logits(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        feats = np.zeros((4, 512), dtype=np.float32)
        feats[2, 100] = np.nan
        with np.errstate(invalid="ignore"):
            out = accel.forward(feats, np.array([0]))
        assert not np.all(np.isfinite(out.logits))

    def test_nan_weight_detected_in_kernel(self, fabric, rng):
        x = rng.standard_normal((4, 512)).astype(np.float32)
        w = rng.standard_normal((512, 64)).astype(np.float32)
        w[128, 3] = np.inf
        with np.errstate(invalid="ignore"):
            out = mm1_product(fabric, x, w)
        assert not np.all(np.isfinite(out))

    def test_softmax_survives_large_scores(self, fabric, rng):
        """Saturated (but finite) attention scores must not overflow."""
        q = np.full((4, 64), 50.0, dtype=np.float32)
        k = np.full((4, 64), 50.0, dtype=np.float32)
        scores = mm2_product(q, k)
        from repro.hw.nonlinear import scale_scores, softmax_unit

        weights = softmax_unit(scale_scores(scores, 64))
        assert np.all(np.isfinite(weights))
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-5)


class TestMinimalConfigs:
    def test_single_head_model(self, rng):
        cfg = ModelConfig(
            d_model=64, num_heads=1, d_ff=128, num_encoders=1,
            num_decoders=1, vocab_size=5,
        )
        params = init_transformer_params(cfg, seed=0)
        accel = TransformerAccelerator(params, hw_seq_len=4)
        ref = Transformer(params)
        feats = rng.standard_normal((3, 64)).astype(np.float32)
        toks = np.array([0, 2])
        np.testing.assert_allclose(
            accel.forward(feats, toks).logits,
            ref.forward(feats, toks),
            rtol=2e-3,
            atol=2e-3,
        )

    def test_encoder_only_model(self):
        lm = LatencyModel(model=ModelConfig(num_decoders=0))
        assert len(lm.build_blocks(8, "A3")) == 12
        assert lm.latency_ms(8, "A3") > 0

    def test_decoder_only_model(self):
        lm = LatencyModel(model=ModelConfig(num_encoders=0))
        blocks = lm.build_blocks(8, "A3")
        assert len(blocks) == 12  # 6 decoders x (m, f)
        assert lm.latency_ms(8, "A3") > 0

    def test_zero_layer_model_rejected_by_scheduler(self):
        lm = LatencyModel(
            model=ModelConfig(num_encoders=0, num_decoders=0)
        )
        with pytest.raises(ValueError):
            lm.latency_report(8, "A3")


class TestSchedulerEdges:
    def test_single_block(self):
        blocks = [BlockWork("only", 100, 50)]
        for fn in (schedule_a1, schedule_a2, schedule_a3):
            assert fn(blocks).total_cycles == 150

    def test_zero_load_blocks(self):
        blocks = [BlockWork(f"b{i}", 0, 50) for i in range(4)]
        assert schedule_a3(blocks).total_cycles == 200

    def test_zero_compute_blocks(self):
        blocks = [BlockWork(f"b{i}", 50, 0) for i in range(4)]
        # A3 with two channels: loads pair up.
        assert schedule_a3(blocks).total_cycles < schedule_a1(
            blocks
        ).total_cycles

    def test_wildly_heterogeneous_blocks(self):
        blocks = [
            BlockWork("tiny", 1, 1),
            BlockWork("huge_load", 10**9, 1),
            BlockWork("huge_compute", 1, 10**9),
        ]
        for fn in (schedule_a1, schedule_a2, schedule_a3):
            result = fn(blocks)
            result.timeline.validate_no_engine_overlap()
            assert result.total_cycles >= 10**9


class TestFrontendEdges:
    def test_silence_produces_floor_energies(self):
        from repro.frontend.features import LogMelFrontend

        fe = LogMelFrontend()
        feats = fe(np.zeros(16000))
        assert np.all(feats <= np.log(1e-10) + 1e-6)

    def test_full_scale_square_wave(self):
        from repro.frontend.features import LogMelFrontend

        fe = LogMelFrontend()
        t = np.arange(8000)
        wav = np.sign(np.sin(2 * np.pi * 440 * t / 16000))
        feats = fe(wav)
        assert np.all(np.isfinite(feats))

    def test_vocab_single_char_transcripts(self):
        from repro.decoding.vocab import CharVocabulary

        v = CharVocabulary()
        assert v.decode(v.encode("a")) == "a"
        assert v.decode([]) == ""

"""Edge cases and failure injection across the stack: degenerate
inputs, non-finite values, boundary sequence lengths, minimal configs."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw.accelerator import TransformerAccelerator
from repro.hw.controller import LatencyModel
from repro.hw.datapath import mm1_product, mm2_product
from repro.hw.kernels import Fabric
from repro.hw.scheduler import Architecture, BlockWork, schedule
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


class TestZeroRowFeatures:
    """Zero feature rows would decode against an all-masked memory; the
    accelerator's entry points and the golden encoder refuse them,
    naming the shape."""

    EMPTY = np.zeros((0, 512), dtype=np.float32)

    def test_accelerator_entry_points(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=4)
        good = np.ones((2, 512), dtype=np.float32)
        calls = [
            lambda: accel.decode_session(self.EMPTY),
            lambda: accel.forward(self.EMPTY, np.array([0])),
            lambda: accel.decode_sessions_batch([good, self.EMPTY]),
            lambda: accel.step_fn(self.EMPTY),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"n >= 1; got \(0, 512\)"):
                call()

    def test_golden_encoder(self, small_params):
        with pytest.raises(ValueError, match=r"s >= 1; got \(0, 512\)"):
            Transformer(small_params).encode(self.EMPTY)


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
        from repro.hw.datapath import scale_scores, softmax_unit

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
        for arch in Architecture:
            assert schedule(arch, blocks).total_cycles == 150

    def test_zero_load_blocks(self):
        blocks = [BlockWork(f"b{i}", 0, 50) for i in range(4)]
        assert schedule("A3", blocks).total_cycles == 200

    def test_zero_compute_blocks(self):
        blocks = [BlockWork(f"b{i}", 50, 0) for i in range(4)]
        # A3 with two channels: loads pair up.
        assert (
            schedule("A3", blocks).total_cycles
            < schedule("A1", blocks).total_cycles
        )

    def test_wildly_heterogeneous_blocks(self):
        blocks = [
            BlockWork("tiny", 1, 1),
            BlockWork("huge_load", 10**9, 1),
            BlockWork("huge_compute", 1, 10**9),
        ]
        for arch in Architecture:
            result = schedule(arch, blocks)
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


class TestServingRequestEdges:
    """The serving simulator refuses requests it cannot tell apart or
    place in virtual time, naming the bad value."""

    @pytest.mark.parametrize("arrivals", [(0.5, 0.5), (0.25, 0.75)])
    def test_duplicate_request_ids_rejected(self, arrivals):
        # Same arrival used to crash in heapq comparing records; distinct
        # arrivals used to run and fold into one request in the event log.
        from repro.serving import UtteranceRequest, simulate

        requests = [
            UtteranceRequest(request_id=7, arrival_s=t, decode_tokens=3)
            for t in arrivals
        ] + [UtteranceRequest(request_id=8, arrival_s=0.0, decode_tokens=3)]
        with pytest.raises(ValueError, match="duplicate request_id 7"):
            simulate(requests)

    @pytest.mark.parametrize("arrival_s", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_or_negative_arrival_rejected(self, arrival_s):
        from repro.serving import UtteranceRequest

        with pytest.raises(ValueError, match="arrival_s must be finite"):
            UtteranceRequest(request_id=0, arrival_s=arrival_s, decode_tokens=3)

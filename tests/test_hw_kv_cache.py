"""KV-cached hardware decode: equivalence against the golden model's
stateless full-prefix decode and its incremental decoder, plus unit
tests for the cache itself and the autoregressive latency account."""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.decoding.greedy import greedy_decode
from repro.hw.accelerator import TransformerAccelerator
from repro.hw.datapath import bias_unit
from repro.hw.datapath import mm1_product
from repro.hw.kernels import Fabric, mm1_cycles
from repro.hw.kv_cache import (
    DecoderKVCache,
    LayerKVCache,
    kv_stream_cycles,
    project_cross_kv,
)
from repro.model import Transformer
from repro.model.incremental import IncrementalDecoder
from repro.model.ops import log_softmax
from repro.model.params import init_transformer_params

SOS, EOS = 1, 2


@pytest.fixture(scope="module")
def eq_params():
    """Small but multi-layer/multi-head so every cache path is hit."""
    cfg = ModelConfig(
        d_model=64,
        num_heads=2,
        d_ff=128,
        num_encoders=1,
        num_decoders=2,
        vocab_size=31,
    )
    return init_transformer_params(cfg, seed=11)


def _features(hw_seq_len: int, padding: str, d_model: int) -> np.ndarray:
    s = hw_seq_len if padding == "exact" else hw_seq_len - 3
    rng = np.random.default_rng(100 + hw_seq_len)
    return (0.5 * rng.standard_normal((s, d_model))).astype(np.float32)


def _full_prefix_step(params, memory):
    """The golden model's stateless step: the whole prefix through the
    decoder stack, log-probs of the last position."""
    model = Transformer(params)

    def step(tokens):
        hidden = model.decode(tokens, memory)
        return log_softmax(model.output_logits(hidden[-1]), axis=-1)

    return step


@pytest.mark.parametrize("padding", ["padded", "exact"])
@pytest.mark.parametrize("hw_seq_len", [8, 16, 32])
class TestEngineEquivalence:
    """The KV-cached hw step, the golden full-prefix decode and the
    golden incremental decoder must agree token for token and log-prob
    for log-prob."""

    def test_step_log_probs_agree(self, eq_params, hw_seq_len, padding):
        accel = TransformerAccelerator(eq_params, hw_seq_len=hw_seq_len)
        features = _features(hw_seq_len, padding, eq_params.config.d_model)
        session = accel.decode_session(features)
        legacy = _full_prefix_step(eq_params, session.memory)
        cached = session.step_fn()
        reference = IncrementalDecoder(eq_params, session.memory).step_fn()

        # A scripted prefix guarantees several multi-token steps even
        # if greedy decoding would stop immediately.
        script = [SOS, 4, 9, 17, 5, 26]
        limit = min(len(script), hw_seq_len - 1)
        for n in range(1, limit + 1):
            prefix = np.asarray(script[:n], dtype=np.int64)
            lp_legacy = legacy(prefix)
            lp_cached = cached(prefix)
            lp_reference = reference(prefix)
            np.testing.assert_allclose(
                lp_cached, lp_legacy, atol=1e-5, rtol=0
            )
            np.testing.assert_allclose(
                lp_reference, lp_legacy, atol=1e-5, rtol=0
            )

    def test_greedy_tokens_identical(self, eq_params, hw_seq_len, padding):
        accel = TransformerAccelerator(eq_params, hw_seq_len=hw_seq_len)
        features = _features(hw_seq_len, padding, eq_params.config.d_model)
        max_len = hw_seq_len - 1
        session = accel.decode_session(features)
        legacy_tokens = greedy_decode(
            _full_prefix_step(eq_params, session.memory),
            sos_id=SOS, eos_id=EOS, max_len=max_len,
        )
        cached_tokens = greedy_decode(
            session.step_fn(), sos_id=SOS, eos_id=EOS, max_len=max_len
        )
        reference_tokens = greedy_decode(
            IncrementalDecoder(eq_params, session.memory).step_fn(),
            sos_id=SOS, eos_id=EOS, max_len=max_len,
        )
        np.testing.assert_array_equal(cached_tokens, legacy_tokens)
        np.testing.assert_array_equal(reference_tokens, legacy_tokens)


class TestKvStreamCycles:
    def test_one_flit_per_16_values(self):
        assert kv_stream_cycles(1, 64) == 4
        assert kv_stream_cycles(2, 64) == 8
        assert kv_stream_cycles(1, 17) == 2  # partial flit rounds up

    def test_zero_rows_free(self):
        assert kv_stream_cycles(0, 64) == 0

    def test_strictly_increasing_in_t(self):
        costs = [kv_stream_cycles(t, 64) for t in range(1, 33)]
        assert all(b > a for a, b in zip(costs, costs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            kv_stream_cycles(-1, 64)
        with pytest.raises(ValueError):
            kv_stream_cycles(1, 0)


class TestLayerCacheAppendValidation:
    """Regression: appends used to accept out-of-range head indices and
    mis-shaped rows silently (corrupting the banks or IndexError-ing
    later); they must fail fast with a clear message."""

    def test_out_of_order_head_rejected(self):
        cache = LayerKVCache()
        with pytest.raises(ValueError, match="appended in order"):
            cache.append_self_k(1, np.zeros((1, 4)))
        with pytest.raises(ValueError, match="appended in order"):
            cache.append_self_v(-1, np.zeros((1, 4)))

    def test_bad_row_shape_rejected(self):
        cache = LayerKVCache()
        with pytest.raises(ValueError, match=r"shape \(1, d_k\)"):
            cache.append_self_k(0, np.zeros(4))
        with pytest.raises(ValueError, match=r"shape \(1, d_k\)"):
            cache.append_self_v(0, np.zeros((2, 4)))

    def test_width_mismatch_rejected(self):
        cache = LayerKVCache()
        cache.append_self_k(0, np.zeros((1, 4)))
        with pytest.raises(ValueError, match="width"):
            cache.append_self_k(0, np.zeros((1, 5)))

    def test_valid_appends_accumulate(self):
        cache = LayerKVCache()
        cache.append_self(0, np.zeros((1, 4)), np.zeros((1, 4)))
        cache.append_self(0, np.ones((1, 4)), np.ones((1, 4)))
        cache.append_self(1, np.ones((1, 4)), np.ones((1, 4)))
        assert cache.self_k[0].shape == (2, 4)
        assert cache.self_v[1].shape == (1, 4)


class TestDecodeSession:
    @pytest.fixture(scope="class")
    def accel(self, eq_params):
        return TransformerAccelerator(eq_params, hw_seq_len=16)

    @pytest.fixture(scope="class")
    def features(self, eq_params):
        return _features(16, "padded", eq_params.config.d_model)

    def test_rewind_then_replay_is_exact(self, accel, features):
        session = accel.decode_session(features)
        first = [session.step(t).copy() for t in (SOS, 4, 9)]
        session.rewind(1)
        assert session.tokens == [SOS]
        assert session.cache.length == 1
        # Diverge, then come back: the replayed branch must reproduce
        # the original log-probs bit for bit (same kernels, same rows).
        session.step(7)
        session.rewind(1)
        replay = [session.step(t).copy() for t in (4, 9)]
        np.testing.assert_array_equal(replay[0], first[1])
        np.testing.assert_array_equal(replay[1], first[2])

    def test_step_fn_handles_repeated_prefix(self, accel, features):
        session = accel.decode_session(features)
        step = session.step_fn()
        prefix = np.array([SOS, 4, 9])
        out1 = step(prefix).copy()
        out2 = step(prefix)  # fully cached: must replay, not crash
        np.testing.assert_array_equal(out1, out2)

    def test_step_fn_rewinds_on_divergence(self, accel, features):
        session = accel.decode_session(features)
        step = session.step_fn()
        step(np.array([SOS, 4, 9]))
        out_branch = step(np.array([SOS, 4, 11])).copy()
        assert session.tokens == [SOS, 4, 11]
        fresh = accel.decode_session(features).step_fn()
        np.testing.assert_array_equal(
            out_branch, fresh(np.array([SOS, 4, 11]))
        )

    def test_step_compute_cycles_strictly_increase(self, accel, features):
        """Each extra cached row costs extra stream cycles, so per-step
        fabric compute grows strictly with the prefix length."""
        session = accel.decode_session(features)
        for t in [SOS, 4, 9, 17, 5]:
            session.step(t)
        cycles = session.step_compute_cycles
        assert len(cycles) == 5
        assert all(b > a for a, b in zip(cycles, cycles[1:]))

    def test_overflow_rejected(self, eq_params):
        accel = TransformerAccelerator(eq_params, hw_seq_len=8)
        session = accel.decode_session(
            _features(8, "padded", eq_params.config.d_model)
        )
        for t in range(8):
            session.step(3)
        with pytest.raises(ValueError, match="exceed"):
            session.step(3)

    def test_cache_rewind_validation(self, accel, features):
        session = accel.decode_session(features)
        session.step(SOS)
        with pytest.raises(ValueError):
            session.cache.rewind(5)
        with pytest.raises(ValueError):
            session.cache.rewind(-1)

    def test_decoder_step_shape_validation(self, accel, features):
        session = accel.decode_session(features)
        with pytest.raises(ValueError, match="must be"):
            accel.controller.run_decoder_step(
                np.zeros(3, dtype=np.float32), session.cache
            )


class TestAutoregressiveReport:
    @pytest.fixture(scope="class")
    def accel(self, eq_params):
        return TransformerAccelerator(eq_params, hw_seq_len=16)

    def test_details_round_trip(self, accel):
        report = accel.autoregressive_report(6)
        d = report.details
        assert d["decode_tokens"] == 6.0
        assert d["decode_total_cycles"] == report.total_cycles
        assert d["decode_per_token_cycles"] * 6 == pytest.approx(
            report.total_cycles
        )
        assert d["decode_first_step_cycles"] <= d["decode_last_step_cycles"]
        assert d["decode_steady_tokens_per_s"] > 0
        assert report.latency_ms > 0

    def test_later_steps_cost_more_compute(self, accel):
        lm = accel.latency_model
        per_step = [
            sum(lm.decoder_step_compute_cycles(t, accel.hw_seq_len))
            for t in range(1, accel.hw_seq_len + 1)
        ]
        assert all(b > a for a, b in zip(per_step, per_step[1:]))

    def test_total_grows_with_tokens(self, accel):
        totals = [
            accel.autoregressive_report(n).total_cycles for n in (1, 2, 4, 8)
        ]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_rejects_bad_token_count(self, accel):
        with pytest.raises(ValueError):
            accel.autoregressive_report(0)


class TestCrossKvPrefill:
    """The head-stacked cross-K/V projection against one MM1 kernel
    call per head and per K/V (its form before head stacking)."""

    @staticmethod
    def per_head(fabric, memory, attn):
        keys, values, cycles = [], [], 0
        for h in range(attn.num_heads):
            keys.append(bias_unit(mm1_product(fabric, memory, attn.wk[h]), attn.bk[h]))
            values.append(bias_unit(mm1_product(fabric, memory, attn.wv[h]), attn.bv[h]))
            s, d_k = keys[-1].shape
            mm1 = mm1_cycles(fabric, s, memory.shape[1], d_k)
            cycles += 2 * mm1 + 2 * fabric.units.bias_cycles(s, d_k)
        return keys, values, cycles

    @pytest.mark.parametrize("s", [1, 8, 32])
    def test_bit_identical_to_per_head_kernels(self, s):
        params = init_transformer_params(ModelConfig(num_encoders=1, num_decoders=2), seed=5)
        fabric = Fabric()
        memory = np.random.default_rng(s).standard_normal((s, 512)).astype(np.float32)
        attn = params.decoders[1].cross_mha
        keys, values, cycles = project_cross_kv(fabric, memory, attn)
        want_k, want_v, want_cycles = self.per_head(fabric, memory, attn)
        assert cycles == want_cycles
        # Keys and values come back head-stacked, (H, s, d_k) each.
        assert keys.shape == values.shape == (attn.num_heads, s, 64)
        for got, want in zip([*keys, *values], want_k + want_v, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_prefill_cycles_unchanged(self):
        params = init_transformer_params(ModelConfig(num_encoders=1, num_decoders=2), seed=5)
        fabric = Fabric()
        memory = np.zeros((32, 512), dtype=np.float32)
        cache = DecoderKVCache(fabric, params, memory)
        want = sum(
            self.per_head(fabric, memory, layer.cross_mha)[2] for layer in params.decoders
        )
        assert cache.prefill_cycles == want
        # Paper hardware, s = 32, two decoder layers of eight heads.
        assert cache.prefill_cycles == 3112896

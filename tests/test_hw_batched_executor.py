"""Batched functional executor: the leading batch dimension through
kernels, encoder prefill, KV-cached decode steps and the serving
executor must be bit-identical to the member-wise loops it replaces."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.hw.accelerator import TransformerAccelerator, step_sessions
from repro.hw.controller import AcceleratorController
from repro.hw.datapath import (
    mm1_product,
    mm2_product,
    mm3_product,
    mm4_product,
    mm5_product,
    mm6_product,
)
from repro.hw.kv_cache import batch_layer_caches
from repro.model.params import init_transformer_params
from repro.serving.request import UtteranceRequest
from repro.serving.scheduler import (
    ContinuousBatchingScheduler,
    FunctionalExecutor,
    ModeledExecutor,
    ServingConfig,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _f32(rng, *shape):
    return rng.normal(size=shape).astype(np.float32)


class TestBatchedKernels:
    """The MM1-MM6 products accept a leading batch axis; outputs must
    equal the member-wise 2-D calls bit for bit (the stacked matmul
    runs each member's own 2-D slice, so a 1-row member keeps its
    gemv)."""

    B = 3

    def test_mm1_batched_bit_identical(self, fabric):
        rng = _rng(1)
        x, w = _f32(rng, self.B, 4, 128), _f32(rng, 128, 32)
        got = mm1_product(fabric, x, w)
        for i in range(self.B):
            np.testing.assert_array_equal(got[i], mm1_product(fabric, x[i], w))

    def test_mm1_single_row_batch(self, fabric):
        """(B, 1, d) decode-step activations: per-member gemv results."""
        rng = _rng(2)
        x, w = _f32(rng, self.B, 1, 128), _f32(rng, 128, 32)
        got = mm1_product(fabric, x, w)
        for i in range(self.B):
            np.testing.assert_array_equal(got[i], mm1_product(fabric, x[i], w))

    def test_mm2_mm3_batched_member_wise(self, fabric):
        rng = _rng(3)
        q, k = _f32(rng, self.B, 4, 16), _f32(rng, self.B, 5, 16)
        scores = mm2_product(q, k)
        for i in range(self.B):
            np.testing.assert_array_equal(scores[i], mm2_product(q[i], k[i]))
        attn, v = _f32(rng, self.B, 4, 5), _f32(rng, self.B, 5, 16)
        ctx = mm3_product(attn, v)
        for i in range(self.B):
            np.testing.assert_array_equal(ctx[i], mm3_product(attn[i], v[i]))

    def test_mm2_rejects_mismatched_batch(self, fabric):
        rng = _rng(4)
        with pytest.raises(ValueError):
            mm2_product(_f32(rng, 2, 4, 16), _f32(rng, 3, 5, 16))

    @pytest.mark.parametrize("s", [1, 4])
    def test_mm4_batched_bit_identical(self, fabric, s):
        rng = _rng(5)
        heads = np.stack([_f32(rng, self.B, s, 16) for _ in range(2)])
        wo = _f32(rng, 32, 64)
        got = mm4_product(heads, wo)
        for i in range(self.B):
            np.testing.assert_array_equal(got[i], mm4_product(heads[:, i], wo))

    @pytest.mark.parametrize("s", [1, 4])
    def test_mm5_mm6_batched_bit_identical(self, fabric, s):
        rng = _rng(6)
        x, w1 = _f32(rng, self.B, s, 128), _f32(rng, 128, 256)
        h = mm5_product(x, w1)
        for i in range(self.B):
            np.testing.assert_array_equal(h[i], mm5_product(x[i], w1))
        w2 = _f32(rng, 256, 128)
        y = mm6_product(h, w2)
        for i in range(self.B):
            np.testing.assert_array_equal(y[i], mm6_product(h[i], w2))


class TestBatchedEncoderStack:
    def test_batched_prefill_bit_identical(self, small_params):
        ctrl = AcceleratorController(small_params)
        rng = _rng(7)
        xs = _f32(rng, 2, 6, small_params.config.d_model)
        batched, cycles_b = ctrl.run_encoder_stack(xs)
        for i in range(2):
            solo, cycles_s = ctrl.run_encoder_stack(xs[i])
            np.testing.assert_array_equal(batched[i], solo)
            # The per-block cycle model is static in the batch size:
            # one batched pass records the same per-step cycles.
            assert cycles_s == cycles_b


class TestBatchedDecodeStep:
    def _prefill(self, ctrl, rng, batch):
        d = ctrl.params.config.d_model
        memories = [ctrl.run_encoder_stack(_f32(rng, 8, d))[0] for _ in range(batch)]
        return memories

    def test_step_batch_matches_scalar_steps_and_caches(self, small_params):
        ctrl = AcceleratorController(small_params)
        rng = _rng(8)
        memories = self._prefill(ctrl, rng, 3)
        caches = [ctrl.build_kv_cache(m) for m in memories]
        refs = [ctrl.build_kv_cache(m) for m in memories]
        for step in range(3):
            xs = _f32(rng, 3, small_params.config.d_model)
            outs, cycles_b = ctrl.run_decoder_step_batch(xs, caches)
            for i in range(3):
                want, cycles_s = ctrl.run_decoder_step(xs[i], refs[i])
                np.testing.assert_array_equal(outs[i], want)
                assert cycles_s == cycles_b[i]
        # The fanned-out cache appends left every member's cache
        # bit-identical to its scalar twin.
        for cache, ref in zip(caches, refs):
            assert cache.length == ref.length == 3
            for layer, ref_layer in zip(cache.layers, ref.layers):
                for h in range(len(layer.self_k)):
                    np.testing.assert_array_equal(
                        layer.self_k[h], ref_layer.self_k[h]
                    )
                    np.testing.assert_array_equal(
                        layer.self_v[h], ref_layer.self_v[h]
                    )

    def test_batch_layer_caches_validation(self, small_params):
        """Members may differ in prefix length, not in memory length."""
        ctrl = AcceleratorController(small_params)
        rng = _rng(9)
        d = small_params.config.d_model
        caches = [ctrl.build_kv_cache(m) for m in self._prefill(ctrl, rng, 2)]
        ctrl.run_decoder_step(_f32(rng, d), caches[0])
        layers = batch_layer_caches(caches)
        assert [layer.members for layer in layers] == [
            [c.layers[i] for c in caches] for i in range(len(caches[0].layers))
        ]
        short = ctrl.build_kv_cache(ctrl.run_encoder_stack(_f32(rng, 4, d))[0])
        with pytest.raises(ValueError, match="memory length; got 4 vs 8"):
            batch_layer_caches([caches[0], short])
        with pytest.raises(ValueError):
            batch_layer_caches([])

    def test_step_batch_runs_a_ragged_batch(self, small_params):
        """Members at prefix lengths 0, 1 and 3 step as one batch: each
        output, cache and cycle record equals its scalar step's."""
        ctrl = AcceleratorController(small_params)
        rng = _rng(10)
        d = small_params.config.d_model
        caches = [ctrl.build_kv_cache(m) for m in self._prefill(ctrl, rng, 3)]
        for cache, prefix in zip(caches, (0, 1, 3)):
            for _ in range(prefix):
                ctrl.run_decoder_step(_f32(rng, d), cache)
        refs = copy.deepcopy(caches)
        xs = _f32(rng, 3, d)
        outs, cycles = ctrl.run_decoder_step_batch(xs, caches)
        for i, (cache, ref) in enumerate(zip(caches, refs)):
            want, want_cycles = ctrl.run_decoder_step(xs[i], ref)
            assert outs[i].tobytes() == want.tobytes()
            assert cycles[i] == want_cycles
            assert cache.length == ref.length
            for layer, ref_layer in zip(cache.layers, ref.layers):
                for got, exp in zip(layer.self_k + layer.self_v,
                                    ref_layer.self_k + ref_layer.self_v):
                    assert got.tobytes() == exp.tobytes()
        assert cycles[0] != cycles[2]


class TestBatchedSessions:
    def test_decode_sessions_batch_bit_identical(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        rng = _rng(11)
        feats = [
            _f32(rng, n, small_params.config.d_model) for n in (5, 8, 6)
        ]
        batched = accel.decode_sessions_batch(feats)
        solo = [accel.decode_session(f) for f in feats]
        for b, s in zip(batched, solo):
            np.testing.assert_array_equal(b.memory, s.memory)
            np.testing.assert_array_equal(b.step(1), s.step(1))
            np.testing.assert_array_equal(b.step(2), s.step(2))
            assert b.step_compute_cycles == s.step_compute_cycles

    def test_step_sessions_groups_by_prefix_length(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        rng = _rng(12)
        feats = [
            _f32(rng, 6, small_params.config.d_model) for _ in range(3)
        ]
        batch = [accel.decode_session(f) for f in feats]
        refs = [accel.decode_session(f) for f in feats]
        # Desynchronize: member 0 is one token ahead, so one batched
        # step spans two prefix lengths.
        batch[0].step(1)
        refs[0].step(1)
        tokens = [2, 1, 1]
        outs = step_sessions(batch, tokens)
        for got, ref, tok in zip(outs, refs, tokens):
            np.testing.assert_array_equal(got, ref.step(tok))
        for b, r in zip(batch, refs):
            assert b.tokens == r.tokens
            assert b.step_compute_cycles == r.step_compute_cycles

    def test_step_sessions_validates_lengths(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        rng = _rng(13)
        session = accel.decode_session(
            _f32(rng, 6, small_params.config.d_model)
        )
        with pytest.raises(ValueError):
            step_sessions([session], [1, 2])

    def test_step_sessions_rejects_a_session_twice(self, small_params):
        """Stepping one session twice in a batch would bank two rows
        from the same prefix; the batch is refused before any step."""
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        rng = _rng(15)
        other = accel.decode_session(_f32(rng, 6, small_params.config.d_model))
        session = accel.decode_session(_f32(rng, 6, small_params.config.d_model))
        with pytest.raises(ValueError, match="session 2 is session 1 again"):
            step_sessions([other, session, session], [1, 1, 2])
        assert session.tokens == [] and session.cache.length == 0

    def test_step_sessions_rejects_a_foreign_accelerator(self, small_params):
        """A batched step runs one accelerator's weights, so a session
        opened on another accelerator is refused by index."""
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        foreign = TransformerAccelerator(
            init_transformer_params(small_params.config, seed=8), hw_seq_len=8
        )
        feats = _f32(_rng(16), 6, small_params.config.d_model)
        batch = [accel.decode_session(feats), foreign.decode_session(feats)]
        with pytest.raises(ValueError, match="session 1 belongs to another"):
            step_sessions(batch, [1, 1])
        assert all(s.tokens == [] for s in batch)


class TestServingBatchedSteps:
    def test_batched_executor_matches_loop(self, small_params):
        """The scheduler's whole-iteration step_many through the batched
        fabric path must emit the exact tokens of a per-session greedy
        loop, and bill the exact device cycles of a modeled run."""
        config = small_params.config
        rng = _rng(14)
        feats = {
            i: _f32(rng, 10, config.d_model) for i in range(3)
        }
        scfg = ServingConfig(s=16, max_batch=4, slo_ms=1e9)
        reqs = [UtteranceRequest(i, 0.0, 4) for i in range(3)]
        accel = TransformerAccelerator(small_params, hw_seq_len=16)
        ex = FunctionalExecutor(scfg, accel, lambda r: feats[r.request_id])
        res_batch = ContinuousBatchingScheduler(scfg, ex).run(list(reqs))
        res_model = ContinuousBatchingScheduler(
            scfg, ModeledExecutor(scfg, accel.latency_model)
        ).run(list(reqs))

        for req in reqs:
            session = accel.decode_session(feats[req.request_id])
            token, loop = ex.start_token, []
            for _ in range(req.decode_tokens):
                token = int(np.argmax(session.step(token)))
                loop.append(token)
            assert ex.emitted[req.request_id] == loop
        assert res_batch.decode_cycles_total == res_model.decode_cycles_total
        assert res_batch.prefill_cycles_total == res_model.prefill_cycles_total
        assert res_batch.peak_batch == res_model.peak_batch


# ------------------------------------------ mixed-prefix batched steps
_MIXED_MODEL = ModelConfig(
    d_model=40, num_heads=2, d_ff=48, num_encoders=1, num_decoders=2
)
_MIXED_PARAMS = init_transformer_params(_MIXED_MODEL, seed=21)

#: One iteration: which sessions step, and what happens to one session
#: before it ("step" nothing, "preempt" evicts its prefix, "rewind"
#: truncates it to a drawn length).
_iterations = st.lists(
    st.tuples(
        st.sets(st.integers(0, 3), min_size=1),
        st.sampled_from(["step", "step", "preempt", "rewind"]),
        st.integers(0, 3),
        st.integers(0, 6),
    ),
    min_size=1,
    max_size=8,
)


def _same_state(got, want):
    assert got.tokens == want.tokens
    assert got.step_compute_cycles == want.step_compute_cycles
    assert got.cache.length == want.cache.length
    for layer, ref in zip(got.cache.layers, want.cache.layers, strict=True):
        for bank in ("self_k", "self_v", "cross_k", "cross_v"):
            assert len(getattr(layer, bank)) == len(getattr(ref, bank))
            for a, b in zip(getattr(layer, bank), getattr(ref, bank)):
                assert a.tobytes() == b.tobytes()


class TestMixedPrefixBatches:
    """A batch whose sessions sit at different prefix lengths runs as
    one plan execution and equals the scalar loop bit for bit: outputs,
    caches and each member's cycles, across preemption and rewinds."""

    @given(iterations=_iterations, lengths=st.lists(st.integers(1, 8), min_size=4, max_size=4),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_scalar_loop(self, iterations, lengths, seed):
        accel = TransformerAccelerator(_MIXED_PARAMS, hw_seq_len=8)
        rng = _rng(seed)
        feats = [_f32(rng, n, _MIXED_MODEL.d_model) for n in lengths]
        batched = accel.decode_sessions_batch(feats)
        scalar = [accel.decode_session(f) for f in feats]
        for members, action, who, length in iterations:
            if action == "preempt":
                assert batched[who].preempt() == scalar[who].preempt()
            elif action == "rewind":
                keep = min(length, len(scalar[who].tokens))
                batched[who].rewind(keep)
                scalar[who].rewind(keep)
            live = [i for i in sorted(members) if len(scalar[i].tokens) < 8]
            if not live:
                continue
            tokens = [int(rng.integers(0, _MIXED_MODEL.vocab_size)) for _ in live]
            outs = step_sessions([batched[i] for i in live], tokens)
            for i, token, out in zip(live, tokens, outs):
                assert out.tobytes() == scalar[i].step(token).tobytes()
        for got, want in zip(batched, scalar):
            _same_state(got, want)

    def test_one_execution_per_batched_step(self, monkeypatch):
        """Three sessions at three prefix lengths: one program run."""
        from repro.hw import fabric_controller as controller_module

        accel = TransformerAccelerator(_MIXED_PARAMS, hw_seq_len=8)
        rng = _rng(31)
        sessions = [
            accel.decode_session(_f32(rng, 5, _MIXED_MODEL.d_model)) for _ in range(3)
        ]
        for prefix, session in enumerate(sessions):
            for token in range(prefix):
                session.step(token + 1)
        runs = []
        real = controller_module.execute_program

        def counting(*args, **kwargs):
            runs.append(kwargs.get("inputs", {}).get("x").shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(controller_module, "execute_program", counting)
        step_sessions(sessions, [4, 5, 6])
        assert runs == [(3, 1, _MIXED_MODEL.d_model)]
        assert [len(s.tokens) for s in sessions] == [1, 2, 3]

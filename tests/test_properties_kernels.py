"""Property-based tests on the MM kernels, quantization and the
OpenCL runtime — the invariants that must hold for *any* shapes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.hw.kernels import Fabric, mm1_product, mm2_product, mm3_product, mm4_product
from repro.quant.schemes import INT8, INT16, dequantize, quantize_symmetric

FABRIC = Fabric()
SMALL = st.floats(min_value=-4, max_value=4, allow_nan=False, allow_infinity=False)


def _arr(shape):
    return arrays(np.float32, shape, elements=SMALL)


class TestKernelFunctionalProperties:
    @given(st.integers(1, 24), st.data())
    @settings(max_examples=25, deadline=None)
    def test_mm1_equals_plain_matmul(self, s, data):
        x = data.draw(_arr((s, 512)))
        w = data.draw(_arr((512, 64)))
        np.testing.assert_allclose(
            mm1_product(FABRIC, x, w), x @ w, rtol=2e-3, atol=2e-3
        )

    @given(st.integers(1, 32), st.integers(1, 32), st.data())
    @settings(max_examples=25, deadline=None)
    def test_mm2_mm3_shapes_and_values(self, s_q, s_k, data):
        q = data.draw(_arr((s_q, 64)))
        k = data.draw(_arr((s_k, 64)))
        scores = mm2_product(q, k)
        assert scores.shape == (s_q, s_k)
        np.testing.assert_allclose(
            scores, q @ k.T, rtol=2e-3, atol=2e-3
        )
        attn = data.draw(_arr((s_q, s_k)))
        v = data.draw(_arr((s_k, 64)))
        out = mm3_product(attn, v)
        np.testing.assert_allclose(
            out, attn @ v, rtol=2e-3, atol=2e-3
        )

    @given(st.integers(1, 12), st.data())
    @settings(max_examples=15, deadline=None)
    def test_mm4_head_striping(self, s, data):
        heads = [data.draw(_arr((s, 64))) for _ in range(8)]
        wo = data.draw(_arr((512, 512)))
        res = mm4_product(np.stack(heads), wo)
        expected = np.concatenate(heads, axis=1) @ wo
        np.testing.assert_allclose(res, expected, rtol=3e-3, atol=5e-3)

    @given(st.integers(1, 40), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_mm1_cycles_monotone_and_concurrency_helps(self, s, c):
        from repro.hw.kernels import mm1_cycles

        base = mm1_cycles(FABRIC, s, 512, 64, 1)
        conc = mm1_cycles(FABRIC, s, 512, 64, c)
        assert conc <= base
        assert mm1_cycles(FABRIC, s + 2, 512, 64, 1) >= base


class TestQuantizationProperties:
    @given(
        arrays(np.float64, (6, 5), elements=SMALL),
        st.sampled_from([INT8, INT16]),
        st.sampled_from([None, 1]),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_error_within_half_step(self, x, precision, axis):
        q, scale = quantize_symmetric(x, precision, axis=axis)
        err = np.abs(dequantize(q, scale) - x)
        step = np.broadcast_to(np.asarray(scale), x.shape)
        assert np.all(err <= step / 2 + 1e-12)

    @given(arrays(np.float64, (4, 4), elements=SMALL))
    @settings(max_examples=30, deadline=None)
    def test_quantization_idempotent(self, x):
        q1, s1 = quantize_symmetric(x, INT8)
        roundtrip = dequantize(q1, s1)
        q2, s2 = quantize_symmetric(roundtrip, INT8)
        np.testing.assert_allclose(
            dequantize(q2, s2), roundtrip, atol=1e-9
        )

    @given(
        arrays(np.float64, (8,), elements=SMALL),
        st.floats(min_value=0.1, max_value=10, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, x, factor):
        """Quantizing c*x has the same codes as x (symmetric scheme).

        Equivariance only holds while the scale tracks the peak; below
        the 1e-12 underflow clamp in ``_scales`` the scale goes flat and
        the codes legitimately diverge, so that regime is excluded.
        """
        assume(np.max(np.abs(x)) * min(factor, 1.0) > 1e-9)
        q1, _ = quantize_symmetric(x, INT8)
        q2, _ = quantize_symmetric(x * factor, INT8)
        np.testing.assert_array_equal(q1, q2)


class TestHostQueueProperties:
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
    @settings(max_examples=30, deadline=None)
    def test_in_order_queue_never_overlaps(self, durations):
        from repro.host.opencl import CommandQueue, Context, Device, Kernel

        ctx = Context(Device())
        q = CommandQueue(ctx, "q")
        for i, d in enumerate(durations):
            q.enqueue_kernel(Kernel(f"k{i}", 0), d)
        ctx.timeline.validate_no_engine_overlap()
        total = sum(durations) / (ctx.device.hardware.clock_mhz * 1e6)
        assert q.finish() == pytest.approx(total)

    @given(st.lists(st.integers(1, 1 << 20), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_memory_accounting_balances(self, sizes):
        from repro.host.opencl import Context, Device

        ctx = Context(Device())
        buffers = [ctx.alloc(s, f"b{i}") for i, s in enumerate(sizes)]
        assert ctx.allocated_bytes == sum(sizes)
        for b in buffers:
            ctx.free(b)
        assert ctx.allocated_bytes == 0


class TestStreamingProperties:
    @given(st.integers(5_000, 300_000))
    @settings(max_examples=25, deadline=None)
    def test_chunks_cover_and_fit(self, small_params, num_samples):
        from repro.asr.pipeline import AsrPipeline
        from repro.asr.streaming import StreamingTranscriber

        pipeline = AsrPipeline(small_params, hw_seq_len=32)
        t = StreamingTranscriber(pipeline)
        wav = np.zeros(num_samples)
        chunks = t.chunk(wav)
        assert chunks
        # Every sample index is inside some chunk.
        covered = max(len(c) for c in chunks) if len(chunks) == 1 else None
        if len(chunks) == 1:
            assert covered == num_samples
        else:
            assert all(len(c) == t.chunk_samples for c in chunks)
            # Last chunk flush-to-end covers the tail.
            assert num_samples - t.chunk_samples >= 0
        for c in chunks:
            assert len(c) <= t.chunk_samples

"""Tests for the MM1..MM6 kernel schedules: functional correctness
against plain matmuls, and cycle-model structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.hw.datapath import (
    _chunk_panels,
    _fold_panels,
    _left_fold,
    _runs,
    _split_widths,
    _stripe_widths,
    accumulate,
    mm1_product,
    mm2_product,
    mm3_product,
    mm4_product,
    mm5_product,
    mm6_product,
)
from repro.hw.executor import execute_program
from repro.hw.kernels import (
    matmul_dims,
    mm1_cycles,
    mm2_cycles,
    mm3_cycles,
    mm4_cycles,
    mm5_cycles,
    mm6_cycles,
)
from repro.hw.program import LoweringSpec, lower

S = 16


@pytest.fixture()
def data(rng):
    return {
        "x": rng.standard_normal((S, 512)).astype(np.float32),
        "w_qkv": rng.standard_normal((512, 64)).astype(np.float32),
        "q": rng.standard_normal((S, 64)).astype(np.float32),
        "k": rng.standard_normal((S, 64)).astype(np.float32),
        "attn": rng.standard_normal((S, S)).astype(np.float32),
        "v": rng.standard_normal((S, 64)).astype(np.float32),
        "heads": [rng.standard_normal((S, 64)).astype(np.float32) for _ in range(8)],
        "wo": rng.standard_normal((512, 512)).astype(np.float32),
        "w1": rng.standard_normal((512, 2048)).astype(np.float32),
        "h": rng.standard_normal((S, 2048)).astype(np.float32),
        "w2": rng.standard_normal((2048, 512)).astype(np.float32),
    }


class TestTable42:
    def test_matmul_dims(self):
        dims = matmul_dims(32)
        assert dims["MM1"] == ((32, 512), (512, 64), (32, 64))
        assert dims["MM2"] == ((32, 64), (64, 32), (32, 32))
        assert dims["MM3"] == ((32, 32), (32, 64), (32, 64))
        assert dims["MM4"] == ((32, 512), (512, 512), (32, 512))
        assert dims["MM5"] == ((32, 512), (512, 2048), (32, 2048))
        assert dims["MM6"] == ((32, 2048), (2048, 512), (32, 512))

    def test_rejects_bad_s(self):
        with pytest.raises(ValueError):
            matmul_dims(0)


class TestFunctional:
    """Striped dataflow must agree with a plain matmul (fp32 tolerance)."""

    def test_mm1(self, fabric, data):
        out = mm1_product(fabric, data["x"], data["w_qkv"])
        np.testing.assert_allclose(
            out, data["x"] @ data["w_qkv"], rtol=2e-4, atol=1e-4
        )

    def test_mm1_concurrent_psas_same_result(self, fabric, data):
        """Concurrent PSAs change MM1's cycles, not its product: the
        stripes fold in the same order however many PSAs run them."""
        spans = []
        for parallel_heads in (8, 2):
            program = lower(LoweringSpec(
                "mha", ModelConfig(), fabric, S, parallel_heads=parallel_heads
            ))
            (mm1_q,) = [op for op in program.ops if op.label == "h0:MM1(Q)"]
            assert mm1_q.cycles == mm1_cycles(
                fabric, S, 512, 64, mm1_q.attrs["concurrent_psas"]
            )
            spans.append(mm1_q.cycles)
        assert spans[1] < spans[0]

    def test_mm2(self, fabric, data):
        out = mm2_product(data["q"], data["k"])
        np.testing.assert_allclose(
            out, data["q"] @ data["k"].T, rtol=2e-4, atol=1e-4
        )

    def test_mm3(self, fabric, data):
        out = mm3_product(data["attn"], data["v"])
        np.testing.assert_allclose(
            out, data["attn"] @ data["v"], rtol=2e-4, atol=1e-4
        )

    def test_mm4(self, fabric, data):
        out = mm4_product(np.stack(data["heads"]), data["wo"])
        concat = np.concatenate(data["heads"], axis=1)
        np.testing.assert_allclose(
            out, concat @ data["wo"], rtol=2e-4, atol=2e-4
        )

    def test_mm5(self, fabric, data):
        out = mm5_product(data["x"], data["w1"])
        np.testing.assert_allclose(
            out, data["x"] @ data["w1"], rtol=2e-4, atol=2e-4
        )

    def test_mm6(self, fabric, data):
        out = mm6_product(data["h"], data["w2"])
        np.testing.assert_allclose(
            out, data["h"] @ data["w2"], rtol=2e-4, atol=4e-4
        )

    def test_shape_validation(self, fabric):
        """Activations are checked where they enter a program; inside
        it the products still reject operands that cannot multiply."""
        program = lower(LoweringSpec("ffn", ModelConfig(), fabric, 4))
        with pytest.raises(ValueError, match="input 'x'"):
            execute_program(program, inputs={"x": np.zeros((4, 500), np.float32)})
        with pytest.raises(ValueError):
            mm4_product(np.zeros((0, 4, 64), np.float32), np.zeros((512, 512), np.float32))
        with pytest.raises(ValueError):
            mm2_product(np.zeros((4, 64), np.float32), np.zeros((4, 32), np.float32))


class TestCycleStructure:
    def test_cycles_match_between_functional_and_pure(self, fabric):
        """Every MATMUL op of a lowered encoder layer is priced by its
        kernel's cycle formula."""
        program = lower(LoweringSpec("encoder_layer", ModelConfig(), fabric, S))
        want = {
            "mm1": mm1_cycles(fabric, S, 512, 64),
            "mm2": mm2_cycles(fabric, S, S, 64),
            "mm3": mm3_cycles(fabric, S, S, 64),
            "mm4": mm4_cycles(fabric, S, 8, 64, 512),
            "mm5": mm5_cycles(fabric, S, 512, 2048),
            "mm6": mm6_cycles(fabric, S, 2048, 512),
        }
        priced = {(op.semantic, op.cycles) for op in program.ops if op.semantic in want}
        assert priced == set(want.items())

    def test_mm1_cycles_grow_with_s(self, fabric):
        assert mm1_cycles(fabric, 32, 512, 64) > mm1_cycles(fabric, 4, 512, 64)

    def test_mm2_padding_floor(self, fabric):
        """Short sequences pad to the PSA tile: s=4 and s=32 keys cost
        the same because the output tile is 64 wide either way."""
        assert mm2_cycles(fabric, 4, 4, 64) == mm2_cycles(fabric, 4, 32, 64)
        assert mm2_cycles(fabric, 4, 128, 64) > mm2_cycles(fabric, 4, 32, 64)

    def test_concurrent_psa_speedup_saturates(self, fabric):
        c1 = mm1_cycles(fabric, 32, 512, 64, concurrent_psas=1)
        c8 = mm1_cycles(fabric, 32, 512, 64, concurrent_psas=8)
        c16 = mm1_cycles(fabric, 32, 512, 64, concurrent_psas=16)
        assert c8 < c1
        assert c16 == c8  # only 8 stripes exist

    def test_ffn_class_uses_ffn_ii(self, fabric):
        """MM5/MM6 carry the (larger) FFN initiation interval."""
        att = fabric.pass_cycles(16, 256, 512, ffn_class=False)
        ffn = fabric.pass_cycles(16, 256, 512, ffn_class=True)
        assert ffn > att

    def test_invocation_overhead_counted_once(self, fabric):
        base = mm1_cycles(fabric, 2, 512, 64)
        # 8 stripes, one invocation overhead, one adder fold.
        expected = (
            8 * fabric.pass_cycles(2, 64, 64)
            + fabric.invocation_overhead
            + fabric.adder.accumulate_cycles(8, 2, 64)
        )
        assert base == expected

    def test_mm1_rejects_bad_concurrency(self, fabric):
        with pytest.raises(ValueError):
            mm1_cycles(fabric, 4, 512, 64, concurrent_psas=0)

    def test_isc_transfer_cycles(self, fabric):
        assert fabric.isc_transfer_cycles(32, 512) == 32 * 512 // 16


def _accumulated_chunks(x, w, widths):
    """The partial products as ``_fold_panels`` forms them, folded one
    by one by ``accumulate`` (the hardware add order)."""
    partials = []
    for start, stop, width, count in _runs(widths):
        xs = x[..., start:stop].reshape(*x.shape[:-1], count, width)
        ws = w[..., start:stop, :].reshape(*w.shape[:-2], count, width, w.shape[-1])
        prod = np.matmul(xs.swapaxes(-2, -3), ws)
        partials.extend(prod[..., i, :, :] for i in range(count))
    return accumulate(partials)


def _f32(rng, shape, spread):
    """Values over ``spread`` decades, so the add order shows in the
    bits."""
    scale = 10.0 ** rng.integers(-spread, spread + 1, size=shape)
    return (rng.standard_normal(shape) * scale).astype(np.float32)


class TestLeftFold:
    """The one-reduction folds equal ``accumulate`` over the
    same partial products, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2),
        inner=st.integers(1, 200),
        split=st.sampled_from(["stripe", "even"]),
        parts=st.integers(1, 9),
        s=st.integers(1, 3),
        n=st.integers(1, 5),
        seed=st.integers(0, 2**16),
    )
    def test_fold_chunks(self, lead, inner, split, parts, s, n, seed):
        # Stripes of 64 leave a trailing partial stripe; an even split
        # of an inner dimension that does not divide makes uneven runs.
        widths = (
            _stripe_widths(inner, 64) if split == "stripe"
            else _split_widths(inner, min(parts, inner))
        )
        rng = np.random.default_rng(seed)
        x = _f32(rng, (*lead, s, inner), 4)
        w = _f32(rng, (*lead[1:], inner, n), 4)
        got = _fold_panels(x, _chunk_panels(w, widths))
        assert got.tobytes() == _accumulated_chunks(x, w, widths).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        heads=st.integers(1, 9),
        batch=st.lists(st.integers(1, 3), max_size=1),
        s=st.integers(1, 3),
        d_k=st.integers(1, 4),
        d_out=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_mm4_product(self, heads, batch, s, d_k, d_out, seed):
        rng = np.random.default_rng(seed)
        stack = _f32(rng, (heads, *batch, s, d_k), 4)
        wo = _f32(rng, (heads * d_k, d_out), 4)
        panels = wo.reshape(heads, *(1,) * len(batch), d_k, d_out)
        want = accumulate(list(np.matmul(stack, panels)))
        assert mm4_product(stack, wo).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        count=st.integers(1, 24),
        seed=st.integers(0, 2**16),
    )
    def test_any_stack_axis(self, shape, count, seed):
        """Including stacks whose partials hold one element, where NumPy
        would sum the stacked axis pairwise."""
        rng = np.random.default_rng(seed)
        axis = int(rng.integers(0, len(shape) + 1))
        stack = _f32(rng, (*shape[:axis], count, *shape[axis:]), 6)
        want = accumulate(list(np.moveaxis(stack, axis, 0)))
        assert _left_fold(stack, axis).tobytes() == want.tobytes()

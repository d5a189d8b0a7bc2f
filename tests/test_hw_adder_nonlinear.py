"""Tests for the vector adders and non-linear function units."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.adder import VectorAdder
from repro.hw.datapath import (
    accumulate,
    add_norm_unit,
    bias_unit,
    relu_unit,
    scale_scores,
    softmax_unit,
    vector_add,
)
from repro.hw.nonlinear import NonlinearUnits
from repro.model.layernorm import add_norm, layer_norm
from repro.model.masks import causal_mask
from repro.model.ops import softmax


class TestVectorAdder:
    def test_add_functional(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_array_equal(vector_add(a, b), a + b)

    def test_add_shape_check(self):
        with pytest.raises(ValueError):
            vector_add(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_accumulate_order_is_left_fold(self, rng):
        parts = [rng.standard_normal((2, 2)).astype(np.float32) for _ in range(4)]
        acc = accumulate(parts)
        expected = ((parts[0] + parts[1]) + parts[2]) + parts[3]
        np.testing.assert_array_equal(acc, expected)

    def test_accumulate_empty_rejected(self):
        with pytest.raises(ValueError):
            accumulate([])

    def test_add_cycles_scale_with_rows(self):
        adder = VectorAdder(width=64)
        assert adder.add_cycles(64, 64) > adder.add_cycles(4, 64)

    def test_add_cycles_wide_matrix(self):
        adder = VectorAdder(width=64, pipeline_depth=8)
        # 512 columns -> 8 chunks per row.
        assert adder.add_cycles(4, 512) == 4 * 8 + 8

    def test_accumulate_cycles_pipelined(self):
        adder = VectorAdder(width=64)
        # Only the final fold is exposed, independent of partial count.
        assert adder.accumulate_cycles(8, 4, 64) == adder.accumulate_cycles(2, 4, 64)
        assert adder.accumulate_cycles(1, 4, 64) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            VectorAdder(width=0)
        with pytest.raises(ValueError):
            VectorAdder().add_cycles(0, 4)
        with pytest.raises(ValueError):
            VectorAdder().accumulate_cycles(0, 4, 4)


class TestNonlinearFunctional:
    def test_scale_scores(self, rng):
        s = rng.standard_normal((3, 3)).astype(np.float32)
        np.testing.assert_allclose(
            scale_scores(s, 64), s / 8.0, rtol=1e-6
        )

    def test_scale_rejects_bad_dk(self):
        with pytest.raises(ValueError):
            scale_scores(np.zeros((2, 2)), 0)

    def test_softmax_unit_matches_reference(self, rng):
        s = rng.standard_normal((4, 4)).astype(np.float32)
        np.testing.assert_allclose(
            softmax_unit(s), softmax(s), rtol=1e-6, atol=1e-7
        )

    def test_softmax_unit_masked(self):
        s = np.zeros((3, 3), dtype=np.float32)
        out = softmax_unit(s, mask=causal_mask(3))
        np.testing.assert_allclose(out[0], [1, 0, 0], atol=1e-7)
        np.testing.assert_allclose(out[2], [1 / 3] * 3, rtol=1e-6)

    def test_relu_unit(self):
        np.testing.assert_array_equal(
            relu_unit(np.array([-1.0, 2.0])), [0.0, 2.0]
        )

    def test_bias_unit_broadcast(self, rng):
        x = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        np.testing.assert_allclose(bias_unit(x, b), x + b, rtol=1e-7)

    def test_bias_unit_shape_check(self):
        with pytest.raises(ValueError):
            bias_unit(np.zeros((3, 4)), np.zeros(3))

    def test_add_norm_unit_matches_golden(self, rng):
        a = rng.standard_normal((3, 8)).astype(np.float32)
        r = rng.standard_normal((3, 8)).astype(np.float32)
        w = rng.standard_normal(8).astype(np.float32)
        b = rng.standard_normal(8).astype(np.float32)
        np.testing.assert_allclose(
            add_norm_unit(a, r, w, b), add_norm(a, r, w, b), rtol=1e-5, atol=1e-6
        )


class TestNonlinearCycles:
    def test_softmax_slower_than_scale(self):
        u = NonlinearUnits()
        assert u.softmax_cycles(32, 32) > u.scale_cycles(32, 32)

    def test_sc_sm_hides_under_mm1(self, fabric):
        """Fig 4.13: t_Sc + t_Sm < t_MM1 so they overlap MM1(V)."""
        from repro.hw.kernels import mm1_cycles

        u = fabric.units
        for s in (4, 8, 16, 32):
            sc_sm = u.scale_cycles(s, s) + u.softmax_cycles(s, s)
            assert sc_sm < mm1_cycles(fabric, s, 512, 64)

    def test_cycles_scale_with_size(self):
        u = NonlinearUnits()
        assert u.add_norm_cycles(32, 512) > u.add_norm_cycles(4, 512)
        assert u.bias_cycles(4, 2048) > u.bias_cycles(4, 512)

    def test_validation(self):
        with pytest.raises(ValueError):
            NonlinearUnits(lanes=0)
        with pytest.raises(ValueError):
            NonlinearUnits().bias_cycles(0, 4)


# ------------------------------------------------------ lean units
def _old_layer_norm(x, weight, bias, eps=1e-12):
    """The layer norm through ``x.mean`` / ``x.var`` wrappers."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * weight + bias


def _old_softmax(x, axis=-1):
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return (exp / np.sum(exp, axis=axis, keepdims=True)).astype(x.dtype)


def _old_scale_scores(scores, d_k):
    return np.asarray(scores, dtype=np.float32) / np.sqrt(
        np.asarray(d_k, dtype=np.float32)
    )


def _old_softmax_unit(scores, mask=None):
    from repro.model.masks import apply_mask

    masked = apply_mask(np.asarray(scores, dtype=np.float32), mask)
    return _old_softmax(masked, axis=-1).astype(np.float32)


_lean_shapes = st.tuples(
    st.sampled_from([(), (3,), (2, 2)]), st.integers(1, 9), st.integers(1, 600)
)


class TestLeanUnits:
    """Add-Norm, Sc and Sm computed without numpy's mean/var wrappers
    and repeated casts equal the old formulas bit for bit."""

    @given(shape=_lean_shapes, scale=st.sampled_from([1e-3, 1.0, 1e4]),
           offset=st.sampled_from([0.0, 3.0, -1e3]), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_layer_norm_and_add_norm(self, shape, scale, offset, seed):
        lead, rows, d = shape
        rng = np.random.default_rng(seed)
        x = (rng.standard_normal((*lead, rows, d)) * scale + offset).astype(np.float32)
        r = rng.standard_normal((*lead, rows, d)).astype(np.float32)
        w, b = rng.standard_normal((2, d)).astype(np.float32)
        assert layer_norm(x, w, b).tobytes() == _old_layer_norm(x, w, b).tobytes()
        want = _old_layer_norm(x + r, w, b).astype(np.float32)
        assert add_norm_unit(x, r, w, b).tobytes() == want.tobytes()

    @given(shape=_lean_shapes, d_k=st.sampled_from([1, 3, 64, 100]),
           masked=st.sampled_from(["none", "keys", "rows"]), seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None)
    def test_scale_and_softmax(self, shape, d_k, masked, seed):
        lead, rows, cols = shape
        rng = np.random.default_rng(seed)
        scores = (rng.standard_normal((*lead, rows, cols)) * 30).astype(np.float32)
        mask = None
        if masked == "keys":
            mask = rng.random((1, cols)) < 0.7
        elif masked == "rows":
            mask = rng.random((*lead, rows, cols)) < 0.5
        scaled = scale_scores(scores, d_k)
        assert scaled.tobytes() == _old_scale_scores(scores, d_k).tobytes()
        got = softmax_unit(scaled, mask=mask)
        assert got.dtype == np.float32
        assert got.tobytes() == _old_softmax_unit(scaled, mask).tobytes()
        assert softmax(scores).tobytes() == _old_softmax(scores).tobytes()

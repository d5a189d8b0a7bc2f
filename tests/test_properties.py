"""Property-based tests (hypothesis) on the core invariants:
systolic-array correctness, scheduler ordering, softmax/layernorm
properties, WER metric axioms, and autograd-vs-finite-difference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.decoding.wer import edit_distance
from repro.hw.datapath import simulate_exact
from repro.hw.scheduler import Architecture, BlockWork, schedule
from repro.hw.systolic import SystolicArray
from repro.model.layernorm import layer_norm
from repro.model.ops import softmax

SMALL_FLOATS = st.floats(
    min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
)


@st.composite
def matmul_operands(draw):
    l = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    a = draw(arrays(np.float64, (l, m), elements=SMALL_FLOATS))
    b = draw(arrays(np.float64, (m, n), elements=SMALL_FLOATS))
    return a, b


class TestSystolicProperties:
    @given(matmul_operands(), st.integers(1, 3), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_exact_emulation_equals_numpy(self, operands, rows, cols):
        a, b = operands
        psa = SystolicArray(rows=rows, cols=cols)
        np.testing.assert_allclose(simulate_exact(psa, a, b), a @ b, atol=1e-9)

    @given(st.integers(1, 64), st.integers(1, 128), st.integers(1, 128))
    @settings(max_examples=50, deadline=None)
    def test_cycles_positive_and_monotone_in_m(self, l, m, n):
        psa = SystolicArray()
        assert psa.pass_cycles(l, m, n) > 0
        assert psa.pass_cycles(l, m + 1, n) >= psa.pass_cycles(l, m, n)


@st.composite
def block_lists(draw):
    n = draw(st.integers(1, 20))
    return [
        BlockWork(
            f"b{i}",
            draw(st.integers(0, 1000)),
            draw(st.integers(0, 1000)),
        )
        for i in range(n)
    ]


class TestSchedulerProperties:
    @given(block_lists(), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_architecture_ordering(self, blocks, overhead):
        t1 = schedule("A1", blocks, overhead).total_cycles
        t2 = schedule("A2", blocks, overhead).total_cycles
        t3 = schedule("A3", blocks, overhead).total_cycles
        assert t3 <= t2 <= t1

    @given(block_lists())
    @settings(max_examples=40, deadline=None)
    def test_lower_bounds(self, blocks):
        """No schedule beats max(total compute, slowest chain bound)."""
        total_compute = sum(b.compute_cycles for b in blocks)
        first_load = blocks[0].load_cycles
        for arch in Architecture:
            result = schedule(arch, blocks)
            assert result.total_cycles >= total_compute
            assert result.total_cycles >= first_load + blocks[0].compute_cycles

    @given(block_lists(), st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_no_engine_overlap_and_load_before_compute(self, blocks, overhead):
        for arch in Architecture:
            result = schedule(arch, blocks, overhead)
            result.timeline.validate_no_engine_overlap()
            load_end = {}
            for eng in result.timeline.engines():
                if eng.startswith("hbm"):
                    for e in result.timeline.on_engine(eng):
                        load_end[e.label[3:]] = e.end
            for e in result.timeline.on_engine("compute"):
                assert e.start >= load_end[e.label[2:]] - 1e-9

    @given(block_lists())
    @settings(max_examples=30, deadline=None)
    def test_a1_is_exact_sum(self, blocks):
        expected = sum(b.load_cycles + b.compute_cycles for b in blocks)
        assert schedule("A1", blocks).total_cycles == expected


class TestNumericProperties:
    @given(arrays(np.float64, (4, 7), elements=SMALL_FLOATS))
    @settings(max_examples=50, deadline=None)
    def test_softmax_simplex(self, x):
        out = softmax(x)
        assert np.all(out >= 0)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)

    @given(
        arrays(np.float64, (3, 8), elements=SMALL_FLOATS),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_softmax_shift_invariance(self, x, c):
        np.testing.assert_allclose(softmax(x), softmax(x + c), atol=1e-9)

    @given(arrays(np.float64, (3, 8), elements=SMALL_FLOATS))
    @settings(max_examples=50, deadline=None)
    def test_layernorm_statistics(self, x):
        out = layer_norm(x, np.ones(8), np.zeros(8))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-7)
        # Rows with spread get unit variance; constant rows stay ~0.
        # Rows need spread well above the norm's eps=1e-12 floor for
        # the unit-variance property to hold to tight tolerance.
        spread = x.std(axis=-1) > 1e-3
        if spread.any():
            np.testing.assert_allclose(
                out[spread].std(axis=-1), 1.0, atol=1e-5
            )

    @given(
        arrays(np.float64, (2, 6), elements=SMALL_FLOATS),
        st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_layernorm_scale_invariance(self, x, scale):
        w, b = np.ones(6), np.zeros(6)
        base = layer_norm(x, w, b)
        scaled = layer_norm(x * scale, w, b)
        # Only rows whose variance dwarfs the eps floor at both scales.
        rows = x.std(axis=-1) * min(scale, 1.0) > 1e-2
        np.testing.assert_allclose(base[rows], scaled[rows], atol=1e-6)


WORDS = st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=8)


class TestWerProperties:
    @given(WORDS)
    def test_identity(self, ref):
        assert edit_distance(ref, ref) == 0

    @given(WORDS, WORDS)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(WORDS, WORDS, WORDS)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(WORDS, WORDS)
    def test_bounded_by_max_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))

    @given(WORDS, WORDS)
    def test_length_difference_lower_bound(self, a, b):
        assert edit_distance(a, b) >= abs(len(a) - len(b))


class TestAutogradProperties:
    @given(
        arrays(np.float64, (3, 3), elements=SMALL_FLOATS),
        arrays(np.float64, (3, 3), elements=SMALL_FLOATS),
    )
    @settings(max_examples=30, deadline=None)
    def test_matmul_grad_matches_finite_difference(self, a_data, b_data):
        from repro.train.autograd import Tensor

        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data)
        ((a @ b) * (a @ b)).sum().backward()
        # Analytic: d/dA sum((AB)^2) = 2 (AB) B^T
        expected = 2 * (a_data @ b_data) @ b_data.T
        np.testing.assert_allclose(a.grad, expected, atol=1e-8)

    @given(arrays(np.float64, (5,), elements=SMALL_FLOATS))
    @settings(max_examples=30, deadline=None)
    def test_softmax_grad_sums_to_zero(self, x_data):
        """Softmax output is shift-invariant, so its gradient must be
        orthogonal to the all-ones direction."""
        from repro.train.autograd import Tensor

        x = Tensor(x_data, requires_grad=True)
        (x.softmax() ** 2).sum().backward()
        assert abs(x.grad.sum()) < 1e-9


class TestFrontendProperties:
    @given(st.integers(0, 5000))
    @settings(max_examples=30, deadline=None)
    def test_frame_count_never_negative(self, n):
        from repro.frontend.framing import num_frames

        assert num_frames(n, 400, 160) >= 0

    @given(st.integers(1, 400))
    @settings(max_examples=30, deadline=None)
    def test_subsampling_monotone(self, n):
        from repro.frontend.subsampling import Conv2dSubsampling

        assert Conv2dSubsampling.output_time_dim(
            n + 4
        ) >= Conv2dSubsampling.output_time_dim(n)

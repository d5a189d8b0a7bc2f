"""Tests for the systolic array model: exact emulation vs vectorized
functional model vs NumPy, and the structural cycle counts."""

import numpy as np
import pytest

from repro.hw.datapath import psa_matmul, simulate_exact
from repro.hw.systolic import SystolicArray, ceil_div


class TestCeilDiv:
    def test_values(self):
        assert ceil_div(8, 2) == 4
        assert ceil_div(9, 2) == 5
        assert ceil_div(0, 3) == 0

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)
        with pytest.raises(ValueError):
            ceil_div(-1, 2)


class TestExactEmulation:
    """The cycle-stepped PE wavefront must compute an exact matmul."""

    @pytest.mark.parametrize(
        "l,m,n", [(3, 3, 4), (2, 5, 2), (1, 1, 1), (4, 2, 7), (5, 6, 3)]
    )
    def test_matches_numpy(self, l, m, n, rng):
        psa = SystolicArray(rows=2, cols=3)
        a = rng.standard_normal((l, m))
        b = rng.standard_normal((m, n))
        np.testing.assert_allclose(simulate_exact(psa, a, b), a @ b, atol=1e-12)

    def test_paper_figure_dimensions(self, rng):
        # Fig 4.2: 3x3 by 3x4 on the standard structure.
        psa = SystolicArray(rows=2, cols=4)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 4))
        np.testing.assert_allclose(simulate_exact(psa, a, b), a @ b, atol=1e-12)

    def test_partial_tiles(self, rng):
        # Dimensions not divisible by the array shape.
        psa = SystolicArray(rows=2, cols=4)
        a = rng.standard_normal((5, 3))
        b = rng.standard_normal((3, 7))
        np.testing.assert_allclose(simulate_exact(psa, a, b), a @ b, atol=1e-12)

    def test_bad_shapes(self):
        psa = SystolicArray()
        with pytest.raises(ValueError):
            simulate_exact(psa, np.zeros((2, 3)), np.zeros((4, 2)))


class TestVectorizedModel:
    def test_matches_exact_emulation(self, rng):
        psa = SystolicArray(rows=2, cols=4)
        a = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal((6, 8)).astype(np.float32)
        fast = psa_matmul(a, b)
        slow = simulate_exact(psa, a, b)
        np.testing.assert_allclose(fast, slow, rtol=1e-6)

    def test_fp32_output(self, rng):
        psa = SystolicArray()
        out = psa_matmul(rng.standard_normal((2, 3)), rng.standard_normal((3, 2)))
        assert out.dtype == np.float32

    def test_dimension_validation(self):
        psa = SystolicArray()
        with pytest.raises(ValueError):
            psa_matmul(np.zeros((2, 3)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            psa_matmul(np.zeros(3), np.zeros((3, 2)))


class TestCycles:
    def test_single_pass(self):
        psa = SystolicArray(rows=2, cols=64)
        # One row-pair, one column tile: m + fill.
        assert psa.pass_cycles(2, 64, 64) == 64 + 2 + 64

    def test_row_passes_scale(self):
        psa = SystolicArray(rows=2, cols=64)
        assert psa.pass_cycles(32, 64, 64) == 16 * (64 + 66)

    def test_column_tiles_scale(self):
        psa = SystolicArray(rows=2, cols=64)
        assert psa.pass_cycles(2, 64, 512) == 8 * (64 + 66)

    def test_partial_unroll_slowdown(self):
        """The paper quotes ~16x latency increase for the 2-row PSA vs a
        fully unrolled 32-row array."""
        partial = SystolicArray(rows=2, cols=64)
        full = SystolicArray(rows=32, cols=64)
        ratio = partial.pass_cycles(32, 64, 64) / full.pass_cycles(32, 64, 64)
        assert ratio == pytest.approx(16, rel=0.35)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            SystolicArray().pass_cycles(0, 4, 4)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            SystolicArray(rows=0, cols=4)

    def test_num_pes(self):
        assert SystolicArray(rows=2, cols=64).num_pes == 128

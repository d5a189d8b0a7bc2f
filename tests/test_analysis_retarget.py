"""Tests for the retargetability study (Section 1.1 flexibility claim)."""

import numpy as np
import pytest

from repro.analysis.retarget import TARGET_CONFIGS, retarget_study
from repro.config import ModelConfig
from repro.hw.accelerator import TransformerAccelerator
from repro.model.params import init_transformer_params
from repro.model.transformer import Transformer


class TestRetargetStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return {p.name: p for p in retarget_study(s=32)}

    def test_all_configs_schedule(self, points):
        assert set(points) == set(TARGET_CONFIGS)
        for p in points.values():
            assert p.latency_ms > 0
            assert p.gflops > 0

    def test_paper_config_is_the_baseline(self, points):
        base = points["espnet_base (paper)"]
        assert base.latency_ms == pytest.approx(86.99, rel=0.01)
        assert base.gflops == pytest.approx(4.08, rel=0.01)

    def test_smaller_model_is_faster(self, points):
        assert points["qi_2021 [29]"].latency_ms < points[
            "espnet_base (paper)"
        ].latency_ms / 5

    def test_bigger_model_is_slower(self, points):
        assert points["vaswani_big"].latency_ms > points[
            "espnet_base (paper)"
        ].latency_ms

    def test_sustained_rate_stays_in_band(self, points):
        """Retargeting keeps the fabric's sustained GFLOPs/s in the
        same order of magnitude — the fabric, not the model, sets it."""
        rates = [p.gflops_per_second for p in points.values()]
        assert min(rates) > 10
        assert max(rates) < 100

    def test_bigger_weights_later_crossover(self, points):
        """vaswani_big streams larger panels per layer, so its load
        stays dominant to longer sequence lengths."""
        assert points["vaswani_big"].crossover_s > points[
            "espnet_base (paper)"
        ].crossover_s


class TestNonDivisibleDimensions:
    """The kernels must be correct for dims that don't divide the PSA
    tile (the Qi et al. config has d_model=400, d_ff=200)."""

    @pytest.fixture(scope="class")
    def qi_params(self):
        return init_transformer_params(
            ModelConfig(
                d_model=400, num_heads=4, d_ff=200,
                num_encoders=2, num_decoders=1, vocab_size=12,
            ),
            seed=0,
        )

    def test_functional_equivalence(self, qi_params, rng):
        accel = TransformerAccelerator(qi_params, hw_seq_len=8)
        ref = Transformer(qi_params)
        feats = rng.standard_normal((5, 400)).astype(np.float32)
        toks = np.array([0, 3, 7])
        np.testing.assert_allclose(
            accel.forward(feats, toks).logits,
            ref.forward(feats, toks),
            rtol=2e-3,
            atol=2e-3,
        )

    def test_partial_stripe_costs_full_pass(self, fabric):
        """400 = 6 full 64-wide stripes + one 16-wide remainder, which
        still costs a full stripe pass."""
        from repro.hw.kernels import mm1_cycles

        c400 = mm1_cycles(fabric, 8, 400, 64)
        c384 = mm1_cycles(fabric, 8, 384, 64)
        c448 = mm1_cycles(fabric, 8, 448, 64)
        assert c384 < c400 == c448

    def test_odd_dims_through_mm5_mm6(self, fabric, rng):
        from repro.hw.datapath import mm5_product, mm6_product

        x = rng.standard_normal((5, 400)).astype(np.float32)
        w1 = rng.standard_normal((400, 200)).astype(np.float32)
        h = rng.standard_normal((5, 200)).astype(np.float32)
        w2 = rng.standard_normal((200, 400)).astype(np.float32)
        np.testing.assert_allclose(
            mm5_product(x, w1), x @ w1, rtol=2e-3, atol=2e-3
        )
        np.testing.assert_allclose(
            mm6_product(h, w2), h @ w2, rtol=2e-3, atol=2e-3
        )

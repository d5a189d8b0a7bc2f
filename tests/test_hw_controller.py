"""Tests for the latency model and the functional controller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.controller import AcceleratorController, LatencyModel
from repro.hw.scheduler import Architecture


@pytest.fixture(scope="module")
def lm():
    return LatencyModel()  # full paper config


class TestLatencyModel:
    def test_block_counts(self, lm):
        assert len(lm.build_blocks(32, "A1")) == 18  # 12 enc + 6 dec
        assert len(lm.build_blocks(32, "A2")) == 18
        assert len(lm.build_blocks(32, "A3")) == 24  # decoders split m/f

    def test_a3_decoder_channels(self, lm):
        blocks = lm.build_blocks(16, "A3")
        m_parts = [b for b in blocks if b.label.endswith("m")]
        f_parts = [b for b in blocks if b.label.endswith("f")]
        assert all(b.channel_hint == 0 for b in m_parts)
        assert all(b.channel_hint == 1 for b in f_parts)
        assert all(b.overhead_override == 0 for b in f_parts)

    def test_load_independent_of_s(self, lm):
        """Fig 5.2: load time stays constant as s grows."""
        loads = {s: lm.mha_ffn_load_compute(s)[0] for s in (4, 8, 16, 32)}
        assert len(set(loads.values())) == 1

    def test_compute_grows_with_s(self, lm):
        computes = [lm.mha_ffn_load_compute(s)[1] for s in (4, 8, 16, 32)]
        assert computes == sorted(computes)
        assert computes[-1] > computes[0]

    def test_crossover_after_18(self, lm):
        """Fig 5.2 / Section 5.1.2: compute exceeds load for s > 18."""
        assert lm.crossover_sequence_length() == 19
        load, compute = lm.mha_ffn_load_compute(18)
        assert compute <= load
        load, compute = lm.mha_ffn_load_compute(19)
        assert compute > load

    @given(
        attention_ii=st.floats(1.0, 12.0),
        ffn_ii=st.floats(1.0, 20.0),
        invocation=st.integers(0, 30000),
        load_efficiency=st.floats(1.0, 2.0),
        gbps=st.floats(0.5, 8.0),
        max_s=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_crossover_bisection_equals_linear_scan(
        self, attention_ii, ffn_ii, invocation, load_efficiency, gbps, max_s
    ):
        lm = LatencyModel(
            hardware=HardwareConfig(hbm_channel_gbps=gbps),
            calibration=CalibrationConfig(
                attention_ii=attention_ii,
                ffn_ii=ffn_ii,
                invocation_overhead_cycles=invocation,
                load_efficiency=load_efficiency,
            ),
        )
        scan = next(
            (s for s in range(1, max_s + 1)
             if lm.mha_ffn_load_compute(s)[1] > lm.mha_ffn_load_compute(s)[0]),
            None,
        )
        if scan is None:
            with pytest.raises(ValueError, match="no crossover"):
                lm.crossover_sequence_length(max_s)
        else:
            assert lm.crossover_sequence_length(max_s) == scan

    def test_architecture_ordering(self, lm):
        for s in (4, 8, 16, 32):
            t1 = lm.latency_ms(s, "A1")
            t2 = lm.latency_ms(s, "A2")
            t3 = lm.latency_ms(s, "A3")
            assert t3 <= t2 + 1e-9
            assert t2 < t1

    def test_a2_equals_a3_when_compute_bound(self, lm):
        """Table 5.1: A2 == A3 at s = 32."""
        assert lm.latency_ms(32, "A2") == pytest.approx(
            lm.latency_ms(32, "A3"), rel=1e-6
        )

    def test_report_totals(self, lm):
        report = lm.latency_report(32, "A3")
        assert report.total_cycles == (
            report.input_transfer_cycles
            + report.schedule_cycles
            + report.output_transfer_cycles
        )
        assert report.latency_ms == pytest.approx(
            report.total_cycles / 300e3, rel=1e-9
        )

    def test_rejects_bad_s(self, lm):
        with pytest.raises(ValueError):
            lm.latency_report(0)

    def test_smaller_model_faster(self):
        small = LatencyModel(model=ModelConfig(num_encoders=6, num_decoders=3))
        full = LatencyModel()
        assert small.latency_ms(32, "A3") < full.latency_ms(32, "A3")

    def test_higher_bandwidth_helps_when_load_bound(self):
        slow = LatencyModel(hardware=HardwareConfig(hbm_channel_gbps=1.0))
        fast = LatencyModel(hardware=HardwareConfig(hbm_channel_gbps=10.0))
        assert fast.latency_ms(4, "A2") < slow.latency_ms(4, "A2")

    def test_zero_overhead_calibration(self):
        cal = CalibrationConfig(
            invocation_overhead_cycles=0, block_overhead_cycles=0
        )
        lm0 = LatencyModel(calibration=cal)
        assert lm0.latency_ms(32, "A3") < LatencyModel().latency_ms(32, "A3")


class TestPerMemberCycleShares:
    """Per-member attribution of a batched decode iteration
    (`per_member_cycle_shares`, the cost-ledger companion of
    `decode_iteration_cycles`)."""

    LENGTHS = [3, 4, 5, 6]

    def test_shares_sum_exactly_to_iteration_total(self, lm):
        for share in (True, False):
            shares = lm.per_member_cycle_shares(
                self.LENGTHS, 32, share_weights=share
            )
            total = lm.decode_iteration_cycles(
                self.LENGTHS, 32, share_weights=share
            )
            assert len(shares) == len(self.LENGTHS)
            assert sum(shares) == total  # exact integers, no drift

    def test_amortization_holds_per_member(self, lm):
        """shared_i < unshared_i <= solo_i for EVERY member, not just in
        aggregate — the whole point of splitting the shared stream."""
        shared = lm.per_member_cycle_shares(self.LENGTHS, 32)
        unshared = lm.per_member_cycle_shares(
            self.LENGTHS, 32, share_weights=False
        )
        solo = [lm.decode_iteration_cycles([t], 32) for t in self.LENGTHS]
        for sh, un, so in zip(shared, unshared, solo):
            assert sh < un <= so

    def test_single_member_gets_whole_iteration(self, lm):
        shares = lm.per_member_cycle_shares([7], 32)
        assert shares == [lm.decode_iteration_cycles([7], 32)]

    def test_longer_prefix_pays_more(self, lm):
        shares = lm.per_member_cycle_shares(self.LENGTHS, 32)
        assert shares == sorted(shares)
        assert shares[-1] > shares[0]

    def test_architectures_agree_on_exactness(self, lm):
        for arch in (Architecture.A1, Architecture.A2, Architecture.A3):
            shares = lm.per_member_cycle_shares(self.LENGTHS, 32, arch)
            assert sum(shares) == lm.decode_iteration_cycles(
                self.LENGTHS, 32, arch
            )


class TestFunctionalController:
    def test_functional_cycles_match_latency_model(
        self, small_params, rng
    ):
        ctrl = AcceleratorController(small_params)
        s = 8
        x = rng.standard_normal((s, 512)).astype(np.float32)
        run = ctrl.run(x, x, architecture="A1")
        lm = ctrl.latency_model
        for label, cycles in run.block_compute_cycles.items():
            if label.startswith("enc"):
                assert cycles == lm.encoder_compute_cycles(s)
        m, f = lm.decoder_compute_cycles(s)
        assert run.block_compute_cycles["dec1m"] == m
        assert run.block_compute_cycles["dec1f"] == f

    def test_same_output_across_architectures(self, small_params, rng):
        ctrl = AcceleratorController(small_params)
        x = rng.standard_normal((8, 512)).astype(np.float32)
        outs = [
            ctrl.run(x, x, architecture=a).decoder_output
            for a in ("A1", "A2", "A3")
        ]
        np.testing.assert_array_equal(outs[0], outs[1])
        np.testing.assert_array_equal(outs[1], outs[2])

    def test_reports_differ_across_architectures(self, small_params, rng):
        ctrl = AcceleratorController(small_params)
        x = rng.standard_normal((4, 512)).astype(np.float32)
        r1 = ctrl.run(x, x, architecture="A1").report
        r3 = ctrl.run(x, x, architecture="A3").report
        assert r3.total_cycles < r1.total_cycles
        assert r1.architecture is Architecture.A1

    def test_input_validation(self, small_params):
        ctrl = AcceleratorController(small_params)
        with pytest.raises(ValueError):
            ctrl.run(np.zeros((4, 100)), np.zeros((4, 512)))
        with pytest.raises(ValueError):
            ctrl.run(np.zeros((4, 512)), np.zeros((4, 100)))

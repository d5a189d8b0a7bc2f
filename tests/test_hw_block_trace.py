"""Tests for the per-engine Fig 4.13 block trace."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.hw.program import (
    LoweringSpec,
    lower,
    lower_decode_step,
    lower_full_pass,
    schedule_program,
    trace_block,
    trace_program,
)
from repro.hw.visualize import render_gantt
from tests.reference_cycles import (
    decoder_cycles,
    decoder_step_cycles,
    encoder_cycles,
    ffn_cycles,
    mha_cycles,
)


def encoder_layer_trace(fabric, s, parallel_heads=None):
    """Per-engine trace of one paper-sized encoder layer."""
    spec = LoweringSpec("encoder_layer", ModelConfig(), fabric, s,
                        parallel_heads=parallel_heads)
    return trace_block(lower(spec))


class TestBlockTrace:
    @pytest.mark.parametrize("parallel_heads", [8, 4, 2, 1])
    @pytest.mark.parametrize("s", [4, 32])
    def test_makespan_equals_cycle_estimator(self, fabric, s, parallel_heads):
        """The Gantt chart and the latency model are the same model."""
        timeline = encoder_layer_trace(fabric, s, parallel_heads=parallel_heads)
        estimate = encoder_cycles(
            fabric, s, 8, 512, 2048, parallel_heads=parallel_heads
        )
        assert timeline.makespan == pytest.approx(estimate)

    def test_no_engine_double_booking(self, fabric):
        timeline = encoder_layer_trace(fabric, 16)
        timeline.validate_no_engine_overlap()

    def test_all_psa_groups_busy(self, fabric):
        timeline = encoder_layer_trace(fabric, 16, parallel_heads=8)
        psa_engines = [e for e in timeline.engines() if ".psa" in e]
        assert len(psa_engines) == 8
        # Both SLRs host four heads each (Fig 4.13).
        assert sum(e.startswith("slr0") for e in psa_engines) == 4
        assert sum(e.startswith("slr1") for e in psa_engines) == 4

    def test_sc_sm_overlaps_mm1v(self, fabric):
        timeline = encoder_layer_trace(fabric, 16)
        sm_events = [e for e in timeline.events if "Sc+Sm" in e.label]
        mm1v_events = {
            e.label.split(":")[0]: e
            for e in timeline.events
            if "MM1(V)" in e.label
        }
        assert sm_events
        for sm in sm_events:
            head = sm.label.split(":")[0]
            mm1v = mm1v_events[head]
            assert sm.start == mm1v.start  # launched together
            assert sm.end <= mm1v.end  # hidden under MM1(V)

    def test_mm4_waits_for_all_heads(self, fabric):
        timeline = encoder_layer_trace(fabric, 16)
        head_ends = max(e.end for e in timeline.events if "MM3" in e.label)
        mm4_start = min(e.start for e in timeline.events if e.label == "MM4")
        assert mm4_start >= head_ends

    def test_ffn_after_first_add_norm(self, fabric):
        timeline = encoder_layer_trace(fabric, 16)
        norm1_end = next(
            e.end for e in timeline.events if e.label == "Add-Norm1"
        )
        mm5_start = min(e.start for e in timeline.events if e.label == "MM5")
        assert mm5_start >= norm1_end

    def test_renders(self, fabric):
        art = render_gantt(encoder_layer_trace(fabric, 8), width=120)
        assert "psa" in art and "MM5" in art

    def test_parallel_heads_validation(self, fabric):
        with pytest.raises(ValueError):
            encoder_layer_trace(fabric, 8, parallel_heads=99)


#: Small stack: the analytic numbers are per-layer, so two layers of
#: each kind exercise the chaining without slowing the sweep down.
_SWEEP_MODEL = ModelConfig(num_encoders=2, num_decoders=2)

#: The fixed drift-lock grid: paper dims, s x head parallelism, with
#: the decoder prefix t = s (full pass) and t = s // 2 (decode step).
_GRID = [
    (s, t, ph)
    for s in (8, 18, 32, 64)
    for t in (s, max(s // 2, 1))
    for ph in (1, 2, 4, 8)
]


def assert_spans_match_reference(fabric, model, s, t, parallel_heads):
    """The block spans of the full-pass, decode-step, MHA and FFN
    programs equal the closed-form sums of ``tests/reference_cycles``."""
    nh, d_model, d_ff, ph = model.num_heads, model.d_model, model.d_ff, parallel_heads

    def spans(scope):
        return lower(LoweringSpec(scope, model, fabric, s, t, ph)).block_spans

    full, step = spans("full_pass"), spans("decode_step")
    enc = encoder_cycles(fabric, s, nh, d_model, d_ff, ph)
    dec = decoder_cycles(fabric, t, s, nh, d_model, d_ff, ph)
    dec_step = decoder_step_cycles(fabric, t, s, nh, d_model, d_ff, ph)
    for i in range(1, model.num_encoders + 1):
        assert full[f"enc{i}"] == enc
    for i in range(1, model.num_decoders + 1):
        assert (full[f"dec{i}m"], full[f"dec{i}f"]) == dec
        assert (step[f"dec{i}m"], step[f"dec{i}f"]) == dec_step
    assert spans("mha")["mha"] == mha_cycles(fabric, t, s, nh, d_model, ph)
    assert spans("ffn")["ffn"] == ffn_cycles(fabric, s, d_model, d_ff)


def _with_grid_examples(test):
    for s, t, ph in _GRID:
        test = example(
            num_heads=8, d_k=64, d_ff=2048, s=s, t=t, parallel_heads=ph
        )(test)
    return test


class TestDriftLock:
    """The three executors may never drift apart: the trace-executor
    makespan must stay integer-identical to the cycle schedule, and the
    per-block compute cycles to the closed-form oracle, across the
    s x head-parallelism x architecture sweep and on generated shapes."""

    @given(
        num_heads=st.sampled_from([1, 2, 4, 8, 16]),
        d_k=st.sampled_from([16, 50, 64, 72]),
        d_ff=st.sampled_from([64, 200, 1000, 2048]),
        s=st.integers(1, 70),
        t=st.integers(1, 70),
        parallel_heads=st.sampled_from([None, 1, 2, 4, 8]),
    )
    @_with_grid_examples
    @settings(max_examples=150, deadline=None)
    def test_block_spans_match_reference(
        self, fabric, num_heads, d_k, d_ff, s, t, parallel_heads
    ):
        model = ModelConfig(
            d_model=num_heads * d_k, num_heads=num_heads, d_ff=d_ff,
            num_encoders=2, num_decoders=2,
        )
        assert_spans_match_reference(fabric, model, s, t, parallel_heads)

    # The grid points under their own names (also the examples above).
    @pytest.mark.parametrize("parallel_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", [8, 18, 32, 64])
    def test_block_cycles_match_analytic(self, fabric, s, parallel_heads):
        assert_spans_match_reference(fabric, _SWEEP_MODEL, s, s, parallel_heads)

    @pytest.mark.parametrize("parallel_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", [8, 18, 32, 64])
    def test_step_block_cycles_match_analytic(self, fabric, s, parallel_heads):
        assert_spans_match_reference(
            fabric, _SWEEP_MODEL, s, max(s // 2, 1), parallel_heads
        )

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("parallel_heads", [1, 2, 4, 8])
    @pytest.mark.parametrize("s", [8, 18, 32, 64])
    def test_trace_makespan_equals_schedule(
        self, fabric, s, parallel_heads, architecture
    ):
        program = lower_full_pass(
            _SWEEP_MODEL, fabric, s, parallel_heads=parallel_heads
        )
        overhead = fabric.calibration.block_overhead_cycles
        total = schedule_program(program, architecture, overhead).total_cycles
        timeline = trace_program(program, architecture, overhead)
        assert timeline.makespan == total
        timeline.validate_no_engine_overlap()

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("s", [8, 32])
    def test_step_trace_makespan_equals_schedule(self, fabric, s, architecture):
        program = lower_decode_step(_SWEEP_MODEL, fabric, max(s // 2, 1), s)
        overhead = fabric.calibration.block_overhead_cycles
        total = schedule_program(program, architecture, overhead).total_cycles
        assert trace_program(program, architecture, overhead).makespan == total

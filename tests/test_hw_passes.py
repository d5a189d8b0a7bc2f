"""Program-IR optimizer passes: semantics preservation, cycle wins,
lowering-cache hygiene, and compatibility with fault injection and the
Gantt renderer on pass-transformed (op-id-remapped) programs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.hw.dse import a4_candidate_pipelines, synthesize_a4
from repro.hw.faults import FaultSpec, program_fault_hook
from repro.hw.passes import (
    PassError,
    PassPipeline,
    ReorderOpsPass,
    StageExposedLoadsPass,
    default_pipeline,
    semantic_op_counts,
    verify_semantics_preserved,
)
from repro.hw.program import (
    LoweringSpec,
    execute_program,
    lower,
    lower_full_pass,
    program_load_bytes,
    schedule_program,
    trace_program_with_schedule,
)
from repro.hw.visualize import render_program_gantt


def _full_pass_inputs(config, s, rng):
    return {
        "x": rng.normal(size=(s, config.d_model)).astype(np.float32),
        "dec_in": rng.normal(size=(s, config.d_model)).astype(np.float32),
        "enc_mask": None,
        "dec_self_mask": None,
        "dec_memory_mask": None,
    }


def _overhead(fabric):
    return fabric.calibration.block_overhead_cycles


def encoder_stack_program(config, fabric, s):
    return lower(LoweringSpec("encoder_stack", config, fabric, s))


PIPELINES = {
    "default": lambda: default_pipeline(),
    "split_only": lambda: default_pipeline(
        split_limit=2, coalesce=False, reorder=False
    ),
    "reorder_only": lambda: default_pipeline(
        split_limit=0, coalesce=False, reorder=True
    ),
    "deep_prefetch": lambda: default_pipeline(
        split_limit=1, num_weight_buffers=4
    ),
}


class TestSemanticsPreservation:
    """Every pipeline must be provably semantics-preserving: bit-exact
    outputs, conserved load bytes and semantic op counts — across
    architectures and sequence lengths."""

    @pytest.mark.parametrize("s", [8, 18, 32])
    @pytest.mark.parametrize("name", sorted(PIPELINES))
    def test_full_pass_bit_identical(
        self, small_config, small_params, fabric, s, name
    ):
        rng = np.random.default_rng(s)
        base = lower_full_pass(small_config, fabric, s)
        optimized = PIPELINES[name]().apply_program(base)
        verify_semantics_preserved(
            base, optimized, small_params, _full_pass_inputs(small_config, s, rng)
        )

    def test_encoder_stack_bit_identical(self, small_config, small_params, fabric):
        rng = np.random.default_rng(0)
        base = encoder_stack_program(small_config, fabric, 18)
        optimized = default_pipeline().apply_program(base)
        verify_semantics_preserved(
            base,
            optimized,
            small_params,
            {
                "x": rng.normal(size=(18, small_config.d_model)).astype(
                    np.float32
                ),
                "enc_mask": None,
            },
        )

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3"])
    def test_load_bytes_and_op_counts_conserved(
        self, small_config, fabric, arch
    ):
        base = lower_full_pass(small_config, fabric, 18)
        optimized = default_pipeline(architecture=arch).apply_program(base)
        assert program_load_bytes(optimized) == program_load_bytes(base)
        assert semantic_op_counts(optimized) == semantic_op_counts(base)

    def test_verifier_catches_divergence(self, small_config, small_params, fabric):
        base = lower_full_pass(small_config, fabric, 8)
        # Dropping the final op breaks the semantic op counts.
        broken = encoder_stack_program(small_config, fabric, 8)
        with pytest.raises(PassError):
            verify_semantics_preserved(
                base,
                broken,
                small_params,
                _full_pass_inputs(small_config, 8, np.random.default_rng(1)),
            )


class TestCycleEffects:
    @pytest.mark.parametrize("s", [8, 18, 32])
    def test_default_pipeline_strictly_improves_a3(self, small_config, fabric, s):
        base = lower_full_pass(small_config, fabric, s)
        optimized = default_pipeline().apply_program(base)
        oh = _overhead(fabric)
        before = schedule_program(base, "A3", oh).total_cycles
        after = schedule_program(optimized, "A3", oh).total_cycles
        assert after < before

    @pytest.mark.parametrize("arch", ["A1", "A2"])
    def test_split_pass_invariant_on_serial_architectures(
        self, small_config, fabric, arch
    ):
        """A1 serializes loads and computes and A2 has a single load
        channel, so staging a load across channels cannot help — the
        pass must leave the schedule total exactly unchanged."""
        base = lower_full_pass(small_config, fabric, 18)
        split = PassPipeline(
            passes=(StageExposedLoadsPass(limit=2, architecture=arch),),
            architecture=arch,
        ).apply_program(base)
        oh = _overhead(fabric)
        assert (
            schedule_program(split, arch, oh).total_cycles
            == schedule_program(base, arch, oh).total_cycles
        )

    def test_optimized_trace_is_consistent(self, small_config, fabric):
        """The transformed program still traces: the trace-executor
        timeline validates (no engine overlap) and its makespan matches
        the schedule total the pass optimized for."""
        base = lower_full_pass(small_config, fabric, 18)
        optimized = default_pipeline().apply_program(base)
        oh = _overhead(fabric)
        timeline, sched = trace_program_with_schedule(optimized, "A3", oh)
        timeline.validate_no_engine_overlap()
        assert int(timeline.makespan) == sched.total_cycles

    def test_pipeline_report_accounts_the_win(self, small_config, fabric):
        base = lower_full_pass(small_config, fabric, 18)
        program, report = default_pipeline().apply(base)
        oh = _overhead(fabric)
        assert report.cycles_before == schedule_program(base, "A3", oh).total_cycles
        assert report.cycles_after == schedule_program(program, "A3", oh).total_cycles
        assert report.cycles_saved > 0
        # Per-pass deltas chain: each pass starts where the last ended.
        for prev, cur in zip(report.passes, report.passes[1:]):
            assert cur.cycles_before == prev.cycles_after


class TestUncachedPipelines:
    """Pipelines transform the cached baseline into a new program and
    leave the lowering cache alone: the baseline stays the cached
    object, and equal pipelines give equal (uncached) programs."""

    def test_full_pass_cache_untouched(self, small_config, fabric):
        base = lower_full_pass(small_config, fabric, 8)
        size = lower.cache_info().currsize
        opt1 = default_pipeline().apply_program(base)
        opt2 = default_pipeline(split_limit=1, coalesce=False).apply_program(base)
        assert opt1 is not base and opt2 is not opt1
        assert default_pipeline().apply_program(base).ops == opt1.ops
        assert lower.cache_info().currsize == size
        assert lower_full_pass(small_config, fabric, 8) is base

    def test_encoder_stack_cache_untouched(self, small_config, fabric):
        base = encoder_stack_program(small_config, fabric, 8)
        opt = default_pipeline().apply_program(base)
        assert opt is not base
        assert encoder_stack_program(small_config, fabric, 8) is base


class TestTransformedProgramCompat:
    """Satellite: fault injection and the Gantt renderer must keep
    working after passes remap op ids and reorder blocks."""

    def test_fault_hook_on_reordered_program(
        self, small_config, small_params, fabric
    ):
        rng = np.random.default_rng(2)
        inputs = _full_pass_inputs(small_config, 8, rng)
        base = lower_full_pass(small_config, fabric, 8)
        optimized = default_pipeline().apply_program(base)
        hook = program_fault_hook([FaultSpec("enc0.ffn.w1", index=7, bit=30)])
        faulty_base = execute_program(base, small_params, inputs, weight_hook=hook)
        faulty_opt = execute_program(
            optimized, small_params, inputs, weight_hook=hook
        )
        clean = execute_program(optimized, small_params, inputs)
        for name in faulty_base.outputs:
            np.testing.assert_array_equal(
                faulty_opt.outputs[name], faulty_base.outputs[name]
            )
        assert not np.array_equal(
            faulty_opt.outputs["encoder_output"], clean.outputs["encoder_output"]
        )

    def test_gantt_renders_transformed_program(self, small_config, fabric):
        optimized = default_pipeline().apply_program(
            lower_full_pass(small_config, fabric, 8)
        )
        art = render_program_gantt(optimized, "A3", width=60)
        assert "hbm0" in art and "hbm1" in art
        annotated = render_program_gantt(
            optimized, "A3", width=60, annotate_stalls=True
        )
        assert isinstance(annotated, str) and annotated


class TestA4Synthesis:
    def test_synthesize_a4_strictly_beats_a3(self, small_config):
        result = synthesize_a4(model=small_config, s=8)
        assert result.optimized_cycles < result.baseline_cycles
        assert result.cycles_saved == (
            result.baseline_cycles - result.optimized_cycles
        )
        assert result.candidates_tried == len(a4_candidate_pipelines())
        assert tuple(result.pipeline.names)
        # The win must be attributed: exposed-stall cycles go down and
        # no cause gets *worse*.
        before = result.psa_stalls_before
        after = result.psa_stalls_after
        assert sum(after.values()) < sum(before.values())
        reducible = before.get("load_starved", 0) + before.get(
            "channel_contention", 0
        )
        reduced = after.get("load_starved", 0) + after.get(
            "channel_contention", 0
        )
        assert reduced < reducible

    def test_synthesize_a4_cached_and_serializable(self, small_config):
        first = synthesize_a4(model=small_config, s=8)
        again = synthesize_a4(model=small_config, s=8)
        assert again is first
        payload = first.as_dict()
        text = json.dumps(payload)
        assert "program" not in payload
        assert json.loads(text)["cycles_saved"] == first.cycles_saved

    def test_winner_is_semantics_preserving(self, small_config, small_params):
        result = synthesize_a4(model=small_config, s=8)
        rng = np.random.default_rng(4)
        verify_semantics_preserved(
            result.baseline_program,
            result.program,
            small_params,
            _full_pass_inputs(small_config, 8, rng),
        )

    def test_reorder_pass_alone_is_valid(self, small_config, fabric):
        base = lower_full_pass(small_config, fabric, 8)
        reordered = PassPipeline(
            passes=(ReorderOpsPass(),), architecture="A3"
        ).apply_program(base)
        # Op ids stay index-dense and topologically ordered after the
        # remap (the rebuild validator would have raised otherwise).
        assert [op.op_id for op in reordered.ops] == list(
            range(reordered.num_ops)
        )

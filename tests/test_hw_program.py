"""The block-program IR: one lowering, three executors in lock-step.

The drift-lock sweep in ``test_hw_block_trace.py`` pins the cycle
numbers against the analytic estimators; this file pins the *structure*
of the program and the agreement between the executors — plus fault
injection as a program transform.
"""

import numpy as np
import pytest

from repro.config import ModelConfig
from repro.hw import program as program_module
from repro.hw.faults import FaultSpec, inject_faults, program_fault_hook
from repro.hw.program import (
    LoweringSpec,
    OpKind,
    block_compute_cycles,
    execute_program,
    lower,
    lower_decode_step,
    lower_full_pass,
    lowering_cache_info,
    program_block_work,
    resolve_head_parallelism,
    schedule_program,
    trace_block,
    trace_program,
)

MODEL = ModelConfig(num_encoders=2, num_decoders=2)
SCOPES = [
    "full_pass", "encoder_stack", "decode_step", "mha", "ffn",
    "encoder_layer", "decoder_layer",
]


def encoder_stack_program(model, fabric, s):
    return lower(LoweringSpec("encoder_stack", model, fabric, s))


@pytest.fixture(scope="module")
def program(fabric):
    return lower_full_pass(MODEL, fabric, 8)


class TestLoweringSpec:
    """Every spec field is validated up front, naming the field."""

    @pytest.mark.parametrize("scope", SCOPES)
    def test_rejects_bad_fields(self, fabric, scope):
        with pytest.raises(ValueError, match="^s must be positive"):
            LoweringSpec(scope, MODEL, fabric, 0)
        with pytest.raises(ValueError, match="^t must be positive"):
            LoweringSpec(scope, MODEL, fabric, 8, t=0)
        for bad in (0, fabric.hardware.total_psas + 1):
            with pytest.raises(ValueError, match="^parallel_heads must be"):
                LoweringSpec(scope, MODEL, fabric, 8, parallel_heads=bad)
        assert lower(LoweringSpec(scope, MODEL, fabric, 8)).num_ops > 0

    def test_rejects_unknown_scope(self, fabric):
        with pytest.raises(ValueError, match="^scope must be one of"):
            LoweringSpec("decoder_stack", MODEL, fabric, 8)


class TestLoweringCache:
    """The cold-clear contract: one cache, found by name, fully reset
    by ``cache_clear`` (perfbench's cold design-space roots rely on
    it)."""

    def test_one_cache_named_after_its_function(self):
        (name,) = lowering_cache_info()
        assert name == lower.__name__
        assert getattr(program_module, name) is lower

    def test_cache_clear_empties_it(self, fabric):
        lower_full_pass(MODEL, fabric, 8)
        lower_full_pass(MODEL, fabric, 8)
        lower.cache_clear()
        (info,) = lowering_cache_info().values()
        assert info.hits + info.currsize == 0

    def test_equal_specs_share_one_program(self, fabric):
        a = LoweringSpec("decode_step", MODEL, fabric, 8, 3, None)
        b = LoweringSpec("decode_step", MODEL, fabric, 8, t=3)
        assert a is not b and lower(a) is lower(b)
        assert lower_decode_step(MODEL, fabric, 3, 8) is lower(a)


class TestLoweringStructure:
    def test_lowering_is_cached(self, fabric):
        assert lower_full_pass(MODEL, fabric, 8) is lower_full_pass(
            MODEL, fabric, 8
        )

    def test_rejects_nonpositive_lengths(self, fabric):
        with pytest.raises(ValueError):
            lower_full_pass(MODEL, fabric, 0)
        with pytest.raises(ValueError):
            lower_decode_step(MODEL, fabric, 0, 8)

    def test_rejects_bad_head_parallelism(self, fabric):
        with pytest.raises(ValueError):
            lower_full_pass(MODEL, fabric, 8, parallel_heads=99)
        assert resolve_head_parallelism(fabric, 8, 2) == (2, 4)

    def test_blocks_partition_ops(self, program):
        seen: set[int] = set()
        for block in program.blocks:
            ids = set(block.op_ids)
            assert not ids & seen, f"{block.label} shares ops"
            seen |= ids
        assert seen == set(range(program.num_ops))

    def test_block_labels_follow_layers(self, program):
        labels = [b.label for b in program.blocks]
        assert labels == ["enc1", "enc2", "dec1m", "dec1f", "dec2m", "dec2f"]
        for b in program.blocks:
            if b.label.startswith("dec"):
                assert b.merge_group == b.label[:-1]

    def test_every_compute_op_is_engine_placed(self, program):
        for op in program.ops:
            assert op.engines
            if op.kind is OpKind.LOAD:
                assert op.engines == ("hbm",)

    def test_op_count_invariant_across_head_parallelism(self, fabric):
        counts = {
            lower_full_pass(MODEL, fabric, 8, parallel_heads=ph).num_ops
            for ph in (1, 2, 4, 8)
        }
        assert len(counts) == 1


class TestCycleExecutor:
    def test_a3_splits_decoders_a1_merges_them(self, program):
        a3 = program_block_work(program, "A3")
        a1 = program_block_work(program, "A1")
        assert len(a3) == MODEL.num_encoders + 2 * MODEL.num_decoders
        assert len(a1) == MODEL.num_encoders + MODEL.num_decoders
        # A3 pins decoder MHA and FFN parts to different HBM channels
        # (Fig 4.11 two-channel prefetch).
        channels = {
            w.label: w.channel_hint for w in a3 if w.label.startswith("dec")
        }
        assert channels["dec1m"] != channels["dec1f"]

    def test_merged_load_is_one_bundle_not_a_sum(self, program):
        a3 = {w.label: w for w in program_block_work(program, "A3")}
        a1 = {w.label: w for w in program_block_work(program, "A1")}
        parts = a3["dec1m"].load_cycles + a3["dec1f"].load_cycles
        merged = a1["dec1"].load_cycles
        # One contiguous HBM transfer of the whole decoder bundle: the
        # per-burst rounding never makes it slower than two transfers.
        assert 0 < merged <= parts

    def test_merged_compute_spans_both_parts(self, program):
        a1 = {w.label: w for w in program_block_work(program, "A1")}
        assert a1["dec1"].compute_cycles == (
            block_compute_cycles(program, "dec1m")
            + block_compute_cycles(program, "dec1f")
        )


class TestTraceExecutor:
    def test_trace_block_makespan_matches_cycle_executor(self, fabric):
        program = encoder_stack_program(MODEL, fabric, 8)
        timeline = trace_block(program, "enc1")
        assert timeline.makespan == block_compute_cycles(program, "enc1")

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    def test_trace_program_agrees_with_schedule(self, program, architecture):
        total = schedule_program(program, architecture).total_cycles
        timeline = trace_program(program, architecture)
        assert timeline.makespan == total
        timeline.validate_no_engine_overlap()

    def test_a3_uses_both_hbm_channels(self, program):
        timeline = trace_program(program, "A3")
        load_engines = {
            e.engine for e in timeline.events if e.kind == "load"
        }
        assert {"hbm0", "hbm1"} <= load_engines


class TestFunctionalExecutor:
    def test_missing_input_raises(self, fabric, small_params):
        program = encoder_stack_program(small_params.config, fabric, 4)
        with pytest.raises(KeyError):
            execute_program(program, root=small_params, inputs={})

    def test_fault_hook_equals_param_injection(self, fabric, small_params, rng):
        """Fault injection as a program transform: hooking the weight
        reads of the clean program produces bit-identical outputs to
        running the clean program over deep-copied corrupted params."""
        cfg = small_params.config
        s = 4
        program = encoder_stack_program(cfg, fabric, s)
        x = rng.standard_normal((s, cfg.d_model)).astype(np.float32)
        inputs = {"x": x, "enc_mask": None}
        faults = [
            FaultSpec("enc0.ffn.w1", index=3, bit=30),
            FaultSpec("enc1.mha.wq", index=7, bit=22),
        ]
        clean = execute_program(program, root=small_params, inputs=inputs)
        hooked = execute_program(
            program,
            root=small_params,
            inputs=inputs,
            weight_hook=program_fault_hook(faults),
        )
        injected = execute_program(
            program, root=inject_faults(small_params, faults), inputs=inputs
        )
        np.testing.assert_array_equal(
            hooked.outputs["output"], injected.outputs["output"]
        )
        assert not np.array_equal(
            hooked.outputs["output"], clean.outputs["output"]
        )

    def test_fault_hook_leaves_params_clean(self, fabric, small_params, rng):
        cfg = small_params.config
        program = encoder_stack_program(cfg, fabric, 4)
        x = rng.standard_normal((4, cfg.d_model)).astype(np.float32)
        before = small_params.encoders[0].ffn.w1.copy()
        execute_program(
            program,
            root=small_params,
            inputs={"x": x, "enc_mask": None},
            weight_hook=program_fault_hook(
                [FaultSpec("enc0.ffn.w1", index=0, bit=31)]
            ),
        )
        np.testing.assert_array_equal(small_params.encoders[0].ffn.w1, before)

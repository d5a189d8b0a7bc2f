"""Program-IR optimizer passes: semantics preservation, cycle wins,
lowering-cache hygiene, and compatibility with fault injection and the
Gantt renderer on pass-transformed (op-id-remapped) programs."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.dse import _candidate_programs, a4_candidate_pipelines, synthesize_a4
from repro.hw.faults import FaultSpec, program_fault_hook
from repro.hw.introspect import classify_stalls
from repro.hw.kernels import Fabric
from repro.hw.passes import (
    CoalesceLoadsPass,
    PassError,
    PassPipeline,
    PrefetchChannelPass,
    ReorderOpsPass,
    StageExposedLoadsPass,
    _list_schedule_block,
    _psa_stalls,
    default_pipeline,
    semantic_op_counts,
    verify_semantics_preserved,
)
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    LoweringSpec,
    Op,
    OpKind,
    ValueRef,
    execute_program,
    lower,
    lower_full_pass,
    program_load_bytes,
    schedule_program,
    trace_program_with_schedule,
)
from repro.hw.visualize import render_program_gantt
from tests.reference_passes import (
    reference_coalesce,
    reference_list_schedule_block,
    reference_search,
)


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


class TestExplicitParameters:
    """Explicit pass parameters are validated up front: integers only
    (no bools), one architecture per pipeline, and known block labels."""

    @pytest.mark.parametrize("bad", [2.7, True, "4"])
    def test_prefetch_depth_must_be_an_integer(self, bad):
        with pytest.raises(TypeError, match="num_weight_buffers"):
            PrefetchChannelPass(num_weight_buffers=bad)

    def test_prefetch_depth_numpy_integer_converts(self, small_config, fabric):
        p = PrefetchChannelPass(num_weight_buffers=np.int64(3))
        assert p == PrefetchChannelPass(num_weight_buffers=3)
        prog, actions = p.run(lower_full_pass(small_config, fabric, 8))
        assert type(prog.meta["schedule_params"]["num_weight_buffers"]) is int
        assert "pinned num_weight_buffers=3" in actions

    @pytest.mark.parametrize("bad", [-1, -5])
    def test_negative_split_limit_rejected(self, bad):
        with pytest.raises(PassError, match="limit"):
            StageExposedLoadsPass(limit=bad)

    @pytest.mark.parametrize("bad", [1.5, False])
    def test_split_limit_must_be_an_integer(self, bad):
        with pytest.raises(TypeError, match="limit"):
            StageExposedLoadsPass(limit=bad)

    def test_pass_architecture_must_match_the_pipeline(self):
        with pytest.raises(PassError, match="A1.*A3"):
            PassPipeline((CoalesceLoadsPass(architecture="A1"),), architecture="A3")
        PassPipeline((CoalesceLoadsPass(architecture="A1"),), architecture="A1")

    @pytest.mark.parametrize(
        "pass_",
        [
            CoalesceLoadsPass(groups=(("nope", "enc1"),)),
            CoalesceLoadsPass(groups=(("enc1", "nope"),)),
            StageExposedLoadsPass(blocks=("nope",)),
            ReorderOpsPass(blocks=("enc1", "nope")),
        ],
        ids=["coalesce_head", "coalesce_tail", "stage", "reorder"],
    )
    def test_unknown_block_label_names_the_label(self, small_config, fabric, pass_):
        base = lower_full_pass(small_config, fabric, 8)
        with pytest.raises(PassError, match="no block labelled 'nope'"):
            pass_.run(base)


@st.composite
def block_dags(draw):
    """A two-block program: a producer block ``a`` and the block ``b``
    under test, whose ops read earlier ops (dataflow), carry extra
    declared deps (serialization edges) and occupy 1-2 engines from a
    small pool, optionally behind a LOAD op."""
    cycles = st.integers(0, 30)
    pool = ("psa0", "psa1", "softmax", "adder")
    n_a = draw(st.integers(0, 3))
    n_b = draw(st.integers(2, 24))
    ops: list[Op] = []
    for i in range(n_a):
        ops.append(Op(i, OpKind.MATMUL, f"a{i}", ("psa0",), draw(cycles), (), "a"))
    b_ids = []
    if draw(st.booleans()):
        b_ids.append(len(ops))
        ops.append(Op(len(ops), OpKind.LOAD, "LW:b", ("hbm",), draw(cycles), (), "b"))
    for _ in range(n_b):
        i = len(ops)
        earlier = [j for j in range(i) if ops[j].kind is not OpKind.LOAD]
        reads = (
            draw(st.lists(st.sampled_from(earlier), unique=True, max_size=3))
            if earlier
            else []
        )
        extra = (
            draw(st.lists(st.sampled_from(range(i)), unique=True, max_size=2))
            if i
            else []
        )
        engines = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
        )
        kind = draw(st.sampled_from((OpKind.MATMUL, OpKind.VECTOR)))
        ops.append(Op(
            i, kind, f"b{i}", tuple(engines), draw(cycles),
            tuple(sorted(set(reads) | set(extra))), "b",
            inputs=(ValueRef("ext", "x"), *(ValueRef("op", j) for j in reads)),
        ))
        b_ids.append(i)
    blocks = (BlockIR("b", tuple(b_ids)),)
    if n_a:
        blocks = (BlockIR("a", tuple(range(n_a))), *blocks)
    fabric = Fabric(HardwareConfig(), CalibrationConfig())
    outputs = {"out": ValueRef("op", len(ops) - 1)}
    return BlockProgram(fabric, tuple(ops), blocks, outputs)


class TestListScheduleOracle:
    """The lazy re-key heap picks exactly what the O(n) ready-set scan
    of ``tests/reference_passes.py`` picked."""

    @given(block_dags())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference(self, program):
        blk = program.block("b")
        assert _list_schedule_block(program, blk) == reference_list_schedule_block(
            program, blk
        )

    def test_reorders_lowered_blocks_like_the_reference(self, small_config, fabric):
        program = lower_full_pass(small_config, fabric, 16)
        results = [_list_schedule_block(program, blk) for blk in program.blocks]
        assert any(r is not None for r in results)
        assert results == [
            reference_list_schedule_block(program, blk) for blk in program.blocks
        ]


COALESCE_MODEL = ModelConfig(num_encoders=4, num_decoders=2)


class TestCoalesceOracle:
    """Trial merges priced as one spliced ``BlockWork`` accept exactly
    the merges the one-rebuild-per-trial reference accepted."""

    @given(
        s=st.integers(1, 40),
        arch=st.sampled_from(["A1", "A2", "A3"]),
        split=st.sampled_from([None, "enc1", "enc3"]),
    )
    @example(s=8, arch="A1", split="enc3")
    @example(s=32, arch="A3", split=None)
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, fabric, s, arch, split):
        program = lower_full_pass(COALESCE_MODEL, fabric, s)
        if split is not None:
            program, _ = StageExposedLoadsPass(blocks=(split,), architecture=arch).run(
                program
            )
        got = CoalesceLoadsPass(architecture=arch).run(program)
        assert got == reference_coalesce(program, arch)

    def test_merges_are_accepted(self, fabric):
        program = lower_full_pass(COALESCE_MODEL, fabric, 8)
        merged, actions = CoalesceLoadsPass(architecture="A1").run(program)
        assert sum(a.startswith("coalesced") for a in actions) >= 1
        assert len(merged.blocks) < len(program.blocks)

    def test_unchanged_ops_are_shared(self, fabric):
        """A merge rebuilds only the ops it touches; every other op is
        the input program's object."""
        program = lower_full_pass(COALESCE_MODEL, fabric, 8)
        merged, _ = CoalesceLoadsPass(groups=(("enc1", "enc2"),)).run(program)
        touched = set(program.block("enc1").op_ids) | set(program.block("enc2").op_ids)
        for old, new in zip(program.ops, merged.ops):
            assert (new is old) == (old.op_id not in touched)
        assert merged.blocks[2:] == program.blocks[3:]
        assert all(a is b for a, b in zip(merged.blocks[2:], program.blocks[3:]))


class TestPrefixSharedSearch:
    """The search shares pipeline prefixes but prices and picks exactly
    what applying every candidate to the baseline did."""

    @pytest.mark.parametrize("arch", ["A2", "A3"])
    def test_candidate_programs_match_a_fresh_apply(self, small_config, fabric, arch):
        base = lower_full_pass(small_config, fabric, 20)
        candidates = a4_candidate_pipelines(arch)
        walked = list(_candidate_programs(base, candidates))
        assert [p for p, _ in walked] == candidates
        for pipeline, program in walked:
            fresh = pipeline.apply_program(base)
            assert dataclasses.replace(program, meta=fresh.meta) == fresh

    @pytest.mark.parametrize("s", [4, 20])
    def test_search_matches_reference(self, small_config, fabric, s):
        result = synthesize_a4(model=small_config, s=s)
        base = lower_full_pass(small_config, fabric, s)
        pipeline, cycles = reference_search(base, s, "A3", _overhead(fabric))
        assert result.pipeline == pipeline
        assert result.optimized_cycles == cycles
        assert result.program == pipeline.apply_program(base)
        assert result.psa_stalls_after == classify_stalls(
            result.program, "A3", _overhead(fabric)
        ).totals(".psa")

    def test_psa_stalls_classified_once_per_program(self, small_config, fabric):
        base = lower_full_pass(small_config, fabric, 12)
        first = _psa_stalls(base, "A3", _overhead(fabric))
        assert first == classify_stalls(base, "A3", _overhead(fabric)).totals(".psa")
        first["overhead"] = -1.0  # callers get a copy, not the memo
        assert _psa_stalls(base, "A3", _overhead(fabric))["overhead"] >= 0


class TestLazyA4Result:
    """An ``A4Result`` pins no program: the baseline is the lowering
    cache's object and the optimized program is rebuilt on first read."""

    def test_programs_are_not_fields(self, small_config):
        result = synthesize_a4(model=small_config, s=8)
        names = {f.name for f in dataclasses.fields(result)}
        assert not names & {"program", "baseline_program"}
        assert result.baseline_program is lower(result.spec)

    def test_program_built_on_first_read(self, small_config):
        synthesize_a4.cache_clear()
        result = synthesize_a4(model=small_config, s=8)
        assert "program" not in vars(result)
        program = result.program
        assert vars(result)["program"] is program is result.program
        assert program == result.pipeline.apply_program(result.baseline_program)

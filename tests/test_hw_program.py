"""The block-program IR: one lowering, three executors in lock-step.

The drift-lock sweep in ``test_hw_block_trace.py`` pins the cycle
numbers against the closed-form oracle (``tests/reference_cycles.py``);
this file pins the *structure*
of the program and the agreement between the executors — plus fault
injection as a program transform.
"""

import ast
import dataclasses
import importlib
import pkgutil
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hw
from repro.config import ModelConfig
from repro.hw import passes as passes_module
from repro.hw import program as program_module
from repro.hw.controller import AcceleratorController, LatencyModel
from repro.hw.dse import a4_candidate_pipelines
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
    program_unit_spans,
    resolve_head_parallelism,
    schedule_program,
    trace_block,
    trace_program,
)
from repro.hw.kernels import Fabric
from repro.hw.scheduler import Architecture, BlockWork, schedule
from tests.reference_lowering import lowering_listing, reference_lower

MODEL = ModelConfig(num_encoders=2, num_decoders=2)
SCOPES = [
    "full_pass", "encoder_stack", "decode_step", "mha", "ffn",
    "encoder_layer", "decoder_layer",
]


def encoder_stack_program(model, fabric, s):
    return lower(LoweringSpec("encoder_stack", model, fabric, s))


def asap_span(program, op_ids):
    """Makespan straight from ``_asap_times``, bypassing the memo."""
    times = program_module._asap_times(program, op_ids)
    return max((end for _, end in times.values()), default=0)


def reference_block_work(program, architecture):
    """The cycle executor's work units, recomputed from scratch on
    every call: no span or unit is read from the program's memo."""
    a3 = Architecture(architecture) is Architecture.A3
    blocks, units, i = program.blocks, [], 0
    while i < len(blocks):
        blk, j = blocks[i], i + 1
        if not a3 and blk.merge_group is not None:
            while j < len(blocks) and blocks[j].merge_group == blk.merge_group:
                j += 1
        group = blocks[i:j]
        if len(group) > 1:
            load = (
                blk.merged_load_cycles
                if blk.merged_load_cycles is not None
                else sum(g.load_cycles for g in group)
            )
            op_ids = [oid for g in group for oid in g.op_ids]
            units.append(
                BlockWork(blk.merge_group, load, asap_span(program, op_ids))
            )
        else:
            units.append(
                BlockWork(
                    blk.label,
                    blk.load_cycles,
                    asap_span(program, blk.op_ids),
                    channel_hint=blk.channel_hint if a3 else None,
                    overhead_override=blk.overhead_override if a3 else None,
                )
            )
        i = j
    return units


@pytest.fixture(scope="module")
def paper_layer(small_params):
    """One paper-sized encoder layer's parameters."""
    return small_params.encoders[0]


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

    @pytest.mark.parametrize("name", ["s", "t", "parallel_heads"])
    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_rejects_non_integer_fields(self, fabric, name, bad):
        fields = {"s": 8, name: bad}
        with pytest.raises(TypeError, match=f"^{name} must be an integer"):
            LoweringSpec("decode_step", MODEL, fabric, **fields)

    def test_numpy_integers_convert(self, fabric):
        spec = LoweringSpec(
            "decode_step", MODEL, fabric, np.int64(8), np.int32(3), np.int64(2)
        )
        assert {type(spec.s), type(spec.t), type(spec.parallel_heads)} == {int}
        assert lower(spec) is lower(LoweringSpec("decode_step", MODEL, fabric, 8, 3, 2))

    def test_hash_is_cached_and_consistent_with_equality(self, fabric):
        spec = LoweringSpec("decode_step", MODEL, fabric, 8, 3)
        same = LoweringSpec("decode_step", MODEL, Fabric(), 8, t=3)
        assert spec == same and hash(spec) == hash(same)
        assert spec.__dict__["_hash"] == hash(spec)
        slower = Fabric(dataclasses.replace(fabric.hardware, clock_mhz=150.0))
        other = LoweringSpec("decode_step", MODEL, slower, 8, 3)
        assert other != spec and lower(other) is not lower(spec)
        assert lower(other).fabric == slower
        assert dataclasses.replace(spec, t=4) == LoweringSpec(
            "decode_step", MODEL, fabric, 8, 4
        )

    def test_pickle_recomputes_the_hash(self, fabric):
        import pickle

        spec = LoweringSpec("decode_step", MODEL, fabric, 8, 3)
        object.__setattr__(spec, "_hash", 0)  # as if hashed elsewhere
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert hash(copy) == hash(LoweringSpec("decode_step", MODEL, fabric, 8, 3))


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

    def test_every_hw_cache_is_registered(self):
        """A cache outside ``lowering_cache_info()`` (other than the A4
        search's own) would survive perfbench's cold reset and turn the
        cold ``dse_sweep`` roots warm.  Every ``functools.lru_cache`` or
        ``functools.cache`` in ``repro.hw`` must decorate a module-level
        function that the registry lists by name, or be
        ``synthesize_a4``."""
        from repro.hw import dse

        registered = lowering_cache_info()
        found = []
        for info in pkgutil.iter_modules(repro.hw.__path__):
            module = importlib.import_module(f"repro.hw.{info.name}")
            tree = ast.parse(Path(module.__file__).read_text())
            decorates = {
                id(node): fn.name
                for fn in tree.body if isinstance(fn, ast.FunctionDef)
                for dec in fn.decorator_list for node in ast.walk(dec)
            }
            for use in _functools_caches(tree):
                where = f"repro.hw.{info.name}:{use.lineno}"
                assert id(use) in decorates, (
                    f"{where}: a cache that does not decorate a module-level "
                    f"function"
                )
                fn = getattr(module, decorates[id(use)])
                assert fn is dse.synthesize_a4 or (
                    fn.__name__ in registered
                    and getattr(program_module, fn.__name__, None) is fn
                ), f"{where}: {fn.__name__} is not in lowering_cache_info()"
                found.append(fn)
        assert lower in found and dse.synthesize_a4 in found


def _functools_caches(tree: ast.Module) -> list[ast.expr]:
    """Every expression in a module naming ``functools.lru_cache`` or
    ``functools.cache``."""
    kinds = ("lru_cache", "cache")
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names if alias.name in kinds
    }
    return [
        node for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in names)
        or (
            isinstance(node, ast.Attribute) and node.attr in kinds
            and isinstance(node.value, ast.Name) and node.value.id == "functools"
        )
    ]


@st.composite
def stack_specs(draw) -> LoweringSpec:
    """A lowering spec of a templated scope on a generated model: 0 to
    4 encoder and decoder layers (0 and 1 leave no copy to stamp), 1 to
    8 heads, and any s, t and head parallelism."""
    num_heads = draw(st.sampled_from([1, 2, 4, 8]))
    model = ModelConfig(
        d_model=num_heads * draw(st.sampled_from([4, 8, 16])),
        num_heads=num_heads,
        d_ff=draw(st.sampled_from([8, 24, 64])),
        num_encoders=draw(st.integers(0, 4)),
        num_decoders=draw(st.integers(0, 4)),
    )
    return LoweringSpec(
        draw(st.sampled_from([
            "full_pass", "encoder_stack", "decode_step", "encoder_layer",
            "decoder_layer",
        ])),
        model,
        Fabric(),
        draw(st.integers(1, 40)),
        draw(st.none() | st.integers(1, 40)),
        draw(st.none() | st.integers(1, 8)),
    )


class TestTemplateLowering:
    """Stamping layer templates builds the program the per-layer loop
    built (``tests/reference_lowering.py``), spans included."""

    @given(spec=stack_specs())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_layer_lowering(self, spec):
        assert lowering_listing(lower(spec)) == lowering_listing(
            reference_lower(spec)
        )

    def test_copies_share_the_template_spans(self, fabric):
        program = lower_full_pass(MODEL, fabric, 8)
        assert "block_spans" in program.__dict__
        assert_memo_matches_reference(program)

    @given(spec=stack_specs())
    @settings(max_examples=40, deadline=None)
    def test_block_views_before_ops_match_per_layer_lowering(self, spec):
        """The block views read before the copies' ops are built agree
        with the per-layer lowering, and so do the ops built after."""
        program = lower.__wrapped__(spec)  # fresh: no cached reads
        num_ops = program.num_ops
        blocks, outputs = program.blocks, program.outputs
        spans = dict(program.block_spans), dict(program.merge_group_spans)
        work = {arch: program_block_work(program, arch) for arch in Architecture}
        copy = program.with_meta({**program.meta, "note": 1})
        reference = reference_lower(spec)
        assert lowering_listing(program) == lowering_listing(reference)
        assert (blocks, outputs) == (reference.blocks, reference.outputs)
        assert spans == (
            dict(reference.block_spans), dict(reference.merge_group_spans)
        )
        assert work == {
            arch: program_block_work(reference, arch) for arch in Architecture
        }
        assert copy.ops is program.ops and passes_module._same_ir(program, copy)
        assert num_ops == program.num_ops == len(program.ops)

    def test_block_level_readers_build_no_copy_ops(self, monkeypatch):
        """A cold design point (its reports and the op count the
        ``dse`` sweeps record) and a decode iteration build the ops of
        the layer templates and of no copy: a block-level reader that
        touches ``ops`` fails here."""
        built, held = [0], [0]
        op_init = program_module.Op.__init__
        template_init = program_module._LayerTemplate.__init__

        def counting_op_init(self, *args, **kwargs):
            built[0] += 1
            op_init(self, *args, **kwargs)

        def counting_template_init(self, tb, *args, **kwargs):
            held[0] += tb.size
            template_init(self, tb, *args, **kwargs)

        monkeypatch.setattr(program_module.Op, "__init__", counting_op_init)
        monkeypatch.setattr(
            program_module._LayerTemplate, "__init__", counting_template_init
        )
        lower.cache_clear()
        lm = LatencyModel()
        for arch in ("A1", "A2", "A3"):
            assert lm.latency_report(32, arch).total_cycles > 0
        assert lm.decode_iteration_cycles([3, 7], 32) > 0
        num_ops = lm.full_pass_program(32).num_ops
        assert 0 < built[0] <= held[0] < num_ops

    def test_concurrent_first_reads_share_one_tuple(self):
        """Threads that read ``ops`` of a fresh program at once all get
        the one fully built tuple."""
        spec = LoweringSpec("full_pass", MODEL, Fabric(), 8)
        program = lower.__wrapped__(spec)
        start = threading.Barrier(8)
        seen = []

        def read():
            start.wait(timeout=30)
            seen.append(program.ops)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8 and all(ops is seen[0] for ops in seen)
        assert len(seen[0]) == program.num_ops
        assert lowering_listing(program) == lowering_listing(reference_lower(spec))


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

    @pytest.mark.parametrize("architecture", ["A1", "A2", "A3"])
    def test_unit_spans_match_the_schedule_timeline(self, program, architecture):
        spans, sched = program_unit_spans(program, architecture, 7)
        events = sched.timeline.events
        assert len(events) == 2 * len(spans)
        for span, load, comp in zip(spans, events[::2], events[1::2]):
            assert (load.label, comp.label) == (f"LW:{span.label}", f"C:{span.label}")
            assert span.load_engine == load.engine
            times = (
                span.load_start, span.load_end, span.compute_start, span.compute_end
            )
            assert times == (load.start, load.end, comp.start, comp.end)
            assert all(type(t) is float for t in times)

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

    @pytest.mark.parametrize("scope, shapes, bad", [
        ("ffn", {"x": (12, 512)}, "x"),
        ("ffn", {"x": (8, 500)}, "x"),
        ("ffn", {"x": (512,)}, "x"),
        ("mha", {"x_q": (8, 512), "x_kv": (12, 512)}, "x_kv"),
        ("mha", {"x_q": (2, 3, 8, 512), "x_kv": (8, 512)}, "x_q"),
        ("encoder_layer", {"x": (2, 12, 512)}, "x"),
    ])
    def test_rejects_a_mismatched_activation_shape(
        self, fabric, paper_layer, scope, shapes, bad
    ):
        """A program lowered at s = 8 prices 8 rows of width 512: any
        other activation shape is refused, naming the input and both
        shapes, instead of running at a price that is not its own."""
        program = lower(LoweringSpec(scope, ModelConfig(), fabric, 8))
        root = paper_layer if scope == "encoder_layer" else getattr(paper_layer, scope)
        inputs = {name: np.ones(shape, np.float32) for name, shape in shapes.items()}
        got = str(shapes[bad]).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(
            ValueError,
            match=rf"input '{bad}' must have shape \(8, 512\) or \(B, 8, 512\); got {got}",
        ):
            execute_program(program, root=root, inputs=inputs)

    def test_rejects_a_step_input_with_more_than_one_row(self, fabric, small_params):
        ctrl = AcceleratorController(small_params)
        cache = ctrl.build_kv_cache(np.ones((4, 512), np.float32))
        program = lower_decode_step(small_params.config, fabric, 1, 4)
        with pytest.raises(ValueError, match=r"input 'x' must have shape \(1, 512\)"):
            execute_program(
                program, root=small_params,
                inputs={"x": np.ones((2, 512), np.float32)}, caches=cache.layers,
            )
        assert cache.length == 0 and cache.layers[0].self_k == []

    def test_accepts_a_leading_batch_axis(self, fabric, paper_layer):
        program = lower(LoweringSpec("ffn", ModelConfig(), fabric, 8))
        x = np.random.default_rng(0).standard_normal((3, 8, 512)).astype(np.float32)
        run = execute_program(program, root=paper_layer.ffn, inputs={"x": x})
        assert run.outputs["output"].shape == (3, 8, 512)

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


def assert_memo_matches_reference(program):
    assert program.block_spans == {
        blk.label: asap_span(program, blk.op_ids) for blk in program.blocks
    }
    for arch in Architecture:
        assert program_block_work(program, arch) == reference_block_work(
            program, arch
        )


class TestSpanMemo:
    """Spans and work units are computed once per program and equal
    what a fresh ASAP pass gives."""

    @pytest.mark.parametrize("scope", SCOPES)
    @pytest.mark.parametrize("s", [1, 8, 18, 32])
    def test_memo_equals_reference_per_scope(self, fabric, scope, s):
        assert_memo_matches_reference(lower(LoweringSpec(scope, MODEL, fabric, s)))

    def test_memo_equals_reference_on_a4_candidates(self, fabric):
        # The pipelines ``synthesize_a4`` searches at s = 8, applied to
        # the small model (the paper model takes ~15 s to transform).
        base = lower_full_pass(MODEL, fabric, 8)
        for pipeline in a4_candidate_pipelines("A3"):
            assert_memo_matches_reference(pipeline.apply_program(base))

    def test_spans_are_read_off_block_shapes(
        self, fabric, small_params, rng, monkeypatch
    ):
        """Every block of a lowering carries its template's shape, so no
        span, merge-group span or work unit runs an ASAP pass over ops
        or derives a shape from them."""
        cfg = small_params.config
        # ``replace`` builds a new program object with an empty memo.
        program = dataclasses.replace(lower_full_pass(cfg, fabric, 4))
        calls = []
        for name in ("_asap_times", "_shape_from_ops"):
            real = getattr(program_module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(program_module, name, counting)
        inputs = {
            "x": rng.standard_normal((4, cfg.d_model)).astype(np.float32),
            "dec_in": rng.standard_normal((4, cfg.d_model)).astype(np.float32),
        }
        for _ in range(3):
            for arch in Architecture:
                program_block_work(program, arch)
                schedule_program(program, arch)
            execute_program(program, root=small_params, inputs=inputs)
        merge_groups = {b.merge_group for b in program.blocks} - {None}
        assert len(merge_groups) == cfg.num_decoders
        assert len(program.merge_group_spans) == cfg.num_decoders
        assert calls == []
        assert dict(program.block_spans) == {
            blk.label: asap_span(program, blk.op_ids) for blk in program.blocks
        }

    def test_run_cycles_are_a_copy(self, fabric, small_params, rng):
        program = encoder_stack_program(small_params.config, fabric, 4)
        x = rng.standard_normal((4, small_params.config.d_model))
        run = execute_program(
            program, root=small_params, inputs={"x": x.astype(np.float32)}
        )
        before = dict(program.block_spans)
        run.block_compute_cycles["enc1"] = -1
        run.block_compute_cycles["extra"] = 0
        assert program.block_spans == before
        with pytest.raises(TypeError):
            program.block_spans["enc1"] = -1

    def test_block_work_is_a_new_list(self, program):
        first = program_block_work(program, "A3")
        first.clear()
        second = program_block_work(program, "A3")
        assert second and second is not program_block_work(program, "A3")

    def test_unknown_block_label_names_it(self, program):
        with pytest.raises(KeyError, match="nope"):
            block_compute_cycles(program, "nope")


def reference_iteration_cycles(lm, lengths, s, arch, share_weights):
    """One decode iteration priced from uncached spans."""
    chain = []
    for i, t in enumerate(lengths):
        for w in reference_block_work(lm.decode_step_program(t, s), arch):
            chain.append(
                dataclasses.replace(
                    w,
                    label=f"r{i}:{w.label}",
                    load_cycles=w.load_cycles if i == 0 or not share_weights else 0,
                )
            )
    result = schedule(arch, chain, lm.calibration.block_overhead_cycles)
    t_in, t_out = lm.io_transfer_cycles(1)
    return result.total_cycles + (t_in + t_out) * len(lengths)


class TestIterationPricingProperty:
    LM = LatencyModel()

    @given(
        st.lists(st.integers(1, 32), min_size=1, max_size=8),
        st.sampled_from([8, 32]),
        st.sampled_from(list(Architecture)),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_iteration_cycles_match_uncached_reference(
        self, lengths, s, arch, share_weights
    ):
        lm = self.LM
        total = lm.decode_iteration_cycles(lengths, s, arch, share_weights)
        assert total == reference_iteration_cycles(
            lm, lengths, s, arch, share_weights
        )
        shares = lm.per_member_cycle_shares(lengths, s, arch, share_weights)
        assert len(shares) == len(lengths)
        assert sum(shares) == total

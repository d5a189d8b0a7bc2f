"""Block shapes: the record each block of a lowered or pass-rewritten
program carries equals what walking its ops gives
(``tests/reference_shapes.py``); a cold A4 search derives each distinct
shape once and builds no op for a block its winner did not rewrite; a
corrupted rewrite still fails the pass that made it; and programs,
built or not, survive pickle and deepcopy."""

from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw import passes
from repro.hw import program as program_module
from repro.hw.dse import _candidate_programs, a4_candidate_pipelines, synthesize_a4
from repro.hw.introspect import classify_stalls, psa_stall_totals
from repro.hw.kernels import Fabric
from repro.hw.passes import (
    CoalesceLoadsPass,
    PassError,
    PassPipeline,
    PrefetchChannelPass,
    ReorderOpsPass,
    StageExposedLoadsPass,
    _rebuild_program,
)
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    LoweringSpec,
    OpKind,
    _asap_times,
    _makespan,
    _shaped,
    _union_shape,
    _union_span,
    _unit_groups,
    _unit_shape,
    lower,
    lowering_cache_info,
)
from tests.reference_lowering import lowering_listing
from tests.reference_shapes import (
    reference_block_shape,
    reference_psa_stall_totals,
    reference_validate_program,
)

FABRIC = Fabric(HardwareConfig(), CalibrationConfig())
OVERHEAD = FABRIC.calibration.block_overhead_cycles
SMALL = ModelConfig(num_encoders=3, num_decoders=2)


def _expand(links, ids, ports) -> list[int]:
    """A shape entry's links as op ids: positions through the block's
    ids, ports through the block's ports."""
    out: list[int] = []
    for q in links:
        out.extend(ports[-1 - q] if q < 0 else (ids[q],))
    return sorted(out)


def _psa_profile(program: BlockProgram, op_ids) -> tuple:
    """Per PSA lane (busy cycles, last end) over an ASAP pass of the ops."""
    lanes: dict[str, list[int]] = {}
    for op_id, (start, end) in _asap_times(program, op_ids).items():
        if end == start:
            continue
        for lane in program.ops[op_id].engines:
            if ".psa" in lane:
                acc = lanes.setdefault(lane, [0, 0])
                acc[0] += end - start
                acc[1] = max(acc[1], end)
    return tuple((lane, busy, end) for lane, (busy, end) in lanes.items())


def assert_shapes_match_ops(program: BlockProgram, architecture: str) -> None:
    """Every block's record against its ops; merge groups, adjacent
    pairs and the PSA stall totals against op-walking oracles."""
    ops = program.ops
    reference_validate_program(program)
    for blk in program.blocks:
        shaped = _shaped(program, blk)
        shape = shaped.shape
        comps, key = reference_block_shape(program, blk)
        assert [blk.op_ids[p] for p in shape.comps] == comps
        assert (shape.by_id, shape.rows) == key
        assert dict(zip(comps, shape.times)) == _asap_times(program, blk.op_ids)
        assert shape.span == _makespan(program, blk.op_ids)
        assert program.block_spans[blk.label] == shape.span
        assert shape.kinds == tuple(ops[i].kind for i in blk.op_ids)
        assert shape.semantics == tuple(ops[i].semantic for i in blk.op_ids)
        assert shape.psa == _psa_profile(program, blk.op_ids)
        for entry, op_id in zip(shape.entries, blk.op_ids):
            op = ops[op_id]
            assert _expand(entry[4], blk.op_ids, shaped.ports) == sorted(op.deps)
            assert _expand(entry[5], blk.op_ids, shaped.ports) == sorted(
                ref.key for ref in op.inputs if ref.kind == "op"
            )
    for group in _unit_groups(program.blocks, merge=True):
        if len(group) > 1:
            ids = [i for blk in group for i in blk.op_ids]
            unit = _unit_shape(program, group)
            assert unit.span == _makespan(program, ids)
            assert program.merge_group_spans[group[0].merge_group] == unit.span
            assert unit.psa == _psa_profile(program, ids)
    for a, b in zip(program.blocks, program.blocks[1:]):
        first, second = _shaped(program, a), _shaped(program, b)
        span = _makespan(program, a.op_ids + b.op_ids)
        assert _union_span(first, second) == span
        assert _union_shape(first, second)[0].span == span
    assert psa_stall_totals(program, architecture, OVERHEAD) == (
        reference_psa_stall_totals(program, architecture, OVERHEAD)
    )


@st.composite
def pass_programs(draw):
    """A lowered full pass of a small model and a pipeline of passes,
    a subset of the four in any order, under one architecture."""
    d_model, heads, d_ff = draw(st.sampled_from(
        [(64, 2, 128), (128, 4, 256), (512, 8, 2048)]
    ))
    encoders = draw(st.integers(0, 3))
    model = ModelConfig(
        d_model=d_model, num_heads=heads, d_ff=d_ff, num_encoders=encoders,
        num_decoders=draw(st.integers(0 if encoders else 1, 2)),
    )
    spec = LoweringSpec(
        "full_pass", model, FABRIC, draw(st.integers(1, 40)),
        draw(st.none() | st.integers(1, 40)),
        draw(st.none() | st.integers(1, 8)),
    )
    arch = draw(st.sampled_from(["A1", "A2", "A3"]))
    pool = [
        StageExposedLoadsPass(limit=draw(st.integers(1, 3)), architecture=arch),
        CoalesceLoadsPass(architecture=arch),
        PrefetchChannelPass(
            num_weight_buffers=draw(st.none() | st.integers(2, 4)),
            architecture=arch,
        ),
        ReorderOpsPass(architecture=arch),
    ]
    order = draw(st.permutations(pool))
    return spec, PassPipeline(tuple(order[:draw(st.integers(0, 4))]), arch)


class TestShapesMatchOps:
    @given(pass_programs())
    @settings(max_examples=60, deadline=None)
    def test_every_pass_output(self, case):
        """Lowered programs and the output of every pass of a pipeline
        carry the records their ops give."""
        spec, pipeline = case
        program = lower.__wrapped__(spec)
        assert all(blk.shape is not None for blk in program.blocks)
        assert_shapes_match_ops(program, pipeline.architecture)
        for p in pipeline.passes:
            program, _ = p.run(program)
            assert all(blk.shape is not None for blk in program.blocks)
            assert_shapes_match_ops(program, pipeline.architecture)
        assert psa_stall_totals(program, pipeline.architecture, OVERHEAD) == (
            classify_stalls(program, pipeline.architecture, OVERHEAD).totals(".psa")
        )

    @pytest.mark.parametrize(
        "model,s,arch",
        [(ModelConfig(), 8, "A3"), (ModelConfig(), 32, "A3"), (SMALL, 20, "A2")],
        ids=["paper-8-A3", "paper-32-A3", "small-20-A2"],
    )
    def test_every_a4_grid_program(self, model, s, arch):
        """Every program the A4 grid's passes produce, the final
        reorders included."""
        base = lower.__wrapped__(LoweringSpec("full_pass", model, FABRIC, s))
        seen: dict[int, BlockProgram] = {id(base): base}
        for _, steps, reorder in _candidate_programs(
            base, a4_candidate_pipelines(arch)
        ):
            for step in steps:
                seen.setdefault(id(step.after), step.after)
            if reorder is not None:
                out = reorder.run(steps[-1].after if steps else base)[0]
                seen.setdefault(id(out), out)
        for program in seen.values():
            assert_shapes_match_ops(program, arch)

    @pytest.mark.parametrize("scope", ["decode_step", "mha", "ffn", "encoder_layer"])
    def test_other_scopes(self, scope):
        program = lower.__wrapped__(LoweringSpec(scope, SMALL, FABRIC, 8, 5))
        for arch in ("A1", "A3"):
            assert_shapes_match_ops(program, arch)


def _count(monkeypatch, owner, name: str, calls: list) -> None:
    """Record each call of ``owner.name`` (its first argument)."""
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args[0] if args else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


class TestColdSearch:
    """A cold ``synthesize_a4`` reads block shapes, not ops."""

    @pytest.fixture
    def cold(self):
        for name in lowering_cache_info():
            getattr(program_module, name).cache_clear()
        synthesize_a4.cache_clear()
        yield
        synthesize_a4.cache_clear()

    @pytest.mark.parametrize("s", [8, 32])
    def test_facts_once_per_shape_and_no_op_built(self, cold, monkeypatch, s):
        shapes: list = []
        real_init = program_module.BlockShape.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            shapes.append(self)

        built, from_ops, scheduled = [0], [], []
        real_op_init = program_module.Op.__init__

        def counting_op_init(self, *args, **kwargs):
            built[0] += 1
            real_op_init(self, *args, **kwargs)

        monkeypatch.setattr(program_module.BlockShape, "__init__", recording_init)
        monkeypatch.setattr(program_module.Op, "__init__", counting_op_init)
        _count(monkeypatch, program_module, "_shape_from_ops", from_ops)
        _count(monkeypatch, passes, "_schedule_shape", scheduled)

        result = synthesize_a4(s=s)
        # One record per distinct shape, the three template blocks'
        # from ops (enc1, dec1m, dec1f), the rest derived from records.
        assert len(set(shapes)) == len(shapes)
        assert len(from_ops) == 3
        assert len(set(scheduled)) == len(scheduled)
        template_ops = sum(
            len(blk.op_ids) for blk in lower(result.spec).blocks
            if blk.label in ("enc1", "dec1m", "dec1f")
        )
        assert built[0] == template_ops
        program = result.program
        assert built[0] == template_ops
        assert program.num_ops == len(program.ops)
        assert built[0] > template_ops

    @pytest.mark.parametrize("s", [8, 32])
    def test_records_are_freed_without_the_cycle_collector(
        self, cold, monkeypatch, s
    ):
        """The derivation memos hold no reference cycle (fusing two
        copies of one layer pairs a record with itself), so clearing the
        caches frees every record a search made by reference counting
        alone, with nothing left for the cycle collector."""
        refs: list = []
        real_init = program_module.BlockShape.__init__

        def recording_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            refs.append(weakref.ref(self))

        monkeypatch.setattr(program_module.BlockShape, "__init__", recording_init)
        gc.collect()
        gc.disable()
        try:
            result = synthesize_a4(s=s)
            assert result.optimized_cycles < result.baseline_cycles
            del result
            for name in lowering_cache_info():
                getattr(program_module, name).cache_clear()
            synthesize_a4.cache_clear()
            assert refs and [ref for ref in refs if ref() is not None] == []
        finally:
            gc.enable()

    @pytest.mark.parametrize("s", [8, 32])
    def test_winner_builds_only_the_ops_it_moves(self, cold, s):
        """Reading the winner builds the baseline's ops and one copy of
        each op whose id, deps or block the winning rewrites change."""
        result = synthesize_a4(s=s)
        base = result.baseline_program.ops
        optimized = result.program.ops
        shared = {id(op) for op in base}
        copied = [op for op in optimized if id(op) not in shared]
        changed = [
            op for op in optimized
            if op.op_id >= len(base) or base[op.op_id] != op
        ]
        assert len(copied) == len(changed)


class TestCorruptedRewrites:
    """The rebuild checks a rewrite from the blocks' shapes and ports
    before the pass returns, without building ops."""

    @pytest.fixture
    def program(self):
        # Fresh shapes: nothing memoized on them by other tests.
        return lower.__wrapped__(LoweringSpec("full_pass", SMALL, FABRIC, 8))

    def test_a_list_schedule_out_of_order(self, program, monkeypatch):
        def reversed_plan(shape):
            n = len(shape.rows)
            if n < 2:
                return None
            return shape.span - 1, list(reversed(range(n))), [()] * n

        monkeypatch.setattr(passes, "_schedule_shape", reversed_plan)
        with pytest.raises(PassError, match="later op"):
            ReorderOpsPass().run(program)

    def test_a_split_with_swapped_parts(self, program, monkeypatch):
        real = passes._split_shape

        def swapped(shape, at):
            m, m_moved, f, f_moved = real(shape, at)
            return f, f_moved, m, m_moved

        monkeypatch.setattr(passes, "_split_shape", swapped)
        with pytest.raises(PassError, match="holds"):
            StageExposedLoadsPass(blocks=("enc2",)).run(program)

    def test_a_port_naming_a_later_op(self, program, monkeypatch):
        real = passes._split_parts

        def later_port(prog, label, model):
            m_blk, f_blk = real(prog, label, model)
            ports = tuple((prog.num_ops - 1,) for _ in m_blk.ports)
            return passes._copy(m_blk, ports=ports), f_blk

        monkeypatch.setattr(passes, "_split_parts", later_port)
        with pytest.raises(PassError, match="links to later op"):
            StageExposedLoadsPass(blocks=("enc2",)).run(program)

    def test_a_merge_with_a_short_union(self, program, monkeypatch):
        monkeypatch.setattr(
            passes, "_union_shape", lambda first, second: (first.shape, first.ports)
        )
        with pytest.raises(PassError, match="holds"):
            CoalesceLoadsPass(groups=(("enc1", "enc2"),)).run(program)

    def test_orders_that_repeat_or_drop_ops(self, program):
        n = program.num_ops
        with pytest.raises(PassError, match="twice"):
            _rebuild_program(program, [0, *range(n)], program.blocks)
        with pytest.raises(PassError, match="lacks"):
            _rebuild_program(program, [*range(n - 1), n], program.blocks)
        with pytest.raises(PassError, match="outside the rebuilt order"):
            _rebuild_program(program, list(range(n - 1)), program.blocks)
        blocks = (*program.blocks[:-1], BlockIR("x", ()))
        with pytest.raises(PassError, match="partition"):
            _rebuild_program(program, list(range(n)), blocks)


def _digest(program: BlockProgram) -> str:
    return hashlib.sha256(lowering_listing(program).encode()).hexdigest()


class TestPickling:
    """Programs rebuild through the constructor from their built ops,
    spans and shapes included."""

    CASES = {
        "full_pass": lambda: lower.__wrapped__(
            LoweringSpec("full_pass", ModelConfig(), FABRIC, 8)
        ),
        "decode_step": lambda: lower.__wrapped__(
            LoweringSpec("decode_step", ModelConfig(), FABRIC, 8, 5)
        ),
        "a4_winner": lambda: synthesize_a4(model=SMALL, s=32).program,
    }

    @pytest.mark.parametrize("read_first", [False, True], ids=["unbuilt", "built"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_round_trips(self, case, read_first):
        program = self.CASES[case]()
        if read_first:
            program.ops, program.block_spans, program.merge_group_spans
        copies = [pickle.loads(pickle.dumps(program)), copy.deepcopy(program)]
        digest = _digest(program)
        for clone in copies:
            assert _digest(clone) == digest
            assert clone == program
            assert [b.shape for b in clone.blocks] == [b.shape for b in program.blocks]
            assert all(
                b.ports == c.ports for b, c in zip(clone.blocks, program.blocks)
            )

    def test_the_copy_keeps_working(self):
        program = pickle.loads(pickle.dumps(self.CASES["full_pass"]()))
        out, _ = ReorderOpsPass().run(program)
        assert_shapes_match_ops(out, "A3")
        assert {op.kind for op in out.ops} >= {OpKind.LOAD, OpKind.MATMUL}

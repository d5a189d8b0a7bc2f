"""The decode step template: ``lower`` lowers the KV-cached decode step
once per (model, fabric, s, parallel_heads) and returns the step at
each prefix length t as a re-timed view of it.

The step at t must be the program the per-layer lowering builds
(``tests/reference_lowering.py``), op for op, spans and work units
included; the one plan its template shares must run it bit for bit
like a plan built from that t's own ops, scalar and batched; a view
survives pickle and deepcopy; and a whole decode lowers the template
once, builds one plan and no per-t ops.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.hw import executor as executor_module
from repro.hw import program as program_module
from repro.hw.controller import AcceleratorController
from repro.hw.executor import execute_program
from repro.hw.kernels import Fabric
from repro.hw.kv_cache import batch_layer_caches
from repro.hw.program import (
    BlockProgram,
    LoweringSpec,
    PlanOp,
    _build_plan,
    lower,
    lowering_cache_info,
    program_block_work,
    program_op_counts,
)
from repro.hw.scheduler import Architecture
from repro.model.params import init_transformer_params
from tests.reference_lowering import lowering_listing, reference_lower

FABRIC = Fabric()


def _digest(program: BlockProgram) -> str:
    return hashlib.sha256(lowering_listing(program).encode()).hexdigest()


@st.composite
def step_specs(draw, max_t: int = 40) -> LoweringSpec:
    """A decode step on a generated model: 1 to 3 decoder layers, 1 to
    8 heads, and any s, t and head parallelism."""
    num_heads = draw(st.sampled_from([1, 2, 4, 8]))
    model = ModelConfig(
        d_model=num_heads * draw(st.sampled_from([4, 8, 16])),
        num_heads=num_heads,
        d_ff=draw(st.sampled_from([8, 24, 64])),
        num_encoders=1,
        num_decoders=draw(st.integers(1, 3)),
    )
    return LoweringSpec(
        "decode_step",
        model,
        FABRIC,
        draw(st.integers(1, 40)),
        draw(st.integers(1, max_t)),
        draw(st.none() | st.integers(1, 8)),
    )


def _own_plan_program(view: BlockProgram) -> BlockProgram:
    """The step at ``view``'s t rebuilt from its ops, so its execution
    plan is built from that t's ops."""
    return BlockProgram(view.fabric, view.ops, view.blocks, view.outputs, view.meta)


class TestReTimedStep:
    @given(spec=step_specs())
    @settings(max_examples=60, deadline=None)
    def test_materializes_the_per_layer_lowering(self, spec):
        fresh = lower.__wrapped__(spec)
        reference = reference_lower(spec)
        assert lowering_listing(fresh) == lowering_listing(reference)
        assert lowering_listing(lower(spec)) == lowering_listing(reference)

    @given(spec=step_specs())
    @settings(max_examples=60, deadline=None)
    def test_spans_and_work_before_any_op_is_built(self, spec):
        view = lower.__wrapped__(spec)
        reference = reference_lower(spec)
        assert dict(view.block_spans) == dict(reference.block_spans)
        assert dict(view.merge_group_spans) == dict(reference.merge_group_spans)
        for arch in Architecture:
            assert program_block_work(view, arch) == program_block_work(
                reference, arch
            )
        assert program_op_counts(view) == program_op_counts(reference)
        assert view.num_ops == reference.num_ops
        assert "ops" not in view.__dict__

    @given(spec=step_specs())
    @settings(max_examples=30, deadline=None)
    def test_the_shared_plan_holds_nothing_of_t(self, spec):
        view = lower.__wrapped__(spec)
        own = _build_plan([PlanOp.of(op) for op in view.ops if op.semantic])
        assert view.execution_plan == own
        if spec.t != 1:  # a fresh first step lowers its own template
            first = lower(LoweringSpec(
                "decode_step", spec.model, FABRIC, spec.s, 1, spec.parallel_heads
            ))
            assert view.execution_plan is first.execution_plan

    @given(spec=step_specs(), read_first=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_pickle_and_deepcopy_keep_the_digest(self, spec, read_first):
        view = lower.__wrapped__(spec)
        if read_first:
            view.ops
        digest = _digest(reference_lower(spec))
        for clone in (
            pickle.loads(pickle.dumps(view)),
            copy.deepcopy(view),
            view.with_meta(dict(view.meta)),
        ):
            assert _digest(clone) == digest
            assert clone == view
        assert _digest(view) == digest


def _decode_case(spec: LoweringSpec, batch: int | None, seed: int):
    """A controller for ``spec``'s model and ``batch`` caches (one when
    None) at prefix ``t - 1``, each over its own memory."""
    params = init_transformer_params(spec.model, seed=seed)
    ctrl = AcceleratorController(
        params, hardware=FABRIC.hardware, parallel_heads=spec.parallel_heads
    )
    rng = np.random.default_rng(seed)
    d = spec.model.d_model
    caches = []
    for _ in range(batch or 1):
        cache = ctrl.build_kv_cache(
            rng.standard_normal((spec.s, d)).astype(np.float32)
        )
        for _ in range(spec.t - 1):
            ctrl.run_decoder_step(rng.standard_normal(d).astype(np.float32), cache)
        caches.append(cache)
    return params, caches, rng


def _assert_caches_identical(got, want):
    for g, w in zip(got.layers, want.layers, strict=True):
        for bank in ("self_k", "self_v", "cross_k", "cross_v"):
            assert len(getattr(g, bank)) == len(getattr(w, bank))
            for a, b in zip(getattr(g, bank), getattr(w, bank)):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestSharedPlanRuns:
    """A step run through its template's plan equals the same step run
    through a plan built from its own ops, bit for bit."""

    @given(spec=step_specs(max_t=6), batch=st.none() | st.integers(1, 3),
           seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_bit_identical_to_a_per_t_plan(self, spec, batch, seed):
        params, caches, rng = _decode_case(spec, batch, seed)
        view = lower(spec)
        own = _own_plan_program(view)
        d = spec.model.d_model
        shape = (1, d) if batch is None else (batch, 1, d)
        mask = (np.arange(spec.s) < max(1, spec.s - 1))[None, :]
        inputs = {"x": rng.standard_normal(shape).astype(np.float32),
                  "memory_mask": mask}
        copies = copy.deepcopy(caches)

        def layers(cs):
            return cs[0].layers if batch is None else batch_layer_caches(cs)

        shared = execute_program(view, params, inputs, layers(caches))
        rebuilt = execute_program(own, params, inputs, layers(copies))
        assert own.execution_plan is not view.execution_plan
        assert shared.outputs["output"].tobytes() == rebuilt.outputs["output"].tobytes()
        assert shared.values.keys() == rebuilt.values.keys()
        for op_id, value in rebuilt.values.items():
            assert shared.values[op_id].tobytes() == value.tobytes()
        assert shared.block_compute_cycles == rebuilt.block_compute_cycles
        for got, want in zip(caches, copies):
            _assert_caches_identical(got, want)


class TestOneTemplatePerDecode:
    @pytest.fixture
    def cold(self):
        for name in lowering_cache_info():
            getattr(program_module, name).cache_clear()
        yield

    def test_a_31_token_decode_lowers_the_template_once(self, cold, monkeypatch):
        model = ModelConfig(num_encoders=1, num_decoders=2)
        templates, plans, built = [], [], [0]
        real_template = program_module._StepTemplate.__init__
        real_plan = program_module._build_plan
        real_op = program_module.Op.__init__

        def counting_template(self, *args, **kwargs):
            templates.append(self)
            real_template(self, *args, **kwargs)

        def counting_plan(ops):
            plans.append(len(ops))
            return real_plan(ops)

        def counting_op(self, *args, **kwargs):
            built[0] += 1
            real_op(self, *args, **kwargs)

        monkeypatch.setattr(program_module._StepTemplate, "__init__", counting_template)
        monkeypatch.setattr(program_module, "_build_plan", counting_plan)
        monkeypatch.setattr(program_module.Op, "__init__", counting_op)

        params = init_transformer_params(model, seed=3)
        ctrl = AcceleratorController(params)
        rng = np.random.default_rng(3)
        cache = ctrl.build_kv_cache(rng.standard_normal((32, 512)).astype(np.float32))
        pair = [ctrl.build_kv_cache(rng.standard_normal((32, 512)).astype(np.float32))
                for _ in range(2)]
        for _ in range(31):
            ctrl.run_decoder_step(rng.standard_normal(512).astype(np.float32), cache)
            ctrl.run_decoder_step_batch(
                rng.standard_normal((2, 512)).astype(np.float32), pair
            )
        assert cache.length == 31
        assert len(templates) == 1 and len(plans) == 1
        steps = [
            lower(LoweringSpec("decode_step", model, ctrl.fabric, 32, t))
            for t in range(1, 32)
        ]
        assert all("ops" not in step.__dict__ for step in steps)
        # The ops built are the template layer's and, once, the ones
        # its plan is built from: none per prefix length.
        (template,) = templates
        layer_ops = len(template.layer.rows)
        assert built[0] == layer_ops + steps[0].num_ops

    def test_a_31_token_decode_binds_once(self, monkeypatch):
        """The controller binds the step's plan once per batch rank and
        resolves each parameter path once per binding; every later
        token runs the memoized binding."""
        model = ModelConfig(num_encoders=1, num_decoders=2)
        binds, resolved = [], []
        real_bind = executor_module._BoundPlan.__init__
        real_resolve = program_module.ParamRef.resolve

        def counting_bind(self, plan, fabric, root, hook, rank):
            binds.append(rank)
            real_bind(self, plan, fabric, root, hook, rank)

        def counting_resolve(self, root):
            resolved.append(self.dotted)
            return real_resolve(self, root)

        monkeypatch.setattr(executor_module._BoundPlan, "__init__", counting_bind)
        monkeypatch.setattr(program_module.ParamRef, "resolve", counting_resolve)
        params = init_transformer_params(model, seed=3)
        ctrl = AcceleratorController(params)
        rng = np.random.default_rng(3)

        def cache():
            return ctrl.build_kv_cache(
                rng.standard_normal((32, 512)).astype(np.float32)
            )

        solo, pair = cache(), [cache(), cache()]
        for _ in range(31):
            ctrl.run_decoder_step(rng.standard_normal(512).astype(np.float32), solo)
        plan = lower(LoweringSpec("decode_step", model, ctrl.fabric, 32, 1)).execution_plan
        paths = [ref.dotted for step in plan for ref in step.ops[0].params]
        assert binds == [0]
        assert sorted(resolved) == sorted(paths)
        assert len(set(paths)) == len(paths)
        # A batch at two prefix lengths binds once more, at rank 1.
        ctrl.run_decoder_step(rng.standard_normal(512).astype(np.float32), pair[0])
        for _ in range(30):
            ctrl.run_decoder_step_batch(
                rng.standard_normal((2, 512)).astype(np.float32), pair
            )
        assert [c.length for c in pair] == [31, 30]
        assert binds == [0, 1]
        assert sorted(resolved) == sorted(paths * 2)

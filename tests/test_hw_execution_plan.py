"""The functional executor's execution plan: each attention head group
runs as one head-stacked kernel call, bit-identical to the per-op
interpreter it replaced (kept as the oracle in
``tests/reference_executor.py``)."""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ModelConfig
from repro.hw.adder import VectorAdder
from repro.hw.controller import AcceleratorController
from repro.hw.dse import a4_candidate_pipelines
from repro.hw.kernels import Fabric, mm1_product, mm2_product, mm3_product
from repro.hw.kv_cache import LayerKVCache, batch_layer_caches
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    LoweringSpec,
    Op,
    OpKind,
    ValueRef,
    execute_program,
    lower,
    lower_decode_step,
    lower_full_pass,
)
from repro.hw.systolic import ceil_div
from tests.reference_executor import reference_execute_ops

MODEL = ModelConfig(num_encoders=2, num_decoders=2)
SCOPES = [
    "full_pass", "encoder_stack", "decode_step", "mha", "ffn",
    "encoder_layer", "decoder_layer",
]
#: Decoder prefix length used with each encoder length.
T_FOR_S = {1: 1, 8: 5, 32: 7}


def _f32(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


def _key_mask(s, valid):
    return (np.arange(s) < valid)[None, :]


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_runs_identical(planned, reference):
    assert planned.outputs.keys() == reference.outputs.keys()
    for name, want in reference.outputs.items():
        assert_bits_equal(planned.outputs[name], want)
    assert planned.values.keys() == reference.values.keys()
    for op_id, want in reference.values.items():
        assert_bits_equal(planned.values[op_id], want)
    assert planned.block_compute_cycles == reference.block_compute_cycles


def assert_caches_identical(got_layers, want_layers):
    for got, want in zip(got_layers, want_layers, strict=True):
        for bank in ("self_k", "self_v", "cross_k", "cross_v"):
            got_bank, want_bank = getattr(got, bank), getattr(want, bank)
            assert len(got_bank) == len(want_bank)
            for g, w in zip(got_bank, want_bank):
                assert_bits_equal(np.asarray(g), np.asarray(w))


def run_both(program, root, inputs, caches=None, ref_caches=None):
    planned = execute_program(program, root, inputs, caches)
    reference = reference_execute_ops(program, root, inputs, ref_caches, None)
    assert_runs_identical(planned, reference)
    return planned


def _scope_case(params, scope, s, rng):
    """(root, inputs) of a program lowered for ``scope``."""
    d, t = params.config.d_model, T_FOR_S[s]
    key_mask = _key_mask(s, max(1, s - 2))
    self_mask = np.tril(np.ones((t, t), dtype=bool))
    if scope == "full_pass":
        return params, {
            "x": _f32(rng, s, d), "dec_in": _f32(rng, t, d),
            "enc_mask": key_mask, "dec_self_mask": self_mask,
            "dec_memory_mask": key_mask,
        }
    if scope == "encoder_stack":
        return params, {"x": _f32(rng, s, d), "enc_mask": key_mask}
    if scope == "mha":
        return params.encoders[0].mha, {
            "x_q": _f32(rng, t, d), "x_kv": _f32(rng, s, d), "mask": key_mask,
        }
    if scope == "ffn":
        return params.encoders[0].ffn, {"x": _f32(rng, s, d)}
    if scope == "encoder_layer":
        return params.encoders[0], {"x": _f32(rng, s, d), "mask": key_mask}
    assert scope == "decoder_layer"
    return params.decoders[0], {
        "x": _f32(rng, t, d), "memory": _f32(rng, s, d),
        "self_mask": self_mask, "memory_mask": key_mask,
    }


def _cache_at(ctrl, memory, prefix, rng):
    """A decoder cache over ``memory`` holding ``prefix`` banked rows."""
    cache = ctrl.build_kv_cache(memory)
    for _ in range(prefix):
        ctrl.run_decoder_step(_f32(rng, memory.shape[1]), cache)
    return cache


class TestOracle:
    """The planned executor against the per-op reference interpreter:
    outputs, every ``ProgramRun.values`` entry and the caches."""

    @pytest.mark.parametrize("s", sorted(T_FOR_S))
    @pytest.mark.parametrize("scope", [sc for sc in SCOPES if sc != "decode_step"])
    def test_every_scope(self, fabric, small_params, scope, s):
        rng = np.random.default_rng(s)
        program = lower(LoweringSpec(scope, MODEL, fabric, s, t=T_FOR_S[s]))
        root, inputs = _scope_case(small_params, scope, s, rng)
        run_both(program, root, inputs)

    @pytest.mark.parametrize("s", sorted(T_FOR_S))
    def test_scalar_decode_step(self, small_params, s):
        rng = np.random.default_rng(10 + s)
        ctrl = AcceleratorController(small_params)
        d = MODEL.d_model
        for prefix in (0, T_FOR_S[s]):
            cache = _cache_at(ctrl, _f32(rng, s, d), prefix, rng)
            ref = copy.deepcopy(cache)
            program = lower_decode_step(MODEL, ctrl.fabric, prefix + 1, s)
            inputs = {"x": _f32(rng, 1, d), "memory_mask": _key_mask(s, max(1, s - 1))}
            run_both(program, small_params, inputs, cache.layers, ref.layers)
            assert_caches_identical(cache.layers, ref.layers)

    @pytest.mark.parametrize("s", [1, 8])
    def test_batched_decode_step(self, small_params, s):
        rng = np.random.default_rng(20 + s)
        ctrl = AcceleratorController(small_params)
        d, batch, prefix = MODEL.d_model, 3, 2
        caches = [_cache_at(ctrl, _f32(rng, s, d), prefix, rng) for _ in range(batch)]
        refs = copy.deepcopy(caches)
        program = lower_decode_step(MODEL, ctrl.fabric, prefix + 1, s)
        masks = np.stack([_key_mask(s, v) for v in (s, max(1, s - 1), 1)])
        inputs = {"x": _f32(rng, batch, 1, d), "memory_mask": masks}
        run_both(
            program, small_params, inputs,
            batch_layer_caches(caches), batch_layer_caches(refs),
        )
        for cache, ref in zip(caches, refs):
            assert_caches_identical(cache.layers, ref.layers)

    def test_every_a4_candidate(self, fabric, small_params):
        # The pipelines ``synthesize_a4`` searches at s = 8, applied to
        # the small model.
        rng = np.random.default_rng(30)
        base = lower_full_pass(MODEL, fabric, 8, T_FOR_S[8])
        root, inputs = _scope_case(small_params, "full_pass", 8, rng)
        orders = set()
        for pipeline in a4_candidate_pipelines("A3"):
            program = pipeline.apply_program(base)
            orders.add(tuple(op.label for op in program.ops))
            run_both(program, root, inputs)
        # Some candidates reorder ops, so the oracle saw new op orders.
        assert len(orders) > 1


def per_head_mm1(fabric, x, w):
    """The 2-D MM1 of one head: stripe products on the PSA, left-folded."""
    stripe = fabric.hardware.psa_cols
    return VectorAdder.accumulate([
        fabric.psa.matmul(x[:, i * stripe:(i + 1) * stripe], w[i * stripe:(i + 1) * stripe])
        for i in range(ceil_div(x.shape[1], stripe))
    ])


def _members(arr, lead):
    """The 2-D matrices of one head's slice, one per batch member."""
    return [arr] if not lead else list(arr)


class TestHeadStackedKernels:
    """Head-stacked products equal the per-head 2-D calls bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.integers(1, 32),
        t=st.integers(1, 32),
        batch=st.sampled_from([None, 1, 2, 3, 4]),
        d_model=st.sampled_from([64, 400, 512]),
        heads=st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_equals_per_head(self, s, t, batch, d_model, heads, seed):
        fabric = Fabric()
        rng = np.random.default_rng(seed)
        lead = () if batch is None else (batch,)
        n, d_k = len(heads), 64
        x = _f32(rng, *lead, s, d_model)
        weights = _f32(rng, 8, d_model, d_k)
        stack = weights[heads].reshape(n, *(1,) * len(lead), d_model, d_k)
        got = mm1_product(fabric, x[None], stack)
        for j, h in enumerate(heads):
            for member, row in zip(_members(got[j], lead), _members(x, lead)):
                assert_bits_equal(member, per_head_mm1(fabric, row, weights[h]))

        q, k = _f32(rng, n, *lead, s, d_k), _f32(rng, n, *lead, t, d_k)
        attn, v = _f32(rng, n, *lead, s, t), _f32(rng, n, *lead, t, d_k)
        scores, context = mm2_product(q, k), mm3_product(attn, v)
        for j in range(n):
            pairs = zip(
                _members(scores[j], lead), _members(q[j], lead), _members(k[j], lead)
            )
            for got_s, q2, k2 in pairs:
                assert_bits_equal(got_s, fabric.psa.matmul(q2, k2.T))
            pairs = zip(
                _members(context[j], lead), _members(attn[j], lead), _members(v[j], lead)
            )
            for got_c, a2, v2 in pairs:
                assert_bits_equal(got_c, fabric.psa.matmul(a2, v2))


def _hand_op(op_id, semantic, inputs, **attrs):
    kind = OpKind.CACHE if semantic.startswith("cache") else OpKind.MATMUL
    return Op(
        op_id=op_id, kind=kind, label=f"op{op_id}", engines=(), cycles=0,
        deps=(), block="b", semantic=semantic, inputs=inputs, attrs=attrs,
    )


def _hazard_program(fabric, read_last):
    """Two heads' K appends and one head-0 read of that bank; grouping
    the appends runs both at the second one's position."""
    row, q = ValueRef("ext", "row"), ValueRef("ext", "q")
    append = [
        _hand_op(0, "cache_append_k", (row,), layer=0, head=0),
        _hand_op(0, "cache_append_k", (row,), layer=0, head=1),
    ]
    read = _hand_op(0, "mm2", (q, ValueRef("cache", ("self_k", 0, 0))))
    order = append + [read] if read_last else [append[0], read, append[1]]
    ops = tuple(
        dataclasses.replace(op, op_id=i, label=f"op{i}") for i, op in enumerate(order)
    )
    return BlockProgram(
        fabric=fabric, ops=ops, blocks=(BlockIR("b", (0, 1, 2)),),
        outputs={"scores": ValueRef("op", 2 if read_last else 1)},
    )


class TestPlan:
    def test_paper_decode_step_groups_heads(self, fabric):
        program = lower(LoweringSpec("decode_step", ModelConfig(), fabric, 32, t=1))
        plan = program.execution_plan
        mm1_ops = [op for op in program.ops if op.semantic == "mm1"]
        mm1_steps = [step for step in plan if step.ops[0].semantic == "mm1"]
        assert len(mm1_ops) == 192
        assert len(mm1_steps) <= 24
        # Every semantic op runs exactly once, in exactly one step.
        planned = [op.op_id for step in plan for op in step.ops]
        assert sorted(planned) == [op.op_id for op in program.ops if op.semantic]

    def test_plan_is_built_once_per_program(self, fabric):
        program = lower(LoweringSpec("mha", MODEL, fabric, 8))
        assert program.execution_plan is program.execution_plan

    def test_weight_hook_sees_each_group_stack_once(self, fabric, small_params, rng):
        program = lower(LoweringSpec("encoder_stack", MODEL, fabric, 4))
        seen = []

        def hook(ref, array):
            seen.append((ref.dotted, array.shape))
            return array

        execute_program(
            program, small_params, {"x": _f32(rng, 4, MODEL.d_model)},
            weight_hook=hook,
        )
        expected = [
            ref.dotted for step in program.execution_plan for ref in step.ops[0].params
        ]
        assert [name for name, _ in seen] == expected
        # Per-head parameters arrive whole, before any head slicing.
        assert ("encoders[0].mha.wq", (8, 512, 64)) in seen

    def test_cache_hazard_raises_naming_the_op(self, fabric):
        program = _hazard_program(fabric, read_last=False)
        with pytest.raises(ValueError, match=r"op 1 \('op1'\).*op 0 \('op0'\)"):
            program.execution_plan
        with pytest.raises(ValueError, match=r"op 1 \('op1'\)"):
            execute_program(program, inputs={})

    def test_hand_built_program_without_hazard_runs(self, fabric, rng):
        program = _hazard_program(fabric, read_last=True)
        assert [len(step.ops) for step in program.execution_plan] == [2, 1]
        inputs = {"row": _f32(rng, 1, 64), "q": _f32(rng, 1, 64)}
        planned, reference = LayerKVCache(), LayerKVCache()
        run_both(program, None, inputs, [planned], [reference])
        assert_caches_identical([planned], [reference])

"""The block-program IR: one lowering of the Fig 4.13 schedule.

The accelerator executes a single dataflow — MM1..MM6 on the PSAs,
bias/softmax/Add-Norm on the vector units, weight bundles streamed from
HBM — but the repo historically encoded that schedule several times
(analytic estimators, functional blocks, the hand-built block trace,
and the ``BlockWork`` plumbing of the controller).  This module lowers
the model + hardware configuration **once** into a typed op-level
program and derives every execution mode from it:

* :func:`execute_program` — the functional executor: runs the numpy
  dataflow through the :mod:`repro.hw.kernels` / :mod:`repro.hw.
  nonlinear` implementations along the program's execution plan, which
  runs each attention head group as one head-stacked kernel call.
* :func:`program_block_work` / :func:`schedule_program` — the cycle
  executor: per-block makespans fall out of an integer ASAP pass over
  the dependency edges (once per program), then the one A1/A2/A3
  schedule recurrence places the load/compute chain.
* :func:`trace_block` / :func:`trace_program` — the trace executor:
  emits per-engine :class:`repro.hw.trace.Timeline` events (the Gantt
  view), whose makespan equals the cycle executor's total.

Ops carry their engine placement (PSA group, vector adder, softmax
unit, HBM channel hint), explicit dependency edges, and — for the
functional executor — value references plus parameter paths into a
:class:`repro.model.params.TransformerParams` tree (the same dotted
paths :mod:`repro.hw.faults` targets, so fault injection becomes a
program transform via ``weight_hook``).

One cached entry point, :func:`lower`, lowers a :class:`LoweringSpec`:
the full encoder/decoder pass, the encoder stack (prefill), the
single-token KV-cache decode step, or one layer or block on its own.
A block's compute cycles are always its ASAP makespan in the lowered
program (``BlockProgram.block_spans``); no other cycle model of the
block schedule exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.config import ModelConfig
from repro.hw.kernels import (
    Fabric,
    mm1_cycles,
    mm1_product,
    mm2_cycles,
    mm2_product,
    mm3_cycles,
    mm3_product,
    mm4_cycles,
    mm4_product,
    mm5_cycles,
    mm5_product,
    mm6_cycles,
    mm6_product,
)
from repro.hw.kv_cache import kv_stream_cycles
from repro.hw.memory import (
    HbmModel,
    decoder_ffn_weight_bytes,
    decoder_mha_weight_bytes,
    decoder_weight_bytes,
    encoder_weight_bytes,
)
from repro.hw.nonlinear import (
    add_norm_unit,
    bias_unit,
    relu_unit,
    scale_scores,
    softmax_unit,
)
from repro.hw.scheduler import (
    Architecture,
    BlockWork,
    ScheduleResult,
    schedule,
)
from repro.hw.systolic import ceil_div
from repro.hw.trace import Timeline
from repro.model.ops import MODEL_DTYPE
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans


class OpKind(str, Enum):
    """Engine class of one program op."""

    LOAD = "load"  # HBM weight-bundle stream
    MATMUL = "matmul"  # a PSA (group) pass
    VECTOR = "vector"  # bias / softmax / ReLU / Add-Norm unit work
    STREAM = "stream"  # KV-cache rows streamed into a PSA
    CACHE = "cache"  # zero-cycle cache bank bookkeeping


@dataclass(frozen=True, slots=True)
class ValueRef:
    """Reference to a runtime value: an op output (``op``), an external
    program input (``ext``), or a KV-cache tensor (``cache``, keyed by
    (attribute, layer, head))."""

    kind: str
    key: Any

    def __post_init__(self) -> None:
        if self.kind not in ("op", "ext", "cache"):
            raise ValueError(f"unknown ValueRef kind '{self.kind}'")


@dataclass(frozen=True, slots=True)
class ParamRef:
    """Path into the parameter tree, e.g. ``("encoders", 0, "mha",
    "wq")``.  Per-head stacks are referenced whole — the consuming op's
    ``head`` attribute selects the slice — so the path matches the
    dotted targets of :mod:`repro.hw.faults` exactly."""

    path: tuple

    def resolve(self, root: Any) -> np.ndarray:
        obj = root
        for part in self.path:
            obj = obj[part] if isinstance(part, int) else getattr(obj, part)
        return obj

    @property
    def dotted(self) -> str:
        parts: list[str] = []
        for part in self.path:
            if isinstance(part, int):
                parts[-1] += f"[{part}]"
            else:
                parts.append(str(part))
        return ".".join(parts)


@dataclass(frozen=True, slots=True)
class Op:
    """One scheduled unit of work with explicit dependency edges."""

    op_id: int
    kind: OpKind
    label: str
    #: Engine names the op occupies (MM4/MM5/MM6 span every PSA group).
    engines: tuple[str, ...]
    cycles: int
    #: Op ids that must finish before this op may start.
    deps: tuple[int, ...]
    #: Label of the BlockIR this op belongs to.
    block: str
    #: Kernel dispatched by the functional executor (None = timing-only).
    semantic: str | None = None
    inputs: tuple[ValueRef, ...] = ()
    params: tuple[ParamRef, ...] = ()
    attrs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("op cycles must be non-negative")


@dataclass(frozen=True, slots=True)
class BlockIR:
    """One schedulable block: a weight bundle plus its compute ops.

    ``merge_group`` names the work unit the block joins under A1/A2
    (decoder m/f parts fuse back into one ``dec{i}`` load+compute);
    ``merged_load_cycles`` carries the whole-bundle load, which is not
    the sum of the part loads because HBM transfer cycles round.
    """

    label: str
    op_ids: tuple[int, ...]
    load_cycles: int = 0
    channel_hint: int | None = None
    overhead_override: int | None = None
    merge_group: str | None = None
    merged_load_cycles: int | None = None
    #: Bytes of the weight bundle behind ``load_cycles`` (exact, from
    #: the model configuration; telemetry accounts HBM traffic with it).
    load_bytes: int = 0


@dataclass(frozen=True)
class BlockProgram:
    """A lowered program: ops, blocks, named outputs, and the fabric
    the cycle formulas were evaluated against.

    Programs are never mutated in place — passes rebuild a new one —
    so the cycle executor's spans and work units are computed once per
    program and kept on it (``cached_property`` writes the instance
    ``__dict__``, which a frozen dataclass still has).  A rebuilt
    program starts with an empty memo.
    """

    fabric: Fabric
    ops: tuple[Op, ...]
    blocks: tuple[BlockIR, ...]
    outputs: dict[str, ValueRef]
    meta: dict = field(default_factory=dict)

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    def block(self, label: str) -> BlockIR:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block labelled '{label}'")

    @cached_property
    def block_spans(self) -> Mapping[str, int]:
        """Read-only label -> ASAP makespan of each block's compute ops."""
        return MappingProxyType(
            {blk.label: _makespan(self, blk.op_ids) for blk in self.blocks}
        )

    @cached_property
    def merge_group_spans(self) -> Mapping[str, int]:
        """Read-only ``merge_group`` -> union ASAP makespan of the
        blocks that fuse into one A1/A2 work unit."""
        return MappingProxyType(
            {
                group[0].merge_group: _makespan(
                    self, [oid for blk in group for oid in blk.op_ids]
                )
                for group in _unit_groups(self.blocks, merge=True)
                if len(group) > 1
            }
        )

    @cached_property
    def execution_plan(self) -> tuple[PlanStep, ...]:
        """The functional executor's schedule: the ops in program
        order, with each attention head group run as one head-stacked
        kernel call (:func:`_build_plan`)."""
        return _build_plan(self)

    @cached_property
    def _work_unit_memo(
        self,
    ) -> dict[Architecture, tuple[tuple[BlockWork, tuple[BlockIR, ...]], ...]]:
        """:func:`_work_units` per architecture, filled on first use."""
        return {}


@dataclass
class ProgramRun:
    """Result of one functional execution of a program."""

    outputs: dict[str, np.ndarray]
    #: Per-block ASAP makespans (the cycle executor's block computes).
    block_compute_cycles: dict[str, int]
    #: Every op output, keyed by op id (diagnostics / testing).
    values: dict[int, np.ndarray]


@dataclass(frozen=True)
class PlanStep:
    """One call of the functional executor.

    A ``stacked`` step runs its member ops as one kernel call over a
    leading head axis.  ``args`` says how each input slot is gathered:
    ``("group", i)`` is the output stack of plan step ``i``, member for
    member; ``("shared", ref)`` one value every member reads, broadcast
    over the head axis;
    ``("each", refs)`` one value per member, stacked.  ``heads``
    selects the members' slices of each per-head parameter stack (None
    when the ops carry no ``head`` and use the whole parameter).  Other
    ops (MM4, the FFN, Add-Norm) are one-op steps run on their own.
    """

    ops: tuple[Op, ...]
    stacked: bool
    args: tuple[tuple[str, Any], ...] = ()
    heads: tuple[int, ...] | None = None


# ------------------------------------------------------------ lowering
def resolve_head_parallelism(
    fabric: Fabric, num_heads: int, parallel_heads: int | None
) -> tuple[int, int]:
    """(parallel_heads, concurrent PSAs per head) after defaulting."""
    total_psas = fabric.hardware.total_psas
    if parallel_heads is None:
        parallel_heads = min(num_heads, total_psas)
    if parallel_heads < 1 or parallel_heads > total_psas:
        raise ValueError(
            f"parallel_heads must be in [1, {total_psas}]; got {parallel_heads}"
        )
    return parallel_heads, max(total_psas // parallel_heads, 1)


def _slot_engines(fabric: Fabric, slot: int, concurrent: int) -> tuple[str, str, str]:
    """PSA group / vector adder / softmax unit names for one head slot."""
    hw = fabric.hardware
    psa_index = slot * concurrent
    slr = psa_index // hw.psas_per_slr
    psa = f"slr{slr}.psa{psa_index}" + (
        f"-{psa_index + concurrent - 1}" if concurrent > 1 else ""
    )
    return psa, f"slr{slr}.adder{psa_index}", f"slr{slr}.sm{slot}"


def _opref(op_id: int) -> ValueRef:
    return ValueRef("op", op_id)


def _cacheref(which: str, layer: int, head: int) -> ValueRef:
    return ValueRef("cache", (which, layer, head))


class _Builder:
    """Accumulates ops and blocks during lowering."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self.ops: list[Op] = []
        self.blocks: list[BlockIR] = []
        self.input_shapes: dict[str, tuple[int, int]] = {}

    def ext(self, name: str, rows: int, width: int) -> ValueRef:
        """An external activation input, expected as ``(rows, width)``
        (the executor checks it)."""
        self.input_shapes[name] = (rows, width)
        return ValueRef("ext", name)

    def op(
        self,
        kind: OpKind,
        label: str,
        engines: Sequence[str],
        cycles: int,
        deps: Sequence[int],
        block: str,
        semantic: str | None = None,
        inputs: Sequence[ValueRef] = (),
        params: Sequence[tuple] = (),
        **attrs: Any,
    ) -> int:
        op_id = len(self.ops)
        self.ops.append(
            Op(
                op_id=op_id,
                kind=kind,
                label=label,
                engines=tuple(engines),
                cycles=int(cycles),
                deps=tuple(deps),
                block=block,
                semantic=semantic,
                inputs=tuple(inputs),
                params=tuple(ParamRef(tuple(p)) for p in params),
                attrs=attrs,
            )
        )
        return op_id

    def mark(self) -> int:
        return len(self.ops)

    def close_block(
        self,
        label: str,
        mark: int,
        load_cycles: int = 0,
        channel_hint: int | None = None,
        overhead_override: int | None = None,
        merge_group: str | None = None,
        merged_load_cycles: int | None = None,
        load_bytes: int = 0,
    ) -> BlockIR:
        blk = BlockIR(
            label=label,
            op_ids=tuple(range(mark, len(self.ops))),
            load_cycles=load_cycles,
            channel_hint=channel_hint,
            overhead_override=overhead_override,
            merge_group=merge_group,
            merged_load_cycles=merged_load_cycles,
            load_bytes=load_bytes,
        )
        self.blocks.append(blk)
        return blk

    def finish(
        self, outputs: dict[str, ValueRef | int], **meta: Any
    ) -> BlockProgram:
        return BlockProgram(
            fabric=self.fabric,
            ops=tuple(self.ops),
            blocks=tuple(self.blocks),
            outputs={
                name: _opref(ref) if isinstance(ref, int) else ref
                for name, ref in outputs.items()
            },
            meta={**meta, "input_shapes": self.input_shapes},
        )


def _load_op(b: _Builder, block: str, cycles: int, channel_hint: int | None) -> int:
    return b.op(
        OpKind.LOAD,
        f"LW:{block}",
        ("hbm",),
        cycles,
        (),
        block,
        channel_hint=channel_hint,
    )


def _lower_attention_head(
    b: _Builder,
    block: str,
    x_q: ValueRef,
    x_kv: ValueRef,
    prefix: tuple,
    head: int,
    s_q: int,
    s_k: int,
    d_model: int,
    d_k: int,
    concurrent: int,
    engines: tuple[str, str, str],
    mask: str | None,
    entry_deps: tuple[int, ...],
    label_prefix: str,
) -> int:
    """Ops of one attention head per Fig 4.13; returns the MM3 op id.

    The dependency edges reproduce the analytic overlap rules under
    ASAP scheduling: B(K) runs on the adder while MM1(Q) holds the PSA,
    Sc+Sm runs on the softmax unit while MM1(V) holds the PSA.
    """
    fabric = b.fabric
    units = fabric.units
    psa, adder, sm = engines
    lp = label_prefix
    t_q = mm1_cycles(fabric, s_q, d_model, d_k, concurrent)
    t_kv = mm1_cycles(fabric, s_k, d_model, d_k, concurrent)

    mm1_k = b.op(
        OpKind.MATMUL, f"{lp}MM1(K)", (psa,), t_kv, entry_deps, block,
        semantic="mm1", inputs=(x_kv,), params=(prefix + ("wk",),),
        head=head, concurrent_psas=concurrent,
    )
    b_k = b.op(
        OpKind.VECTOR, f"{lp}B(K)", (adder,), units.bias_cycles(s_k, d_k),
        (mm1_k,), block, semantic="bias", inputs=(_opref(mm1_k),),
        params=(prefix + ("bk",),), head=head,
    )
    mm1_q = b.op(
        OpKind.MATMUL, f"{lp}MM1(Q)", (psa,), t_q, (mm1_k,), block,
        semantic="mm1", inputs=(x_q,), params=(prefix + ("wq",),),
        head=head, concurrent_psas=concurrent,
    )
    b_q = b.op(
        OpKind.VECTOR, f"{lp}B(Q)", (adder,), units.bias_cycles(s_q, d_k),
        (b_k, mm1_q), block, semantic="bias", inputs=(_opref(mm1_q),),
        params=(prefix + ("bq",),), head=head,
    )
    mm2_op = b.op(
        OpKind.MATMUL, f"{lp}MM2", (psa,), mm2_cycles(fabric, s_q, s_k, d_k),
        (b_q, b_k), block, semantic="mm2",
        inputs=(_opref(b_q), _opref(b_k)),
    )
    sc_sm = b.op(
        OpKind.VECTOR, f"{lp}Sc+Sm", (sm,),
        units.scale_cycles(s_q, s_k) + units.softmax_cycles(s_q, s_k),
        (mm2_op,), block, semantic="scsm", inputs=(_opref(mm2_op),),
        d_k=d_k, mask=mask,
    )
    mm1_v = b.op(
        OpKind.MATMUL, f"{lp}MM1(V)", (psa,), t_kv, (mm2_op,), block,
        semantic="mm1", inputs=(x_kv,), params=(prefix + ("wv",),),
        head=head, concurrent_psas=concurrent,
    )
    b_v = b.op(
        OpKind.VECTOR, f"{lp}B(V)", (adder,), units.bias_cycles(s_k, d_k),
        (sc_sm, mm1_v), block, semantic="bias", inputs=(_opref(mm1_v),),
        params=(prefix + ("bv",),), head=head,
    )
    return b.op(
        OpKind.MATMUL, f"{lp}MM3", (psa,), mm3_cycles(fabric, s_q, s_k, d_k),
        (b_v, sc_sm), block, semantic="mm3",
        inputs=(_opref(sc_sm), _opref(b_v)),
    )


def _lower_attention_step_head(
    b: _Builder,
    block: str,
    x: ValueRef,
    prefix: tuple,
    layer: int,
    head: int,
    t_keys: int,
    d_model: int,
    d_k: int,
    concurrent: int,
    engines: tuple[str, str, str],
    project_kv: bool,
    mask: str | None,
    entry_deps: tuple[int, ...],
    label_prefix: str,
) -> int:
    """One head of a KV-cached decode step (s_q = 1); returns MM3's id.

    ``project_kv`` lowers the self-attention form — project and bank
    this position's K/V rows, then attend over the grown cache — while
    the cross-attention form streams the prefilled cache directly.
    """
    fabric = b.fabric
    units = fabric.units
    psa, adder, sm = engines
    lp = label_prefix
    t_row = mm1_cycles(fabric, 1, d_model, d_k, concurrent)
    stream = kv_stream_cycles(t_keys, d_k)
    which = "self" if project_kv else "cross"

    if project_kv:
        mm1_k = b.op(
            OpKind.MATMUL, f"{lp}MM1(K)", (psa,), t_row, entry_deps, block,
            semantic="mm1", inputs=(x,), params=(prefix + ("wk",),),
            head=head, concurrent_psas=concurrent,
        )
        b_k = b.op(
            OpKind.VECTOR, f"{lp}B(K)", (adder,), units.bias_cycles(1, d_k),
            (mm1_k,), block, semantic="bias", inputs=(_opref(mm1_k),),
            params=(prefix + ("bk",),), head=head,
        )
        bank_k = b.op(
            OpKind.CACHE, f"{lp}bank(K)", (), 0, (b_k,), block,
            semantic="cache_append_k", inputs=(_opref(b_k),),
            layer=layer, head=head,
        )
        mm1_q = b.op(
            OpKind.MATMUL, f"{lp}MM1(Q)", (psa,), t_row, (mm1_k,), block,
            semantic="mm1", inputs=(x,), params=(prefix + ("wq",),),
            head=head, concurrent_psas=concurrent,
        )
        b_q = b.op(
            OpKind.VECTOR, f"{lp}B(Q)", (adder,), units.bias_cycles(1, d_k),
            (b_k, mm1_q), block, semantic="bias", inputs=(_opref(mm1_q),),
            params=(prefix + ("bq",),), head=head,
        )
        stream_deps: tuple[int, ...] = (b_q, bank_k)
    else:
        mm1_q = b.op(
            OpKind.MATMUL, f"{lp}MM1(Q)", (psa,), t_row, entry_deps, block,
            semantic="mm1", inputs=(x,), params=(prefix + ("wq",),),
            head=head, concurrent_psas=concurrent,
        )
        b_q = b.op(
            OpKind.VECTOR, f"{lp}B(Q)", (adder,), units.bias_cycles(1, d_k),
            (mm1_q,), block, semantic="bias", inputs=(_opref(mm1_q),),
            params=(prefix + ("bq",),), head=head,
        )
        stream_deps = (b_q,)

    st_k = b.op(
        OpKind.STREAM, f"{lp}stream(K)", (psa,), stream, stream_deps, block,
    )
    mm2_op = b.op(
        OpKind.MATMUL, f"{lp}MM2", (psa,), mm2_cycles(fabric, 1, t_keys, d_k),
        (st_k,), block, semantic="mm2",
        inputs=(_opref(b_q), _cacheref(f"{which}_k", layer, head)),
    )
    sc_sm = b.op(
        OpKind.VECTOR, f"{lp}Sc+Sm", (sm,),
        units.scale_cycles(1, t_keys) + units.softmax_cycles(1, t_keys),
        (mm2_op,), block, semantic="scsm", inputs=(_opref(mm2_op),),
        d_k=d_k, mask=mask,
    )
    if project_kv:
        mm1_v = b.op(
            OpKind.MATMUL, f"{lp}MM1(V)", (psa,), t_row, (mm2_op,), block,
            semantic="mm1", inputs=(x,), params=(prefix + ("wv",),),
            head=head, concurrent_psas=concurrent,
        )
        b_v = b.op(
            OpKind.VECTOR, f"{lp}B(V)", (adder,), units.bias_cycles(1, d_k),
            (sc_sm, mm1_v), block, semantic="bias", inputs=(_opref(mm1_v),),
            params=(prefix + ("bv",),), head=head,
        )
        bank_v = b.op(
            OpKind.CACHE, f"{lp}bank(V)", (), 0, (b_v,), block,
            semantic="cache_append_v", inputs=(_opref(b_v),),
            layer=layer, head=head,
        )
        st_v = b.op(
            OpKind.STREAM, f"{lp}stream(V)", (psa,), stream, (b_v, bank_v), block,
        )
    else:
        st_v = b.op(
            OpKind.STREAM, f"{lp}stream(V)", (psa,), stream, (sc_sm,), block,
        )
    return b.op(
        OpKind.MATMUL, f"{lp}MM3", (psa,), mm3_cycles(fabric, 1, t_keys, d_k),
        (st_v, sc_sm), block, semantic="mm3",
        inputs=(_opref(sc_sm), _cacheref(f"{which}_v", layer, head)),
    )


def _lower_mha(
    b: _Builder,
    block: str,
    x_q: ValueRef,
    x_kv: ValueRef | None,
    prefix: tuple,
    s_q: int,
    s_k: int,
    num_heads: int,
    d_model: int,
    parallel_heads: int | None,
    mask: str | None,
    entry_deps: tuple[int, ...],
    label_extra: str = "",
    step_layer: int | None = None,
    project_kv: bool = True,
) -> int:
    """Lower a full MHA block (or a cached decode step over ``s_k``
    cached keys when ``step_layer`` is given): head waves, MM4 across
    every PSA group, B_A.  Returns the B_A op id — the block's (s_q,
    d_model) output."""
    fabric = b.fabric
    parallel_heads, concurrent = resolve_head_parallelism(
        fabric, num_heads, parallel_heads
    )
    waves = ceil_div(num_heads, parallel_heads)
    d_k = d_model // num_heads

    head_outs: list[int] = []
    prev_wave = entry_deps
    for wave in range(waves):
        wave_outs: list[int] = []
        for slot in range(parallel_heads):
            head = wave * parallel_heads + slot
            if head >= num_heads:
                break
            engines = _slot_engines(fabric, slot, concurrent)
            lp = f"{label_extra}h{head}:"
            if step_layer is None:
                out = _lower_attention_head(
                    b, block, x_q, x_kv, prefix, head, s_q, s_k, d_model,
                    d_k, concurrent, engines, mask, prev_wave, lp,
                )
            else:
                out = _lower_attention_step_head(
                    b, block, x_q, prefix, step_layer, head, s_k, d_model,
                    d_k, concurrent, engines, project_kv, mask, prev_wave, lp,
                )
            wave_outs.append(out)
        head_outs.extend(wave_outs)
        prev_wave = tuple(wave_outs)

    all_psas = tuple(
        _slot_engines(fabric, slot, concurrent)[0]
        for slot in range(parallel_heads)
    )
    mm4_op = b.op(
        OpKind.MATMUL, f"{label_extra}MM4", all_psas,
        mm4_cycles(fabric, s_q, num_heads, d_k, d_model),
        tuple(head_outs), block, semantic="mm4",
        inputs=tuple(_opref(h) for h in head_outs),
        params=(prefix + ("wo",),),
    )
    return b.op(
        OpKind.VECTOR, f"{label_extra}B_A", ("slr0.adder0",),
        fabric.units.bias_cycles(s_q, d_model), (mm4_op,), block,
        semantic="bias", inputs=(_opref(mm4_op),),
        params=(prefix + ("bo",),),
    )


def _lower_add_norm(
    b: _Builder,
    block: str,
    label: str,
    sub: int,
    residual: ValueRef,
    norm_prefix: tuple,
    s: int,
    d_model: int,
    extra_deps: tuple[int, ...] = (),
) -> int:
    """Residual add split over the SLRs, then Norm, as one vector op."""
    fabric = b.fabric
    units = fabric.units
    cycles = units.bias_cycles(s, d_model // fabric.hardware.num_slrs)
    cycles += units.add_norm_cycles(s, d_model)
    return b.op(
        OpKind.VECTOR, label, ("slr0.norm",), cycles, (sub,) + extra_deps,
        block, semantic="add_norm", inputs=(_opref(sub), residual),
        params=(norm_prefix + ("weight",), norm_prefix + ("bias",)),
    )


def _lower_ffn(
    b: _Builder,
    block: str,
    x: ValueRef,
    prefix: tuple,
    s: int,
    d_model: int,
    d_ff: int,
    num_heads: int,
    parallel_heads: int | None,
    entry_deps: tuple[int, ...],
) -> int:
    """MM5 / B_1F+ReLU / MM6 / B_2F; returns the B_2F op id."""
    fabric = b.fabric
    units = fabric.units
    parallel_heads, concurrent = resolve_head_parallelism(
        fabric, num_heads, parallel_heads
    )
    psas = tuple(
        _slot_engines(fabric, slot, concurrent)[0]
        for slot in range(parallel_heads)
    )
    mm5_op = b.op(
        OpKind.MATMUL, "MM5", psas, mm5_cycles(fabric, s, d_model, d_ff),
        entry_deps, block, semantic="mm5", inputs=(x,),
        params=(prefix + ("w1",),),
    )
    b1 = b.op(
        OpKind.VECTOR, "B_1F+ReLU", ("slr0.adder0",),
        units.bias_cycles(s, d_ff) + units.relu_cycles(s, d_ff),
        (mm5_op,), block, semantic="bias_relu", inputs=(_opref(mm5_op),),
        params=(prefix + ("b1",),),
    )
    mm6_op = b.op(
        OpKind.MATMUL, "MM6", psas, mm6_cycles(fabric, s, d_ff, d_model),
        (b1,), block, semantic="mm6", inputs=(_opref(b1),),
        params=(prefix + ("w2",),),
    )
    return b.op(
        OpKind.VECTOR, "B_2F", ("slr0.adder0",),
        units.bias_cycles(s, d_model), (mm6_op,), block, semantic="bias",
        inputs=(_opref(mm6_op),), params=(prefix + ("b2",),),
    )


def _lower_encoder_layer(
    b: _Builder,
    block: str,
    x: ValueRef,
    prefix: tuple,
    s: int,
    model: ModelConfig,
    parallel_heads: int | None,
    mask: str | None,
    entry_deps: tuple[int, ...],
) -> int:
    """One encoder layer: MHA, Add-Norm, FFN, Add-Norm."""
    nh, d_model = model.num_heads, model.d_model
    b_a = _lower_mha(
        b, block, x, x, prefix + ("mha",), s, s, nh, d_model,
        parallel_heads, mask, entry_deps,
    )
    an1 = _lower_add_norm(
        b, block, "Add-Norm1", b_a, x, prefix + ("norm1",), s, d_model
    )
    b2 = _lower_ffn(
        b, block, _opref(an1), prefix + ("ffn",), s, d_model, model.d_ff,
        nh, parallel_heads, (an1,),
    )
    return _lower_add_norm(
        b, block, "Add-Norm2", b2, _opref(an1), prefix + ("norm2",), s,
        d_model, extra_deps=(an1,),
    )


def _lower_decoder_layer(
    b: _Builder,
    m_block: str,
    f_block: str,
    x: ValueRef,
    memory: ValueRef | None,
    prefix: tuple,
    t: int,
    s: int,
    model: ModelConfig,
    parallel_heads: int | None,
    self_mask: str | None,
    memory_mask: str | None,
    entry_deps: tuple[int, ...],
    step_layer: int | None = None,
) -> tuple[int, int]:
    """One decoder layer split per Fig 4.11: the masked self-MHA +
    cross-MHA (with their Add-Norms) belong to ``m_block``, the FFN and
    its Add-Norm to ``f_block``.  With ``step_layer`` the layer is one
    KV-cached decode step: a 1-row query over ``t`` cached self keys
    and the ``s`` prefilled cross keys of that cache layer (``memory``
    is then unused).  Returns (first f-part op id, final Add-Norm id)."""
    rows = t if step_layer is None else 1
    nh, d_model = model.num_heads, model.d_model
    self_out = _lower_mha(
        b, m_block, x, x, prefix + ("self_mha",), rows, t, nh, d_model,
        parallel_heads, self_mask, entry_deps, label_extra="self:",
        step_layer=step_layer,
    )
    an1 = _lower_add_norm(
        b, m_block, "Add-Norm1", self_out, x, prefix + ("norm1",), rows, d_model
    )
    cross_out = _lower_mha(
        b, m_block, _opref(an1), memory, prefix + ("cross_mha",), rows, s,
        nh, d_model, parallel_heads, memory_mask, (an1,),
        label_extra="cross:", step_layer=step_layer, project_kv=False,
    )
    an2 = _lower_add_norm(
        b, m_block, "Add-Norm2", cross_out, _opref(an1),
        prefix + ("norm2",), rows, d_model, extra_deps=(an1,),
    )
    m_end = b.mark()
    b2 = _lower_ffn(
        b, f_block, _opref(an2), prefix + ("ffn",), rows, d_model, model.d_ff,
        nh, parallel_heads, (an2,),
    )
    return m_end, _lower_add_norm(
        b, f_block, "Add-Norm3", b2, _opref(an2), prefix + ("norm3",), rows,
        d_model, extra_deps=(an2,),
    )


def _bundle_load_cycles(fabric: Fabric, num_bytes: int) -> int:
    """Cycles to stream one weight bundle (each SLR kernel pulls its
    half from one HBM channel, matching the LatencyModel)."""
    hbm = HbmModel(fabric.hardware, fabric.calibration)
    return hbm.transfer_cycles(num_bytes, channels=fabric.hardware.num_slrs)


def _lower_encoders(
    b: _Builder,
    model: ModelConfig,
    s: int,
    parallel_heads: int | None,
    x: ValueRef,
    mask: str | None,
) -> ValueRef:
    """Every encoder layer, one block each behind its weight load."""
    bpe = b.fabric.hardware.bytes_per_element
    enc_bytes = encoder_weight_bytes(model, bpe) if model.num_encoders else 0
    enc_load = _bundle_load_cycles(b.fabric, enc_bytes) if enc_bytes else 0
    prev_out: tuple[int, ...] = ()
    for i in range(model.num_encoders):
        label = f"enc{i + 1}"
        mark = b.mark()
        _load_op(b, label, enc_load, None)
        out = _lower_encoder_layer(
            b, label, x, ("encoders", i), s, model, parallel_heads, mask,
            prev_out,
        )
        b.close_block(label, mark, load_cycles=enc_load, load_bytes=enc_bytes)
        x = _opref(out)
        prev_out = (out,)
    return x


def _lower_decoders(
    b: _Builder,
    model: ModelConfig,
    t: int,
    s: int,
    parallel_heads: int | None,
    x: ValueRef,
    memory: ValueRef | None,
    self_mask: str | None,
    memory_mask: str | None,
    step: bool = False,
) -> ValueRef:
    """Every decoder layer as an m/f block pair (full pass, or one
    KV-cached decode step with ``step``)."""
    fabric = b.fabric
    bpe = fabric.hardware.bytes_per_element
    if not model.num_decoders:
        return x
    mha_bytes = decoder_mha_weight_bytes(model, bpe)
    ffn_bytes = decoder_ffn_weight_bytes(model, bpe)
    mha_load = _bundle_load_cycles(fabric, mha_bytes)
    ffn_load = _bundle_load_cycles(fabric, ffn_bytes)
    merged_load = _bundle_load_cycles(fabric, decoder_weight_bytes(model, bpe))
    prev_out: tuple[int, ...] = ()
    for i in range(model.num_decoders):
        group = f"dec{i + 1}"
        m_label, f_label = f"{group}m", f"{group}f"
        mark = b.mark()
        _load_op(b, m_label, mha_load, 0)
        m_end, out = _lower_decoder_layer(
            b, m_label, f_label, x, memory, ("decoders", i), t, s, model,
            parallel_heads, self_mask, memory_mask, prev_out,
            step_layer=i if step else None,
        )
        b.blocks.append(
            BlockIR(
                label=m_label,
                op_ids=tuple(range(mark, m_end)),
                load_cycles=mha_load,
                channel_hint=0,
                merge_group=group,
                merged_load_cycles=merged_load,
                load_bytes=mha_bytes,
            )
        )
        # The f-part's load op follows the FFN ops the layer emitted;
        # its id range covers both.
        _load_op(b, f_label, ffn_load, 1)
        b.blocks.append(
            BlockIR(
                label=f_label,
                op_ids=tuple(range(m_end, b.mark())),
                load_cycles=ffn_load,
                channel_hint=1,
                overhead_override=0,
                merge_group=group,
                merged_load_cycles=merged_load,
                load_bytes=ffn_bytes,
            )
        )
        x = _opref(out)
        prev_out = (out,)
    return x


# ------------------------------------------------- program entry points
def _scope_full_pass(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """The full encoder + decoder pass: the program behind the Table
    5.1 / Fig 5.2 latency numbers and the teacher-forced run."""
    model, ph = spec.model, spec.parallel_heads
    x = b.ext("x", spec.s, model.d_model)
    memory = _lower_encoders(b, model, spec.s, ph, x, "enc_mask")
    out = _lower_decoders(
        b, model, t, spec.s, ph, b.ext("dec_in", t, model.d_model), memory,
        "dec_self_mask", "dec_memory_mask",
    )
    return {"encoder_output": memory, "decoder_output": out}


def _scope_encoder_stack(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """The encoder stack alone (prefill)."""
    return {"output": _lower_encoders(
        b, spec.model, spec.s, spec.parallel_heads,
        b.ext("x", spec.s, spec.model.d_model), "enc_mask",
    )}


def _scope_decode_step(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """One KV-cached decode step at prefix length ``t`` over an
    ``s``-row memory: a 1-row query through every decoder layer."""
    return {"output": _lower_decoders(
        b, spec.model, t, spec.s, spec.parallel_heads,
        b.ext("x", 1, spec.model.d_model), None,
        None, "memory_mask", step=True,
    )}


def _scope_mha(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """One MHA block, ``t`` query rows over ``s`` keys (root:
    AttentionParams)."""
    model = spec.model
    mark = b.mark()
    out = _lower_mha(
        b, "mha", b.ext("x_q", t, model.d_model),
        b.ext("x_kv", spec.s, model.d_model), (), t, spec.s, model.num_heads,
        model.d_model, spec.parallel_heads, "mask", (),
    )
    b.close_block("mha", mark)
    return {"output": out}


def _scope_ffn(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """The FFN block (root: FeedForwardParams)."""
    model = spec.model
    mark = b.mark()
    out = _lower_ffn(
        b, "ffn", b.ext("x", spec.s, model.d_model), (), spec.s,
        model.d_model, model.d_ff, model.num_heads, spec.parallel_heads, (),
    )
    b.close_block("ffn", mark)
    return {"output": out}


def _scope_encoder_layer(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """One encoder layer without its weight load (root:
    EncoderLayerParams) — the Fig 4.13 Gantt view."""
    mark = b.mark()
    out = _lower_encoder_layer(
        b, "enc1", b.ext("x", spec.s, spec.model.d_model), (), spec.s,
        spec.model, spec.parallel_heads, "mask", (),
    )
    b.close_block("enc1", mark)
    return {"output": out}


def _scope_decoder_layer(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """One decoder layer without its weight loads (root:
    DecoderLayerParams), m/f split."""
    m_end, out = _lower_decoder_layer(
        b, "dec1m", "dec1f", b.ext("x", t, spec.model.d_model),
        b.ext("memory", spec.s, spec.model.d_model), (), t, spec.s,
        spec.model, spec.parallel_heads, "self_mask", "memory_mask", (),
    )
    b.blocks.append(
        BlockIR("dec1m", tuple(range(m_end)), channel_hint=0, merge_group="dec1")
    )
    b.blocks.append(
        BlockIR("dec1f", tuple(range(m_end, b.mark())), channel_hint=1,
                overhead_override=0, merge_group="dec1")
    )
    return {"output": out}


#: scope -> lowering of that scope's ops and blocks; returns the named
#: program outputs.  Block scopes read only ``num_heads``, ``d_model``
#: and ``d_ff`` from the spec's model, and resolve parameter paths
#: against one layer's (or block's) parameters.
_SCOPES: dict[str, Callable[..., dict]] = {
    "full_pass": _scope_full_pass,
    "encoder_stack": _scope_encoder_stack,
    "decode_step": _scope_decode_step,
    "mha": _scope_mha,
    "ffn": _scope_ffn,
    "encoder_layer": _scope_encoder_layer,
    "decoder_layer": _scope_decoder_layer,
}


@dataclass(frozen=True)
class LoweringSpec:
    """Everything a lowering depends on; the key of the lowering cache.

    ``s`` is the encoder length (the key rows of every attention over
    the memory); ``t`` the decoder prefix length (query rows of the
    decoder and MHA scopes, the cached prefix of ``decode_step``) and
    defaults to ``s``.
    """

    scope: str
    model: ModelConfig
    fabric: Fabric
    s: int
    t: int | None = None
    parallel_heads: int | None = None

    def __post_init__(self) -> None:
        if self.scope not in _SCOPES:
            raise ValueError(
                f"scope must be one of {sorted(_SCOPES)}; got {self.scope!r}"
            )
        if self.s <= 0:
            raise ValueError(f"s must be positive; got {self.s}")
        if self.t is not None and self.t <= 0:
            raise ValueError(f"t must be positive; got {self.t}")
        total_psas = self.fabric.hardware.total_psas
        if self.parallel_heads is not None and not (
            1 <= self.parallel_heads <= total_psas
        ):
            raise ValueError(
                f"parallel_heads must be in [1, {total_psas}]; "
                f"got {self.parallel_heads}"
            )


@lru_cache(maxsize=512)
def lower(spec: LoweringSpec) -> BlockProgram:
    """Lower ``spec`` to its block program.

    The one cache of the lowering: equal specs return the same program
    object.  512 entries hold a whole s = 32 workload — one full pass,
    one encoder stack and a decode step per prefix length — with room
    to spare.
    """
    t = spec.s if spec.t is None else spec.t
    b = _Builder(spec.fabric)
    outputs = _SCOPES[spec.scope](b, spec, t)
    return b.finish(
        outputs, kind=spec.scope, s=spec.s, t=t,
        parallel_heads=spec.parallel_heads, model=spec.model,
    )


def lower_full_pass(
    model: ModelConfig,
    fabric: Fabric,
    s: int,
    t: int | None = None,
    parallel_heads: int | None = None,
) -> BlockProgram:
    """The lowered full encoder + decoder pass (see :func:`lower`)."""
    return lower(LoweringSpec("full_pass", model, fabric, s, t, parallel_heads))


def lower_decode_step(
    model: ModelConfig,
    fabric: Fabric,
    t: int,
    s: int,
    parallel_heads: int | None = None,
) -> BlockProgram:
    """The lowered KV-cached decode step at prefix length ``t`` over an
    ``s``-row memory (see :func:`lower`)."""
    return lower(LoweringSpec("decode_step", model, fabric, s, t, parallel_heads))


# ------------------------------------------------------- cycle executor
def _asap_times(
    program: BlockProgram, op_ids: Sequence[int]
) -> dict[int, tuple[int, int]]:
    """Integer ASAP (start, end) per compute op over the given id set.

    Dependencies outside the set are treated as ready at time 0 — the
    block-level schedulers serialize whole blocks, so cross-block edges
    are satisfied by construction.
    """
    times: dict[int, tuple[int, int]] = {}
    for op_id in op_ids:
        op = program.ops[op_id]
        if op.kind is OpKind.LOAD:
            continue
        start = max((times[d][1] for d in op.deps if d in times), default=0)
        times[op_id] = (start, start + op.cycles)
    return times


def _makespan(program: BlockProgram, op_ids: Sequence[int]) -> int:
    return max((end for _, end in _asap_times(program, op_ids).values()), default=0)


def block_compute_cycles(program: BlockProgram, block: BlockIR | str) -> int:
    """ASAP makespan of one block's compute ops (by label or BlockIR)."""
    label = block if isinstance(block, str) else block.label
    try:
        return program.block_spans[label]
    except KeyError:
        raise KeyError(f"no block labelled '{label}'") from None


def lowering_cache_info() -> dict[str, Any]:
    """``functools.lru_cache`` statistics of the lowering cache, keyed
    by the name of the cached function (clear it with that function's
    ``cache_clear()``)."""
    return {lower.__name__: lower.cache_info()}


def record_lowering_cache_metrics(
    registry: "obs_metrics.MetricsRegistry | None" = None,
) -> None:
    """Publish lowering-cache hit/miss gauges to the metrics registry."""
    reg = registry if registry is not None else obs_metrics.registry()
    if not reg.enabled:
        return
    info = lower.cache_info()
    reg.gauge("repro.hw.program.lower.cache_hits").set(info.hits)
    reg.gauge("repro.hw.program.lower.cache_misses").set(info.misses)


def program_op_counts(program: BlockProgram) -> dict[str, int]:
    """Op count per :class:`OpKind` value, sorted by kind name.

    The same lowering feeds every executor, so this count is exact for
    the functional, cycle and trace views alike.
    """
    counts: dict[str, int] = {}
    for op in program.ops:
        counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
    return dict(sorted(counts.items()))


def program_load_bytes(program: BlockProgram) -> int:
    """Total weight bytes the program streams from HBM."""
    return sum(blk.load_bytes for blk in program.blocks)


def program_hbm_bytes(
    program: BlockProgram, architecture: Architecture | str = Architecture.A3
) -> dict[int, int]:
    """Weight bytes per HBM channel under one architecture's placement.

    Replays the block schedule and attributes each work unit's bytes to
    the channel its load actually landed on, so the per-channel sums
    always total :func:`program_load_bytes`.
    """
    units = _work_units(program, architecture)
    sched = schedule_program(program, architecture)
    per_channel: dict[int, int] = {}
    for (_, group), channel in zip(units, sched.channel):
        per_channel[channel] = per_channel.get(channel, 0) + sum(
            blk.load_bytes for blk in group
        )
    return dict(sorted(per_channel.items()))


def _unit_groups(
    blocks: tuple[BlockIR, ...], merge: bool
) -> Iterator[tuple[BlockIR, ...]]:
    """Consecutive runs of blocks that form one work unit: single
    blocks, or (with ``merge``) runs sharing a ``merge_group``."""
    i = 0
    while i < len(blocks):
        j = i + 1
        group = blocks[i].merge_group
        if merge and group is not None:
            while j < len(blocks) and blocks[j].merge_group == group:
                j += 1
        yield blocks[i:j]
        i = j


def _work_units(
    program: BlockProgram, architecture: Architecture | str
) -> tuple[tuple[BlockWork, tuple[BlockIR, ...]], ...]:
    """Blocks folded into schedulable BlockWork units (memoized on the
    program per architecture).

    Under A3 every block is its own unit (per-part loads on their
    hinted channels); under A1/A2 blocks sharing a ``merge_group`` fuse
    into one unit with the merged load and the union makespan.
    """
    arch = Architecture(architecture)
    memo = program._work_unit_memo
    if arch not in memo:
        a3 = arch is Architecture.A3
        units: list[tuple[BlockWork, tuple[BlockIR, ...]]] = []
        for group in _unit_groups(program.blocks, merge=not a3):
            blk = group[0]
            if len(group) > 1:
                load = (
                    blk.merged_load_cycles
                    if blk.merged_load_cycles is not None
                    else sum(g.load_cycles for g in group)
                )
                work = BlockWork(
                    blk.merge_group, load, program.merge_group_spans[blk.merge_group]
                )
            else:
                work = BlockWork(
                    blk.label,
                    blk.load_cycles,
                    program.block_spans[blk.label],
                    channel_hint=blk.channel_hint if a3 else None,
                    overhead_override=blk.overhead_override if a3 else None,
                )
            units.append((work, group))
        memo[arch] = tuple(units)
    return memo[arch]


def program_block_work(
    program: BlockProgram, architecture: Architecture | str
) -> list[BlockWork]:
    """The cycle executor's view: per-unit load/compute work items,
    identical to what the legacy ``LatencyModel.build_blocks`` chained
    by hand."""
    return [work for work, _ in _work_units(program, architecture)]


def schedule_program(
    program: BlockProgram,
    architecture: Architecture | str = Architecture.A3,
    block_overhead: int = 0,
) -> ScheduleResult:
    """Run the A1/A2/A3 schedule policy over the program's blocks.

    Optimizer passes record their prefetch-depth / channel choices in
    ``meta["schedule_params"]``, so a transformed program is
    self-scheduling; each architecture reads only the parameters of
    its row in :mod:`repro.hw.scheduler`.
    """
    return schedule(
        architecture,
        program_block_work(program, architecture),
        block_overhead,
        **(program.meta.get("schedule_params") or {}),
    )


# ------------------------------------------------------- trace executor
def _emit_ops(
    program: BlockProgram,
    op_ids: Sequence[int],
    offset: float,
    timeline: Timeline,
) -> int:
    """Emit one work unit's op events at ``offset``; returns its span."""
    times = _asap_times(program, op_ids)
    span = 0
    for op_id, (start, end) in times.items():
        op = program.ops[op_id]
        span = max(span, end)
        if op.cycles <= 0:
            continue
        kind = "stream" if op.kind is OpKind.STREAM else "compute"
        for engine in op.engines:
            timeline.add(engine, op.label, offset + start, offset + end, kind=kind)
    return span


def trace_block(program: BlockProgram, block_label: str | None = None) -> Timeline:
    """Op-level timeline of one block, starting at cycle 0 (the Fig
    4.13 Gantt view; loads and dispatch overheads excluded)."""
    blk = (
        program.blocks[0] if block_label is None else program.block(block_label)
    )
    timeline = Timeline()
    _emit_ops(program, blk.op_ids, 0.0, timeline)
    return timeline


def trace_program_with_schedule(
    program: BlockProgram,
    architecture: Architecture | str = Architecture.A3,
    block_overhead: int = 0,
) -> tuple[Timeline, ScheduleResult]:
    """:func:`trace_program` plus the :class:`ScheduleResult` it is
    built from.  The trace executor already runs the block scheduler to
    place the HBM lanes, so callers needing both views (the telemetry
    probe, ``repro-asr profile``) get them from one scheduling pass
    instead of paying :func:`schedule_program` again."""
    units = _work_units(program, architecture)
    sched = schedule_program(program, architecture, block_overhead)
    timeline = Timeline([e for e in sched.timeline.events if e.kind == "load"])
    for i, (work, group) in enumerate(units):
        op_ids = [oid for blk in group for oid in blk.op_ids]
        start = float(sched.compute_start[i])
        span = _emit_ops(program, op_ids, start, timeline)
        overhead = work.overhead(block_overhead)
        if overhead > 0:
            timeline.add(
                "host",
                f"disp:{work.label}",
                start + span,
                start + span + overhead,
                kind="overhead",
            )
    timeline.validate_no_engine_overlap()
    return timeline, sched


@dataclass(frozen=True)
class UnitSpan:
    """Where one schedulable work unit landed under an architecture.

    A unit is a :class:`BlockWork` item (one block under A3, a fused
    merge group under A1/A2).  The compute chain is strictly serial, so
    consecutive ``compute_end``/``compute_start`` pairs bound the
    exposed load stalls — the quantities the stall classifier in
    :mod:`repro.hw.introspect` attributes per cause.
    """

    label: str
    #: Labels of the BlockIRs folded into this unit.
    blocks: tuple[str, ...]
    #: When the unit's ops begin executing (global cycle).
    compute_start: float
    #: ASAP makespan of the unit's compute ops.
    compute_span: int
    #: Host dispatch overhead serialized after the ops.
    overhead: int
    #: ``compute_start + compute_span + overhead``.
    compute_end: float
    load_start: float
    load_end: float
    #: HBM lane the unit's weight load ran on.
    load_engine: str


def program_unit_spans(
    program: BlockProgram,
    architecture: Architecture | str = Architecture.A3,
    block_overhead: int = 0,
    sched: ScheduleResult | None = None,
) -> tuple[list[UnitSpan], ScheduleResult]:
    """Per-unit placement under one architecture's block schedule.

    Pass an existing ``sched`` (from the same program, architecture and
    overhead) to reuse its scheduling pass instead of paying another.
    """
    units = _work_units(program, architecture)
    if sched is None:
        sched = schedule_program(program, architecture, block_overhead)
    spans = [
        UnitSpan(
            label=work.label,
            blocks=tuple(blk.label for blk in group),
            compute_start=float(sched.compute_start[i]),
            compute_span=work.compute_cycles,
            overhead=work.overhead(block_overhead),
            compute_end=float(sched.compute_end[i]),
            load_start=float(sched.load_start[i]),
            load_end=float(sched.load_end[i]),
            load_engine=f"hbm{sched.channel[i]}",
        )
        for i, (work, group) in enumerate(units)
    ]
    return spans, sched


def trace_program(
    program: BlockProgram,
    architecture: Architecture | str = Architecture.A3,
    block_overhead: int = 0,
) -> Timeline:
    """Full-program timeline under one architecture: HBM channel lanes
    from the block schedule, op-level engine lanes from the dependency
    ASAP, and host dispatch overheads — with a makespan equal to the
    cycle executor's ``total_cycles``."""
    timeline, _ = trace_program_with_schedule(program, architecture, block_overhead)
    return timeline


# ------------------------------------------------------ execution plan
#: Semantics computed once per attention head.  The plan runs the heads
#: of each as one head-stacked kernel call, as the eight PSAs run them
#: side by side (Fig 4.13).
_HEAD_SEMANTICS = frozenset(
    {"mm1", "bias", "mm2", "scsm", "mm3", "cache_append_k", "cache_append_v"}
)
_APPEND_BANKS = {"cache_append_k": "self_k", "cache_append_v": "self_v"}


def _op_lane(op: Op, lanes: Mapping[int, int | None]) -> int | None:
    """The head a per-head op works for: its ``head`` attribute, else
    the head of its first op or cache input (MM2, Sc+Sm and MM3 carry
    no ``head``).  None for every other op."""
    if op.semantic not in _HEAD_SEMANTICS:
        return None
    if "head" in op.attrs:
        return op.attrs["head"]
    for ref in op.inputs:
        if ref.kind == "op":
            return lanes.get(ref.key)
        if ref.kind == "cache":
            return ref.key[2]
    return None


def _input_key(ref: ValueRef, group_of: Mapping[int, int]) -> tuple:
    """What a head group's members must agree on for one input: the
    producer's group, the external name, or the cache (which, layer)."""
    if ref.kind == "op":
        return ("op", group_of.get(ref.key))
    if ref.kind == "ext":
        return ("ext", ref.key)
    return ("cache",) + tuple(ref.key[:2])


def _gather_spec(
    refs: list[ValueRef],
    slot_of: Mapping[int, tuple[int, int]],
    stack_sizes: Sequence[int | None],
) -> tuple[str, Any]:
    """How a stacked step gathers one input slot (see :class:`PlanStep`);
    ``stack_sizes`` holds each plan step's member count, None for the
    steps that leave no stack."""
    if all(ref.kind == "op" for ref in refs):
        slots = [slot_of[ref.key] for ref in refs]
        step = slots[0][0]
        size = stack_sizes[step]
        if size is not None and slots == [(step, j) for j in range(size)]:
            return ("group", step)
    if all(ref == refs[0] for ref in refs):
        return ("shared", refs[0])
    return ("each", tuple(refs))


def _build_plan(program: BlockProgram) -> tuple[PlanStep, ...]:
    """Group a program's per-head ops into head-stacked plan steps.

    Per-head ops form one group when they share the semantic, the
    parameter paths, the attributes other than ``head``, and their
    input keys (:func:`_input_key`).  Members are ordered by head, and
    a group runs at the program position of its last member: member
    ``h`` of a producer precedes member ``h`` of its consumer, so that
    order stays topological under any valid op order.  Raises
    ``ValueError`` naming the op if grouping would move a cache read or
    append across an append to the same (which, layer, head) bank.
    """
    index = {op.op_id: i for i, op in enumerate(program.ops)}
    lanes: dict[int, int | None] = {}
    group_ids: dict[tuple, int] = {}
    group_of: dict[int, int] = {}
    groups: list[list[Op]] = []
    for op in program.ops:
        if op.semantic is None:
            continue
        lane = lanes[op.op_id] = _op_lane(op, lanes)
        key: tuple = ("op", op.op_id)
        if lane is not None:
            key = (
                op.semantic,
                tuple(ref.path for ref in op.params),
                "head" in op.attrs,
                tuple(sorted((k, v) for k, v in op.attrs.items() if k != "head")),
                tuple(_input_key(ref, group_of) for ref in op.inputs),
            )
        gid = group_of[op.op_id] = group_ids.setdefault(key, len(groups))
        if gid == len(groups):
            groups.append([])
        groups[gid].append(op)

    members = sorted(
        (
            sorted(ops, key=lambda op: (lanes[op.op_id] or 0, index[op.op_id]))
            for ops in groups
        ),
        key=lambda ops: max(index[op.op_id] for op in ops),
    )
    slot_of = {
        op.op_id: (i, j) for i, ops in enumerate(members) for j, op in enumerate(ops)
    }
    stack_sizes = [
        len(ops) if ops[0].semantic in _HEAD_SEMANTICS else None for ops in members
    ]
    steps: list[PlanStep] = []
    for i, ops in enumerate(members):
        first = ops[0]
        for op in ops:
            for ref in op.inputs:
                if ref.kind == "op" and slot_of[ref.key][0] >= i:
                    raise ValueError(
                        f"op {op.op_id} ('{op.label}') would run before its "
                        f"input op {ref.key} in the execution plan"
                    )
        if first.semantic not in _HEAD_SEMANTICS:
            steps.append(PlanStep(ops=tuple(ops), stacked=False))
            continue
        steps.append(PlanStep(
            ops=tuple(ops),
            stacked=True,
            args=tuple(
                _gather_spec([op.inputs[k] for op in ops], slot_of, stack_sizes)
                for k in range(len(first.inputs))
            ),
            heads=(
                tuple(op.attrs["head"] for op in ops) if "head" in first.attrs
                else None
            ),
        ))
    _check_cache_hazards(program, index, slot_of)
    return tuple(steps)


def _check_cache_hazards(
    program: BlockProgram,
    index: Mapping[int, int],
    slot_of: Mapping[int, tuple[int, int]],
) -> None:
    """Raise if the plan reorders a cache access against an append to
    the same (which, layer, head) bank."""
    banks: dict[tuple, list[tuple[Op, bool]]] = {}
    for op in program.ops:
        for ref in op.inputs:
            if ref.kind == "cache":
                banks.setdefault(tuple(ref.key), []).append((op, False))
        if op.semantic in _APPEND_BANKS:
            bank = (_APPEND_BANKS[op.semantic], op.attrs["layer"], op.attrs["head"])
            banks.setdefault(bank, []).append((op, True))
    for bank, accesses in banks.items():
        for (a, a_appends), (b, b_appends) in combinations(accesses, 2):
            if not (a_appends or b_appends):
                continue
            before = index[a.op_id] < index[b.op_id]
            if before != (slot_of[a.op_id] < slot_of[b.op_id]):
                moved, append = (b, a) if a_appends else (a, b)
                raise ValueError(
                    f"head grouping would move op {moved.op_id} "
                    f"('{moved.label}') across cache append op "
                    f"{append.op_id} ('{append.label}') on bank {bank}"
                )


# -------------------------------------------------- functional executor
def execute_program(
    program: BlockProgram,
    root: Any = None,
    inputs: dict[str, np.ndarray | None] | None = None,
    caches: Sequence[Any] | None = None,
    weight_hook: Callable[[ParamRef, np.ndarray], np.ndarray] | None = None,
) -> ProgramRun:
    """Run the numpy dataflow of a program.

    ``root`` is the parameter tree the program's :class:`ParamRef`
    paths resolve against; ``inputs`` binds the external names;
    ``caches`` binds per-layer :class:`repro.hw.kv_cache.LayerKVCache`
    objects for step programs.  ``weight_hook`` sees every resolved
    parameter array (with its ref) before use — the fault-injection
    transform plugs in here.  It is called once per plan step on the
    whole array (a per-head stack before any head slicing), so it must
    be a pure function of ``(ref, array)``.  A bound activation whose
    shape is not the ``(rows, width)`` the program was lowered for
    (``meta["input_shapes"]``), with at most one leading batch axis,
    raises a ``ValueError`` naming it.
    """
    if inputs:
        _check_input_shapes(program, inputs)
    program_kind = str(program.meta.get("kind", "unknown"))
    with obs_spans.tracer().span("hw.execute_program", kind=program_kind):
        run = _execute_ops(program, root, inputs, caches, weight_hook)
    reg = obs_metrics.registry()
    if reg.enabled:
        reg.counter("repro.hw.program.executions", kind=program_kind).inc()
        for op_kind, count in program_op_counts(program).items():
            reg.counter("repro.hw.program.ops", kind=op_kind).inc(count)
        reg.counter("repro.hw.hbm.bytes_streamed").inc(program_load_bytes(program))
        record_lowering_cache_metrics(reg)
    return run


def _check_input_shapes(
    program: BlockProgram, inputs: Mapping[str, np.ndarray | None]
) -> None:
    """Reject a bound activation whose (rows, width) differ from the
    ones the program was lowered for (its cycles price those rows)."""
    for name, (rows, width) in program.meta.get("input_shapes", {}).items():
        arr = inputs.get(name)
        if arr is None:
            continue
        shape = np.shape(arr)
        if shape[-2:] != (rows, width) or len(shape) > 3:
            raise ValueError(
                f"input '{name}' must have shape ({rows}, {width}) or "
                f"(B, {rows}, {width}); got {shape}"
            )


def _execute_ops(
    program: BlockProgram,
    root: Any,
    inputs: dict[str, np.ndarray | None] | None,
    caches: Sequence[Any] | None,
    weight_hook: Callable[[ParamRef, np.ndarray], np.ndarray] | None,
) -> ProgramRun:
    fabric = program.fabric
    bound = inputs or {}
    values: dict[int, np.ndarray] = {}
    stacks: list[np.ndarray | None] = []

    def value(ref: ValueRef) -> np.ndarray:
        if ref.kind == "op":
            return values[ref.key]
        if ref.kind == "ext":
            if ref.key not in bound:
                raise KeyError(f"missing external input '{ref.key}'")
            return bound[ref.key]
        which, layer, head = ref.key
        if caches is None:
            raise ValueError("program references a KV cache but none was bound")
        return getattr(caches[layer], which)[head]

    def act(ref: ValueRef) -> np.ndarray:
        return np.asarray(value(ref), dtype=MODEL_DTYPE)

    def param(ref: ParamRef) -> np.ndarray:
        arr = ref.resolve(root)
        if weight_hook is not None:
            arr = weight_hook(ref, arr)
        return np.asarray(arr, dtype=MODEL_DTYPE)

    def gather(how: str, what: Any, members: int) -> np.ndarray:
        if how == "group":
            return stacks[what]
        if how == "shared":
            shared = act(what)
            return np.broadcast_to(shared, (members,) + shared.shape)
        return np.stack([act(ref) for ref in what])

    for step in program.execution_plan:
        if not step.stacked:
            op = step.ops[0]
            values[op.op_id] = _run_op(op, act, param)
            stacks.append(None)
            continue
        args = [gather(how, what, len(step.ops)) for how, what in step.args]
        params = [_head_slice(param(ref), step.heads) for ref in step.ops[0].params]
        out = _run_head_group(fabric, step, args, params, bound, caches)
        if out is not None:
            for op, member in zip(step.ops, out):
                values[op.op_id] = member
        stacks.append(out)

    outputs = {name: value(ref) for name, ref in program.outputs.items()}
    return ProgramRun(
        outputs=outputs,
        block_compute_cycles=dict(program.block_spans),
        values=values,
    )


def _head_slice(arr: np.ndarray, heads: tuple[int, ...] | None) -> np.ndarray:
    """The members' slices of a per-head parameter stack, in member
    order (the whole stack when it already is); a parameter of ops
    without a ``head`` gets a head axis of length 1."""
    if heads is None:
        return arr[None]
    if heads == tuple(range(arr.shape[0])):
        return arr
    return arr[list(heads)]


def _lift(param: np.ndarray, activation: np.ndarray) -> np.ndarray:
    """Give a head-stacked parameter unit axes for the activation's
    batch axes, so it broadcasts over them."""
    pad = (1,) * (activation.ndim - param.ndim)
    return param.reshape(param.shape[:1] + pad + param.shape[1:])


def _run_head_group(
    fabric: Fabric,
    step: PlanStep,
    args: list[np.ndarray],
    params: list[np.ndarray],
    bound: Mapping[str, np.ndarray | None],
    caches: Sequence[Any] | None,
) -> np.ndarray | None:
    """One head-stacked kernel call; returns the ``(members, ...)``
    output stack (None for cache appends)."""
    first = step.ops[0]
    sem = first.semantic
    if sem == "mm1":
        return mm1_product(fabric, args[0], _lift(params[0], args[0]))
    if sem == "bias":
        return args[0] + _lift(params[0], args[0])
    if sem == "mm2":
        return mm2_product(args[0], args[1])
    if sem == "scsm":
        mask_name = first.attrs.get("mask")
        mask = bound.get(mask_name) if mask_name else None
        return softmax_unit(scale_scores(args[0], first.attrs["d_k"]), mask=mask)
    if sem == "mm3":
        return mm3_product(args[0], args[1])
    if caches is None:
        raise ValueError("cache op requires a bound cache")
    for op, row in zip(step.ops, args[0]):
        layer = caches[op.attrs["layer"]]
        append = layer.append_self_k if sem == "cache_append_k" else layer.append_self_v
        append(op.attrs["head"], row)
    return None


def _run_op(
    op: Op,
    act: Callable[[ValueRef], np.ndarray],
    param: Callable[[ParamRef], np.ndarray],
) -> np.ndarray:
    """One op outside the head groups (MM4, the FFN, Add-Norm)."""
    sem = op.semantic
    if sem == "mm4":
        return mm4_product(np.stack([act(r) for r in op.inputs]), param(op.params[0]))
    if sem == "mm5":
        return mm5_product(act(op.inputs[0]), param(op.params[0]))
    if sem == "bias_relu":
        return relu_unit(bias_unit(act(op.inputs[0]), param(op.params[0])))
    if sem == "mm6":
        return mm6_product(act(op.inputs[0]), param(op.params[0]))
    if sem == "add_norm":
        return add_norm_unit(
            act(op.inputs[0]), act(op.inputs[1]),
            param(op.params[0]), param(op.params[1]),
        )
    raise ValueError(f"unknown op semantic '{sem}'")


__all__ = [
    "OpKind",
    "Op",
    "ValueRef",
    "ParamRef",
    "BlockIR",
    "BlockProgram",
    "ProgramRun",
    "resolve_head_parallelism",
    "LoweringSpec",
    "lower",
    "lower_full_pass",
    "lower_decode_step",
    "block_compute_cycles",
    "program_block_work",
    "program_op_counts",
    "program_load_bytes",
    "program_hbm_bytes",
    "lowering_cache_info",
    "record_lowering_cache_metrics",
    "schedule_program",
    "trace_block",
    "trace_program",
    "trace_program_with_schedule",
    "UnitSpan",
    "program_unit_spans",
    "execute_program",
]

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
Like the accelerator, which runs one kernel set for every layer, it
lowers each distinct layer once, as a template, and stamps the copies
(:func:`_stamp`): their blocks and spans at once, their ops on the
first read of ``BlockProgram.ops``.
A block's compute cycles are always its ASAP makespan in the lowered
program (``BlockProgram.block_spans``); no other cycle model of the
block schedule exists.
"""

from __future__ import annotations

import sys
import threading
import weakref
from dataclasses import dataclass, field, fields, replace
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
    _as_int,
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


# The IR records are frozen, slotted dataclasses with a hand-written
# ``__init__``: the generated frozen ``__init__`` assigns every field
# through ``object.__setattr__``, while these write each slot through
# its member descriptor (``_slot_setters``), about twice as fast.  A
# lowering builds thousands of records, and assignment after
# construction still raises ``FrozenInstanceError``.
def _slot_setters(cls: type) -> tuple[Callable[[Any, Any], None], ...]:
    """The ``__set__`` of each field's slot descriptor, in field order."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


_VALUE_KINDS = frozenset(("op", "ext", "cache"))


@dataclass(frozen=True, slots=True, init=False)
class ValueRef:
    """Reference to a runtime value: an op output (``op``), an external
    program input (``ext``), or a KV-cache tensor (``cache``, keyed by
    (attribute, layer, head))."""

    kind: str
    key: Any

    def __init__(self, kind: str, key: Any) -> None:
        if kind not in _VALUE_KINDS:
            raise ValueError(f"unknown ValueRef kind '{kind}'")
        _set_kind, _set_key = _VALUE_REF_SETTERS
        _set_kind(self, kind)
        _set_key(self, key)


@dataclass(frozen=True, slots=True, init=False)
class ParamRef:
    """Path into the parameter tree, e.g. ``("encoders", 0, "mha",
    "wq")``.  Per-head stacks are referenced whole — the consuming op's
    ``head`` attribute selects the slice — so the path matches the
    dotted targets of :mod:`repro.hw.faults` exactly."""

    path: tuple

    def __init__(self, path: tuple) -> None:
        _PARAM_REF_SETTERS[0](self, path)

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


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(
        self,
        op_id: int,
        kind: OpKind,
        label: str,
        engines: tuple[str, ...],
        cycles: int,
        deps: tuple[int, ...],
        block: str,
        semantic: str | None = None,
        inputs: tuple[ValueRef, ...] = (),
        params: tuple[ParamRef, ...] = (),
        attrs: dict | None = None,
    ) -> None:
        if cycles < 0:
            raise ValueError("op cycles must be non-negative")
        (
            _set_op_id, _set_kind, _set_label, _set_engines, _set_cycles,
            _set_deps, _set_block, _set_semantic, _set_inputs, _set_params,
            _set_attrs,
        ) = _OP_SETTERS
        _set_op_id(self, op_id)
        _set_kind(self, kind)
        _set_label(self, label)
        _set_engines(self, engines)
        _set_cycles(self, cycles)
        _set_deps(self, deps)
        _set_block(self, block)
        _set_semantic(self, semantic)
        _set_inputs(self, inputs)
        _set_params(self, params)
        _set_attrs(self, {} if attrs is None else attrs)


_VALUE_REF_SETTERS = _slot_setters(ValueRef)
_PARAM_REF_SETTERS = _slot_setters(ParamRef)
_OP_SETTERS = _slot_setters(Op)


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
    #: The block's :class:`BlockShape`, which the copies of one layer
    #: template share; None for a block built by hand, whose shape is
    #: derived from the program's ops when first needed (:func:`_shaped`).
    shape: BlockShape | None = field(default=None, compare=False, repr=False)
    #: The op ids behind each port of ``shape``: the producers outside
    #: the block that its ops depend on or read.
    ports: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False
    )


class BlockShape:
    """What the cycle executor and the optimizer passes read of one
    block, with op ids replaced by positions: the block's *shape*.

    ``entries`` holds each op in block order as ``(kind, semantic,
    engines, cycles, deps, reads)``; a LOAD op's engines and cycles are
    left out (``()`` and 0), since no span reads them.  ``deps`` are
    the op's declared deps and ``reads`` the ops whose outputs it
    reads, each a *link*: a position in the block (>= 0), or the port
    ``-1 - k`` for producers outside it, which the block's
    ``BlockIR.ports[k]`` names.  ``by_id`` lists the compute (non-LOAD)
    ops in op-id order, which breaks list-schedule ties.

    From those it computes ``comps`` (the compute ops' positions) at
    once and, on first read, ``rows`` (per compute op its engines,
    cycles, in-block deps and reads as indices into ``comps``), the
    ASAP ``times`` and ``span`` of the compute ops, and the PSA-lane
    profile ``psa`` of ``(lane, busy cycles, last end)``.  Dependencies
    outside the block are ready at time 0, as in :func:`_asap_times`.

    A lowering builds one record per layer-template block and every
    stamped copy shares it; a pass derives the records of the blocks it
    rewrites from its inputs' records and memoizes each derivation on
    its input (``derived``), so one shape is one object.  A derivation
    from two records names the second by a weak reference: fusing two
    copies of one layer pairs a record with itself, and a strong one
    would make a cycle that only the cyclic collector frees.  Records
    compare by structure.
    """

    def __init__(
        self,
        entries: Sequence[tuple],
        num_ports: int,
        by_id: Sequence[int] | None = None,
    ) -> None:
        self.entries = entries = tuple(entries)
        self.num_ports = num_ports
        self.kinds = tuple([e[0] for e in entries])
        load = OpKind.LOAD  # an Enum member lookup costs ~0.16 us
        self.comps = tuple(
            [p for p, kind in enumerate(self.kinds) if kind is not load]
        )
        self.by_id = tuple(range(len(self.comps)) if by_id is None else by_id)
        #: What the passes derived from this record, by derivation key.
        self.derived: dict[tuple, Any] = {}
        #: The list schedule of the passes' reorder, once computed.
        self.plan: Any = None
        self._hash: int | None = None

    # The facts below are computed on first read: a lowering reads only
    # the spans, the passes the rest.
    @cached_property
    def semantics(self) -> tuple[str | None, ...]:
        return tuple([e[1] for e in self.entries])

    @cached_property
    def rows(self) -> tuple[tuple, ...]:
        index = {p: c for c, p in enumerate(self.comps)}
        rows = []
        for p in self.comps:
            _, _, engines, cycles, deps, reads = self.entries[p]
            rows.append((
                engines,
                cycles,
                tuple([index[q] for q in deps if q in index]),
                tuple(sorted({index[q] for q in reads if q in index})),
            ))
        return tuple(rows)

    def _ends(self) -> dict[int, int]:
        """The ASAP end of each compute op, by position.  A dep on a
        LOAD op, a port or a later op is ready at time 0."""
        ends: dict[int, int] = {}
        for p in self.comps:
            _, _, _, cycles, deps, _ = self.entries[p]
            start = 0
            for q in deps:
                end = ends.get(q, 0)
                if end > start:
                    start = end
            ends[p] = start + cycles
        return ends

    @cached_property
    def times(self) -> tuple[tuple[int, int], ...]:
        ends = self._ends()
        return tuple([(ends[p] - self.entries[p][3], ends[p]) for p in self.comps])

    @cached_property
    def span(self) -> int:
        # Not read off ``times``: a lowering reads only the span, and
        # keeps its programs' records in the lowering cache.
        return max(self._ends().values(), default=0)

    @cached_property
    def psa(self) -> tuple[tuple[str, int, int], ...]:
        lanes: dict[str, list[int]] = {}
        for p, (start, end) in zip(self.comps, self.times):
            if end == start:
                continue
            for lane in self.entries[p][2]:
                if ".psa" in lane:
                    acc = lanes.setdefault(lane, [0, 0])
                    acc[0] += end - start
                    acc[1] = max(acc[1], end)
        return tuple((lane, busy, end) for lane, (busy, end) in lanes.items())

    @cached_property
    def touches_cache(self) -> bool:
        return OpKind.CACHE in self.kinds or OpKind.STREAM in self.kinds

    @cached_property
    def port_users(self) -> tuple[tuple[int, ...], ...]:
        """Per port, the positions of the ops that link to it."""
        users: list[list[int]] = [[] for _ in range(self.num_ports)]
        for p, entry in enumerate(self.entries):
            for q in (*entry[4], *entry[5]):
                if q < 0:
                    users[-1 - q].append(p)
        return tuple(tuple(u) for u in users)

    @cached_property
    def forward(self) -> bool:
        """Whether every in-block link points to an earlier position."""
        return all(
            q < p
            for p, entry in enumerate(self.entries)
            for q in (*entry[4], *entry[5])
        )

    def _identity(self) -> tuple:
        return self.entries, self.num_ports, self.by_id

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, BlockShape):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._identity())
        return self._hash

    def __reduce__(self) -> tuple:
        return BlockShape, self._identity()

    def __repr__(self) -> str:
        return (
            f"BlockShape({len(self.entries)} ops, {self.num_ports} ports, "
            f"span={self.span})"
        )


def _shape_from_ops(
    ops: Sequence[Op], op_ids: Sequence[int], template: bool = False
) -> tuple[BlockShape, tuple]:
    """The shape of the block holding ``op_ids`` and the key of each of
    its ports: ``("op", id)`` for an op outside the block.  In a layer
    ``template`` an ``ext`` input is a port too (``("ext", name)``,
    bound to a copy's input), and the entry ops' :data:`_ENTRY_DEPS`
    one port ``"entry"``."""
    at = {op_id: p for p, op_id in enumerate(op_ids)}
    ports: dict[Any, int] = {}
    port = ports.setdefault
    entries = []
    append = entries.append
    load = OpKind.LOAD  # an Enum member lookup costs ~0.16 us
    for op_id in op_ids:
        op = ops[op_id]
        op_deps = op.deps
        if not op_deps:
            deps: tuple[int, ...] = ()
        elif template and op_deps == _ENTRY_DEPS:
            deps = (-1 - port("entry", len(ports)),)
        else:
            deps = tuple([
                at[d] if d in at else -1 - port(("op", d), len(ports))
                for d in op_deps
            ])
        reads = []
        for ref in op.inputs:
            kind = ref.kind
            if kind == "op":
                key = ref.key
                reads.append(
                    at[key] if key in at else -1 - port(("op", key), len(ports))
                )
            elif template and kind == "ext":
                reads.append(-1 - port(("ext", ref.key), len(ports)))
        kind = op.kind
        if kind is load:
            append((kind, op.semantic, (), 0, deps, tuple(reads)))
        else:
            append((kind, op.semantic, op.engines, op.cycles, deps, tuple(reads)))
    comps = [op_id for op_id, e in zip(op_ids, entries) if e[0] is not load]
    by_id = sorted(range(len(comps)), key=comps.__getitem__)
    return BlockShape(entries, len(ports), by_id), tuple(ports)


def _resolve(first: BlockIR, second: BlockIR) -> tuple:
    """How ``second``'s ports land when its ops follow ``first``'s in
    one block: per port the positions in ``first`` it names
    (``inside``) and the op ids outside both (``outside``), plus the
    union's ``by_id`` (None when it is the identity)."""
    a, b = first.shape, second.shape
    ids = first.op_ids
    base = ids[0] if ids else 0
    lookup: dict[int, int] | None = None
    inside = []
    outside = []
    for bound in second.ports:
        hits = []
        for op_id in bound:
            j = op_id - base
            if not (0 <= j < len(ids) and ids[j] == op_id):
                if lookup is None:
                    lookup = {i: p for p, i in enumerate(ids)}
                j = lookup.get(op_id)
            hits.append(j)
        inside.append(tuple([h for h in hits if h is not None]))
        outside.append(tuple([i for i, h in zip(bound, hits) if h is None]))
    if (
        a.by_id == tuple(range(len(a.comps)))
        and b.by_id == tuple(range(len(b.comps)))
        and (
            not a.comps or not b.comps
            or ids[a.comps[-1]] < second.op_ids[b.comps[0]]
        )
    ):
        by_id = None
    else:
        comp_ids = [ids[p] for p in a.comps] + [second.op_ids[p] for p in b.comps]
        by_id = tuple(sorted(range(len(comp_ids)), key=comp_ids.__getitem__))
    return tuple(inside), tuple(outside), by_id


def _union_shape(
    first: BlockIR, second: BlockIR
) -> tuple[BlockShape, tuple[tuple[int, ...], ...]]:
    """The shape and ports of the one block holding ``first``'s ops,
    then ``second``'s (both carrying shapes, in one id space): the
    ports of ``second`` that name ops of ``first`` become in-block
    links.  Memoized on ``first``'s shape, so the pairs of two layer
    copies share one result."""
    a, b = first.shape, second.shape
    inside, outside, by_id = _resolve(first, second)
    key = ("union", weakref.ref(b), inside, by_id)
    shape = a.derived.get(key)
    if shape is None:
        n, k = len(a.entries), a.num_ports

        def relink(links: tuple[int, ...]) -> tuple[int, ...]:
            out: list[int] = []
            for q in links:
                if q >= 0:
                    out.append(q + n)
                else:
                    out.extend(inside[-1 - q])
                    out.append(q - k)
            return tuple(out)

        entries = a.entries + tuple(
            (kind, semantic, engines, cycles, relink(deps), relink(reads))
            for kind, semantic, engines, cycles, deps, reads in b.entries
        )
        shape = a.derived[key] = BlockShape(entries, k + b.num_ports, by_id)
    return shape, first.ports + outside


def _union_span(first: BlockIR, second: BlockIR) -> int:
    """``_union_shape(first, second)[0].span`` without building the
    union: ``second``'s ASAP pass rerun with the ends of the ops of
    ``first`` its ports name.  Memoized on ``first``'s shape."""
    a, b = first.shape, second.shape
    inside, _, by_id = _resolve(first, second)
    key = ("union span", weakref.ref(b), inside, by_id)
    span = a.derived.get(key)
    if span is None:
        a_end = dict(zip(a.comps, [end for _, end in a.times]))
        ends: list[int] = []
        for c, p in enumerate(b.comps):
            _, _, _, cycles, links, _ = b.entries[p]
            start = 0
            for q in b.rows[c][2]:
                if q < c and ends[q] > start:
                    start = ends[q]
            for q in links:
                if q < 0:
                    for r in inside[-1 - q]:
                        start = max(start, a_end.get(r, 0))
            ends.append(start + cycles)
        span = a.derived[key] = max(a.span, max(ends, default=0))
    return span


@dataclass(frozen=True)
class BlockProgram:
    """A lowered program: ops, blocks, named outputs, and the fabric
    the cycle formulas were evaluated against.

    Programs are never mutated in place — passes rebuild a new one —
    so the cycle executor's spans and work units are computed once per
    program and kept on it (``cached_property`` writes the instance
    ``__dict__``, which a frozen dataclass still has).  A meta-only
    copy (:meth:`with_meta`) shares them.  The spans are read off the
    blocks' shapes (:class:`BlockShape`), which lowering and the passes
    give every block they make, so a lowering and a pass rebuild can
    both leave ``ops`` to be built on its first read.
    """

    fabric: Fabric
    #: The ops in id order.  A lowering that stamps layer copies passes
    #: their recipe (:class:`_DeferredOps`) instead, and the copies'
    #: ops are built on the first read of this attribute; the block
    #: views (``num_ops``, ``blocks``, the spans, ``outputs``, ``meta``,
    #: the work units) never read it.
    ops: tuple[Op, ...]
    blocks: tuple[BlockIR, ...]
    outputs: dict[str, ValueRef]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.__dict__["ops"], _DeferredOps):
            self.__dict__["_deferred"] = self.__dict__.pop("ops")

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute the instance lacks: ``ops``
        # before its recipe has run.  The built tuple is published
        # before the recipe is dropped, so a reader that finds neither
        # the tuple nor the recipe missed the tuple by a hair.
        deferred = self.__dict__.get("_deferred") if name == "ops" else None
        if deferred is None:
            if name == "ops" and "ops" in self.__dict__:
                return self.__dict__["ops"]
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        ops = self.__dict__["ops"] = deferred.build()
        self.__dict__.pop("_deferred", None)
        return ops

    @property
    def num_ops(self) -> int:
        deferred = self.__dict__.get("_deferred")
        return len(self.ops) if deferred is None else deferred.num_ops

    def block(self, label: str) -> BlockIR:
        for blk in self.blocks:
            if blk.label == label:
                return blk
        raise KeyError(f"no block labelled '{label}'")

    @cached_property
    def block_spans(self) -> Mapping[str, int]:
        """Read-only label -> ASAP makespan of each block's compute ops."""
        return MappingProxyType(
            {blk.label: _shaped(self, blk).shape.span for blk in self.blocks}
        )

    @cached_property
    def merge_group_spans(self) -> Mapping[str, int]:
        """Read-only ``merge_group`` -> union ASAP makespan of the
        blocks that fuse into one A1/A2 work unit."""
        return MappingProxyType(
            {
                group[0].merge_group: _unit_shape(self, group).span
                for group in _unit_groups(self.blocks, merge=True)
                if len(group) > 1
            }
        )

    @cached_property
    def _shape_memo(self) -> dict[str, BlockIR]:
        """Blocks built without a shape, with the one derived from the
        ops (:func:`_shaped`), by label."""
        return {}

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

    @cached_property
    def _psa_stall_memo(self) -> dict[tuple[Architecture, int], dict[str, float]]:
        """PSA stall totals per (architecture, overhead), filled by the
        optimizer passes (``repro.hw.passes._psa_stalls``)."""
        return {}

    def with_meta(self, meta: dict) -> BlockProgram:
        """This program with its ``meta`` replaced.

        The copy shares the ops — built or not, both programs get one
        tuple — the views that read only ``ops`` and ``blocks`` — spans,
        work units, execution plan — and, while ``schedule_params`` is
        unchanged, the PSA stall memo.
        """
        copy = replace(
            self, meta=meta, ops=self.__dict__.get("_deferred") or self.ops
        )
        shared: tuple[str, ...] = (
            "block_spans",
            "merge_group_spans",
            "execution_plan",
            "_work_unit_memo",
            "_shape_memo",
        )
        if meta.get("schedule_params") == self.meta.get("schedule_params"):
            shared += ("_psa_stall_memo",)
        for name in shared:
            if name in self.__dict__:
                copy.__dict__[name] = self.__dict__[name]
        return copy

    def __reduce__(self) -> tuple:
        # Rebuilt through the constructor from the built ops: neither a
        # recipe (closures, a lock) nor the read-only span views pickle.
        spans = {
            name: dict(self.__dict__[name])
            for name in ("block_spans", "merge_group_spans")
            if name in self.__dict__
        }
        return _restore_program, (
            self.fabric, self.ops, self.blocks, dict(self.outputs),
            dict(self.meta), spans,
        )


def _restore_program(
    fabric: Fabric,
    ops: tuple[Op, ...],
    blocks: tuple[BlockIR, ...],
    outputs: dict[str, ValueRef],
    meta: dict,
    spans: dict[str, dict[str, int]],
) -> BlockProgram:
    """Unpickle a :class:`BlockProgram` (see ``__reduce__``)."""
    program = BlockProgram(fabric, ops, blocks, outputs, meta)
    for name, values in spans.items():
        program.__dict__[name] = MappingProxyType(values)
    return program


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


#: Appends one stamped layer copy's ops (see :func:`_stamp`).
_CopyBuilder = Callable[[Callable[[Op], None]], None]


class _DeferredOps:
    """A lowered program's ops before they are built: its own ops and
    one builder per stamped layer copy, in id order.  :meth:`build`
    runs them once, under a lock, and keeps only the tuple."""

    __slots__ = ("parts", "num_ops", "ops", "lock")

    def __init__(self, parts: list[Op | _CopyBuilder], num_ops: int) -> None:
        self.parts: list[Op | _CopyBuilder] | None = parts
        self.num_ops = num_ops
        self.ops: tuple[Op, ...] | None = None
        self.lock = threading.Lock()

    def build(self) -> tuple[Op, ...]:
        with self.lock:
            if self.ops is None:
                ops: list[Op] = []
                append = ops.append
                for part in self.parts:
                    if isinstance(part, Op):
                        append(part)
                    else:
                        part(append)
                self.ops, self.parts = tuple(ops), None
        return self.ops


class _Builder:
    """Accumulates ops and blocks during lowering."""

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        #: The ops in id order, a stamped copy standing in as the one
        #: builder of its ops.
        self.ops: list[Op | _CopyBuilder] = []
        #: Op count so far, copies included: the next op id.
        self.size = 0
        self.stamped = False
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
        op_id = self.size
        self.size += 1
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
        return self.size

    def stamp(self, build: _CopyBuilder, count: int) -> None:
        """Reserve the next ``count`` op ids for ops that ``build``
        appends on the first read of the program's ops."""
        self.ops.append(build)
        self.size += count
        self.stamped = True

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
            op_ids=tuple(range(mark, self.size)),
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
        """The program; when layer copies were stamped, its ops are
        built when first read and its block spans are read off the
        copies' shapes, their templates'."""
        program = BlockProgram(
            fabric=self.fabric,
            ops=_DeferredOps(self.ops, self.size) if self.stamped
            else tuple(self.ops),
            blocks=tuple(self.blocks),
            outputs={
                name: _opref(ref) if isinstance(ref, int) else ref
                for name, ref in outputs.items()
            },
            meta={**meta, "input_shapes": self.input_shapes},
        )
        if all(blk.shape is not None for blk in self.blocks):
            program.__dict__["block_spans"] = MappingProxyType(
                {blk.label: blk.shape.span for blk in self.blocks}
            )
        return program


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


# ------------------------------------------------------ layer templates
# The accelerator runs one kernel set for every encoder and decoder
# layer and streams only the weights (Algorithm 1), so the lowering
# builds each distinct layer once, as a template, and stamps its copies.

#: Dependencies of a template's entry ops; a stamp puts the ops the
#: copy waits on in their place.
_ENTRY_DEPS = (-1,)


class _LayerTemplate:
    """One layer lowered on its own, ids from 0, for :func:`_stamp`.

    The layer is lowered with the first copy's labels (``names`` are
    the label patterns of its blocks and merge groups, filled with the
    1-based copy number) and layer index 0: its parameter paths index
    the ``stack`` list (None: they start at the layer) and its cache
    refs and ``CACHE`` ops name layer 0.  Its external inputs are
    ``ext`` refs a stamp binds by name, and its entry ops depend on
    :data:`_ENTRY_DEPS`.  ``output`` is the id of its output op; the
    template keeps the layer's blocks, each with its shape, but not its
    ops, which a program waiting to build its copies would otherwise
    hold.  ``ports`` holds the port keys of each block's shape, which a
    stamp binds to the copy's op ids.

    ``rows`` holds each op as the :class:`Op` fields a copy takes over,
    with the ``LOAD`` label left None, the entry deps None, and inputs
    and parameters as slot numbers.  A copy's value slots are one ref
    per op that an input or the output reads (the others' slots stay
    None), then one per :attr:`outer` ``(kind, key)`` pair: bound
    inputs and cache refs.  Its parameter slots follow :attr:`params`.
    """

    def __init__(
        self, tb: _Builder, output: int, names: tuple[str, ...], stack: str | None
    ) -> None:
        program = tb.finish({})
        blocks = []
        self.ports: dict[str, tuple] = {}
        for blk in program.blocks:
            shape, self.ports[blk.label] = _shape_from_ops(
                program.ops, blk.op_ids, template=True
            )
            blocks.append(replace(blk, shape=shape))
        self.blocks = tuple(blocks)
        self.output = output
        self.names = names
        self.stack = stack
        n = len(program.ops)
        outer: dict[tuple[str, Any], int] = {}
        params: dict[tuple, int] = {}
        read = {output}
        rows = []
        load = OpKind.LOAD  # an Enum member lookup costs ~0.16 us
        for op in program.ops:
            for ref in op.inputs:
                if ref.kind == "op":
                    read.add(ref.key)
                else:
                    outer.setdefault((ref.kind, ref.key), n + len(outer))
            for ref in op.params:
                params.setdefault(ref.path, len(params))
            rows.append((
                op.op_id, op.kind, None if op.kind is load else op.label,
                op.engines, op.cycles, None if op.deps == _ENTRY_DEPS else op.deps,
                op.block, op.semantic,
                tuple([
                    ref.key if ref.kind == "op" else outer[ref.kind, ref.key]
                    for ref in op.inputs
                ]),
                tuple([params[ref.path] for ref in op.params]),
                op.attrs,
            ))
        self.rows = tuple(rows)
        self.read = tuple(i in read for i in range(n))
        self.outer = list(outer)
        self.params = [ParamRef(path) for path in params]


def _stamp(
    b: _Builder,
    tpl: _LayerTemplate,
    index: int,
    bind: Mapping[str, ValueRef | None],
    entry_deps: tuple[int, ...],
) -> ValueRef:
    """Append copy ``index`` of a layer template to ``b``: op ids
    shifted past the ops already built, blocks relabelled, parameter
    paths, cache refs and ``CACHE`` ops moved to layer ``index``, the
    external inputs bound by name, and the entry ops made to wait on
    ``entry_deps``.  The copy's blocks, which share the template's
    shapes, and its output are made now; its ops when the program's ops
    are first read.  Returns the ref to the copy's output."""
    offset = b.size
    # Interned: every lowering makes the same labels, and schedules and
    # reports that outlive their program keep them.
    labels = {
        name.format(1): sys.intern(name.format(index + 1)) for name in tpl.names
    }
    shift = offset.__add__

    def bound(key: Any) -> tuple[int, ...]:
        if key == "entry":
            return entry_deps
        kind, name = key
        if kind == "op":
            return (offset + name,)
        ref = bind[name]
        return (ref.key,) if ref is not None and ref.kind == "op" else ()

    for blk in tpl.blocks:
        b.blocks.append(replace(
            blk,
            label=labels[blk.label],
            op_ids=tuple(map(shift, blk.op_ids)),
            merge_group=labels.get(blk.merge_group),
            ports=tuple(map(bound, tpl.ports[blk.label])),
        ))
    output = ValueRef("op", offset + tpl.output)

    def build(append: Callable[[Op], None]) -> None:
        load_labels = {old: f"LW:{new}" for old, new in labels.items()}
        values = [
            ValueRef("op", offset + i) if read else None
            for i, read in enumerate(tpl.read)
        ] + [
            bind[key] if kind == "ext" else _cacheref(key[0], index, key[2])
            for kind, key in tpl.outer
        ]
        values[tpl.output] = output
        params = tpl.params if tpl.stack is None else [
            ParamRef((tpl.stack, index) + ref.path[2:]) for ref in tpl.params
        ]
        value, param = values.__getitem__, params.__getitem__
        cache = OpKind.CACHE  # an Enum member lookup costs ~0.16 us
        for (
            op_id, kind, label, engines, cycles, deps, block, semantic,
            inputs, op_params, attrs,
        ) in tpl.rows:
            append(Op(
                op_id + offset,
                kind,
                load_labels[block] if label is None else label,
                engines,
                cycles,
                entry_deps if deps is None else tuple(map(shift, deps)),
                labels[block],
                semantic,
                tuple(map(value, inputs)),
                tuple(map(param, op_params)),
                {**attrs, "layer": index} if kind is cache else attrs,
            ))

    b.stamp(build, len(tpl.rows))
    return output


def _encoder_template(
    fabric: Fabric, spec: LoweringSpec, mask: str, stack: bool
) -> _LayerTemplate:
    """One encoder layer (block ``enc1``, input ``x``): layer 0 of the
    encoder stack behind its weight load with ``stack``, else the layer
    alone without a load."""
    model = spec.model
    tb = _Builder(fabric)
    load_cycles = load_bytes = 0
    if stack:
        load_bytes = encoder_weight_bytes(model, fabric.hardware.bytes_per_element)
        load_cycles = _bundle_load_cycles(fabric, load_bytes)
        _load_op(tb, "enc1", load_cycles, None)
    out = _lower_encoder_layer(
        tb, "enc1", ValueRef("ext", "x"), ("encoders", 0) if stack else (),
        spec.s, model, spec.parallel_heads, mask, _ENTRY_DEPS,
    )
    tb.close_block("enc1", 0, load_cycles=load_cycles, load_bytes=load_bytes)
    return _LayerTemplate(tb, out, ("enc{}",), "encoders" if stack else None)


def _decoder_template(
    fabric: Fabric,
    spec: LoweringSpec,
    t: int,
    self_mask: str | None,
    memory_mask: str | None,
    stack: bool,
    step: bool = False,
) -> _LayerTemplate:
    """One decoder layer as the ``dec1m``/``dec1f`` block pair (inputs
    ``x`` and ``memory``): layer 0 of the decoder stack behind its two
    weight loads with ``stack``, else the layer alone without loads;
    with ``step``, one KV-cached decode step of it."""
    model = spec.model
    tb = _Builder(fabric)
    mha_load = ffn_load = mha_bytes = ffn_bytes = 0
    merged_load = None
    if stack:
        bpe = fabric.hardware.bytes_per_element
        mha_bytes = decoder_mha_weight_bytes(model, bpe)
        ffn_bytes = decoder_ffn_weight_bytes(model, bpe)
        mha_load = _bundle_load_cycles(fabric, mha_bytes)
        ffn_load = _bundle_load_cycles(fabric, ffn_bytes)
        merged_load = _bundle_load_cycles(fabric, decoder_weight_bytes(model, bpe))
        _load_op(tb, "dec1m", mha_load, 0)
    m_end, out = _lower_decoder_layer(
        tb, "dec1m", "dec1f", ValueRef("ext", "x"),
        None if step else ValueRef("ext", "memory"),
        ("decoders", 0) if stack else (), t, spec.s, model,
        spec.parallel_heads, self_mask, memory_mask, _ENTRY_DEPS,
        step_layer=0 if step else None,
    )
    tb.blocks.append(BlockIR(
        "dec1m", tuple(range(m_end)), load_cycles=mha_load, channel_hint=0,
        merge_group="dec1", merged_load_cycles=merged_load, load_bytes=mha_bytes,
    ))
    if stack:
        # The f-part's load op follows the FFN ops the layer emitted;
        # its id range covers both.
        _load_op(tb, "dec1f", ffn_load, 1)
    tb.blocks.append(BlockIR(
        "dec1f", tuple(range(m_end, tb.mark())), load_cycles=ffn_load,
        channel_hint=1, overhead_override=0, merge_group="dec1",
        merged_load_cycles=merged_load, load_bytes=ffn_bytes,
    ))
    return _LayerTemplate(
        tb, out, ("dec{}m", "dec{}f", "dec{}"), "decoders" if stack else None
    )


def _stamp_stack(
    b: _Builder, tpl: _LayerTemplate, layers: int, x: ValueRef,
    memory: ValueRef | None = None,
) -> ValueRef:
    """``layers`` copies of a layer template in a chain, each fed the
    previous copy's output; returns the last output."""
    entry: tuple[int, ...] = ()
    for i in range(layers):
        x = _stamp(b, tpl, i, {"x": x, "memory": memory}, entry)
        entry = (x.key,)
    return x


def _lower_encoders(
    b: _Builder, spec: LoweringSpec, x: ValueRef, mask: str
) -> ValueRef:
    """Every encoder layer, one block each behind its weight load."""
    if not spec.model.num_encoders:
        return x
    tpl = _encoder_template(b.fabric, spec, mask, stack=True)
    return _stamp_stack(b, tpl, spec.model.num_encoders, x)


def _lower_decoders(
    b: _Builder,
    spec: LoweringSpec,
    t: int,
    x: ValueRef,
    memory: ValueRef | None,
    self_mask: str | None,
    memory_mask: str | None,
    step: bool = False,
) -> ValueRef:
    """Every decoder layer as an m/f block pair (full pass, or one
    KV-cached decode step with ``step``)."""
    if not spec.model.num_decoders:
        return x
    tpl = _decoder_template(
        b.fabric, spec, t, self_mask, memory_mask, stack=True, step=step
    )
    return _stamp_stack(b, tpl, spec.model.num_decoders, x, memory)


# ------------------------------------------------- program entry points
def _scope_full_pass(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """The full encoder + decoder pass: the program behind the Table
    5.1 / Fig 5.2 latency numbers and the teacher-forced run."""
    d_model = spec.model.d_model
    memory = _lower_encoders(b, spec, b.ext("x", spec.s, d_model), "enc_mask")
    out = _lower_decoders(
        b, spec, t, b.ext("dec_in", t, d_model), memory, "dec_self_mask",
        "dec_memory_mask",
    )
    return {"encoder_output": memory, "decoder_output": out}


def _scope_encoder_stack(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """The encoder stack alone (prefill)."""
    return {"output": _lower_encoders(
        b, spec, b.ext("x", spec.s, spec.model.d_model), "enc_mask"
    )}


def _scope_decode_step(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """One KV-cached decode step at prefix length ``t`` over an
    ``s``-row memory: a 1-row query through every decoder layer."""
    return {"output": _lower_decoders(
        b, spec, t, b.ext("x", 1, spec.model.d_model), None, None,
        "memory_mask", step=True,
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
    tpl = _encoder_template(b.fabric, spec, "mask", stack=False)
    return {"output": _stamp(
        b, tpl, 0, {"x": b.ext("x", spec.s, spec.model.d_model)}, ()
    )}


def _scope_decoder_layer(b: _Builder, spec: LoweringSpec, t: int) -> dict:
    """One decoder layer without its weight loads (root:
    DecoderLayerParams), m/f split."""
    tpl = _decoder_template(
        b.fabric, spec, t, "self_mask", "memory_mask", stack=False
    )
    bind = {
        "x": b.ext("x", t, spec.model.d_model),
        "memory": b.ext("memory", spec.s, spec.model.d_model),
    }
    return {"output": _stamp(b, tpl, 0, bind, ())}


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
    defaults to ``s``.  ``s``, ``t`` and ``parallel_heads`` are
    integers: numpy integers convert, floats, bools and strings raise
    ``TypeError``.
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
        for name in ("s", "t", "parallel_heads"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
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
        # Every lowering-cache lookup hashes the spec: hash it once, and
        # without the fabric (its calibration hashes field by field).
        # Equal specs still hash equal; specs that differ only in their
        # fabric share a hash, and equality tells them apart.
        object.__setattr__(self, "_hash", hash(
            (self.scope, self.model, self.s, self.t, self.parallel_heads)
        ))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuilt through ``__init__``, so the hash is recomputed: string
        # hashes differ between interpreters.
        return (LoweringSpec, (
            self.scope, self.model, self.fabric, self.s, self.t,
            self.parallel_heads,
        ))


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
    ends: dict[int, int] = {}
    ops = program.ops
    for op_id in op_ids:
        op = ops[op_id]
        if op.kind is OpKind.LOAD:
            continue
        start = 0
        for dep in op.deps:
            end = ends.get(dep, 0)
            if end > start:
                start = end
        ends[op_id] = end = start + op.cycles
        times[op_id] = (start, end)
    return times


def _makespan(program: BlockProgram, op_ids: Sequence[int]) -> int:
    return max((end for _, end in _asap_times(program, op_ids).values()), default=0)


def _shaped(program: BlockProgram, blk: BlockIR) -> BlockIR:
    """``blk`` with its shape and ports: ``blk`` itself when it carries
    them, else a copy with the ones derived from the program's ops,
    made once per program and block."""
    if blk.shape is not None:
        return blk
    memo = program._shape_memo
    shaped = memo.get(blk.label)
    if shaped is None or shaped != blk:
        shape, keys = _shape_from_ops(program.ops, blk.op_ids)
        shaped = memo[blk.label] = replace(
            blk, shape=shape, ports=tuple((key[1],) for key in keys)
        )
    return shaped


def _unit_shape(program: BlockProgram, group: Sequence[BlockIR]) -> BlockShape:
    """The shape of one work unit: a block's, or the union of the
    blocks of a merge group (:func:`_union_shape`)."""
    unit = _shaped(program, group[0])
    for blk in group[1:]:
        shape, ports = _union_shape(unit, _shaped(program, blk))
        unit = BlockIR(
            unit.label, unit.op_ids + blk.op_ids, shape=shape, ports=ports
        )
    return unit.shape


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

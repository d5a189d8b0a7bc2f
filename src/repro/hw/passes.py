"""Optimizer passes over the block-program IR.

PR 2 lowered the Fig 4.13 schedule once and executed it verbatim; this
module is the missing optimizer.  Each pass is a semantics-preserving
transform ``BlockProgram -> BlockProgram`` — the functional executor's
outputs are bit-identical before and after, the streamed weight bytes
are conserved, and only the *cycle-domain* placement changes:

* :class:`CoalesceLoadsPass` — merge adjacent blocks into one
  schedulable unit, fusing their weight bundles into a single HBM
  burst and paying one host dispatch instead of k (the overhead the
  stall taxonomy bills per block).
* :class:`StageExposedLoadsPass` — split an encoder-shaped block at
  its MHA/FFN boundary into ``m``/``f`` parts on the two HBM channels
  (the Fig 4.11 decoder treatment applied to encoders), shrinking an
  *exposed* load — the ``load_starved`` cycles the classifier
  attributes — to the attention sub-bundle only.
* :class:`PrefetchChannelPass` — prefetch-depth / HBM-channel
  reassignment: deepen the A3 weight-buffer ring beyond one buffer per
  channel and/or re-balance channel hints by accumulated load cycles.
* :class:`ReorderOpsPass` — dependency-aware op reordering: strip the
  lowering's hand-written engine-serialization edges, list-schedule
  each block's dataflow DAG onto its engines by critical path, and
  re-emit the serialization edges for the new order (op ids are
  renumbered program-wide).

Every pass consumes the PR 5 stall taxonomy / schedule introspection as
its cost signal and only keeps a rewrite when the exact simulated
cycle count strictly improves, so a pipeline is monotone under its
cost architecture.  :class:`PassPipeline` composes passes and produces
a :class:`PipelineReport` for the ``repro-asr optimize`` artifact.

Pipelines apply to the cached baseline program and return a new one.
Their results are not cached: a search over many candidate pipelines
would otherwise keep every rejected program alive.  The A4 search
(``hw/dse.py``) stays cheap without such a cache:

* every block carries its :class:`~repro.hw.program.BlockShape` —
  what the passes read of its ops, with ids replaced by positions —
  which the copies of one layer template share.  The passes price and
  decide from shapes alone, and derive the shapes of the blocks they
  rewrite from their inputs' (:func:`_split_shape`,
  :func:`~repro.hw.program._union_shape`, :func:`_reordered_shape`),
  once per input shape;
* candidates walk the grid in pass order and share their longest
  equal pipeline prefix, so each pass runs once per distinct prefix
  and at most the current and the best chain of programs are alive;
* a trial merge in :class:`CoalesceLoadsPass` or trial split in
  :class:`StageExposedLoadsPass` is priced as ``BlockWork`` units
  spliced into the work-unit chain, their spans read off the shapes,
  and only accepted rewrites rebuild the program;
* a rebuild (:func:`_rebuild_program`) makes the new blocks, spans and
  outputs at once and validates them from the shapes, and builds the
  renumbered ops on the first read of ``ops``, so a search builds no
  op beyond the lowering's templates;
* a pipeline's final :class:`ReorderOpsPass` is priced the same way,
  with the list-schedule spans (once per shape, :func:`_plan`) spliced
  in under A3 (:meth:`ReorderOpsPass.price`), and run for the winner
  only;
* per program, the PSA stall totals the passes read are computed once,
  from the integer schedule and the shapes' PSA-lane profiles
  (:func:`repro.hw.introspect.psa_stall_totals`), and a meta-only copy
  (a prefetch depth) shares the ops, spans and work units;
* per search (:func:`_search_memo`), a reorder is reused by the
  meta-only copies of its input;
* the search drops the log lines that only report (the prefetch cost
  signal) except for its winner, whose report it builds from the
  programs it already produced;
* ``A4Result`` keeps the lowering spec and the winning pipeline, and
  rebuilds the optimized program only when it is read.
"""

from __future__ import annotations

import dataclasses
import heapq
import operator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Iterator,
    Mapping,
    NamedTuple,
    Protocol,
    Sequence,
    runtime_checkable,
)

import numpy as np

from repro.config import ModelConfig
from repro.hw.introspect import psa_stall_totals
from repro.hw.memory import (
    encoder_ffn_weight_bytes,
    encoder_mha_weight_bytes,
)
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    BlockShape,
    Op,
    OpKind,
    ValueRef,
    _bundle_load_cycles,
    _DeferredOps,
    _shaped,
    _union_shape,
    _union_span,
    _work_units,
    execute_program,
    program_load_bytes,
    program_unit_spans,
    schedule_program,
)
from repro.hw.scheduler import Architecture, BlockWork, _as_int, schedule

__all__ = [
    "ProgramPass",
    "PassError",
    "CoalesceLoadsPass",
    "StageExposedLoadsPass",
    "PrefetchChannelPass",
    "ReorderOpsPass",
    "PassPipeline",
    "PassReport",
    "PassStep",
    "PipelineReport",
    "default_pipeline",
    "semantic_op_counts",
    "verify_semantics_preserved",
]


class PassError(ValueError):
    """A pass produced (or was asked to produce) an invalid program."""


@runtime_checkable
class ProgramPass(Protocol):
    """One semantics-preserving program rewrite."""

    name: str

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        """Transform ``program``; returns (new program, action log)."""
        ...


# ---------------------------------------------------------- IR rebuild
_IR_FIELDS = {
    cls: operator.attrgetter(*(f.name for f in dataclasses.fields(cls)))
    for cls in (Op, BlockIR)
}
_IR_INDEX = {
    cls: {f.name: i for i, f in enumerate(dataclasses.fields(cls))}
    for cls in (Op, BlockIR)
}


def _copy(record: Op | BlockIR, **changes: Any) -> Any:
    """``dataclasses.replace`` for an :class:`Op` or :class:`BlockIR`,
    as one positional constructor call (its validation still runs)."""
    cls = type(record)
    values = list(_IR_FIELDS[cls](record))
    index = _IR_INDEX[cls]
    for name, value in changes.items():
        values[index[name]] = value
    return cls(*values)


class _NewOp(NamedTuple):
    """An op a rewrite adds: its provisional negative id and the other
    :class:`Op` fields, built with the rest of the rebuilt ops."""

    op_id: int
    fields: dict[str, Any]


#: Field changes for one op of a rewrite, in the input's id space: a
#: dict, or a function of the input op that returns one.
_Edit = dict[str, Any] | Callable[[Op], dict[str, Any]]


def _rebuild_program(
    program: BlockProgram,
    order: Sequence[int | _NewOp],
    blocks: Sequence[BlockIR],
    *,
    edits: Mapping[int, _Edit] | None = None,
) -> BlockProgram:
    """Renumber a transformed program so ``op_id == index`` again.

    ``order`` is the new global op sequence: each element is an old op
    id or a :class:`_NewOp` carrying a *provisional* negative id.  The
    ``op_ids`` and ports of ``blocks``, the ``edits`` (field changes,
    ``deps`` included) and the program outputs are expressed in that
    old/provisional id space and are rewritten here.  Every block must
    carry its shape (the input's blocks may instead get theirs from
    :func:`repro.hw.program._shaped`).

    The result's blocks, spans and outputs are made at once; its ops
    are built on the first read of ``ops`` (an op whose fields and ids
    do not move is shared with the input, not copied).  The rewrite is
    validated now, from the blocks' shapes and ports
    (:func:`_validate_blocks`): ids dense, references topologically
    ordered, blocks a partition of the ops, outputs present.
    """
    edits = edits or {}
    keys = [item if type(item) is int else item.op_id for item in order]
    pos = dict(zip(keys, range(len(keys))))
    if len(pos) != len(keys):
        seen: set[int] = set()
        twice = next(key for key in keys if key in seen or seen.add(key))
        raise PassError(f"op {twice} appears twice in the rebuilt order")
    # Provisional ids are negative, old ids in range(program.num_ops).
    num_new = sum(1 for item in order if type(item) is not int)
    ranked = sorted(keys)
    if ranked and (
        ranked[-1] >= program.num_ops
        or (num_new < len(ranked) and ranked[num_new] < 0)
    ):
        raise PassError("the rebuilt order names an op the program lacks")
    # Old ids below the first one that moves keep their id.
    still = next((i for i, key in enumerate(keys) if key != i), len(keys))
    new_blocks = []
    for blk in blocks:
        shaped = _shaped(program, blk)
        if (
            shaped is blk
            and max(blk.op_ids, default=-1) < still
            and all(max(ids, default=-1) < still for ids in blk.ports)
        ):
            new_blocks.append(blk)
            continue
        try:
            op_ids = tuple([pos[i] for i in blk.op_ids])
            ports = tuple([tuple([pos[i] for i in ids]) for ids in shaped.ports])
        except KeyError as missing:
            raise PassError(
                f"block '{blk.label}' references op {missing} outside the "
                "rebuilt order"
            ) from None
        if shaped is blk and op_ids == blk.op_ids and ports == blk.ports:
            new_blocks.append(blk)
        else:
            new_blocks.append(_copy(shaped, op_ids=op_ids, ports=ports))
    outputs = {}
    for name, ref in program.outputs.items():
        if ref.kind == "op":
            if ref.key not in pos:
                raise PassError(f"output references missing op {ref.key}")
            if pos[ref.key] != ref.key:
                ref = ValueRef("op", pos[ref.key])
        outputs[name] = ref
    _validate_blocks(new_blocks, len(order))

    def build(append: Callable[[Op], None]) -> None:
        # ``pos`` is made again rather than kept: an unbuilt program
        # would otherwise hold a dict over every op id.
        pos = {
            item if type(item) is int else item.op_id: new_id
            for new_id, item in enumerate(order)
        }
        ops = program.ops
        moved = {key for key, new_id in pos.items() if key != new_id}
        refs = {key: ValueRef("op", pos[key]) for key in moved}
        for new_id, item in enumerate(order):
            if type(item) is not int:
                append(Op(new_id, **item.fields))
                continue
            op = ops[item]
            edit = edits.get(item)
            changes = {} if edit is None else (
                edit(op) if callable(edit) else dict(edit)
            )
            deps = changes.pop("deps", op.deps)
            if deps is not op.deps or not moved.isdisjoint(deps):
                deps = tuple([pos[d] for d in deps])
            inputs = op.inputs
            if moved and any(r.kind == "op" and r.key in moved for r in inputs):
                inputs = tuple(
                    [refs.get(r.key, r) if r.kind == "op" else r for r in inputs]
                )
            if (
                changes
                or op.op_id != new_id
                or deps != op.deps
                or inputs is not op.inputs
            ):
                op = _copy(op, op_id=new_id, deps=deps, inputs=inputs, **changes)
            append(op)

    return BlockProgram(
        fabric=program.fabric,
        ops=_DeferredOps([build], len(order)),
        blocks=tuple(new_blocks),
        outputs=outputs,
        meta=dict(program.meta),
    )


def _validate_blocks(blocks: Sequence[BlockIR], num_ops: int) -> None:
    """The invariants every executor relies on, checked after a pass
    from the blocks' shapes and ports, without the ops: the blocks
    partition ``range(num_ops)`` (so ids are dense), and every dep and
    read names an earlier op.  A shape's in-block links are checked
    once per block whose ids ascend, a port against the first op that
    links to it."""
    seen: set[int] = set()
    total = 0
    for blk in blocks:
        ids, shape = blk.op_ids, blk.shape
        if len(ids) != len(shape.entries) or len(blk.ports) != shape.num_ports:
            raise PassError(
                f"block '{blk.label}' holds {len(ids)} ops and "
                f"{len(blk.ports)} ports but its shape {len(shape.entries)} "
                f"and {shape.num_ports}"
            )
        total += len(ids)
        seen.update(ids)
        ascending = all(map(operator.lt, ids, ids[1:]))
        if not (ascending and shape.forward):
            for p, entry in enumerate(shape.entries):
                for what, links in (("depends on", entry[4]), ("reads", entry[5])):
                    for q in links:
                        if q >= 0 and ids[q] >= ids[p]:
                            raise PassError(
                                f"op {ids[p]} (block '{blk.label}') {what} "
                                f"later op {ids[q]}"
                            )
        for bound, users in zip(blk.ports, shape.port_users):
            if bound and users:
                first = ids[users[0]] if ascending else min(ids[p] for p in users)
                if max(bound) >= first:
                    raise PassError(
                        f"an op of block '{blk.label}' links to later op "
                        f"{max(bound)}"
                    )
    if total != num_ops or seen != set(range(num_ops)):
        raise PassError("blocks no longer partition the op list")


def _with_meta(program: BlockProgram, **updates: Any) -> BlockProgram:
    return program.with_meta({**program.meta, **updates})


def _overhead(program: BlockProgram) -> int:
    return program.fabric.calibration.block_overhead_cycles


def _total_cycles(program: BlockProgram, architecture: str) -> int:
    return schedule_program(program, architecture, _overhead(program)).total_cycles


def _psa_stalls(
    program: BlockProgram, architecture: str, overhead: int
) -> dict[str, float]:
    """The PSA stall totals, ``classify_stalls(...).totals(".psa")``,
    computed from the integer block schedule without a trace
    (:func:`repro.hw.introspect.psa_stall_totals`), once per program,
    architecture and overhead (memoized on the program)."""
    key = (Architecture(architecture), overhead)
    memo = program._psa_stall_memo
    if key not in memo:
        memo[key] = psa_stall_totals(program, architecture, overhead)
    return dict(memo[key])


class _SearchMemo:
    """Results one pipeline application or A4 search computes once.

    ``reorder`` holds the last :class:`ReorderOpsPass` run as ``(pass,
    input, output or None, actions)``, which a meta-only copy of that
    input reuses.  (Block-shape results live on the shapes themselves:
    :func:`_plan` and the derivation memos of :class:`BlockShape`.)
    """

    def __init__(self) -> None:
        self.reorder: tuple | None = None


def _same_ir(a: BlockProgram, b: BlockProgram) -> bool:
    """Whether ``b`` is ``a`` or a meta-only copy of it (which shares
    its ops, built or not)."""
    return (
        _ops_source(a) is _ops_source(b)
        and a.blocks is b.blocks
        and a.outputs is b.outputs
    )


def _ops_source(program: BlockProgram) -> object:
    """``program.ops`` if built, else the recipe that will build them."""
    deferred = program.__dict__.get("_deferred")
    if deferred is None:
        return program.ops
    return deferred.ops if deferred.ops is not None else deferred


_MEMO: ContextVar[_SearchMemo | None] = ContextVar("pass_memo", default=None)


@contextmanager
def _search_memo() -> Iterator[_SearchMemo]:
    """Open a memo scope, or join the one already open.  The memo is
    dropped when the outermost scope closes, so every search starts
    with an empty one."""
    memo = _MEMO.get()
    if memo is not None:
        yield memo
        return
    memo = _SearchMemo()
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)


def _require_blocks(program: BlockProgram, labels: Sequence[str], what: str) -> None:
    known = {blk.label for blk in program.blocks}
    for label in labels:
        if label not in known:
            raise PassError(f"{what}: no block labelled '{label}'")


# ------------------------------------------------------- load coalescing
def _mergeable(a: BlockIR, b: BlockIR) -> bool:
    """Only plain (un-merge-grouped) blocks fuse; decoder m/f parts owe
    their two-channel split to staying separate under A3."""
    return a.merge_group is None and b.merge_group is None


def _merged_block(
    program: BlockProgram, a: BlockIR, b: BlockIR, shape: bool = True
) -> BlockIR:
    """The one block that fuses ``a`` with its successor ``b``, with
    the shape derived from theirs (:func:`repro.hw.program._union_shape`)
    unless ``shape`` is False."""
    merged_bytes = a.load_bytes + b.load_bytes
    union, ports = (
        _union_shape(_shaped(program, a), _shaped(program, b))
        if shape else (None, ())
    )
    return BlockIR(
        label=f"{a.label}+{b.label}",
        op_ids=(*a.op_ids, *b.op_ids),
        load_cycles=(
            _bundle_load_cycles(program.fabric, merged_bytes)
            if merged_bytes
            else a.load_cycles + b.load_cycles
        ),
        channel_hint=a.channel_hint if a.channel_hint == b.channel_hint else None,
        overhead_override=a.overhead_override,
        load_bytes=merged_bytes,
        shape=union,
        ports=ports,
    )


def _merge_adjacent(
    program: BlockProgram, *first_labels: str
) -> BlockProgram | None:
    """Fuse each named block, in turn, with its successor into one
    schedulable unit, in one rebuild; None when a pair is not fusable."""
    blocks = list(program.blocks)
    edits: dict[int, dict[str, Any]] = {}
    for first_label in first_labels:
        i = [blk.label for blk in blocks].index(first_label)
        if i + 1 >= len(blocks) or not _mergeable(blocks[i], blocks[i + 1]):
            return None
        merged = _merged_block(program, blocks[i], blocks[i + 1])
        # A compute op only moves block: its ops share one edit.
        moved = {"block": merged.label}
        first_load_seen = False
        for op_id, kind in zip(merged.op_ids, merged.shape.kinds):
            if kind is not OpKind.LOAD:
                edits[op_id] = moved
                continue
            # The fused bundle streams as one burst: the first LOAD op
            # carries the whole transfer, followers become zero-cycle
            # markers (op count stays conserved).
            changes: dict[str, Any] = {"block": merged.label, "cycles": 0}
            if not first_load_seen:
                changes["cycles"] = merged.load_cycles
                changes["label"] = f"LW:{merged.label}"
                first_load_seen = True
            edits[op_id] = {**edits.get(op_id, {}), **changes}
        blocks[i:i + 2] = [merged]
    return _rebuild_program(
        program, range(program.num_ops), blocks, edits=edits
    )


@dataclass(frozen=True)
class CoalesceLoadsPass:
    """Merge adjacent blocks whose fused unit schedules strictly faster.

    Explicit ``groups`` name runs of adjacent block labels to fuse
    unconditionally; auto mode (``groups=None``) reads the stall
    taxonomy — per-block host dispatch is the ``overhead`` cause — and
    greedily fuses neighbours while the exact simulated cycle count
    improves.
    """

    name: ClassVar[str] = "coalesce_loads"

    groups: tuple[tuple[str, ...], ...] | None = None
    architecture: str = "A3"

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        actions: list[str] = []
        prog = program
        if self.groups is not None:
            for group in self.groups:
                if len(group) < 2:
                    raise PassError(
                        f"coalesce group {group} needs at least two blocks"
                    )
                _require_blocks(prog, group, f"cannot coalesce {group}")
                head = group[0]
                for nxt in group[1:]:
                    labels = [blk.label for blk in prog.blocks]
                    i = labels.index(head)
                    if i + 1 >= len(labels) or labels[i + 1] != nxt:
                        raise PassError(
                            f"cannot coalesce {group}: '{nxt}' does not "
                            f"follow '{head}'"
                        )
                    merged = _merge_adjacent(prog, head)
                    if merged is None:
                        raise PassError(
                            f"cannot coalesce {group}: '{head}'/'{nxt}' "
                            "are not fusable"
                        )
                    prog = merged
                    head = f"{head}+{nxt}"
                actions.append(f"coalesced {'+'.join(group)}")
            return prog, tuple(actions)

        overhead_stall = _psa_stalls(
            prog, self.architecture, _overhead(prog)
        )["overhead"]
        actions.append(
            f"cost signal: {overhead_stall:g} PSA overhead-stall cycles"
        )
        if overhead_stall <= 0:
            actions.append("no dispatch overhead to recover; skipped")
            return prog, tuple(actions)
        accepted = self._profitable_merges(prog, actions)
        if accepted:
            prog = _merge_adjacent(prog, *accepted)
        if len(actions) == 1:
            actions.append("no profitable merge found")
        return prog, tuple(actions)

    def _profitable_merges(
        self, program: BlockProgram, actions: list[str]
    ) -> list[str]:
        """Greedy first-improvement merging, priced without a rebuild.

        A merge changes only LOAD-op cycles and labels, which the ASAP
        makespan skips, so a fused pair is exactly one ``BlockWork``
        spliced into the work-unit chain, its span the pair's union
        span (:func:`~repro.hw.program._union_span`, from the two
        shapes): each trial is one schedule call, and the pairs of two
        layer copies derive that span once.  Fusable blocks are single
        units under every architecture (A1/A2 fuse only merge-grouped
        parts), so walking unit pairs tries the same pairs, in the same
        order, as walking block pairs.  Returns the accepted merges'
        first labels, in order, for :func:`_merge_adjacent` to
        materialize.
        """
        arch = Architecture(self.architecture)
        a3 = arch is Architecture.A3
        overhead = _overhead(program)
        params = program.meta.get("schedule_params") or {}
        units = list(_work_units(program, arch))
        best = schedule(arch, [w for w, _ in units], overhead, **params).total_cycles
        accepted: list[str] = []
        improved = True
        while improved:
            improved = False
            for u in range(len(units) - 1):
                (_, ga), (_, gb) = units[u], units[u + 1]
                if len(ga) != 1 or len(gb) != 1 or not _mergeable(ga[0], gb[0]):
                    continue
                merged = _merged_block(program, ga[0], gb[0], shape=False)
                work = BlockWork(
                    merged.label,
                    merged.load_cycles,
                    _union_span(
                        _shaped(program, ga[0]), _shaped(program, gb[0])
                    ),
                    channel_hint=merged.channel_hint if a3 else None,
                    overhead_override=merged.overhead_override if a3 else None,
                )
                trial = [w for w, _ in units[:u]] + [work] + [
                    w for w, _ in units[u + 2:]
                ]
                cycles = schedule(arch, trial, overhead, **params).total_cycles
                if cycles < best:
                    actions.append(
                        f"coalesced {ga[0].label} with successor: "
                        f"{best} -> {cycles} cycles"
                    )
                    accepted.append(ga[0].label)
                    merged = _merged_block(program, ga[0], gb[0])
                    units[u:u + 2] = [(work, (merged,))]
                    best, improved = cycles, True
                    break
        return accepted


# ----------------------------------------------------- load staging/split
def _splittable(program: BlockProgram, blk: BlockIR) -> bool:
    if blk.merge_group is not None or blk.load_bytes <= 0:
        return False
    shape = _shaped(program, blk).shape
    return not shape.touches_cache and shape.semantics.count("mm5") == 1


def _split_shape(shape: BlockShape, at: int) -> tuple:
    """The shapes of a block's ops before and after position ``at``,
    the second followed by a new LOAD op, each with the positions of
    the other part's ops that its links now name through new ports
    (numbered after the block's own).  Memoized on ``shape``."""
    key = ("split", at)
    parts = shape.derived.get(key)
    if parts is not None:
        return parts
    entries, k = shape.entries, shape.num_ports
    c_at = sum(1 for p in shape.comps if p < at)
    parts = []
    for lo, hi, load in ((0, at, False), (at, len(entries), True)):
        moved: dict[int, int] = {}

        def relink(links: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([
                q if q < 0
                else q - lo if lo <= q < hi
                else -1 - k - moved.setdefault(q, len(moved))
                for q in links
            ])

        part = [
            (kind, semantic, engines, cycles, relink(deps), relink(reads))
            for kind, semantic, engines, cycles, deps, reads in entries[lo:hi]
        ]
        if load:
            part.append((OpKind.LOAD, None, (), 0, (), ()))
        c_lo, c_hi = (0, c_at) if lo == 0 else (c_at, len(shape.comps))
        by_id = [c - c_lo for c in shape.by_id if c_lo <= c < c_hi]
        parts += [BlockShape(part, k + len(moved), by_id), tuple(moved)]
    parts = shape.derived[key] = tuple(parts)
    return parts


def _split_parts(
    program: BlockProgram, label: str, model: ModelConfig
) -> tuple[BlockIR, BlockIR] | None:
    """The ``m``/``f`` blocks that split one encoder-shaped block at its
    MHA/FFN boundary into the Fig 4.11 two-channel form, in the input's
    id space (the ``f`` part ends with the provisional id ``-1`` of its
    new LOAD op), with their shapes derived from the block's; None when
    the block does not match."""
    blk = program.block(label)
    if not _splittable(program, blk):
        return None
    fabric = program.fabric
    bpe = fabric.hardware.bytes_per_element
    mha_bytes = encoder_mha_weight_bytes(model, bpe)
    ffn_bytes = encoder_ffn_weight_bytes(model, bpe)
    if mha_bytes + ffn_bytes != blk.load_bytes:
        return None  # not an encoder bundle for this model config
    shaped = _shaped(program, blk)
    shape = shaped.shape
    split_at = shape.semantics.index("mm5")
    if OpKind.LOAD not in shape.kinds[:split_at]:
        return None
    m_ids, f_ids = blk.op_ids[:split_at], blk.op_ids[split_at:]
    m_shape, m_moved, f_shape, f_moved = _split_shape(shape, split_at)
    # ``merge_group`` reconstructs the original unit under A1/A2, so
    # those schedules are exactly invariant under the split.
    m_blk = BlockIR(
        label=f"{label}m",
        op_ids=m_ids,
        load_cycles=_bundle_load_cycles(fabric, mha_bytes),
        channel_hint=0,
        overhead_override=blk.overhead_override,
        merge_group=blk.label,
        merged_load_cycles=blk.load_cycles,
        load_bytes=mha_bytes,
        shape=m_shape,
        ports=shaped.ports + tuple((blk.op_ids[q],) for q in m_moved),
    )
    f_blk = BlockIR(
        label=f"{label}f",
        op_ids=(*f_ids, -1),
        load_cycles=_bundle_load_cycles(fabric, ffn_bytes),
        channel_hint=1,
        overhead_override=0,
        merge_group=blk.label,
        merged_load_cycles=blk.load_cycles,
        load_bytes=ffn_bytes,
        shape=f_shape,
        ports=shaped.ports + tuple((blk.op_ids[q],) for q in f_moved),
    )
    return m_blk, f_blk


def _split_works(m_blk: BlockIR, f_blk: BlockIR) -> list[BlockWork]:
    """The A3 work units of a split from :func:`_split_parts`.

    A split changes only LOAD ops, which the ASAP makespan skips, so
    each part's span is its ops' makespan in the unsplit program, which
    its shape holds.
    """
    return [
        BlockWork(
            blk.label,
            blk.load_cycles,
            blk.shape.span,
            channel_hint=blk.channel_hint,
            overhead_override=blk.overhead_override,
        )
        for blk in (m_blk, f_blk)
    ]


def _split_block(
    program: BlockProgram, m_blk: BlockIR, f_blk: BlockIR
) -> BlockProgram:
    """Rebuild ``program`` with the split from :func:`_split_parts`.
    The ops that only change block share one edit per part."""
    edits: dict[int, dict[str, Any]] = {}
    m_moved = {"block": m_blk.label}
    for op_id, kind in zip(m_blk.op_ids, m_blk.shape.kinds):
        if kind is OpKind.LOAD:
            edits[op_id] = {
                "label": f"LW:{m_blk.label}",
                "cycles": m_blk.load_cycles,
                "block": m_blk.label,
                "attrs": {"channel_hint": 0},
            }
        else:
            edits[op_id] = m_moved
    f_ids = f_blk.op_ids[:-1]
    f_moved = {"block": f_blk.label}
    for op_id in f_ids:
        edits[op_id] = f_moved
    f_load_op = _NewOp(-1, {
        "kind": OpKind.LOAD,
        "label": f"LW:{f_blk.label}",
        "engines": ("hbm",),
        "cycles": f_blk.load_cycles,
        "deps": (),
        "block": f_blk.label,
        "attrs": {"channel_hint": 1},
    })
    i = [b.label for b in program.blocks].index(m_blk.merge_group)
    blocks = (*program.blocks[:i], m_blk, f_blk, *program.blocks[i + 1:])
    order: list[int | _NewOp] = list(range(program.num_ops))
    # Insert the new LOAD op just before the f-part ops (the identity
    # order makes index == old id) so blocks stay position-contiguous.
    order.insert(f_ids[0], f_load_op)
    return _rebuild_program(program, order, blocks, edits=edits)


@dataclass(frozen=True)
class StageExposedLoadsPass:
    """Split blocks with *exposed* weight loads at the MHA/FFN boundary.

    An exposed load is a gap before a unit's compute in the block
    schedule — exactly the ``load_starved`` / ``channel_contention``
    cycles the stall classifier attributes.  Splitting stages the
    attention sub-bundle first (channel 0) while the FFN panel streams
    concurrently (channel 1), the encoder analogue of the decoder's
    ``LWi_m``/``LWi_f`` treatment.  Explicit ``blocks`` split
    unconditionally; auto mode splits the largest exposed gaps first
    and keeps each split only when the exact cycle count strictly
    improves, up to ``limit`` splits.
    """

    name: ClassVar[str] = "stage_exposed_loads"

    blocks: tuple[str, ...] | None = None
    limit: int = 1
    architecture: str = "A3"

    def __post_init__(self) -> None:
        object.__setattr__(self, "limit", _as_int(self.limit, "limit"))
        if self.limit < 0:
            raise PassError(f"limit must be >= 0; got {self.limit}")

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        model = program.meta.get("model")
        if model is None:
            return program, ("skipped: program meta carries no model config",)
        actions: list[str] = []
        prog = program
        if self.blocks is not None:
            for label in self.blocks:
                _require_blocks(prog, (label,), "cannot split")
                parts = _split_parts(prog, label, model)
                if parts is None:
                    raise PassError(f"block '{label}' is not splittable")
                prog = _split_block(prog, *parts)
                actions.append(f"split {label} -> {label}m/{label}f")
            return prog, tuple(actions)

        arch = Architecture(self.architecture)
        overhead = _overhead(program)
        for _ in range(self.limit):
            spans, sched = program_unit_spans(prog, arch, overhead)
            gaps: list[tuple[float, str, int]] = []
            prev_end = 0.0
            for u, span in enumerate(spans):
                gap = span.compute_start - prev_end
                prev_end = span.compute_end
                if gap <= 0 or len(span.blocks) != 1:
                    continue
                if _splittable(prog, prog.block(span.blocks[0])):
                    gaps.append((gap, span.blocks[0], u))
            if not gaps:
                break
            gaps.sort(key=lambda g: (-g[0], g[1]))
            best = sched.total_cycles
            works = [work for work, _ in _work_units(prog, arch)]
            params = prog.meta.get("schedule_params") or {}
            accepted = False
            for gap, label, u in gaps:
                parts = _split_parts(prog, label, model)
                if parts is None:
                    continue
                # A trial is priced as the parts' units spliced into the
                # chain; under A1/A2 their merge group is the old unit.
                if arch is Architecture.A3:
                    split = _split_works(*parts)
                else:
                    split = [works[u]]
                trial = [*works[:u], *split, *works[u + 1:]]
                cycles = schedule(arch, trial, overhead, **params).total_cycles
                if cycles < best:
                    actions.append(
                        f"split {label} ({gap:g} exposed load cycles): "
                        f"{best} -> {cycles} cycles"
                    )
                    prog = _split_block(prog, *parts)
                    accepted = True
                    break
            if not accepted:
                break
        if not actions:
            actions.append("no profitable split found")
        return prog, tuple(actions)


# ------------------------------------------- prefetch depth / channels
@dataclass(frozen=True)
class PrefetchChannelPass:
    """Prefetch-depth and HBM-channel reassignment.

    Deepens the A3 weight-buffer ring (``num_weight_buffers`` beyond
    one per channel lets ``LW_{i+k}`` issue before ``C_{i}`` retires)
    by recording ``schedule_params`` in program meta — every scheduling
    entry point passes them on through ``schedule_program`` — and
    optionally re-balances un-pinned channel hints by accumulated load
    cycles.  Auto depth searches a small ring of candidates and keeps
    the best strictly-improving one; an explicit depth is applied
    unconditionally (the DSE sweeps it).
    """

    name: ClassVar[str] = "prefetch_channels"

    num_weight_buffers: int | None = None
    reassign_hints: bool = False
    architecture: str = "A3"
    _AUTO_DEPTHS: ClassVar[tuple[int, ...]] = (2, 3, 4)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "num_weight_buffers",
            _as_int(self.num_weight_buffers, "num_weight_buffers"),
        )

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        prog, actions = self.tune(program)
        return prog, (self.cost_signal(program), *actions)

    def cost_signal(self, program: BlockProgram) -> str:
        """The log line naming the stalls this pass targets.  It reads
        a PSA stall classification but steers no decision, so the A4
        search computes it for its winner only."""
        psa = _psa_stalls(program, self.architecture, _overhead(program))
        return (
            "cost signal: "
            f"{psa['load_starved']:g} load-starved + "
            f"{psa['channel_contention']:g} channel-contention PSA cycles"
        )

    def tune(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        """:meth:`run` without the cost-signal line."""
        actions: list[str] = []
        prog = program
        best = _total_cycles(prog, self.architecture)
        if self.num_weight_buffers is not None:
            prog = _with_meta(
                prog,
                schedule_params={
                    **(prog.meta.get("schedule_params") or {}),
                    "num_weight_buffers": self.num_weight_buffers,
                },
            )
            best = _total_cycles(prog, self.architecture)
            actions.append(
                f"pinned num_weight_buffers={self.num_weight_buffers}"
            )
        else:
            for depth in self._AUTO_DEPTHS:
                cand = _with_meta(
                    prog,
                    schedule_params={
                        **(prog.meta.get("schedule_params") or {}),
                        "num_weight_buffers": depth,
                    },
                )
                cycles = _total_cycles(cand, self.architecture)
                if cycles < best:
                    actions.append(
                        f"num_weight_buffers={depth}: {best} -> {cycles} cycles"
                    )
                    prog, best = cand, cycles
        if self.reassign_hints:
            cand = self._rebalance_hints(prog)
            if cand is not None:
                cycles = _total_cycles(cand, self.architecture)
                if cycles < best:
                    actions.append(
                        f"re-balanced channel hints: {best} -> {cycles} cycles"
                    )
                    prog, best = cand, cycles
                else:
                    actions.append("channel re-balance not profitable; reverted")
        return prog, tuple(actions)

    def _rebalance_hints(self, program: BlockProgram) -> BlockProgram | None:
        """Greedy least-loaded-channel assignment for un-pinned blocks
        (merge-grouped parts keep their Fig 4.11 pinning)."""
        num_channels = int(
            (program.meta.get("schedule_params") or {}).get("num_channels", 2)
        )
        accum = [0.0] * num_channels
        new_blocks: list[BlockIR] = []
        changed = False
        for i, blk in enumerate(program.blocks):
            if blk.merge_group is not None:
                chan = blk.channel_hint if blk.channel_hint is not None else 0
                accum[chan] += blk.load_cycles
                new_blocks.append(blk)
                continue
            chan = min(range(num_channels), key=lambda c: (accum[c], c))
            accum[chan] += blk.load_cycles
            default = blk.channel_hint if blk.channel_hint is not None else i % num_channels
            if chan != default:
                changed = True
            new_blocks.append(_copy(blk, channel_hint=chan))
        if not changed:
            return None
        return dataclasses.replace(
            program, blocks=tuple(new_blocks), ops=_ops_source(program)
        )


# ------------------------------------------------------- op reordering
def _schedule_shape(
    shape: BlockShape,
) -> tuple[int, list[int], list[tuple[int, ...]]] | None:
    """A block shape's list schedule.

    Returns ``(new span, new order, dataflow + engine-chain deps per
    op)`` in compute-op indices, or None when there are fewer than two
    ops or no strict improvement on the shape's ASAP span.  The reads
    are the dataflow edges: the lowering's declared deps are not a
    superset of them (a dataflow edge implied transitively through a
    serialization edge, e.g. ``MM1(Q)`` reading the layer input behind
    its ``MM1(K)`` chain edge, is omitted there), so a reorder recovers
    ordering from the reads themselves.  Priority is the critical-path
    length over dataflow edges; per-engine occupancy is re-emitted as
    chain dependency edges so the ASAP cycle model reproduces the list
    schedule exactly.
    """
    by_id, rows, span = shape.by_id, shape.rows, shape.span
    n = len(rows)
    rank = [0] * n
    for r, p in enumerate(by_id):
        rank[p] = r
    if n < 2:
        return None
    df = [row[3] for row in rows]
    succs: list[list[int]] = [[] for _ in range(n)]
    for p in range(n):
        for d in df[p]:
            succs[d].append(p)
    # Critical-path priority (longest path to a sink); reads point to
    # lower ids, so descending id order is reverse topological.
    cp = [0] * n
    for p in reversed(by_id):
        cp[p] = rows[p][1] + max((cp[q] for q in succs[p]), default=0)

    engine_free: dict[str, int] = {}
    engine_last: dict[str, int] = {}
    start = [0] * n
    end = [0] * n
    chain: list[set[int]] = [set() for _ in range(n)]
    unmet = [len(d) for d in df]

    def key(p: int) -> tuple[int, int, int]:
        est = max(
            max((end[d] for d in df[p]), default=0),
            max((engine_free.get(e, 0) for e in rows[p][0]), default=0),
        )
        return est, -cp[p], rank[p]

    # Earliest feasible start wins; critical path, then id, breaks ties.
    # A ready op's key only grows (engines only get busier), so a popped
    # entry whose key is still current is the true minimum; a stale one
    # is re-keyed and pushed back.
    ready = [key(p) for p in range(n) if not df[p]]
    heapq.heapify(ready)
    while ready:
        entry = heapq.heappop(ready)
        pick = by_id[entry[2]]
        current = key(pick)
        if current != entry:
            heapq.heappush(ready, current)
            continue
        start[pick] = entry[0]
        end[pick] = entry[0] + rows[pick][1]
        for e in rows[pick][0]:
            if e in engine_last:
                chain[pick].add(engine_last[e])
            engine_free[e] = end[pick]
            engine_last[e] = pick
        for q in succs[pick]:
            unmet[q] -= 1
            if not unmet[q]:
                heapq.heappush(ready, key(q))

    new_span = max(end)
    if new_span >= span:
        return None

    # Final order: Kahn over dataflow + chain edges, (start, id) priority.
    full_deps = [set(df[p]) | chain[p] for p in range(n)]
    indeg = [len(d) for d in full_deps]
    out_edges: list[list[int]] = [[] for _ in range(n)]
    for p in range(n):
        for d in full_deps[p]:
            out_edges[d].append(p)
    frontier = [(start[p], rank[p]) for p in range(n) if indeg[p] == 0]
    heapq.heapify(frontier)
    ordered: list[int] = []
    while frontier:
        cur = by_id[heapq.heappop(frontier)[1]]
        ordered.append(cur)
        for q in out_edges[cur]:
            indeg[q] -= 1
            if indeg[q] == 0:
                heapq.heappush(frontier, (start[q], rank[q]))
    if len(ordered) != n:
        raise PassError("a list schedule produced a dependency cycle")
    return new_span, ordered, [tuple(d) for d in full_deps]


def _plan(shape: BlockShape) -> tuple[int, list[int], list[tuple[int, ...]]] | None:
    """:func:`_schedule_shape` of ``shape``, computed once per shape."""
    if shape.plan is None:
        shape.plan = (_schedule_shape(shape),)
    return shape.plan[0]


def _reordered_shape(shape: BlockShape) -> BlockShape:
    """The shape of a block rewritten by its list schedule
    (:func:`_plan`): its LOAD ops, then its compute ops in the new
    order, each compute op depending on its ports and on the plan's
    deps, in the op-id order of the input.  Memoized on ``shape``."""
    key = ("reorder",)
    new = shape.derived.get(key)
    if new is None:
        _, ordered, full_deps = _plan(shape)
        loads = [p for p, kind in enumerate(shape.kinds) if kind is OpKind.LOAD]
        at = {p: i for i, p in enumerate(loads)}
        for i, c in enumerate(ordered):
            at[shape.comps[c]] = len(loads) + i
        rank = {c: r for r, c in enumerate(shape.by_id)}
        comp_of = {p: c for c, p in enumerate(shape.comps)}
        entries = []
        for p in (*loads, *[shape.comps[c] for c in ordered]):
            kind, semantic, engines, cycles, deps, reads = shape.entries[p]
            if kind is not OpKind.LOAD:
                deps = tuple([q for q in deps if q < 0]) + tuple([
                    shape.comps[q]
                    for q in sorted(full_deps[comp_of[p]], key=rank.__getitem__)
                ])
            entries.append((
                kind, semantic, engines, cycles,
                tuple([q if q < 0 else at[q] for q in deps]),
                tuple([q if q < 0 else at[q] for q in reads]),
            ))
        new = shape.derived[key] = BlockShape(entries, shape.num_ports)
    return new


def _reorder_edit(
    blk: BlockIR,
) -> tuple[list[int], Callable[[Op], dict[str, Any]]] | None:
    """A shaped block's list-schedule rewrite in the program's id
    space: its op ids in the new order and the edit that gives each
    compute op its new deps (its deps outside the block, plus the
    plan's); None when :func:`_plan` finds no improvement."""
    shape = blk.shape
    plan = _plan(shape)
    if plan is None:
        return None
    _, ordered, full_deps = plan
    comps = [blk.op_ids[p] for p in shape.comps]
    index = {op_id: c for c, op_id in enumerate(comps)}
    in_block = set(blk.op_ids)

    def edit(op: Op) -> dict[str, Any]:
        # The plan's deps, which the shape keeps, in this block's ids.
        deps = {d for d in op.deps if d not in in_block}
        deps.update([comps[q] for q in full_deps[index[op.op_id]]])
        return {"deps": tuple(sorted(deps))}

    loads = [i for i, kind in zip(blk.op_ids, shape.kinds) if kind is OpKind.LOAD]
    return loads + [comps[c] for c in ordered], edit


def _list_schedule_block(
    program: BlockProgram, blk: BlockIR
) -> tuple[list[int], dict[int, tuple[int, ...]], int, int] | None:
    """List-schedule one block's compute DAG onto its engines.

    Returns (new op order, new deps per op in old-id space, old compute
    makespan, new compute makespan) or None when no strict improvement
    exists (:func:`_schedule_shape`): the op-level view of the rewrite
    :class:`ReorderOpsPass` makes.
    """
    shaped = _shaped(program, blk)
    rewrite = _reorder_edit(shaped)
    if rewrite is None:
        return None
    order, edit = rewrite
    deps_map = {
        op_id: edit(program.ops[op_id])["deps"]
        for op_id in order
        if program.ops[op_id].kind is not OpKind.LOAD
    }
    return order, deps_map, shaped.shape.span, _plan(shaped.shape)[0]


@dataclass(frozen=True)
class ReorderOpsPass:
    """Dependency-aware op reordering inside each block.

    The lowering hardcodes one engine order (Fig 4.13's K/Q/MM2/V
    chain); this pass keeps only the dataflow edges, list-schedules
    each block's DAG onto its engines by critical path, and re-emits
    per-engine serialization edges for the new order.  Blocks touching
    the KV cache (CACHE/STREAM ops) are skipped — their op order is
    load-bearing for cache read-after-write.  A block's rewrite is kept
    only when its ASAP makespan strictly shrinks; op ids are then
    renumbered program-wide (the transform the fault-hook and Gantt
    regression tests pin down).
    """

    name: ClassVar[str] = "reorder_ops"

    blocks: tuple[str, ...] | None = None
    architecture: str = "A3"

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        if self.blocks is not None:
            _require_blocks(program, self.blocks, "cannot reorder")
        with _search_memo() as memo:
            # The rewrite reads only ops and blocks, so a meta-only copy
            # of the last input (another prefetch depth) reuses it.
            last = memo.reorder
            if last is None or last[0] != self or not _same_ir(last[1], program):
                last = memo.reorder = (self, program, *self._reorder(program))
        _, _, rebuilt, actions = last
        if rebuilt is None:
            return program, actions
        if rebuilt.meta != program.meta:
            rebuilt = rebuilt.with_meta(dict(program.meta))
        return rebuilt, actions

    def price(self, program: BlockProgram) -> int:
        """Total cycles of :meth:`run`'s output under the pass's
        architecture, built only when that needs it.

        A reorder changes nothing the schedule reads but block spans.
        Under A3 every block is its own work unit, so the output is the
        input's units with the list-schedule spans (once per block
        shape, :func:`_plan`) spliced in, as a trial merge is priced.
        Under A1/A2 a merge group's span is the union makespan of its
        reordered parts, read from the rebuilt program.
        """
        arch = Architecture(self.architecture)
        if arch is not Architecture.A3:
            return _total_cycles(self.run(program)[0], self.architecture)
        if self.blocks is not None:
            _require_blocks(program, self.blocks, "cannot reorder")
        spans = {}
        for blk in self._targets(program):
            plan = _plan(blk.shape)
            if plan is not None:
                spans[blk.label] = plan[0]
        works = [
            dataclasses.replace(work, compute_cycles=spans[work.label])
            if work.label in spans
            else work
            for work, _ in _work_units(program, arch)
        ]
        params = program.meta.get("schedule_params") or {}
        return schedule(arch, works, _overhead(program), **params).total_cycles

    def _targets(self, program: BlockProgram) -> list[BlockIR]:
        """The blocks the pass list-schedules, with their shapes: the
        named ones (every one by default) that touch no KV-cache op."""
        shaped = [
            _shaped(program, blk)
            for blk in program.blocks
            if self.blocks is None or blk.label in self.blocks
        ]
        return [blk for blk in shaped if not blk.shape.touches_cache]

    def _reorder(
        self, program: BlockProgram
    ) -> tuple[BlockProgram | None, tuple[str, ...]]:
        """The rewrite and log of :meth:`run`; None when no block's
        makespan shrinks."""
        actions: list[str] = []
        new_blocks: dict[str, BlockIR] = {}
        edits: dict[int, _Edit] = {}
        for blk in self._targets(program):
            rewrite = _reorder_edit(blk)
            if rewrite is None:
                continue
            order, edit = rewrite
            new_blocks[blk.label] = _copy(
                blk, op_ids=tuple(order), shape=_reordered_shape(blk.shape)
            )
            edits.update(dict.fromkeys(
                (blk.op_ids[p] for p in blk.shape.comps), edit
            ))
            actions.append(
                f"reordered {blk.label}: {blk.shape.span} -> "
                f"{_plan(blk.shape)[0]} compute cycles"
            )
        if not new_blocks:
            return None, ("no profitable reorder found",)
        # Rebuild block-major: blocks are serialized by the schedulers,
        # so concatenating per-block orders stays topological.
        blocks = tuple(new_blocks.get(blk.label, blk) for blk in program.blocks)
        order = [op_id for blk in blocks for op_id in blk.op_ids]
        rebuilt = _rebuild_program(program, order, blocks, edits=edits)
        return rebuilt, tuple(actions)


# ------------------------------------------------------------- pipeline
class PassStep(NamedTuple):
    """One pass run inside a pipeline: its input, output and log."""

    pass_: Any
    before: BlockProgram
    after: BlockProgram
    actions: tuple[str, ...]


def _run_step(p: Any, before: BlockProgram, *, log: bool = True) -> PassStep:
    """Run ``p`` on ``before``.  ``log=False`` leaves out the log lines
    that only report (:meth:`PrefetchChannelPass.cost_signal`): the A4
    search discards every log but its winner's, which :func:`_logged`
    completes."""
    if not log and isinstance(p, PrefetchChannelPass):
        return PassStep(p, before, *p.tune(before))
    return PassStep(p, before, *p.run(before))


def _logged(step: PassStep) -> PassStep:
    """A ``log=False`` step with the log ``run`` gives the same input."""
    if isinstance(step.pass_, PrefetchChannelPass):
        signal = step.pass_.cost_signal(step.before)
        return step._replace(actions=(signal, *step.actions))
    return step


@dataclass
class PassReport:
    """One pass's exact cycle/stall effect inside a pipeline run."""

    name: str
    actions: tuple[str, ...]
    cycles_before: int
    cycles_after: int
    psa_stalls_before: dict[str, float] = field(default_factory=dict)
    psa_stalls_after: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "pass": self.name,
            "actions": list(self.actions),
            "cycles_before": self.cycles_before,
            "cycles_after": self.cycles_after,
            "psa_stalls_before": dict(self.psa_stalls_before),
            "psa_stalls_after": dict(self.psa_stalls_after),
        }


@dataclass
class PipelineReport:
    """The ``repro-asr optimize`` artifact: per-pass deltas + totals."""

    architecture: str
    block_overhead: int
    cycles_before: int
    cycles_after: int
    passes: list[PassReport] = field(default_factory=list)

    @property
    def cycles_saved(self) -> int:
        return self.cycles_before - self.cycles_after

    def as_dict(self) -> dict:
        return {
            "architecture": self.architecture,
            "block_overhead_cycles": self.block_overhead,
            "cycles_before": self.cycles_before,
            "cycles_after": self.cycles_after,
            "cycles_saved": self.cycles_saved,
            "passes": [p.as_dict() for p in self.passes],
        }


@dataclass(frozen=True)
class PassPipeline:
    """An ordered, hashable pass composition."""

    passes: tuple[Any, ...]
    architecture: str = "A3"

    def __post_init__(self) -> None:
        for p in self.passes:
            if not isinstance(p, ProgramPass):
                raise PassError(f"{p!r} does not implement ProgramPass")
            # A pass prices its rewrites under its own architecture; a
            # different one would break monotonicity under this one.
            arch = getattr(p, "architecture", self.architecture)
            if arch != self.architecture:
                raise PassError(
                    f"{p.name} optimizes for {arch} but the pipeline "
                    f"reports {self.architecture}"
                )

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def apply(
        self,
        program: BlockProgram,
        *,
        collect_stalls: bool = False,
        steps: Sequence[PassStep] | None = None,
    ) -> tuple[BlockProgram, PipelineReport]:
        """Run the passes on ``program``; returns the output program and
        its report.  ``steps`` are this pipeline's passes already run on
        ``program`` (the A4 search's winner): the report is built from
        them instead of running the passes again."""
        if steps is None:
            steps = []
            with _search_memo():
                for p in self.passes:
                    steps.append(_run_step(p, steps[-1].after if steps else program))
        elif tuple(step.pass_ for step in steps) != self.passes or any(
            step.before is not (steps[i - 1].after if i else program)
            for i, step in enumerate(steps)
        ):
            raise PassError("steps are not this pipeline's passes run on program")
        arch = self.architecture
        overhead = _overhead(program)

        def stalls(prog: BlockProgram) -> dict[str, float]:
            return _psa_stalls(prog, arch, overhead) if collect_stalls else {}

        report = PipelineReport(
            architecture=arch,
            block_overhead=overhead,
            cycles_before=_total_cycles(program, arch),
            cycles_after=0,
        )
        for step in steps:
            report.passes.append(PassReport(
                step.pass_.name,
                step.actions,
                _total_cycles(step.before, arch),
                _total_cycles(step.after, arch),
                stalls(step.before),
                stalls(step.after),
            ))
        prog = _with_meta(steps[-1].after if steps else program, passes=self.names)
        report.cycles_after = _total_cycles(prog, arch)
        return prog, report

    def apply_program(self, program: BlockProgram) -> BlockProgram:
        prog, _ = self.apply(program)
        return prog


def default_pipeline(
    *,
    split_limit: int = 2,
    coalesce: bool = True,
    num_weight_buffers: int | None = None,
    reorder: bool = True,
    architecture: str = "A3",
) -> PassPipeline:
    """The stock pipeline behind ``repro-asr optimize``: stage exposed
    loads, coalesce dispatches, tune prefetch depth, reorder ops."""
    passes: list[Any] = []
    if split_limit > 0:
        passes.append(
            StageExposedLoadsPass(limit=split_limit, architecture=architecture)
        )
    if coalesce:
        passes.append(CoalesceLoadsPass(architecture=architecture))
    passes.append(
        PrefetchChannelPass(
            num_weight_buffers=num_weight_buffers, architecture=architecture
        )
    )
    if reorder:
        passes.append(ReorderOpsPass(architecture=architecture))
    return PassPipeline(passes=tuple(passes), architecture=architecture)


# ----------------------------------------------------- equivalence check
def semantic_op_counts(program: BlockProgram) -> dict[str, int]:
    """Op count per functional semantic (LOAD/timing-only ops excluded)
    — the quantity every pass must conserve exactly."""
    counts: dict[str, int] = {}
    for op in program.ops:
        if op.semantic is not None:
            counts[op.semantic] = counts.get(op.semantic, 0) + 1
    return dict(sorted(counts.items()))


def verify_semantics_preserved(
    base: BlockProgram,
    optimized: BlockProgram,
    root: Any,
    inputs: dict[str, np.ndarray | None],
    caches_base: Sequence[Any] | None = None,
    caches_optimized: Sequence[Any] | None = None,
) -> None:
    """Prove a transform semantics-preserving on concrete data.

    Raises :class:`PassError` unless the functional executor's outputs
    are bit-identical, the streamed weight bytes are conserved, and the
    semantic op counts match.
    """
    if semantic_op_counts(base) != semantic_op_counts(optimized):
        raise PassError(
            "semantic op counts diverged: "
            f"{semantic_op_counts(base)} != {semantic_op_counts(optimized)}"
        )
    if program_load_bytes(base) != program_load_bytes(optimized):
        raise PassError(
            "streamed weight bytes diverged: "
            f"{program_load_bytes(base)} != {program_load_bytes(optimized)}"
        )
    run_a = execute_program(base, root, inputs, caches_base)
    run_b = execute_program(optimized, root, inputs, caches_optimized)
    if run_a.outputs.keys() != run_b.outputs.keys():
        raise PassError(
            f"output names diverged: {sorted(run_a.outputs)} != "
            f"{sorted(run_b.outputs)}"
        )
    for name, arr in run_a.outputs.items():
        other = run_b.outputs[name]
        if arr.shape != other.shape or not np.array_equal(arr, other):
            raise PassError(f"output '{name}' is not bit-identical")

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
Pipelines apply to the cached baseline program and return a new one;
their results are not cached, so a search over many candidate
pipelines keeps none of the rejected programs alive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, ClassVar, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.config import ModelConfig
from repro.hw.introspect import classify_stalls
from repro.hw.memory import (
    encoder_ffn_weight_bytes,
    encoder_mha_weight_bytes,
)
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    Op,
    OpKind,
    ValueRef,
    _bundle_load_cycles,
    block_compute_cycles,
    execute_program,
    program_load_bytes,
    program_unit_spans,
    schedule_program,
)

__all__ = [
    "ProgramPass",
    "PassError",
    "CoalesceLoadsPass",
    "StageExposedLoadsPass",
    "PrefetchChannelPass",
    "ReorderOpsPass",
    "PassPipeline",
    "PassReport",
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
def _remap_ref(ref: ValueRef, pos: dict[int, int]) -> ValueRef:
    return ValueRef("op", pos[ref.key]) if ref.kind == "op" else ref


def _rebuild_program(
    program: BlockProgram,
    order: Sequence[int | Op],
    blocks: Sequence[BlockIR],
    *,
    ops_override: dict[int, Op] | None = None,
    deps_override: dict[int, tuple[int, ...]] | None = None,
    meta: dict | None = None,
) -> BlockProgram:
    """Renumber a transformed program so ``op_id == index`` again.

    ``order`` is the new global op sequence: each element is an old op
    id or a brand-new :class:`Op` carrying a *provisional* negative
    ``op_id``.  All deps, inputs, ``op_ids`` in ``blocks``, and program
    outputs are expressed in that old/provisional id space and are
    rewritten here.  ``ops_override`` substitutes modified ops for old
    ids; ``deps_override`` substitutes whole dep tuples (still in the
    old id space).  The result is validated: ids dense, references
    topologically ordered, blocks a partition of the ops.
    """
    ops_override = ops_override or {}
    deps_override = deps_override or {}
    pos: dict[int, int] = {}
    for new_id, item in enumerate(order):
        key = item if isinstance(item, int) else item.op_id
        if key in pos:
            raise PassError(f"op {key} appears twice in the rebuilt order")
        pos[key] = new_id
    new_ops: list[Op] = []
    for new_id, item in enumerate(order):
        if isinstance(item, int):
            op = ops_override.get(item, program.ops[item])
            key = item
        else:
            op, key = item, item.op_id
        deps = deps_override.get(key, op.deps)
        new_ops.append(
            dataclasses.replace(
                op,
                op_id=new_id,
                deps=tuple(pos[d] for d in deps),
                inputs=tuple(_remap_ref(r, pos) for r in op.inputs),
            )
        )
    new_blocks = tuple(
        dataclasses.replace(blk, op_ids=tuple(pos[i] for i in blk.op_ids))
        for blk in blocks
    )
    rebuilt = BlockProgram(
        fabric=program.fabric,
        ops=tuple(new_ops),
        blocks=new_blocks,
        outputs={
            name: _remap_ref(ref, pos) for name, ref in program.outputs.items()
        },
        meta=dict(program.meta) if meta is None else meta,
    )
    _validate_program(rebuilt)
    return rebuilt


def _validate_program(program: BlockProgram) -> None:
    """The invariants every executor relies on, checked after a pass."""
    seen: set[int] = set()
    for i, op in enumerate(program.ops):
        if op.op_id != i:
            raise PassError(f"op at index {i} carries op_id {op.op_id}")
        for d in op.deps:
            if d >= i:
                raise PassError(
                    f"op {i} ('{op.label}') depends on later op {d}"
                )
        for ref in op.inputs:
            if ref.kind == "op" and ref.key >= i:
                raise PassError(
                    f"op {i} ('{op.label}') reads later op {ref.key}"
                )
    for blk in program.blocks:
        ids = set(blk.op_ids)
        if ids & seen:
            raise PassError(f"block '{blk.label}' shares ops with another block")
        seen |= ids
    if seen != set(range(program.num_ops)):
        raise PassError("blocks no longer partition the op list")
    for ref in program.outputs.values():
        if ref.kind == "op" and not 0 <= ref.key < program.num_ops:
            raise PassError(f"output references missing op {ref.key}")


def _with_meta(program: BlockProgram, **updates: Any) -> BlockProgram:
    return dataclasses.replace(program, meta={**program.meta, **updates})


def _overhead(program: BlockProgram) -> int:
    return program.fabric.calibration.block_overhead_cycles


def _total_cycles(program: BlockProgram, architecture: str) -> int:
    return schedule_program(program, architecture, _overhead(program)).total_cycles


# ------------------------------------------------------- load coalescing
def _mergeable(a: BlockIR, b: BlockIR) -> bool:
    """Only plain (un-merge-grouped) blocks fuse; decoder m/f parts owe
    their two-channel split to staying separate under A3."""
    return a.merge_group is None and b.merge_group is None


def _merge_adjacent(
    program: BlockProgram, first_label: str
) -> BlockProgram | None:
    """Fuse the named block with its successor into one schedulable
    unit; None when the pair is not fusable."""
    labels = [blk.label for blk in program.blocks]
    i = labels.index(first_label)
    if i + 1 >= len(labels):
        return None
    a, b = program.blocks[i], program.blocks[i + 1]
    if not _mergeable(a, b):
        return None
    merged_label = f"{a.label}+{b.label}"
    merged_bytes = a.load_bytes + b.load_bytes
    merged_load = (
        _bundle_load_cycles(program.fabric, merged_bytes)
        if merged_bytes
        else a.load_cycles + b.load_cycles
    )
    hint = a.channel_hint if a.channel_hint == b.channel_hint else None
    ops_override: dict[int, Op] = {}
    first_load_seen = False
    for op_id in (*a.op_ids, *b.op_ids):
        op = program.ops[op_id]
        changes: dict[str, Any] = {"block": merged_label}
        if op.kind is OpKind.LOAD:
            # The fused bundle streams as one burst: the first LOAD op
            # carries the whole transfer, followers become zero-cycle
            # markers (op count stays conserved).
            if not first_load_seen:
                changes["cycles"] = merged_load
                changes["label"] = f"LW:{merged_label}"
                first_load_seen = True
            else:
                changes["cycles"] = 0
        ops_override[op_id] = dataclasses.replace(op, **changes)
    merged = BlockIR(
        label=merged_label,
        op_ids=(*a.op_ids, *b.op_ids),
        load_cycles=merged_load,
        channel_hint=hint,
        overhead_override=a.overhead_override,
        load_bytes=merged_bytes,
    )
    blocks = (*program.blocks[:i], merged, *program.blocks[i + 2:])
    return _rebuild_program(
        program,
        list(range(program.num_ops)),
        blocks,
        ops_override=ops_override,
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

        report = classify_stalls(prog, self.architecture, _overhead(prog))
        overhead_stall = report.totals(".psa")["overhead"]
        actions.append(
            f"cost signal: {overhead_stall:g} PSA overhead-stall cycles"
        )
        if overhead_stall <= 0:
            actions.append("no dispatch overhead to recover; skipped")
            return prog, tuple(actions)
        best = _total_cycles(prog, self.architecture)
        improved = True
        while improved:
            improved = False
            for blk in prog.blocks[:-1]:
                cand = _merge_adjacent(prog, blk.label)
                if cand is None:
                    continue
                cycles = _total_cycles(cand, self.architecture)
                if cycles < best:
                    actions.append(
                        f"coalesced {blk.label} with successor: "
                        f"{best} -> {cycles} cycles"
                    )
                    prog, best, improved = cand, cycles, True
                    break
        if len(actions) == 1:
            actions.append("no profitable merge found")
        return prog, tuple(actions)


# ----------------------------------------------------- load staging/split
def _splittable(program: BlockProgram, blk: BlockIR) -> bool:
    if blk.merge_group is not None or blk.load_bytes <= 0:
        return False
    kinds = [program.ops[i].kind for i in blk.op_ids]
    if any(k in (OpKind.CACHE, OpKind.STREAM) for k in kinds):
        return False
    mm5s = sum(
        1 for i in blk.op_ids if program.ops[i].semantic == "mm5"
    )
    return mm5s == 1


def _split_block(
    program: BlockProgram, label: str, model: ModelConfig
) -> BlockProgram | None:
    """Split one encoder-shaped block at its MHA/FFN boundary into the
    Fig 4.11 two-channel form; None when the block does not match."""
    blk = program.block(label)
    if not _splittable(program, blk):
        return None
    fabric = program.fabric
    bpe = fabric.hardware.bytes_per_element
    mha_bytes = encoder_mha_weight_bytes(model, bpe)
    ffn_bytes = encoder_ffn_weight_bytes(model, bpe)
    if mha_bytes + ffn_bytes != blk.load_bytes:
        return None  # not an encoder bundle for this model config
    split_at = next(
        idx
        for idx, op_id in enumerate(blk.op_ids)
        if program.ops[op_id].semantic == "mm5"
    )
    m_ids, f_ids = blk.op_ids[:split_at], blk.op_ids[split_at:]
    if not any(program.ops[i].kind is OpKind.LOAD for i in m_ids):
        return None
    m_label, f_label = f"{label}m", f"{label}f"
    mha_load = _bundle_load_cycles(fabric, mha_bytes)
    ffn_load = _bundle_load_cycles(fabric, ffn_bytes)

    ops_override: dict[int, Op] = {}
    for op_id in m_ids:
        op = program.ops[op_id]
        if op.kind is OpKind.LOAD:
            ops_override[op_id] = dataclasses.replace(
                op,
                label=f"LW:{m_label}",
                cycles=mha_load,
                block=m_label,
                attrs={"channel_hint": 0},
            )
        else:
            ops_override[op_id] = dataclasses.replace(op, block=m_label)
    for op_id in f_ids:
        ops_override[op_id] = dataclasses.replace(
            program.ops[op_id], block=f_label
        )
    f_load_op = Op(
        op_id=-1,
        kind=OpKind.LOAD,
        label=f"LW:{f_label}",
        engines=("hbm",),
        cycles=ffn_load,
        deps=(),
        block=f_label,
        attrs={"channel_hint": 1},
    )
    # ``merge_group`` reconstructs the original unit under A1/A2, so
    # those schedules are exactly invariant under the split.
    m_blk = BlockIR(
        label=m_label,
        op_ids=m_ids,
        load_cycles=mha_load,
        channel_hint=0,
        overhead_override=blk.overhead_override,
        merge_group=blk.label,
        merged_load_cycles=blk.load_cycles,
        load_bytes=mha_bytes,
    )
    f_blk = BlockIR(
        label=f_label,
        op_ids=(*f_ids, -1),
        load_cycles=ffn_load,
        channel_hint=1,
        overhead_override=0,
        merge_group=blk.label,
        merged_load_cycles=blk.load_cycles,
        load_bytes=ffn_bytes,
    )
    i = [b.label for b in program.blocks].index(label)
    blocks = (*program.blocks[:i], m_blk, f_blk, *program.blocks[i + 1:])
    order: list[int | Op] = list(range(program.num_ops))
    # Insert the new LOAD op just before the f-part ops (the identity
    # order makes index == old id) so blocks stay position-contiguous.
    order.insert(f_ids[0], f_load_op)
    return _rebuild_program(program, order, blocks, ops_override=ops_override)


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

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        model = program.meta.get("model")
        if model is None:
            return program, ("skipped: program meta carries no model config",)
        actions: list[str] = []
        prog = program
        if self.blocks is not None:
            for label in self.blocks:
                cand = _split_block(prog, label, model)
                if cand is None:
                    raise PassError(f"block '{label}' is not splittable")
                prog = cand
                actions.append(f"split {label} -> {label}m/{label}f")
            return prog, tuple(actions)

        for _ in range(max(self.limit, 0)):
            spans, _sched = program_unit_spans(
                prog, self.architecture, _overhead(prog)
            )
            gaps: list[tuple[float, str]] = []
            prev_end = 0.0
            for span in spans:
                gap = span.compute_start - prev_end
                prev_end = span.compute_end
                if gap <= 0 or len(span.blocks) != 1:
                    continue
                if _splittable(prog, prog.block(span.blocks[0])):
                    gaps.append((gap, span.blocks[0]))
            if not gaps:
                break
            gaps.sort(key=lambda g: (-g[0], g[1]))
            best = _total_cycles(prog, self.architecture)
            accepted = False
            for gap, label in gaps:
                cand = _split_block(prog, label, model)
                if cand is None:
                    continue
                cycles = _total_cycles(cand, self.architecture)
                if cycles < best:
                    actions.append(
                        f"split {label} ({gap:g} exposed load cycles): "
                        f"{best} -> {cycles} cycles"
                    )
                    prog = cand
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

    def run(self, program: BlockProgram) -> tuple[BlockProgram, tuple[str, ...]]:
        actions: list[str] = []
        report = classify_stalls(program, self.architecture, _overhead(program))
        psa = report.totals(".psa")
        actions.append(
            "cost signal: "
            f"{psa['load_starved']:g} load-starved + "
            f"{psa['channel_contention']:g} channel-contention PSA cycles"
        )
        prog = program
        best = _total_cycles(prog, self.architecture)
        if self.num_weight_buffers is not None:
            prog = _with_meta(
                prog,
                schedule_params={
                    **(prog.meta.get("schedule_params") or {}),
                    "num_weight_buffers": int(self.num_weight_buffers),
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
            new_blocks.append(dataclasses.replace(blk, channel_hint=chan))
        if not changed:
            return None
        return dataclasses.replace(program, blocks=tuple(new_blocks))


# ------------------------------------------------------- op reordering
def _dataflow_deps(op: Op, in_block: set[int]) -> tuple[int, ...]:
    """The block-internal edges that carry data: every in-block op the
    op *reads*.  The lowering's declared ``deps`` are not a superset of
    these — a dataflow edge implied transitively through a
    serialization edge (e.g. ``MM1(Q)`` reading the layer input behind
    its ``MM1(K)`` chain edge) is omitted there, so reordering must
    recover ordering from the inputs themselves."""
    return tuple(
        sorted(
            {
                ref.key
                for ref in op.inputs
                if ref.kind == "op" and ref.key in in_block
            }
        )
    )


def _list_schedule_block(
    program: BlockProgram, blk: BlockIR
) -> tuple[list[int], dict[int, tuple[int, ...]], int, int] | None:
    """List-schedule one block's compute DAG onto its engines.

    Returns (new op order, new deps per op in old-id space, old compute
    makespan, new compute makespan) or None when no strict improvement
    exists.  Priority is the critical-path length over dataflow edges;
    per-engine occupancy is re-emitted as chain dependency edges so the
    ASAP cycle model reproduces the list schedule exactly.
    """
    in_block = set(blk.op_ids)
    loads = [i for i in blk.op_ids if program.ops[i].kind is OpKind.LOAD]
    comps = [i for i in blk.op_ids if program.ops[i].kind is not OpKind.LOAD]
    if len(comps) < 2:
        return None
    df = {i: _dataflow_deps(program.ops[i], in_block) for i in comps}
    succs: dict[int, list[int]] = {i: [] for i in comps}
    for i in comps:
        for d in df[i]:
            succs[d].append(i)
    # Critical-path priority (longest path to a sink), reverse order.
    cp: dict[int, int] = {}
    for i in reversed(comps):
        cp[i] = program.ops[i].cycles + max(
            (cp[s] for s in succs[i]), default=0
        )

    engine_free: dict[str, int] = {}
    engine_last: dict[str, int] = {}
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    chain: dict[int, set[int]] = {i: set() for i in comps}
    pending = set(comps)
    while pending:
        ready = [i for i in pending if all(d in end for d in df[i])]
        est = {
            i: max(
                max((end[d] for d in df[i]), default=0),
                max(
                    (engine_free.get(e, 0) for e in program.ops[i].engines),
                    default=0,
                ),
            )
            for i in ready
        }
        # Earliest feasible start wins; critical path breaks ties.
        pick = min(ready, key=lambda i: (est[i], -cp[i], i))
        op = program.ops[pick]
        start[pick] = est[pick]
        end[pick] = est[pick] + op.cycles
        for e in op.engines:
            if e in engine_last:
                chain[pick].add(engine_last[e])
            engine_free[e] = end[pick]
            engine_last[e] = pick
        pending.remove(pick)

    old_span = block_compute_cycles(program, blk)
    new_span = max(end.values(), default=0)
    if new_span >= old_span:
        return None

    # Final order: Kahn over dataflow + chain edges, (start, id) priority.
    full_deps = {i: set(df[i]) | chain[i] for i in comps}
    indeg = {i: len(full_deps[i]) for i in comps}
    out_edges: dict[int, list[int]] = {i: [] for i in comps}
    for i in comps:
        for d in full_deps[i]:
            out_edges[d].append(i)
    frontier = sorted(
        (i for i in comps if indeg[i] == 0), key=lambda i: (start[i], i)
    )
    ordered: list[int] = []
    while frontier:
        frontier.sort(key=lambda i: (start[i], i))
        cur = frontier.pop(0)
        ordered.append(cur)
        for s in out_edges[cur]:
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if len(ordered) != len(comps):
        raise PassError(f"reorder of '{blk.label}' produced a dependency cycle")

    deps_map: dict[int, tuple[int, ...]] = {}
    for i in comps:
        external = tuple(d for d in program.ops[i].deps if d not in in_block)
        deps_map[i] = tuple(sorted(set(external) | full_deps[i]))
    return loads + ordered, deps_map, old_span, new_span


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
        actions: list[str] = []
        new_orders: dict[str, list[int]] = {}
        deps_override: dict[int, tuple[int, ...]] = {}
        for blk in program.blocks:
            if self.blocks is not None and blk.label not in self.blocks:
                continue
            if any(
                program.ops[i].kind in (OpKind.CACHE, OpKind.STREAM)
                for i in blk.op_ids
            ):
                continue
            result = _list_schedule_block(program, blk)
            if result is None:
                continue
            order, deps_map, old_span, new_span = result
            new_orders[blk.label] = order
            deps_override.update(deps_map)
            actions.append(
                f"reordered {blk.label}: {old_span} -> {new_span} "
                "compute cycles"
            )
        if not new_orders:
            return program, ("no profitable reorder found",)
        # Rebuild block-major: blocks are serialized by the schedulers,
        # so concatenating per-block orders stays topological.
        order: list[int | Op] = []
        for blk in program.blocks:
            order.extend(new_orders.get(blk.label, list(blk.op_ids)))
        blocks = tuple(
            dataclasses.replace(
                blk, op_ids=tuple(new_orders.get(blk.label, blk.op_ids))
            )
            for blk in program.blocks
        )
        rebuilt = _rebuild_program(
            program, order, blocks, deps_override=deps_override
        )
        return rebuilt, tuple(actions)


# ------------------------------------------------------------- pipeline
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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(p.name for p in self.passes)

    def apply(
        self, program: BlockProgram, *, collect_stalls: bool = False
    ) -> tuple[BlockProgram, PipelineReport]:
        overhead = _overhead(program)
        prog = program
        report = PipelineReport(
            architecture=self.architecture,
            block_overhead=overhead,
            cycles_before=_total_cycles(prog, self.architecture),
            cycles_after=0,
        )
        for p in self.passes:
            before = _total_cycles(prog, self.architecture)
            sb = (
                classify_stalls(prog, self.architecture, overhead).totals(".psa")
                if collect_stalls
                else {}
            )
            prog, actions = p.run(prog)
            after = _total_cycles(prog, self.architecture)
            sa = (
                classify_stalls(prog, self.architecture, overhead).totals(".psa")
                if collect_stalls
                else {}
            )
            report.passes.append(
                PassReport(p.name, actions, before, after, sb, sa)
            )
        prog = _with_meta(prog, passes=self.names)
        report.cycles_after = _total_cycles(prog, self.architecture)
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

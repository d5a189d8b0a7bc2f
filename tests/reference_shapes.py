"""The per-block facts the optimizer passes read, computed by walking
ops as they were before blocks carried a ``BlockShape``, kept as the
test oracle.

:func:`reference_block_shape` is the passes' ``_block_shape``,
:func:`reference_psa_stall_totals` is ``psa_stall_totals`` with its
per-unit ASAP pass over the ops, and :func:`reference_validate_program`
is the passes' ``_validate_program``, each unchanged except for its
name.  ``tests/test_hw_shapes.py`` pins the records the lowering and
the passes carry equal to them.
"""

from __future__ import annotations

from repro.hw.introspect import STALL_CAUSES
from repro.hw.passes import PassError
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    OpKind,
    _asap_times,
    _work_units,
    schedule_program,
)


def reference_block_shape(
    program: BlockProgram, blk: BlockIR
) -> tuple[list[int], tuple]:
    """A block's compute op ids, in block order, and its *shape*.

    The shape is everything a block's ASAP span and list schedule read,
    with op ids replaced by positions in that order: per op its
    engines, cycles, in-block declared deps and in-block reads, plus the
    order of the ids, which breaks ties.  LOAD ops are left out; neither
    computation reads them.
    """
    ops = program.ops
    comps = [i for i in blk.op_ids if ops[i].kind is not OpKind.LOAD]
    pos = {op_id: p for p, op_id in enumerate(comps)}
    rows = []
    for op_id in comps:
        op = ops[op_id]
        reads = {pos[r.key] for r in op.inputs if r.kind == "op" and r.key in pos}
        rows.append((
            op.engines,
            op.cycles,
            tuple([pos[d] for d in op.deps if d in pos]),
            tuple(sorted(reads)),
        ))
    by_id = tuple(sorted(range(len(comps)), key=comps.__getitem__))
    return comps, (by_id, tuple(rows))


def reference_psa_stall_totals(
    program: BlockProgram,
    architecture: str = "A3",
    block_overhead: int | None = None,
) -> dict[str, float]:
    """``classify_stalls(...).totals(".psa")`` from the integer block
    schedule and an ASAP pass over each unit's ops."""
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    units = _work_units(program, architecture)
    sched = schedule_program(program, architecture, block_overhead)
    cs, ce = sched.compute_start, sched.compute_end
    serial_ends = {
        (k, end)
        for k, start, end in zip(sched.channel, sched.load_start, sched.load_end)
        if end > start
    }
    starved, contended, spans, overheads = [0], [0], [0], [0]
    lanes: dict[str, list[int]] = {}
    prev_end = 0
    for u, (work, group) in enumerate(units):
        gap = cs[u] - prev_end
        serial = (sched.channel[u], sched.load_start[u]) in serial_ends
        starved.append(starved[-1] + (0 if serial else gap))
        contended.append(contended[-1] + (gap if serial else 0))
        spans.append(spans[-1] + work.compute_cycles)
        overheads.append(overheads[-1] + ce[u] - cs[u] - work.compute_cycles)
        prev_end = ce[u]
        op_ids = [oid for blk in group for oid in blk.op_ids]
        for op_id, (start, end) in _asap_times(program, op_ids).items():
            if end == start:
                continue  # the trace emits no event
            for lane in program.ops[op_id].engines:
                if ".psa" in lane:
                    acc = lanes.setdefault(lane, [0, 0, 0])
                    acc[0] += end - start
                    acc[1] = u
                    acc[2] = max(acc[2], cs[u] + end)
    totals = dict.fromkeys(STALL_CAUSES, 0)
    for busy, v, end in lanes.values():
        totals["load_starved"] += starved[v + 1]
        totals["channel_contention"] += contended[v + 1]
        totals["dependency"] += spans[v] + end - cs[v] - busy
        totals["overhead"] += overheads[v]
        totals["no_work"] += sched.total_cycles - end
    return {cause: float(cycles) for cause, cycles in totals.items()}


def reference_validate_program(program: BlockProgram) -> None:
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

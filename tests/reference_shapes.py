"""The per-block facts the optimizer passes read, computed by walking
ops as they were before blocks carried a ``BlockShape``, kept as the
test oracle.

:func:`_asap_times` and :func:`_makespan` are the op-walking ASAP pass
the cycle and trace executors ran before they read block shapes,
:func:`reference_trace` is ``trace_program`` timed by it (plus its
schedule), :func:`reference_block_shape` is the passes' ``_block_shape``,
:func:`reference_psa_stall_totals` is ``psa_stall_totals`` with its
per-unit ASAP pass over the ops, and :func:`reference_validate_program`
is the passes' ``_validate_program``, each unchanged except for its
name.  :func:`reference_profile` is the stall classifier as it was
before the device profile: it walks each traced lane's idle gaps
against the causal segments of the block schedule, and regroups the
labelled intervals into a :class:`RunProfile` the way ``profile_run``
did.  ``tests/test_hw_shapes.py`` and ``tests/test_hw_introspect.py``
pin the records the lowering and the passes carry, and the device
profile, equal to them.
"""

from __future__ import annotations

from repro.hw.introspect import STALL_CAUSES
from repro.hw.passes import PassError
from typing import Sequence

from repro.hw.program import (
    BlockIR,
    BlockProgram,
    OpKind,
    UnitSpan,
    _work_units,
    program_block_work,
    program_hbm_bytes,
    program_unit_spans,
    schedule_program,
    trace_program,
)
from repro.hw.scheduler import ScheduleResult
from repro.hw.trace import Timeline
from repro.obs.diffprof import LaneProfile, RunProfile

_WAIT_CAUSES = STALL_CAUSES[:-1]


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


def reference_trace(
    program: BlockProgram, architecture: str = "A3", block_overhead: int = 0
) -> tuple[Timeline, ScheduleResult]:
    """``trace_program`` and its schedule, each work unit's op events
    timed by an ASAP pass over its ops."""
    units = _work_units(program, architecture)
    sched = schedule_program(program, architecture, block_overhead)
    timeline = Timeline([e for e in sched.timeline.events if e.kind == "load"])
    for i, (work, group) in enumerate(units):
        offset = float(sched.compute_start[i])
        times = _asap_times(program, [i for blk in group for i in blk.op_ids])
        for op_id, (start, end) in times.items():
            op = program.ops[op_id]
            if op.cycles <= 0:
                continue
            kind = "stream" if op.kind is OpKind.STREAM else "compute"
            for engine in op.engines:
                timeline.add(engine, op.label, offset + start, offset + end, kind=kind)
        span = max((end for _, end in times.values()), default=0)
        overhead = work.overhead(block_overhead)
        if overhead > 0:
            timeline.add(
                "host", f"disp:{work.label}", offset + span,
                offset + span + overhead, kind="overhead",
            )
    timeline.validate_no_engine_overlap()
    return timeline, sched


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


def _load_wait_cause(unit: UnitSpan, spans: Sequence[UnitSpan]) -> str:
    """Why ``unit``'s load exposed a stall: serialized behind another
    load on its channel (contention) or simply slower than the compute
    it had to hide behind (starvation)."""
    if not unit.load_engine:
        return "load_starved"
    for other in spans:
        if other is unit or other.load_engine != unit.load_engine:
            continue
        if other.load_end == unit.load_start and other.load_end > other.load_start:
            return "channel_contention"
    return "load_starved"


def _causal_segments(
    spans: Sequence[UnitSpan],
) -> list[tuple[float, float, str, str]]:
    """Partition [0, last compute end) into causally-labelled segments:
    per unit its exposed load gap, its op execution (``dependency``)
    and its dispatch overhead, each carrying the unit's label."""
    segments: list[tuple[float, float, str, str]] = []
    prev_end = 0.0
    for unit in spans:
        if unit.compute_start > prev_end:
            segments.append(
                (prev_end, unit.compute_start,
                 _load_wait_cause(unit, spans), unit.label)
            )
        ops_end = unit.compute_start + unit.compute_span
        if ops_end > unit.compute_start:
            segments.append(
                (unit.compute_start, ops_end, "dependency", unit.label)
            )
        if unit.compute_end > ops_end:
            segments.append((ops_end, unit.compute_end, "overhead", unit.label))
        prev_end = unit.compute_end
    return segments


def reference_profile(
    program: BlockProgram,
    architecture: str = "A3",
    block_overhead: int | None = None,
    *,
    timeline: Timeline | None = None,
) -> RunProfile:
    """``classify_stalls`` from a trace: every idle gap of every traced
    lane intersected with the causal segments (pass ``timeline`` to
    classify a given trace), regrouped per (cause, unit)."""
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    if timeline is None:
        timeline = trace_program(program, architecture, block_overhead)
    spans, _ = program_unit_spans(program, architecture, block_overhead)
    segments = _causal_segments(spans)
    makespan = timeline.makespan

    lanes: dict[str, LaneProfile] = {}
    for engine in timeline.engines():
        busy_ivs = timeline.busy_intervals(engine)
        busy = sum(e - s for s, e in busy_ivs)
        lane_end = busy_ivs[-1][1] if busy_ivs else 0.0
        stalls: dict[str, dict[str, int]] = {}
        # Gaps and segments are both sorted and disjoint, so a segment
        # that ends before one gap starts misses every later gap too.
        first = 0
        for g0, g1 in timeline.idle_gaps(engine):
            while first < len(segments) and segments[first][1] <= g0:
                first += 1
            for i in range(first, len(segments)):
                s0, s1, cause, block = segments[i]
                lo, hi = max(g0, s0), min(g1, s1)
                if hi > lo:
                    blocks = stalls.setdefault(cause, {})
                    blocks[block] = blocks.get(block, 0) + int(hi - lo)
                if s0 >= g1:
                    break
        lanes[engine] = LaneProfile(
            busy=int(busy), stalls=stalls, no_work=int(max(makespan - lane_end, 0.0))
        )
    return RunProfile(
        label=str(architecture),
        architecture=str(architecture),
        makespan=int(makespan),
        lanes=lanes,
        block_work={
            work.label: {"load": work.load_cycles, "compute": work.compute_cycles}
            for work in program_block_work(program, architecture)
        },
        channel_bytes={
            str(ch): n for ch, n in program_hbm_bytes(program, architecture).items()
        },
        meta={
            "s": program.meta.get("s"),
            "blocks": len(program.blocks),
            "ops": program.num_ops,
            "block_overhead": block_overhead,
        },
    )

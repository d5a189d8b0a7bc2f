"""The three A1/A2/A3 schedulers as they stood before the single
recurrence of :func:`repro.hw.scheduler.schedule`, kept as the test
oracle.

The bodies below are unchanged except that they return a local
:class:`ReferenceResult`: each architecture is its own loop, sums its
integer inputs in floats, rounds at the end and builds its
:class:`~repro.hw.trace.Timeline` eagerly.  The equivalence property in
``tests/test_hw_scheduler.py`` pins ``schedule`` equal to them on
totals, stalls and every timeline event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hw.scheduler import Architecture, BlockWork
from repro.hw.trace import Timeline


@dataclass
class ReferenceResult:
    """What the old schedulers returned (``ScheduleResult`` minus the
    unused ``extra`` dict)."""

    architecture: Architecture
    total_cycles: int
    timeline: Timeline
    load_cycles_total: int
    compute_cycles_total: int
    stall_cycles: int
    block_overhead_cycles: int = 0


def _finalize(
    arch: Architecture,
    timeline: Timeline,
    blocks: list[BlockWork],
    compute_end: float,
    compute_busy: float,
    first_compute_start: float,
    overhead: int,
) -> ReferenceResult:
    total_load = sum(b.load_cycles for b in blocks)
    total_compute = sum(b.compute_cycles for b in blocks)
    span = compute_end - first_compute_start
    stall = int(round(span - compute_busy)) if blocks else 0
    timeline.validate_no_engine_overlap()
    return ReferenceResult(
        architecture=arch,
        total_cycles=int(round(compute_end)),
        timeline=timeline,
        load_cycles_total=total_load,
        compute_cycles_total=total_compute,
        stall_cycles=max(stall, 0),
        block_overhead_cycles=sum(b.overhead(overhead) for b in blocks),
    )


def schedule_a1(blocks: list[BlockWork], block_overhead: int = 0) -> ReferenceResult:
    """Naive sequential load-then-compute (Fig 4.8)."""
    _validate(blocks, block_overhead)
    timeline = Timeline()
    t = 0.0
    compute_busy = 0.0
    first_compute = 0.0
    for i, b in enumerate(blocks):
        timeline.add("hbm0", f"LW:{b.label}", t, t + b.load_cycles, kind="load")
        t += b.load_cycles
        if i == 0:
            first_compute = t
        dur = b.compute_cycles + b.overhead(block_overhead)
        timeline.add("compute", f"C:{b.label}", t, t + dur)
        t += dur
        compute_busy += dur
    return _finalize(
        Architecture.A1, timeline, blocks, t, compute_busy, first_compute, block_overhead
    )


def schedule_a2(
    blocks: list[BlockWork],
    block_overhead: int = 0,
    num_weight_buffers: int = 2,
) -> ReferenceResult:
    """Double-buffered prefetch on one load channel (Fig 4.9).

    ``num_weight_buffers=1`` degrades to load-after-compute (the
    ablation baseline, nearly A1); larger values allow deeper prefetch.
    """
    _validate(blocks, block_overhead)
    if num_weight_buffers < 1:
        raise ValueError("num_weight_buffers must be >= 1")
    nb = num_weight_buffers
    timeline = Timeline()
    load_end = [0.0] * len(blocks)
    comp_end = [0.0] * len(blocks)
    chan_free = 0.0
    compute_busy = 0.0
    first_compute = None
    prev_comp = 0.0
    for i, b in enumerate(blocks):
        # Buffer (i mod nb) frees when compute i-nb finishes.
        buffer_free = comp_end[i - nb] if i >= nb else 0.0
        start = max(chan_free, buffer_free)
        load_end[i] = start + b.load_cycles
        timeline.add("hbm0", f"LW:{b.label}", start, load_end[i], kind="load")
        chan_free = load_end[i]

        c_start = max(load_end[i], prev_comp)
        if first_compute is None:
            first_compute = c_start
        dur = b.compute_cycles + b.overhead(block_overhead)
        comp_end[i] = c_start + dur
        timeline.add("compute", f"C:{b.label}", c_start, comp_end[i])
        prev_comp = comp_end[i]
        compute_busy += dur
    return _finalize(
        Architecture.A2,
        timeline,
        blocks,
        prev_comp,
        compute_busy,
        first_compute or 0.0,
        block_overhead,
    )


def schedule_a3(
    blocks: list[BlockWork],
    block_overhead: int = 0,
    num_channels: int = 2,
    num_weight_buffers: int | None = None,
) -> ReferenceResult:
    """Multi-channel overlapped prefetch (Figs 4.10 / 4.11).

    Block ``i`` loads on its hinted channel (default: round-robin);
    the load may start once the previous load on that channel finished
    *and* block ``i - num_weight_buffers``'s compute released its
    weight buffer.  The paper's A3 uses two channels with one buffer
    per channel (``num_weight_buffers = num_channels``, the default);
    more buffers model deeper prefetch on the same ports, more channels
    the natural extension onto additional HBM ports.
    """
    _validate(blocks, block_overhead)
    if num_channels < 1:
        raise ValueError("num_channels must be >= 1")
    nb = num_channels if num_weight_buffers is None else num_weight_buffers
    if nb < num_channels:
        raise ValueError(
            "num_weight_buffers must be >= num_channels (each in-flight "
            f"load needs a buffer); got {nb} < {num_channels}"
        )
    timeline = Timeline()
    load_end = [0.0] * len(blocks)
    comp_end = [0.0] * len(blocks)
    chan_free = [0.0] * num_channels
    compute_busy = 0.0
    first_compute = None
    prev_comp = 0.0
    for i, b in enumerate(blocks):
        chan = b.channel_hint if b.channel_hint is not None else i % num_channels
        if not 0 <= chan < num_channels:
            raise ValueError(
                f"channel_hint must be in [0, {num_channels}); got {chan}"
            )
        buffer_free = comp_end[i - nb] if i >= nb else 0.0
        start = max(chan_free[chan], buffer_free)
        load_end[i] = start + b.load_cycles
        timeline.add(f"hbm{chan}", f"LW:{b.label}", start, load_end[i], kind="load")
        chan_free[chan] = load_end[i]

        c_start = max(load_end[i], prev_comp)
        if first_compute is None:
            first_compute = c_start
        dur = b.compute_cycles + b.overhead(block_overhead)
        comp_end[i] = c_start + dur
        timeline.add("compute", f"C:{b.label}", c_start, comp_end[i])
        prev_comp = comp_end[i]
        compute_busy += dur
    return _finalize(
        Architecture.A3,
        timeline,
        blocks,
        prev_comp,
        compute_busy,
        first_compute or 0.0,
        block_overhead,
    )


def _validate(blocks: list[BlockWork], block_overhead: int) -> None:
    if block_overhead < 0:
        raise ValueError("block_overhead must be non-negative")
    if not blocks:
        raise ValueError("need at least one block to schedule")


REFERENCE_SCHEDULERS = {
    Architecture.A1: schedule_a1,
    Architecture.A2: schedule_a2,
    Architecture.A3: schedule_a3,
}

"""End-to-end load/compute overlap architectures A1, A2, A3 (Section 4.5).

The encoder/decoder stack is a chain of *blocks*; each block needs its
weights loaded from HBM (``LW_i``) before its compute (``C_i``) can run,
and each compute depends on the previous block's output.  The three
architectures are one prefetch policy over different resources:

====  ==================  ========================  =============  ==========
arch  HBM channels        weight buffers            channel hints  paper
====  ==================  ========================  =============  ==========
A1    1                   1                         ignored        Fig 4.8
A2    1                   ``num_weight_buffers``=2  ignored        Fig 4.9
A3    ``num_channels``=2  ``num_weight_buffers``    honoured       Figs 4.10,
                          = one per channel                        4.11
====  ==================  ========================  =============  ==========

Unit ``i`` loads on its channel (its hint under A3, else ``i`` mod the
channel count) once that channel's previous load finished *and* unit
``i - buffers`` released its weight buffer by finishing its compute.
Its compute starts once its load landed and unit ``i - 1``'s compute
finished.  With one buffer that is A1's strict LW1, C1, LW2, C2, ...;
A2's second buffer lets ``LW_{i+1}`` overlap ``C_i``; A3's second
channel issues ``LW_{i+2}`` as soon as ``C_i`` completes, halving the
exposed stall from ``LW - C`` to ``(LW - C) / 2`` when load-bound.
Decoders split their load into an MHA part and an FFN part pinned to
the two channels (Fig 4.11).

All times are integer fabric cycles.  Each block additionally pays a
fixed host-orchestration overhead serialized with its compute (the
OpenCL dispatch of Section 2.2.7), which no architecture can hide.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from repro.hw.trace import Timeline


class Architecture(str, Enum):
    """The three end-to-end architectures compared in Table 5.1."""

    A1 = "A1"
    A2 = "A2"
    A3 = "A3"


def _as_int(value: object, name: str) -> int | None:
    """``value`` as a plain ``int`` (``None`` passes through); bools,
    floats and other non-integers raise ``TypeError``, numpy integers
    convert."""
    if type(value) is int or value is None:
        return value
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{name} must be an integer; got {value!r}")
    return operator.index(value)


_INT_FIELDS = ("load_cycles", "compute_cycles", "channel_hint", "overhead_override")


@dataclass(frozen=True)
class BlockWork:
    """One schedulable unit: a weight load followed by a compute."""

    label: str
    load_cycles: int
    compute_cycles: int
    #: Preferred HBM channel in A3 (encoders alternate; decoder MHA
    #: parts pin to 0 and FFN parts to 1, per Fig 4.11).
    channel_hint: int | None = None
    #: Host-dispatch overhead override; None means "use the scheduler's
    #: global block overhead".  A3 decoder sub-blocks set the FFN part
    #: to 0 so a decoder pays one dispatch, like under A1/A2.
    overhead_override: int | None = None

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int and value is not None:
                object.__setattr__(self, name, _as_int(value, name))
        if self.load_cycles < 0 or self.compute_cycles < 0:
            raise ValueError("cycle counts must be non-negative")
        if self.overhead_override is not None and self.overhead_override < 0:
            raise ValueError("overhead_override must be non-negative")

    def overhead(self, default: int) -> int:
        return self.overhead_override if self.overhead_override is not None else default


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling a block chain under one architecture.

    The per-unit tuples are indexed by position in the scheduled chain:
    unit ``i`` loaded on HBM channel ``channel[i]`` over
    ``[load_start[i], load_end[i])`` and computed (dispatch overhead
    included) over ``[compute_start[i], compute_end[i])``.
    """

    architecture: Architecture
    total_cycles: int
    load_cycles_total: int
    compute_cycles_total: int
    #: Cycles the compute engine sat idle waiting for weights.
    stall_cycles: int
    block_overhead_cycles: int
    labels: tuple[str, ...]
    channel: tuple[int, ...]
    load_start: tuple[int, ...]
    load_end: tuple[int, ...]
    compute_start: tuple[int, ...]
    compute_end: tuple[int, ...]

    @cached_property
    def timeline(self) -> Timeline:
        """The schedule as ``LW:``/``C:`` events on the ``hbm<k>`` and
        ``compute`` engines, built on first read."""
        timeline = Timeline()
        for i, label in enumerate(self.labels):
            timeline.add(
                f"hbm{self.channel[i]}",
                f"LW:{label}",
                float(self.load_start[i]),
                float(self.load_end[i]),
                kind="load",
            )
            timeline.add(
                "compute",
                f"C:{label}",
                float(self.compute_start[i]),
                float(self.compute_end[i]),
            )
        return timeline

    def check_no_double_booking(self) -> None:
        """Raise ``ValueError`` if an HBM channel or the compute engine
        runs two units' half-open intervals at once."""
        n = len(self.labels)
        lanes = (
            ("LW:", [f"hbm{k}" for k in self.channel], self.load_start, self.load_end),
            ("C:", ["compute"] * n, self.compute_start, self.compute_end),
        )
        for prefix, engines, starts, ends in lanes:
            last: dict[str, int] = {}
            for i, engine in enumerate(engines):
                j = last.get(engine)
                if j is not None and starts[j] < ends[i] and starts[i] < ends[j]:
                    raise ValueError(
                        f"engine '{engine}' double-booked: "
                        f"'{prefix}{self.labels[j]}' [{starts[j]}, {ends[j]}) "
                        f"overlaps '{prefix}{self.labels[i]}' [{starts[i]}, {ends[i]})"
                    )
                last[engine] = i


def _resources(
    arch: Architecture, num_channels: int | None, num_weight_buffers: int | None
) -> tuple[int, int, bool]:
    """(HBM channels, weight buffers, honour channel hints): the
    module docstring's table."""
    if arch is Architecture.A1:
        return 1, 1, False
    if arch is Architecture.A2:
        return 1, 2 if num_weight_buffers is None else num_weight_buffers, False
    channels = 2 if num_channels is None else num_channels
    buffers = channels if num_weight_buffers is None else num_weight_buffers
    return channels, buffers, True


def schedule(
    architecture: Architecture | str,
    blocks: list[BlockWork],
    block_overhead: int = 0,
    *,
    num_channels: int | None = None,
    num_weight_buffers: int | None = None,
) -> ScheduleResult:
    """Place the block chain under one architecture's resources.

    ``num_weight_buffers`` applies to A2 and A3, ``num_channels`` to A3
    only; an architecture ignores the parameters outside its row.
    """
    arch = Architecture(architecture)
    block_overhead = _as_int(block_overhead, "block_overhead")
    if block_overhead < 0:
        raise ValueError("block_overhead must be non-negative")
    if not blocks:
        raise ValueError("need at least one block to schedule")
    channels, buffers, hinted = _resources(
        arch,
        _as_int(num_channels, "num_channels"),
        _as_int(num_weight_buffers, "num_weight_buffers"),
    )
    if channels < 1:
        raise ValueError("num_channels must be >= 1")
    if buffers < 1:
        raise ValueError("num_weight_buffers must be >= 1")
    if buffers < channels:
        raise ValueError(
            "num_weight_buffers must be >= num_channels (each in-flight "
            f"load needs a buffer); got {buffers} < {channels}"
        )
    n = len(blocks)
    channel = [0] * n
    load_start = [0] * n
    load_end = [0] * n
    compute_start = [0] * n
    compute_end = [0] * n
    chan_free = [0] * channels
    compute_free = overheads = 0
    for i, b in enumerate(blocks):
        chan = b.channel_hint
        if chan is None or not hinted:
            chan = i % channels
        elif not 0 <= chan < channels:
            raise ValueError(f"channel_hint must be in [0, {channels}); got {chan}")
        start = chan_free[chan]
        if i >= buffers:  # unit i - buffers releases its weight buffer
            start = max(start, compute_end[i - buffers])
        overhead = b.overhead(block_overhead)
        overheads += overhead
        channel[i] = chan
        load_start[i] = start
        load_end[i] = chan_free[chan] = start + b.load_cycles
        compute_start[i] = max(load_end[i], compute_free)
        compute_end[i] = compute_free = compute_start[i] + b.compute_cycles + overhead
    compute_total = sum(b.compute_cycles for b in blocks)
    result = ScheduleResult(
        architecture=arch,
        total_cycles=compute_free,
        load_cycles_total=sum(b.load_cycles for b in blocks),
        compute_cycles_total=compute_total,
        stall_cycles=compute_free - compute_start[0] - compute_total - overheads,
        block_overhead_cycles=overheads,
        labels=tuple(b.label for b in blocks),
        channel=tuple(channel),
        load_start=tuple(load_start),
        load_end=tuple(load_end),
        compute_start=tuple(compute_start),
        compute_end=tuple(compute_end),
    )
    result.check_no_double_booking()
    return result

"""Cycle-domain stall attribution and ILA-style introspection.

Real FPGA bring-up answers "why is this engine idle" with Integrated
Logic Analyzer cores and AXI performance monitors.  This module is the
simulator's equivalent: it turns the trace executor's per-engine
:class:`repro.hw.trace.Timeline` and the block schedule of
:mod:`repro.hw.scheduler` into an exact, per-cause account of every
idle cycle — the causality behind Table 5.1 and Figs 4.8–4.11 (A1
stalls on sequential weight loads, A2/A3 hide them behind prefetch).

Three pieces:

* **Stall classifier** — :func:`classify_stalls` labels every idle
  interval on every engine lane with one cause from the fixed taxonomy
  :data:`STALL_CAUSES` (:func:`psa_stall_totals` gives its PSA-lane
  totals from the block schedule alone, without a trace):

  - ``load_starved``  — the serial compute chain waited on an HBM
    weight load (the A1 story);
  - ``channel_contention`` — the binding load was itself serialized
    behind another load on the same HBM channel (the A2 single-channel
    story);
  - ``dependency``    — a work unit was executing but this lane waited
    on a producer op on another engine (head waves, bias/softmax
    hand-offs), or — on an HBM lane — the channel waited for a weight
    buffer to be released by compute;
  - ``overhead``      — the host dispatch ramp/drain serialized after a
    unit's ops (``block_overhead_cycles``);
  - ``no_work``       — the lane finished its last event (drain tail).

  Per engine the account is exactly conservative::

      busy + sum(stall causes) + no_work == makespan

* **Watchpoints + flight recorder** — declarative ILA-style triggers
  (:class:`Watchpoint`) over the event stream: engine idle longer than
  a threshold, channel bandwidth below a floor over a window, op label
  matching a regex.  Each hit captures a bounded ring-buffer window of
  surrounding events (:class:`FlightRecorder`) for dump/export.

* **Counter tracks** — :func:`counter_tracks` time-buckets per-engine
  utilization and per-HBM-channel bandwidth into Perfetto counter
  series, merged into the Chrome-trace exporter by
  :func:`repro.obs.export.chrome_trace`.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.hw.program import (
    BlockProgram,
    UnitSpan,
    _unit_shape,
    _work_units,
    program_unit_spans,
    schedule_program,
    trace_program_with_schedule,
)
from repro.hw.scheduler import ScheduleResult
from repro.hw.trace import Timeline, TraceEvent

__all__ = [
    "STALL_CAUSES",
    "StallInterval",
    "EngineStallBreakdown",
    "StallReport",
    "classify_stalls",
    "psa_stall_totals",
    "Watchpoint",
    "WatchpointHit",
    "FlightRecorder",
    "run_watchpoints",
    "default_watchpoints",
    "utilization_counters",
    "counter_tracks",
    "render_stall_dashboard",
]

#: The fixed stall taxonomy, in reporting order.
STALL_CAUSES = (
    "load_starved",
    "dependency",
    "channel_contention",
    "overhead",
    "no_work",
)

#: The causes that are genuine stalls (everything but the drain tail).
_WAIT_CAUSES = STALL_CAUSES[:-1]


@dataclass(frozen=True)
class StallInterval:
    """One labelled idle interval [start, end) on one engine lane.

    ``block`` names the work unit whose causal segment the interval
    fell in (a :class:`repro.hw.program.UnitSpan` label — one block
    under A3, a fused merge group under A1/A2), empty for the
    ``no_work`` drain tail.  It is what lets the differential profiler
    (:mod:`repro.obs.diffprof`) attribute a cycle delta to a
    (block, engine, cause) triple instead of just (engine, cause).
    """

    engine: str
    start: float
    end: float
    cause: str
    block: str = ""

    @property
    def cycles(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class EngineStallBreakdown:
    """Where one engine lane's cycles went, exactly."""

    engine: str
    makespan: float
    busy_cycles: float
    #: cause -> idle cycles, one entry per wait cause (no ``no_work``).
    stalls: Mapping[str, float]
    no_work_cycles: float

    @property
    def idle_cycles(self) -> float:
        return sum(self.stalls.values()) + self.no_work_cycles

    @property
    def utilization(self) -> float:
        return self.busy_cycles / self.makespan if self.makespan > 0 else 0.0

    @property
    def conservation_error(self) -> float:
        """``busy + sum(stalls) + no_work - makespan`` (must be 0)."""
        return self.busy_cycles + self.idle_cycles - self.makespan

    def dominant_stall(self) -> str | None:
        """The wait cause eating the most cycles (None when fully busy)."""
        best = max(self.stalls, key=lambda c: self.stalls[c])
        return best if self.stalls[best] > 0 else None


@dataclass
class StallReport:
    """The full per-engine stall attribution of one traced program."""

    architecture: str
    makespan: float
    engines: dict[str, EngineStallBreakdown]
    #: Every labelled idle interval, sorted by (engine, start).
    intervals: tuple[StallInterval, ...]
    unit_spans: tuple[UnitSpan, ...] = field(default_factory=tuple)

    def totals(self, engine_filter: str = "") -> dict[str, float]:
        """Cycles per cause (including ``no_work``) summed over lanes
        whose name contains ``engine_filter`` (all lanes when empty)."""
        out = {cause: 0.0 for cause in STALL_CAUSES}
        for name, bd in self.engines.items():
            if engine_filter and engine_filter not in name:
                continue
            for cause, cycles in bd.stalls.items():
                out[cause] += cycles
            out["no_work"] += bd.no_work_cycles
        return out

    def dominant_cause(self, engine_filter: str = ".psa") -> str | None:
        """The wait cause eating the most cycles over matching lanes."""
        totals = self.totals(engine_filter)
        best = max(_WAIT_CAUSES, key=lambda c: totals[c])
        return best if totals[best] > 0 else None

    def intervals_on(self, engine: str) -> list[StallInterval]:
        return [iv for iv in self.intervals if iv.engine == engine]

    def conservation_errors(self) -> dict[str, float]:
        """Engine -> conservation residual (every value must be 0.0)."""
        return {
            name: bd.conservation_error for name, bd in self.engines.items()
        }

    def verify_conservation(self) -> None:
        """Raise unless busy + stalls + no_work == makespan on every lane."""
        broken = {
            name: err
            for name, err in self.conservation_errors().items()
            if err != 0.0
        }
        if broken:
            raise ValueError(
                f"stall attribution is not conservative: {broken} "
                f"(makespan {self.makespan})"
            )

    def as_dict(self) -> dict:
        """JSON-ready dump (the ``repro-asr inspect --json`` payload)."""
        return {
            "architecture": self.architecture,
            "makespan_cycles": self.makespan,
            "totals": self.totals(),
            "psa_totals": self.totals(".psa"),
            "engines": {
                name: {
                    "busy_cycles": bd.busy_cycles,
                    "utilization": bd.utilization,
                    "stalls": dict(bd.stalls),
                    "no_work_cycles": bd.no_work_cycles,
                }
                for name, bd in self.engines.items()
            },
        }


# ------------------------------------------------------------ classifier
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
    """Partition [0, last compute end) into causally-labelled segments.

    The block-schedule compute chain is strictly serial, so global time
    decomposes exactly into: per-unit op execution (idle lanes there
    wait on producers → ``dependency``), the host dispatch overhead
    serialized after each unit (``overhead``), and the exposed gaps
    before a unit starts, bound by its weight load (``load_starved`` or
    ``channel_contention``).  Each segment carries the label of the
    unit it belongs to.
    """
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


def classify_stalls(
    program: BlockProgram,
    architecture: str = "A3",
    block_overhead: int | None = None,
    *,
    timeline: Timeline | None = None,
    sched: ScheduleResult | None = None,
) -> StallReport:
    """Attribute every idle cycle of a traced program to one cause.

    Traces the program under ``architecture`` (pass ``timeline`` and
    ``sched`` from an earlier :func:`trace_program_with_schedule` call
    to reuse that scheduling pass), then walks each engine lane's idle
    gaps and intersects them with the causal segments of the block
    schedule.  The result satisfies, per engine, exactly::

        busy + sum(stall causes) + no_work == makespan
    """
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    if timeline is None or sched is None:
        timeline, sched = trace_program_with_schedule(
            program, architecture, block_overhead
        )
    spans, _ = program_unit_spans(program, architecture, block_overhead, sched=sched)
    segments = _causal_segments(spans)
    makespan = timeline.makespan

    engines: dict[str, EngineStallBreakdown] = {}
    intervals: list[StallInterval] = []
    for engine in timeline.engines():
        busy_ivs = timeline.busy_intervals(engine)
        busy = sum(e - s for s, e in busy_ivs)
        lane_end = busy_ivs[-1][1] if busy_ivs else 0.0
        stalls = {cause: 0.0 for cause in _WAIT_CAUSES}
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
                    stalls[cause] += hi - lo
                    intervals.append(StallInterval(engine, lo, hi, cause, block))
                if s0 >= g1:
                    break
        no_work = makespan - lane_end
        if no_work > 0:
            intervals.append(
                StallInterval(engine, lane_end, makespan, "no_work")
            )
        engines[engine] = EngineStallBreakdown(
            engine=engine,
            makespan=makespan,
            busy_cycles=busy,
            stalls=stalls,
            no_work_cycles=max(no_work, 0.0),
        )
    intervals.sort(key=lambda iv: (iv.engine, iv.start))
    return StallReport(
        architecture=str(architecture),
        makespan=makespan,
        engines=engines,
        intervals=tuple(intervals),
        unit_spans=tuple(spans),
    )


def psa_stall_totals(
    program: BlockProgram,
    architecture: str = "A3",
    block_overhead: int | None = None,
) -> dict[str, float]:
    """``classify_stalls(...).totals(".psa")`` from the integer block
    schedule alone, without building a trace.

    The causal segments tile ``[0, last compute end)`` unit by unit,
    and a PSA lane is busy only inside a unit's
    ``[compute_start, compute_start + compute_span)``.  So a lane whose
    last busy cycle falls in unit ``v`` owes every load gap of units
    ``0..v``, the idle part of every op window and the dispatch
    overhead of units ``0..v-1``, the idle part of unit ``v``'s op
    window up to its last busy end, and ``no_work`` from there to the
    makespan (the schedule's ``total_cycles``).  Per-unit sums are
    prefix sums over the schedule arrays.  A lane's busy cycles are its
    ops' cycles: the trace executor rejects an engine that runs two ops
    at once.  Each unit's lane busy cycles and last end come from its
    block shape (``BlockShape.psa``), which every copy of a layer shares,
    so no op is read.
    """
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    units = _work_units(program, architecture)
    sched = schedule_program(program, architecture, block_overhead)
    cs, ce = sched.compute_start, sched.compute_end
    # A load that starts the cycle another load on its channel ends
    # was serialized behind it (``_load_wait_cause``).
    serial_ends = {
        (k, end)
        for k, start, end in zip(sched.channel, sched.load_start, sched.load_end)
        if end > start
    }
    # Cycles per cause in the segments of units [0, u): index u.
    starved, contended, spans, overheads = [0], [0], [0], [0]
    lanes: dict[str, list[int]] = {}  # lane -> [busy, last unit, last end]
    prev_end = 0
    for u, (work, group) in enumerate(units):
        gap = cs[u] - prev_end
        serial = (sched.channel[u], sched.load_start[u]) in serial_ends
        starved.append(starved[-1] + (0 if serial else gap))
        contended.append(contended[-1] + (gap if serial else 0))
        spans.append(spans[-1] + work.compute_cycles)
        overheads.append(overheads[-1] + ce[u] - cs[u] - work.compute_cycles)
        prev_end = ce[u]
        for lane, busy, end in _unit_shape(group).psa:
            acc = lanes.setdefault(lane, [0, 0, 0])
            acc[0] += busy
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


# ------------------------------------------- watchpoints / flight recorder
_WATCHPOINT_KINDS = frozenset({"idle", "label", "bandwidth"})


@dataclass(frozen=True)
class Watchpoint:
    """One declarative ILA-style trigger over the event stream.

    * ``kind="idle"`` — fires when an engine matching the ``engine``
      regex starts an event after sitting idle ``>= threshold`` cycles.
    * ``kind="label"`` — fires on every event whose label matches the
      ``pattern`` regex (e.g. ``"MM4.*"``), on matching engines.
    * ``kind="bandwidth"`` — fires for every ``window``-cycle bucket in
      which a matching lane's busy fraction drops below ``threshold``
      (evaluated up to the lane's last event, so the drain tail does
      not trigger).
    """

    name: str
    kind: str
    engine: str = ""
    threshold: float = 0.0
    window: float = 0.0
    pattern: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _WATCHPOINT_KINDS:
            raise ValueError(
                f"unknown watchpoint kind '{self.kind}'; "
                f"expected one of {sorted(_WATCHPOINT_KINDS)}"
            )
        if self.kind == "idle" and self.threshold <= 0:
            raise ValueError("idle watchpoints need a positive threshold")
        if self.kind == "label" and not self.pattern:
            raise ValueError("label watchpoints need a pattern")
        if self.kind == "bandwidth":
            if not 0 < self.threshold <= 1:
                raise ValueError(
                    "bandwidth watchpoints need a busy-fraction threshold in (0, 1]"
                )
            if self.window <= 0:
                raise ValueError("bandwidth watchpoints need a positive window")


@dataclass(frozen=True)
class WatchpointHit:
    """One trigger firing, with its captured flight-recorder window."""

    watchpoint: str
    cycle: float
    engine: str
    detail: str
    window: tuple[TraceEvent, ...] = ()

    def as_dict(self) -> dict:
        return {
            "watchpoint": self.watchpoint,
            "cycle": self.cycle,
            "engine": self.engine,
            "detail": self.detail,
            "window": [
                {
                    "engine": e.engine,
                    "label": e.label,
                    "start": e.start,
                    "end": e.end,
                    "kind": e.kind,
                }
                for e in self.window
            ],
        }


class FlightRecorder:
    """Bounded ring buffer of the most recent trace events.

    The simulator equivalent of an ILA capture buffer: events are
    recorded in replay order and the oldest are dropped once
    ``capacity`` is reached, so a watchpoint hit can snapshot the
    surrounding context without holding the whole trace.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = capacity
        self.dropped = 0
        self._ring: deque[TraceEvent] = deque(maxlen=capacity)

    def record(self, event: TraceEvent) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)

    def snapshot(self) -> tuple[TraceEvent, ...]:
        return tuple(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


def run_watchpoints(
    timeline: Timeline,
    watchpoints: Iterable[Watchpoint],
    capacity: int = 64,
) -> list[WatchpointHit]:
    """Replay a timeline through the flight recorder and evaluate every
    watchpoint; returns the hits sorted by trigger cycle."""
    compiled = [
        (
            wp,
            re.compile(wp.engine) if wp.engine else None,
            re.compile(wp.pattern) if wp.pattern else None,
        )
        for wp in watchpoints
    ]
    events = sorted(timeline.events, key=lambda e: (e.start, e.end, e.engine))
    recorder = FlightRecorder(capacity)
    last_end: dict[str, float] = {}
    hits: list[WatchpointHit] = []
    for event in events:
        recorder.record(event)
        for wp, engine_re, pattern_re in compiled:
            if engine_re is not None and not engine_re.search(event.engine):
                continue
            if wp.kind == "idle":
                gap = event.start - last_end.get(event.engine, 0.0)
                if gap >= wp.threshold:
                    hits.append(
                        WatchpointHit(
                            wp.name,
                            event.start,
                            event.engine,
                            f"idle {gap:g} cycles before '{event.label}'",
                            recorder.snapshot(),
                        )
                    )
            elif wp.kind == "label" and pattern_re.search(event.label):
                hits.append(
                    WatchpointHit(
                        wp.name,
                        event.start,
                        event.engine,
                        f"op '{event.label}' matched /{wp.pattern}/",
                        recorder.snapshot(),
                    )
                )
        last_end[event.engine] = max(
            last_end.get(event.engine, 0.0), event.end
        )
    for wp, engine_re, _ in compiled:
        if wp.kind != "bandwidth":
            continue
        for engine in timeline.engines():
            if engine_re is not None and not engine_re.search(engine):
                continue
            ivs = timeline.busy_intervals(engine)
            if not ivs:
                continue
            lane_end = ivs[-1][1]
            t = 0.0
            while t < lane_end:
                t1 = min(t + wp.window, lane_end)
                busy = sum(
                    min(e, t1) - max(s, t) for s, e in ivs if e > t and s < t1
                )
                frac = busy / (t1 - t)
                if frac < wp.threshold:
                    nearby = tuple(
                        e
                        for e in events
                        if e.engine == engine
                        and e.start < t1 + wp.window
                        and e.end > t - wp.window
                    )[:capacity]
                    hits.append(
                        WatchpointHit(
                            wp.name,
                            t,
                            engine,
                            f"busy fraction {frac:.2f} < {wp.threshold:.2f} "
                            f"over [{t:g}, {t1:g})",
                            nearby,
                        )
                    )
                t = t1
    hits.sort(key=lambda h: (h.cycle, h.engine, h.watchpoint))
    return hits


def default_watchpoints(
    timeline: Timeline,
    idle_fraction: float = 0.05,
    bandwidth_floor: float = 0.25,
) -> list[Watchpoint]:
    """The stock trigger set of ``repro-asr inspect``: a PSA idle
    longer than ``idle_fraction`` of the makespan, and an HBM channel
    whose busy fraction drops below ``bandwidth_floor`` over an eighth
    of the makespan."""
    span = timeline.makespan
    if span <= 0:
        return []
    return [
        Watchpoint(
            "psa-idle",
            "idle",
            engine=r"\.psa",
            threshold=max(span * idle_fraction, 1.0),
        ),
        Watchpoint(
            "hbm-low-bw",
            "bandwidth",
            engine=r"^hbm",
            threshold=bandwidth_floor,
            window=max(span / 8.0, 1.0),
        ),
    ]


# --------------------------------------------------------- counter tracks
def utilization_counters(
    timeline: Timeline,
    bucket_cycles: float | None = None,
    engines: Sequence[str] | None = None,
    span: float | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Time-bucketed busy fraction per engine lane.

    Returns ``engine -> [(bucket_start_cycle, busy_fraction), ...]``
    covering [0, span).  ``bucket_cycles`` defaults to 1/64 of the
    span; ``span`` defaults to the timeline's makespan.  Passing an
    explicit ``span`` (and ``engines``) puts two different timelines on
    the same bucket grid — what the differential profiler needs to
    subtract one run's utilization from another's sample-for-sample.
    """
    span = timeline.makespan if span is None else float(span)
    if span <= 0:
        return {}
    if bucket_cycles is None:
        bucket_cycles = max(span / 64.0, 1.0)
    if bucket_cycles <= 0:
        raise ValueError("bucket_cycles must be positive")
    names = list(engines) if engines is not None else timeline.engines()
    out: dict[str, list[tuple[float, float]]] = {}
    for engine in names:
        ivs = timeline.busy_intervals(engine)
        samples: list[tuple[float, float]] = []
        t = 0.0
        while t < span:
            t1 = min(t + bucket_cycles, span)
            busy = sum(
                min(e, t1) - max(s, t) for s, e in ivs if e > t and s < t1
            )
            samples.append((t, busy / (t1 - t)))
            t = t1
        out[engine] = samples
    return out


def counter_tracks(
    timeline: Timeline, bucket_cycles: float | None = None
) -> dict[str, list[tuple[float, float]]]:
    """Perfetto-ready counter series: per-engine utilization tracks
    plus per-HBM-channel bandwidth tracks (busy fraction of the
    channel, i.e. attained/peak), time-bucketed over the makespan.
    Feed to :func:`repro.obs.export.chrome_trace` as ``counters``."""
    return {
        (
            f"bandwidth:{engine}"
            if engine.startswith("hbm")
            else f"utilization:{engine}"
        ): samples
        for engine, samples in utilization_counters(
            timeline, bucket_cycles
        ).items()
    }


# -------------------------------------------------------------- dashboard
def _bar(fraction: float, width: int) -> str:
    filled = int(round(max(0.0, min(fraction, 1.0)) * width))
    return "#" * filled + "." * (width - filled)


def render_stall_dashboard(
    report: StallReport,
    hits: Sequence[WatchpointHit] = (),
    width: int = 30,
    max_hits: int = 8,
) -> str:
    """Text dashboard: per-engine utilization bars with the per-cause
    stall account, aggregate cause totals, and watchpoint hits."""
    from repro.analysis.report import format_table

    lines = [
        f"stall attribution: {report.architecture}, "
        f"makespan {report.makespan:g} cycles",
        "",
    ]
    rows = []
    for name, bd in report.engines.items():
        rows.append(
            [
                name,
                f"|{_bar(bd.utilization, width)}|",
                f"{bd.utilization:6.1%}",
                *(f"{bd.stalls[c]:g}" for c in _WAIT_CAUSES),
                f"{bd.no_work_cycles:g}",
            ]
        )
    lines.append(
        format_table(
            ["engine", "utilization", "busy%", "load", "dep", "chan",
             "ovh", "no-work"],
            rows,
        )
    )
    totals = report.totals()
    lane_cycles = report.makespan * len(report.engines)
    lines.append("")
    lines.append("stall causes over all lanes:")
    for cause in STALL_CAUSES:
        frac = totals[cause] / lane_cycles if lane_cycles > 0 else 0.0
        lines.append(
            f"  {cause:<18} {totals[cause]:>12g} cycles  ({frac:.1%} of lane time)"
        )
    psa_dominant = report.dominant_cause(".psa")
    lines.append(
        "  PSA lanes dominated by: "
        + (psa_dominant if psa_dominant else "(no stalls — fully busy)")
    )
    lines.append("")
    if hits:
        lines.append(f"watchpoint hits ({len(hits)}):")
        for hit in list(hits)[:max_hits]:
            lines.append(
                f"  {hit.watchpoint:<12} @{hit.cycle:<10g} {hit.engine:<16} "
                f"{hit.detail}  [{len(hit.window)} events captured]"
            )
        if len(hits) > max_hits:
            lines.append(f"  ... {len(hits) - max_hits} more hits")
    else:
        lines.append("watchpoint hits: none")
    return "\n".join(lines)

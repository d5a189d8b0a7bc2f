"""Cycle-domain stall attribution and ILA-style introspection.

Real FPGA bring-up answers "why is this engine idle" with Integrated
Logic Analyzer cores and AXI performance monitors.  This module is the
simulator's equivalent: it turns the block schedule of
:mod:`repro.hw.scheduler` and the block shapes of
:mod:`repro.hw.program` into an exact, per-cause account of every idle
cycle — the causality behind Table 5.1 and Figs 4.8–4.11 (A1 stalls on
sequential weight loads, A2/A3 hide them behind prefetch).

Three pieces:

* **Device profile** — :func:`classify_stalls` builds one exact-integer
  :class:`repro.obs.diffprof.RunProfile` per (program, architecture,
  overhead) without a trace and memoizes it on the program.  It labels
  every idle cycle on every engine lane with one (cause, unit) leaf
  from the fixed taxonomy :data:`STALL_CAUSES`:

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

  The run profiles of :mod:`repro.obs.diffprof`, the PSA stall totals
  the optimizer passes read, the ``inspect`` dashboard and the
  telemetry probe's gauges are all views of it.

* **Watchpoints + flight recorder** — declarative ILA-style triggers
  (:class:`Watchpoint`) over the event stream of a traced
  :class:`repro.hw.trace.Timeline`: engine idle longer than a
  threshold, channel bandwidth below a floor over a window, op label
  matching a regex.  Each hit captures a bounded ring-buffer window of
  surrounding events (:class:`FlightRecorder`) for dump/export.

* **Counter tracks** — :func:`counter_tracks` time-buckets per-engine
  utilization and per-HBM-channel bandwidth into Perfetto counter
  series, merged into the Chrome-trace exporter by
  :func:`repro.obs.export.chrome_trace`.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from repro.hw.program import (
    BlockProgram,
    _unit_shape,
    _work_units,
    program_block_work,
    schedule_program,
)
from repro.hw.scheduler import Architecture, ScheduleResult
from repro.hw.trace import Timeline, TraceEvent
from repro.obs.diffprof import STALL_CAUSES, LaneProfile, RunProfile

__all__ = [
    "STALL_CAUSES",
    "StallInterval",
    "classify_stalls",
    "stall_intervals",
    "stall_summary",
    "Watchpoint",
    "WatchpointHit",
    "FlightRecorder",
    "run_watchpoints",
    "default_watchpoints",
    "utilization_counters",
    "counter_tracks",
    "render_stall_dashboard",
]

#: The causes that are genuine stalls (everything but the drain tail).
_WAIT_CAUSES = STALL_CAUSES[:-1]


@dataclass(frozen=True)
class StallInterval:
    """One labelled idle interval [start, end) on one engine lane, as
    the stall-annotated Gantt chart draws it (:func:`stall_intervals`).

    ``block`` names the work unit whose causal segment the interval
    fell in (a schedule label — one block under A3, a fused merge group
    under A1/A2).
    """

    engine: str
    start: float
    end: float
    cause: str
    block: str = ""

    @property
    def cycles(self) -> float:
        return self.end - self.start


# -------------------------------------------------------- device profile
def _causal_segments(
    sched: ScheduleResult, spans: Sequence[int]
) -> list[tuple[int, int, str, int]]:
    """Partition [0, last compute end) into causally-labelled segments.

    The block-schedule compute chain is strictly serial, so global time
    decomposes exactly into: per-unit op execution (``spans[u]`` cycles;
    idle lanes there wait on producers → ``dependency``), the host
    dispatch overhead serialized after each unit (``overhead``), and
    the exposed gaps before a unit starts, bound by its weight load.
    That load was serialized behind another load on its channel
    (``channel_contention``) when it started the cycle that load ended,
    and was simply slower than the compute it had to hide behind
    (``load_starved``) otherwise.  Each segment is ``(start, end,
    cause, unit index)``.
    """
    loads = list(zip(sched.channel, sched.load_start, sched.load_end))
    serial = {(k, end) for k, start, end in loads if end > start}
    segments: list[tuple[int, int, str, int]] = []
    prev_end = 0
    for u, (start, end, span) in enumerate(
        zip(sched.compute_start, sched.compute_end, spans)
    ):
        ops_end = start + span
        if start > prev_end:
            contended = loads[u][:2] in serial
            cause = "channel_contention" if contended else "load_starved"
            segments.append((prev_end, start, cause, u))
        if ops_end > start:
            segments.append((start, ops_end, "dependency", u))
        if end > ops_end:
            segments.append((ops_end, end, "overhead", u))
        prev_end = end
    return segments


def classify_stalls(
    program: BlockProgram,
    architecture: str = "A3",
    block_overhead: int | None = None,
) -> RunProfile:
    """The device profile: every idle cycle of every engine lane
    attributed to one (cause, unit) leaf, per engine exactly::

        busy + sum(stall causes) + no_work == makespan

    Built from the block schedule and the unit shapes alone, without a
    trace, once per architecture and overhead (memoized on the program;
    a meta-only copy with the same ``schedule_params`` shares it).  The
    lanes come in the order the trace executor first uses them: the
    HBM channels, then the engines and the host dispatch lane.  Treat
    the result as read-only.
    """
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    key = (Architecture(architecture), block_overhead)
    memo = program._profile_memo
    if key not in memo:
        memo[key] = _device_profile(program, *key)
    return memo[key]


def _device_profile(
    program: BlockProgram, arch: Architecture, block_overhead: int
) -> RunProfile:
    units = _work_units(program, arch)
    sched = schedule_program(program, arch, block_overhead)
    spans = [work.compute_cycles for work, _ in units]
    segments = _causal_segments(sched, spans)
    makespan, labels = sched.total_cycles, sched.labels

    # A unit's ops run inside its ``dependency`` segment and its host
    # dispatch fills its ``overhead`` segment, so an engine lane or the
    # host lane idles through every other segment that starts before
    # its last busy cycle: per cause, its leaves start as a prefix of
    # the segments'.
    starts: dict[str, list[int]] = {cause: [] for cause in _WAIT_CAUSES}
    leaves: dict[str, list[tuple[str, int]]] = {c: [] for c in _WAIT_CAUSES}
    for s0, s1, cause, u in segments:
        starts[cause].append(s0)
        leaves[cause].append((labels[u], s1 - s0))

    # Lanes whose last busy cycles fall between the same segments share
    # one prefix; the leaves are read-only.
    prefixes: dict[tuple[str, int], dict[str, int]] = {}

    def prefix(cause: str, lane_end: int) -> dict[str, int]:
        key = (cause, bisect_left(starts[cause], lane_end))
        if key not in prefixes:
            prefixes[key] = dict(leaves[cause][:key[1]])
        return prefixes[key]

    def account(busy: int, lane_end: int, own: dict) -> LaneProfile:
        stalls = {}
        for cause in _WAIT_CAUSES:
            blocks = own[cause] if cause in own else prefix(cause, lane_end)
            if blocks:
                stalls[cause] = blocks
        return LaneProfile(busy, stalls, makespan - lane_end)

    # The engine lanes, read per distinct unit shape (the copies of a
    # layer share one), in the order the trace first uses them.
    order = dict.fromkeys(f"hbm{k}" for k in sched.channel)
    shapes: dict[int, tuple] = {}
    host: list[int] = []
    for u, (_, group) in enumerate(units):
        shape = _unit_shape(group)
        if id(shape) not in shapes:
            shapes[id(shape)] = (shape, [])
            order.update(dict.fromkeys(name for name, _, _ in shape.lanes))
        shapes[id(shape)][1].append(u)
        if sched.compute_end[u] > sched.compute_start[u] + spans[u]:
            host.append(u)
            order.setdefault("host")
    engines: dict[str, list[tuple]] = {}
    for shape, us in shapes.values():
        unit_labels = [labels[u] for u in us]
        for name, busy, end in shape.lanes:
            engines.setdefault(name, []).append(
                (us, unit_labels, shape.span, busy, end)
            )

    def engine_lane(entries: list[tuple]) -> LaneProfile:
        # Idle through a unit's ops window but for its own busy cycles,
        # and in its last unit up to its last busy end.
        v, busy_v, end_v = max((us[-1], b, e) for us, _, _, b, e in entries)
        lane_end = sched.compute_start[v] + end_v
        window = dict(prefix("dependency", lane_end))
        for us, unit_labels, span, busy, _ in entries:
            before = unit_labels[:bisect_left(us, v)]
            if span > busy:
                window.update(dict.fromkeys(before, span - busy))
            else:
                for label in before:
                    del window[label]
        if end_v > busy_v:
            window[labels[v]] = end_v - busy_v
        else:
            del window[labels[v]]
        busy = sum(busy * len(us) for us, _, _, busy, _ in entries)
        return account(busy, lane_end, {"dependency": window})

    lanes: dict[str, LaneProfile] = {}
    # Lanes that work alike in the same units (the heads' PSAs) share
    # one account.
    alike: dict[tuple, LaneProfile] = {}
    for name in order:
        if name.startswith("hbm"):
            busy, stalls, lane_end = _hbm_lane(sched, int(name[3:]), segments)
            lanes[name] = LaneProfile(busy, stalls, makespan - lane_end)
        elif name == "host":
            # Busy through every overhead segment, idle through the rest.
            busy = sum(
                sched.compute_end[u] - sched.compute_start[u] - spans[u]
                for u in host
            )
            lanes[name] = account(
                busy, sched.compute_end[host[-1]], {"overhead": {}}
            )
        else:
            key = tuple([(id(us), b, e) for us, _, _, b, e in engines[name]])
            if key not in alike:
                alike[key] = engine_lane(engines[name])
            lanes[name] = alike[key]

    channel_bytes: dict[int, int] = {}
    for (_, group), k in zip(units, sched.channel):
        channel_bytes[k] = channel_bytes.get(k, 0) + sum(
            blk.load_bytes for blk in group
        )
    return RunProfile(
        label=arch.value,
        architecture=arch.value,
        makespan=makespan,
        lanes=lanes,
        block_work={
            work.label: {"load": work.load_cycles, "compute": work.compute_cycles}
            for work, _ in units
        },
        channel_bytes={str(k): n for k, n in sorted(channel_bytes.items())},
        meta={
            "s": program.meta.get("s"),
            "blocks": len(program.blocks),
            "ops": program.num_ops,
            "block_overhead": block_overhead,
        },
    )


def _hbm_lane(
    sched: ScheduleResult, channel: int, segments: list[tuple[int, int, str, int]]
) -> tuple[int, dict[str, dict[str, int]], int]:
    """One HBM channel's busy cycles, stall leaves and last busy end:
    the idle gaps between its loads in the schedule, cut at the causal
    segments.  A channel's loads run in unit order."""
    busy = cursor = first = 0
    stalls: dict[str, dict[str, int]] = {}
    for k, start, end in zip(sched.channel, sched.load_start, sched.load_end):
        if k != channel or end == start:
            continue
        busy += end - start
        if start > cursor:
            # The segments tile [0, makespan) in order, so one that
            # ends before this gap misses every later gap too.
            while segments[first][1] <= cursor:
                first += 1
            for s0, s1, cause, u in islice(segments, first, None):
                if s0 >= start:
                    break
                blocks = stalls.setdefault(cause, {})
                label = sched.labels[u]
                blocks[label] = (
                    blocks.get(label, 0) + min(s1, start) - max(s0, cursor)
                )
        cursor = end
    return busy, stalls, cursor


def stall_intervals(
    timeline: Timeline,
    program: BlockProgram,
    architecture: str = "A3",
    block_overhead: int | None = None,
) -> list[StallInterval]:
    """The idle gaps of a traced program's lanes cut at the causal
    segments of its block schedule, each labelled with its cause and
    unit: where the stall-annotated Gantt chart draws its markers.
    (Cycle totals come from :func:`classify_stalls`.)"""
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    sched = schedule_program(program, architecture, block_overhead)
    spans = [work.compute_cycles for work in program_block_work(program, architecture)]
    segments = _causal_segments(sched, spans)
    out: list[StallInterval] = []
    for engine in timeline.engines():
        first = 0
        for g0, g1 in timeline.idle_gaps(engine):
            while first < len(segments) and segments[first][1] <= g0:
                first += 1
            for s0, s1, cause, u in islice(segments, first, None):
                if s0 >= g1:
                    break
                lo, hi = max(g0, s0), min(g1, s1)
                out.append(StallInterval(engine, lo, hi, cause, sched.labels[u]))
    return out


def stall_summary(profile: RunProfile) -> dict:
    """JSON-ready per-engine stall account of a device profile (the
    ``repro-asr inspect --json`` payload)."""
    makespan = profile.makespan
    return {
        "architecture": profile.architecture,
        "makespan_cycles": float(makespan),
        "totals": profile.totals(),
        "psa_totals": profile.totals(".psa"),
        "engines": {
            name: {
                "busy_cycles": float(lane.busy),
                "utilization": lane.busy / makespan if makespan > 0 else 0.0,
                "stalls": {c: float(lane.stall_cycles(c)) for c in _WAIT_CAUSES},
                "no_work_cycles": float(lane.no_work),
            }
            for name, lane in profile.lanes.items()
        },
    }


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
            samples = utilization_counters(
                timeline, wp.window, [engine], span=lane_end
            )[engine]
            for t, frac in samples:
                if frac >= wp.threshold:
                    continue
                t1 = min(t + wp.window, lane_end)
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
    profile: RunProfile,
    hits: Sequence[WatchpointHit] = (),
    width: int = 30,
    max_hits: int = 8,
) -> str:
    """Text dashboard of a device profile: per-engine utilization bars
    with the per-cause stall account, aggregate cause totals, and
    watchpoint hits."""
    from repro.analysis.report import format_table

    makespan = profile.makespan
    lines = [
        f"stall attribution: {profile.architecture}, "
        f"makespan {makespan:g} cycles",
        "",
    ]
    rows = []
    for name, lane in profile.lanes.items():
        utilization = lane.busy / makespan if makespan > 0 else 0.0
        rows.append(
            [
                name,
                f"|{_bar(utilization, width)}|",
                f"{utilization:6.1%}",
                *(f"{lane.stall_cycles(c):g}" for c in _WAIT_CAUSES),
                f"{lane.no_work:g}",
            ]
        )
    lines.append(
        format_table(
            ["engine", "utilization", "busy%", "load", "dep", "chan",
             "ovh", "no-work"],
            rows,
        )
    )
    totals = profile.totals()
    lane_cycles = makespan * len(profile.lanes)
    lines.append("")
    lines.append("stall causes over all lanes:")
    for cause in STALL_CAUSES:
        frac = totals[cause] / lane_cycles if lane_cycles > 0 else 0.0
        lines.append(
            f"  {cause:<18} {totals[cause]:>12g} cycles  ({frac:.1%} of lane time)"
        )
    psa_dominant = profile.dominant_cause(".psa")
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

"""Virtual-time request lifecycle tracing and time-series telemetry.

The serving scheduler (:mod:`repro.serving.scheduler`) runs on an
integer fabric-cycle clock, not host wall-clock, so the span tracer of
:mod:`repro.obs.spans` cannot see inside a simulated run.  This module
is the virtual-clock twin: the scheduler emits typed lifecycle events
(:data:`EVENT_KINDS`) into a :class:`VTraceRecorder` and samples gauges
into a :class:`VSampler` at a fixed cycle cadence.

This is the one module that reads the event schema.  Its fold,
:func:`serving_log`, walks the stream once in virtual-time order into a
:class:`ServingLog` — per request its tenant, phases, queue cycles,
preemptions, replay cycles, completion and K/V residency intervals;
the device passes with their members; the completion order — and every
reader reads the log: the per-request Perfetto tracks
(:func:`request_track_events`, over :func:`request_phases` and
:func:`request_lane_tids`) that merge into
:func:`repro.obs.export.chrome_trace` next to the device lanes of
:func:`device_timeline`, the cost flow arrows
(:func:`repro.obs.costs.cost_flow_events`), the cost ledger
(:func:`repro.serving.accounting.build_cost_ledger`) and the SLO report
(:func:`repro.serving.slo.evaluate_slo`).  The JSONL event log
(:func:`vtrace_jsonl_lines`) and the request tracks' instant markers
copy the events themselves; every timestamp is an integer cycle, so
same-seed runs export byte-identical files.

Clock-domain mapping: one fabric cycle at ``clock_mhz`` MHz is
``1 / clock_mhz`` microseconds, the same scale the device lanes use —
request tracks, counter series and engine lanes land on one time axis.

Like the metrics registry and span tracer, the disabled defaults
(:data:`NULL_VTRACE`, :data:`NULL_SAMPLER`) are shared no-ops: an
uninstrumented serving run pays one ``enabled`` attribute check per
hook and stays bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.hw.trace import Timeline

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "EVENT_KINDS",
    "VEvent",
    "VTraceRecorder",
    "NullVTraceRecorder",
    "NULL_VTRACE",
    "TimeSeries",
    "VSampler",
    "NullVSampler",
    "NULL_SAMPLER",
    "rate_series",
    "ServingLog",
    "serving_log",
    "request_phases",
    "request_lane_tids",
    "request_track_events",
    "device_timeline",
    "vtrace_jsonl_lines",
]

#: Version of the event schema below.  Bump on any change to event
#: kinds or their attribute contracts; the JSONL header carries it.
#:
#: Migration v1 -> v2: events gained an optional top-level ``tenant``
#: field (the owning tenant of per-request events, for cost
#: attribution), and ``decode_iter`` attrs gained ``request_ids`` /
#: ``tenants`` lists naming the batch members that shared the
#: iteration.  Both are additive: a v1 log is a valid v2 log with no
#: tenant information (``tenant`` absent means unknown; producers
#: default requests to tenant 0), and v1 readers that ignore unknown
#: fields parse v2 logs unchanged.
EVENT_SCHEMA_VERSION = 2

#: The typed lifecycle event taxonomy, in rough lifecycle order.
#:
#: - ``arrive``        — request entered the system (cycle = its true
#:   arrival instant, ``ceil(arrival_s * clock_hz)``).
#: - ``queue_wait``    — admission granted; ``wait_cycles`` attr holds
#:   the time spent queued since arrival (or since preemption).
#: - ``admit``         — worst-case K/V reservation taken.
#: - ``prefill_start`` / ``prefill_end`` — the encoder prefill pass
#:   (re-runs after preemption carry ``replay=True``).
#: - ``decode_iter``   — one continuous-batching decode iteration;
#:   attrs carry ``batch``, ``prefix_lengths`` and ``cycles``.
#: - ``preempt``       — an in-flight request was evicted (rewind).
#: - ``replay``        — one member replayed a previously-decoded step
#:   inside a decode iteration; emitted right after that iteration's
#:   ``decode_iter``.
#: - ``complete``      — last token decoded; attrs carry the latency
#:   account.
#: - ``reject``        — admission-control rejection (a request whose
#:   worst-case cache can never fit the budget, with
#:   ``ServingConfig.reject_oversized``).
#: - ``slo_alert``     — multi-window burn-rate alert from the SLO
#:   monitor (:mod:`repro.serving.slo`), carried in the trace.
EVENT_KINDS = (
    "arrive",
    "queue_wait",
    "admit",
    "prefill_start",
    "prefill_end",
    "decode_iter",
    "preempt",
    "replay",
    "complete",
    "reject",
    "slo_alert",
)

_EVENT_KIND_SET = frozenset(EVENT_KINDS)


@dataclass(frozen=True)
class VEvent:
    """One typed lifecycle event on the integer-cycle clock."""

    cycle: int
    kind: str
    request_id: int | None = None
    #: Owning tenant of a per-request event (``None`` when unknown or
    #: not applicable, e.g. ``decode_iter`` / ``slo_alert``).
    tenant: int | None = None
    attrs: dict = field(default_factory=dict)


class VTraceRecorder:
    """Collects :class:`VEvent` records in emission order.

    Emission order is deterministic (the scheduler is a deterministic
    event loop), so the recorded list — and every export derived from
    it — is bit-identical across runs with the same seed.
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[VEvent] = []

    def emit(
        self,
        kind: str,
        cycle: int,
        request_id: int | None = None,
        tenant: int | None = None,
        **attrs: object,
    ) -> None:
        """Record one event; ``kind`` must come from :data:`EVENT_KINDS`."""
        if kind not in _EVENT_KIND_SET:
            raise ValueError(
                f"unknown vtrace event kind '{kind}'; "
                f"expected one of {EVENT_KINDS}"
            )
        if cycle < 0:
            raise ValueError(f"event cycle must be non-negative, got {cycle}")
        self._events.append(
            VEvent(int(cycle), kind, request_id, tenant, dict(attrs))
        )

    @property
    def events(self) -> list[VEvent]:
        return list(self._events)

    def counts(self) -> dict[str, int]:
        """Events per kind (only kinds that occurred)."""
        out: dict[str, int] = {}
        for ev in self._events:
            out[ev.kind] = out.get(ev.kind, 0) + 1
        return out


class NullVTraceRecorder(VTraceRecorder):
    """The disabled default: one attribute check, no state."""

    enabled = False

    def emit(self, kind, cycle, request_id=None, tenant=None, **attrs):  # type: ignore[override]
        pass


NULL_VTRACE = NullVTraceRecorder()


# ----------------------------------------------------------- time series
class TimeSeries:
    """A ring-buffered series of ``(cycle, value)`` samples.

    Bounded so a long simulation cannot grow telemetry without limit;
    ``dropped`` counts evicted samples so exporters can flag
    truncation instead of silently presenting a partial series.
    """

    __slots__ = ("name", "capacity", "dropped", "_samples")

    def __init__(self, name: str, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("time-series capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.dropped = 0
        self._samples: list[tuple[int, float]] = []

    def append(self, cycle: int, value: float) -> None:
        if len(self._samples) == self.capacity:
            self._samples.pop(0)
            self.dropped += 1
        self._samples.append((int(cycle), float(value)))

    @property
    def samples(self) -> list[tuple[int, float]]:
        return list(self._samples)

    def __len__(self) -> int:
        return len(self._samples)


class VSampler:
    """Samples named gauges into ring-buffered series at a fixed
    cycle cadence.

    The scheduler offers a sample at every event-loop turn; the sampler
    records one per ``cadence_cycles``-aligned bucket (the first turn
    at or past the bucket boundary wins), so the series cadence is
    deterministic regardless of how unevenly virtual time advances.
    """

    enabled = True

    def __init__(self, cadence_cycles: int = 50_000, capacity: int = 4096) -> None:
        if cadence_cycles < 1:
            raise ValueError("cadence_cycles must be >= 1")
        self.cadence_cycles = int(cadence_cycles)
        self.capacity = int(capacity)
        self._series: dict[str, TimeSeries] = {}
        self._next_due = 0

    def sample(self, cycle: int, values: dict) -> bool:
        """Offer one sample set; records and returns True when due."""
        if cycle < self._next_due:
            return False
        for name, value in values.items():
            series = self._series.get(name)
            if series is None:
                series = self._series[name] = TimeSeries(name, self.capacity)
            series.append(cycle, float(value))
        self._next_due = (cycle // self.cadence_cycles + 1) * self.cadence_cycles
        return True

    def series(self) -> dict[str, TimeSeries]:
        return dict(self._series)

    def get(self, name: str) -> TimeSeries | None:
        return self._series.get(name)

    def counter_tracks(self, prefix: str = "serving") -> dict[str, list[tuple[int, float]]]:
        """Perfetto-ready counter series (feed to
        :func:`repro.obs.export.chrome_trace` as ``counters``)."""
        return {
            f"{prefix}:{name}": ts.samples
            for name, ts in sorted(self._series.items())
        }


class NullVSampler(VSampler):
    """The disabled default: one attribute check, no state."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def sample(self, cycle, values):  # type: ignore[override]
        return False


NULL_SAMPLER = NullVSampler()


def rate_series(series: TimeSeries) -> list[tuple[int, float]]:
    """Per-cycle rate between consecutive samples of a *cumulative*
    series (e.g. cumulative prefill cycles -> prefill busy fraction).

    Each output point ``(cycle, rate)`` covers the window starting at
    ``cycle`` and ending at the next sample.  Degenerate inputs yield
    no windows rather than failing: an empty or single-sample series
    returns ``[]``, and a sample at the *same* cycle as its
    predecessor is folded into the next window (the later value wins
    as the window's endpoint — a zero-width window has no defined
    rate, so none is emitted).
    """
    out: list[tuple[int, float]] = []
    prev: tuple[int, float] | None = None
    for cycle, value in series.samples:
        if prev is not None and cycle > prev[0]:
            out.append((prev[0], (value - prev[1]) / (cycle - prev[0])))
        prev = (cycle, value)
    return out


# ------------------------------------------------------ the serving log
#: Lifecycle phase names a request lane can be in.
PHASE_NAMES = ("queued", "prefill", "decode", "preempted", "rejected")

#: Event kinds that end a request's open phase -> the phase they open.
_PHASE_OPENED = {"arrive": "queued", "prefill_start": "prefill",
                 "prefill_end": "decode", "preempt": "preempted",
                 "complete": None, "reject": None}

#: Attrs the log's readers need, per event kind.  An event lacking one
#: still folds (with a zero or empty default), and the gap is noted in
#: :attr:`ServingLog.missing` for the readers that cannot use defaults.
_NEEDED_ATTRS = {
    "queue_wait": ("wait_cycles",),
    "prefill_start": ("cycles",),
    "decode_iter": ("cycles", "prefix_lengths", "request_ids"),
    "complete": ("e2e_ms",),
}


@dataclass
class DevicePass:
    """One device pass: a request's prefill, or one decode iteration
    shared by its batch members."""

    kind: str  # "prefill" | "decode"
    cycle: int
    cycles: int
    members: tuple[int, ...]
    #: Each member's rows banked by the end of the iteration.
    prefix_lengths: tuple[int, ...] = ()
    #: Members whose work here redoes progress lost to preemption: a
    #: re-prefill, or a replayed decode step.
    replays: set[int] = field(default_factory=set)

    @property
    def lane(self) -> str:
        """The device lane this pass renders on."""
        return f"device.{self.kind}"


@dataclass
class RequestLog:
    """Everything the event log says about one request."""

    #: ``(position, kind)`` of the first event naming the request.
    first_event: tuple[int, str]
    tenant: int | None = None
    #: ``[(phase, start_cycle, end_cycle), ...]``, see :data:`PHASE_NAMES`.
    phases: list[tuple[str, int, int]] = field(default_factory=list)
    #: Admission-pool waiting, summed over the ``queue_wait`` events.
    queue_cycles: int = 0
    preemptions: int = 0
    #: Cycles of the whole decode iterations it spent replaying.
    replay_cycles: int = 0
    complete_cycle: int | None = None
    e2e_ms: float | None = None
    rejected: bool = False
    #: K/V residency ``(rows, start, end)``: opened at admission with no
    #: rows, re-opened at each decode iteration, closed at preemption or
    #: completion.
    residency: list[tuple[int, int, int]] = field(default_factory=list)


@dataclass
class ServingLog:
    """One fold over a serving event stream (:func:`serving_log`)."""

    requests: dict[int, RequestLog] = field(default_factory=dict)
    #: Device passes in virtual-time order.
    passes: list[DevicePass] = field(default_factory=list)
    #: Request ids in completion order.
    completions: list[int] = field(default_factory=list)
    #: ``(position, kind, attr)`` of every needed attr an event lacked.
    missing: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def lane_tids(self) -> dict[int, int]:
        """Each request's pid-3 lane id: sorted ids, numbered from 1."""
        return {rid: tid for tid, rid in enumerate(sorted(self.requests), start=1)}


def _sorted_events(events: list[VEvent]) -> list[tuple[int, VEvent]]:
    """``(emission index, event)`` pairs in (cycle, index) order."""
    return sorted(enumerate(events), key=lambda t: (t[1].cycle, t[0]))


def serving_log(events: list[VEvent]) -> ServingLog:
    """Fold the event stream, in virtual-time order, into one
    :class:`ServingLog` (module docstring).  A ``replay`` event belongs
    to the decode iteration emitted just before it.  A phase or
    residency interval still open when the stream ends closes at the
    last observed cycle.
    """
    log = ServingLog()
    open_phase: dict[int, tuple[str, int]] = {}
    holding: dict[int, tuple[int, int]] = {}  # rid -> (rows, since)
    last_decode: DevicePass | None = None
    last_cycle = 0

    def close_phase(rid: int, cycle: int) -> None:
        started = open_phase.pop(rid, None)
        if started is not None:
            log.requests[rid].phases.append((*started, cycle))

    def release(rid: int, cycle: int) -> None:
        held = holding.pop(rid, None)
        if held is not None:
            log.requests[rid].residency.append((*held, cycle))

    def hold(rid: int, rows: int, cycle: int) -> None:
        release(rid, cycle)
        holding[rid] = (rows, cycle)

    for pos, ev in _sorted_events(events):
        cycle, kind, attrs = ev.cycle, ev.kind, ev.attrs
        last_cycle = cycle
        for attr in _NEEDED_ATTRS.get(kind, ()):
            if attr not in attrs:
                log.missing.append((pos, kind, attr))
        if kind == "decode_iter":
            members = tuple(attrs.get("request_ids", ()))
            lengths = tuple(int(t) for t in attrs.get("prefix_lengths", ()))
            last_decode = DevicePass(
                "decode", cycle, int(attrs.get("cycles", 0)), members, lengths
            )
            log.passes.append(last_decode)
            for rid, rows in zip(members, lengths):
                log.requests.setdefault(rid, RequestLog((pos, kind)))
                hold(rid, rows, cycle)
            continue
        rid = ev.request_id
        if rid is None:
            continue
        req = log.requests.setdefault(rid, RequestLog((pos, kind)))
        if ev.tenant is not None:
            req.tenant = ev.tenant
        if kind in _PHASE_OPENED:
            close_phase(rid, cycle)
            if _PHASE_OPENED[kind]:
                open_phase[rid] = (_PHASE_OPENED[kind], cycle)
        if kind == "queue_wait":
            req.queue_cycles += int(attrs.get("wait_cycles", 0))
        elif kind == "admit":
            hold(rid, 0, cycle)
        elif kind == "prefill_start":
            log.passes.append(DevicePass(
                "prefill", cycle, int(attrs.get("cycles", 0)), (rid,),
                replays={rid} if attrs.get("replay") else set(),
            ))
        elif kind == "replay":
            if last_decode is not None:
                last_decode.replays.add(rid)
                req.replay_cycles += last_decode.cycles
        elif kind == "preempt":
            req.preemptions += 1
            release(rid, cycle)
        elif kind == "complete":
            release(rid, cycle)
            req.complete_cycle = cycle
            req.e2e_ms = attrs.get("e2e_ms")
            log.completions.append(rid)
        elif kind == "reject":
            req.phases.append(("rejected", cycle, cycle))
            req.rejected = True
    for rid in sorted(open_phase):
        close_phase(rid, last_cycle)
    for rid in sorted(holding):
        release(rid, last_cycle)
    return log


def request_phases(events: list[VEvent]) -> dict[int, list[tuple[str, int, int]]]:
    """Per-request lifecycle phases, ``request_id -> [(phase,
    start_cycle, end_cycle), ...]`` with phases from
    :data:`PHASE_NAMES`: ``queued`` (arrival or post-preemption wait to
    prefill start), ``prefill``, ``decode``, ``preempted`` (eviction to
    readmission prefill) and ``rejected`` (zero-length marker).  A view
    of :func:`serving_log`.
    """
    return {
        rid: req.phases
        for rid, req in serving_log(events).requests.items()
        if req.phases
    }


# ----------------------------------------------------- Perfetto export
#: Process id of the serving-request lanes in the merged Chrome trace
#: (1 = simulated accelerator, 2 = measured host — see obs.export).
REQUEST_PID = 3

#: Instant-marker kinds rendered on the request lanes.
_INSTANT_KINDS = frozenset({"arrive", "preempt", "complete", "reject"})


def request_lane_tids(events: list[VEvent]) -> dict[int, int]:
    """The pid-3 lane (thread) id of every request seen in the stream
    (:attr:`ServingLog.lane_tids`).  One source of truth shared by
    :func:`request_track_events` and the cost flow events
    (:func:`repro.obs.costs.cost_flow_events`), so cross-layer arrows
    always bind to the right lane."""
    return serving_log(events).lane_tids


def request_track_events(
    events: list[VEvent], clock_mhz: float = 300.0
) -> list[dict]:
    """Chrome-trace events: one lane per request, lifecycle phases as
    duration slices plus instant markers, all scaled cycles -> µs.

    Feed the result to :func:`repro.obs.export.chrome_trace` as
    ``extra_events`` so the request lanes merge with the device lanes
    (same ``clock_mhz``, hence the same time axis).  ``slo_alert``
    events land on a dedicated ``slo`` lane.
    """
    if clock_mhz <= 0:
        raise ValueError("clock_mhz must be positive")
    scale = 1.0 / clock_mhz
    log = serving_log(events)
    tid_of = log.lane_tids
    alert_tid = len(tid_of) + 1

    def meta(name: str, args: dict, **tid: int) -> dict:
        return {"ph": "M", "pid": REQUEST_PID, **tid, "name": name, "args": args}

    def instant(name: str, tid: int, cycle: int, args: dict) -> dict:
        return {"name": name, "cat": "serving", "ph": "i", "s": "t",
                "pid": REQUEST_PID, "tid": tid, "ts": cycle * scale,
                "args": args}

    out = [meta("process_name", {"name": "serving requests (virtual)"})]
    for rid, tid in tid_of.items():
        lane = f"req {rid}"
        tenant = log.requests[rid].tenant
        if tenant is not None:
            lane += f" (tenant {tenant})"
        out.append(meta("thread_name", {"name": lane}, tid=tid))
        out.append(meta("thread_sort_index", {"sort_index": tid}, tid=tid))
    for rid, tid in tid_of.items():
        for phase, start, end in log.requests[rid].phases:
            if end <= start:
                continue
            out.append(
                {
                    "name": phase,
                    "cat": "serving",
                    "ph": "X",
                    "pid": REQUEST_PID,
                    "tid": tid,
                    "ts": start * scale,
                    "dur": (end - start) * scale,
                    "args": {"request_id": rid, "cycles": end - start},
                }
            )
    have_alerts = False
    for _, ev in _sorted_events(events):
        if ev.kind == "slo_alert":
            have_alerts = True
            out.append(instant("slo_alert", alert_tid, ev.cycle, dict(ev.attrs)))
        elif ev.kind in _INSTANT_KINDS and ev.request_id is not None:
            args = {"request_id": ev.request_id, **ev.attrs}
            out.append(instant(ev.kind, tid_of[ev.request_id], ev.cycle, args))
    if have_alerts:
        out.append(meta("thread_name", {"name": "slo alerts"}, tid=alert_tid))
    return out


def device_timeline(events: list[VEvent]) -> Timeline:
    """The device passes of :func:`serving_log` as a
    :class:`~repro.hw.trace.Timeline`: a ``device.prefill`` lane with
    one interval per prefill pass and a ``device.decode`` lane with one
    interval per decode iteration.  Renders through the existing
    accelerator process of :func:`repro.obs.export.chrome_trace`, so
    device lanes and request lanes share one clock.
    """
    timeline = Timeline()
    for p in serving_log(events).passes:
        if p.kind == "prefill":
            label = f"prefill:r{p.members[0]}"
            if p.replays:
                label += " (re-prefill)"
        else:
            label = f"decode[b{len(p.members)}]"
        timeline.add(p.lane, label, p.cycle, p.cycle + p.cycles, kind="compute")
    return timeline


# ------------------------------------------------------------ JSONL log
def vtrace_jsonl_lines(
    events: list[VEvent], metadata: dict | None = None
) -> list[str]:
    """The schema-versioned JSONL event log: one header line, then one
    line per event in emission order.

    Every field is an integer cycle, a string or a JSON scalar from the
    event attrs — no wall-clock, no floats derived from host state — so
    two runs with the same seed produce byte-identical logs.
    """
    header: dict = {
        "type": "vtrace_header",
        "schema": EVENT_SCHEMA_VERSION,
        "events": len(events),
        "clock_domain": "fabric_cycles",
    }
    if metadata:
        header["metadata"] = metadata
    lines = [json.dumps(header, sort_keys=True)]
    for ev in events:
        record: dict = {"type": "vtrace_event", "cycle": ev.cycle, "kind": ev.kind}
        if ev.request_id is not None:
            record["request_id"] = ev.request_id
        if ev.tenant is not None:
            record["tenant"] = ev.tenant
        if ev.attrs:
            record["attrs"] = ev.attrs
        lines.append(json.dumps(record, sort_keys=True))
    return lines

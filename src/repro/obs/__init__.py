"""Unified telemetry for the simulator stack.

Three dependency-free pieces:

* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` of counters,
  gauges and histograms with stable dotted names (schema in
  :data:`METRIC_HELP` and docs/ARCHITECTURE.md §7).
* :mod:`repro.obs.spans` — a :class:`Tracer` of nested wall-clock
  spans over the host pipeline.
* :mod:`repro.obs.export` — Prometheus text exposition, JSONL event
  log, and Chrome-trace JSON (Perfetto) built from metrics, spans and
  the trace executor's :class:`repro.hw.trace.Timeline`.

Telemetry is **off by default**: the process-wide registry and tracer
are shared no-ops, so the instrumented layers (asr, hw, decoding) pay
a couple of attribute lookups and nothing else — pinned paper numbers
are unaffected.  Turn it on for a bounded scope with::

    from repro import obs

    with obs.telemetry() as session:
        pipeline.transcribe(waveform)
    print(obs.export.prometheus_text(session.metrics))

``repro-asr profile`` wraps exactly this around one utterance and dumps
chrome-trace + Prometheus + JSONL artifacts.

Every public name resolves from its defining module on first access
(:func:`repro._lazy.lazy_names`), so ``from repro.obs import metrics``
loads the registry alone.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro._lazy import lazy_names
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.spans import Tracer, set_tracer

_EXPORTS = {
    "repro.obs.export": (
        "export", "ACCEL_PID", "HOST_PID", "chrome_trace", "chrome_trace_json",
        "engine_lane_tids", "jsonl_lines", "prometheus_text",
    ),
    "repro.obs.costs": (
        "CostLedger", "RequestCost", "TenantCost", "cost_flow_events", "jain_index",
        "largest_remainder_split",
    ),
    "repro.obs.metrics": (
        "DEFAULT_BUCKETS", "METRIC_HELP", "NULL_REGISTRY", "Counter", "Gauge",
        "Histogram", "MetricsRegistry", "NullRegistry", "enabled", "registry",
        "set_registry",
    ),
    "repro.obs.diffprof": (
        "PROFILE_SCHEMA", "DeltaLeaf", "DeltaWaterfall", "LaneDelta", "LaneProfile",
        "RunProfile", "delta_counter_tracks", "diff_profiles", "diff_tenant_costs",
        "load_profile", "profile_run", "render_waterfall",
    ),
    "repro.obs.probe": ("record_program_metrics",),
    "repro.obs.spans": (
        "NULL_TRACER", "NullTracer", "Span", "SpanRecord", "Tracer", "set_tracer",
        "tracer",
    ),
    "repro.obs.vtrace": (
        "EVENT_KINDS", "EVENT_SCHEMA_VERSION", "NULL_SAMPLER", "NULL_VTRACE",
        "NullVSampler", "NullVTraceRecorder", "TimeSeries", "VEvent", "VSampler",
        "VTraceRecorder", "device_timeline", "rate_series", "request_lane_tids",
        "request_phases", "request_track_events", "vtrace_jsonl_lines",
    ),
}

__all__, __getattr__, __dir__ = lazy_names(__name__, _EXPORTS)
__all__ += ["TelemetrySession", "telemetry"]


@dataclass(frozen=True)
class TelemetrySession:
    """Handle yielded by :func:`telemetry`: the live registry + tracer."""

    metrics: MetricsRegistry
    spans: Tracer


@contextmanager
def telemetry(
    metrics: MetricsRegistry | None = None,
    spans: Tracer | None = None,
) -> Iterator[TelemetrySession]:
    """Install a live registry and tracer for the ``with`` body, then
    restore whatever was active before (the no-op defaults, usually)."""
    reg = metrics if metrics is not None else MetricsRegistry()
    tr = spans if spans is not None else Tracer()
    prev_reg = set_registry(reg)
    prev_tr = set_tracer(tr)
    try:
        yield TelemetrySession(metrics=reg, spans=tr)
    finally:
        set_registry(prev_reg)
        set_tracer(prev_tr)

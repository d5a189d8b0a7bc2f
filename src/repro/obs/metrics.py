"""Dependency-free metrics: counters, gauges and histograms with
stable dotted names.

The registry is the single sink every instrumented layer writes to.
By default the process-wide registry is a :class:`NullRegistry` whose
instruments are shared no-ops, so instrumentation costs a couple of
attribute lookups per call site when telemetry is off — the pinned
paper numbers and the simulator benchmarks see no change.  A real
:class:`MetricsRegistry` is installed for the duration of a profiling
run via :func:`set_registry` (or the :func:`repro.obs.telemetry`
session context manager).

Naming schema (documented in ``docs/ARCHITECTURE.md`` §7): dotted
lowercase names, ``repro.<layer>.<quantity>[_<unit>]``, with dynamic
dimensions (engine lane, HBM channel, op kind) carried as labels, never
embedded in the name.  :data:`METRIC_HELP` is the authoritative list —
the exporter takes HELP strings from it and the tier-1 schema test pins
its keys.
"""

from __future__ import annotations

import bisect
import math
import re
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "METRIC_HELP",
    "DEFAULT_BUCKETS",
    "registry",
    "set_registry",
    "enabled",
]

#: Dotted lowercase metric names: ``repro.hw.hbm.bytes`` etc.
_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)*$")

#: Histogram bucket upper bounds, tuned for millisecond-scale latencies
#: (+Inf is implicit).
DEFAULT_BUCKETS = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)

#: The exported metric-name schema: every instrument the repo emits.
#: Keep in sync with docs/ARCHITECTURE.md §7; tests pin these keys.
METRIC_HELP = {
    # ---- ASR pipeline (repro.asr.*, plus the headline repro.e2e_ms)
    "repro.e2e_ms": "Modeled end-to-end latency per utterance (host + prefill + decode), ms",
    "repro.asr.utterances": "Utterances transcribed",
    "repro.asr.tokens": "Output tokens emitted",
    "repro.asr.decode_steps": "Modeled autoregressive decode steps",
    "repro.asr.host_ms": "Modeled host preprocessing latency of the last utterance, ms",
    "repro.asr.host_measured_ms": "Measured wall-clock host preprocessing time, ms",
    "repro.asr.accel_ms": "Modeled single-shot accelerator (prefill) latency, ms",
    "repro.asr.decode_ms": "Modeled autoregressive decode latency, ms",
    "repro.asr.rtf": "Real-time factor: modeled processing time / audio time",
    "repro.asr.frames_per_s": "Hardware frames processed per modeled second",
    "repro.asr.throughput_seq_per_s": "Accelerator sequences per second",
    "repro.asr.streaming.chunks": "Chunks processed by the streaming transcriber",
    "repro.asr.streaming.utterances": "Long-form utterances streamed",
    "repro.asr.streaming.rtf": "Streaming real-time factor of the last utterance",
    # ---- block-program executors (repro.hw.program.*)
    "repro.hw.program.executions": "Functional-executor runs, by program kind",
    "repro.hw.program.ops": "Program ops executed by the functional executor, by op kind",
    "repro.hw.program.trace_ops": "Program ops accounted by the trace executor, by op kind",
    "repro.hw.program.lower.cache_hits": "Lowering-cache hits (repro.hw.program.lower)",
    "repro.hw.program.lower.cache_misses": "Lowering-cache misses (repro.hw.program.lower)",
    # ---- memory system / engines (repro.hw.*)
    "repro.hw.hbm.bytes_streamed": "Weight bytes streamed from HBM by executed programs",
    "repro.hw.hbm.bytes": "Weight bytes per HBM channel of the profiled program",
    "repro.hw.engine.busy_cycles": "Busy cycles per engine lane of the profiled program",
    "repro.hw.psa.occupancy": "Mean PSA-lane busy fraction of the profiled program",
    "repro.hw.schedule.total_cycles": "Scheduled cycles of the profiled program",
    "repro.hw.schedule.stall_cycles": "Compute stall cycles of the profiled program",
    "repro.hw.stall.cycles": "Idle cycles per engine lane by attributed stall cause of the profiled program",
    "repro.hw.decode.steps": "KV-cached decoder steps executed on the fabric",
    # ---- KV cache (repro.hw.kv_cache.*)
    "repro.hw.kv_cache.prefills": "Cross-attention K/V cache prefills",
    "repro.hw.kv_cache.appends": "K/V rows appended to decoder cache banks",
    "repro.hw.kv_cache.rewinds": "Cache rewinds (beam-search branching)",
    "repro.hw.kv_cache.resident_bytes": "Bytes resident in the decoder K/V cache banks",
    # ---- serving simulator (repro.serving.*) — virtual-time quantities
    "repro.serving.requests": "Requests that arrived at the serving simulator",
    "repro.serving.completions": "Requests fully decoded by the serving simulator",
    "repro.serving.prefills": "Prefill passes scheduled on the simulated accelerator",
    "repro.serving.decode_iterations": "Continuous-batching decode iterations executed",
    "repro.serving.preemptions": "Active requests preempted to relieve KV-cache pressure",
    "repro.serving.replayed_steps": "Decode steps replayed after preemption rewinds",
    "repro.serving.queue_depth": "Requests waiting for admission at the last scheduler event",
    "repro.serving.batch_size": "Decode batch size at the last scheduler event",
    "repro.serving.kv_resident_bytes": "Modeled bytes resident across all active KV caches",
    "repro.serving.e2e_ms": "Virtual-time end-to-end request latency, ms",
    "repro.serving.queue_ms": "Virtual-time queueing delay before prefill, ms",
    # ---- serving SLO monitor (repro.serving.slo.*)
    "repro.serving.slo.attainment": "Fraction of completed requests meeting the latency SLO",
    "repro.serving.slo.violations": "Completed requests that missed the latency SLO",
    "repro.serving.slo.error_budget_consumed": "Fraction of the SLO error budget consumed by the run",
    "repro.serving.slo.burn_rate": "Error-budget burn rate over the trailing window (label: window)",
    "repro.serving.slo.alerts": "Multi-window burn-rate alerts fired (rising edges)",
    # ---- serving cost attribution (repro.serving.cost.*)
    "repro.serving.cost.attributed_cycles": "Device cycles attributed to requests by the cost ledger (label: tenant)",
    "repro.serving.cost.unattributed_cycles": "Device cycles no request paid for (idle between arrivals)",
    "repro.serving.cost.hbm_bytes": "HBM weight-stream bytes attributed by the cost ledger (label: tenant)",
    "repro.serving.cost.kv_byte_cycles": "KV-cache residency integral attributed by the cost ledger, byte-cycles (label: tenant)",
    "repro.serving.cost.requests": "Requests accounted by the cost ledger (label: tenant)",
    "repro.serving.cost.jain_index": "Jain fairness index over per-tenant attributed cycles",
    # ---- decoding (repro.decoding.*)
    "repro.decoding.beam.hypotheses_expanded": "Beam hypotheses expanded (step-function calls)",
    "repro.decoding.beam.early_stops": "Beam searches ended by the early-stop bound",
    "repro.decoding.beam.finished": "Finished beam hypotheses",
}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter '{self.name}' cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-written value (may move in either direction)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels or {})
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket histogram (Prometheus classic style)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict | None = None,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be strictly increasing and non-empty")
        if any(math.isinf(b) for b in bounds):
            raise ValueError("+Inf bucket is implicit; do not pass it")
        self.name = name
        self.labels = dict(labels or {})
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs ending with +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds + (math.inf,), self._counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile (Prometheus histogram_quantile
        semantics): locate the bucket holding the q-th observation and
        interpolate linearly between its bounds.  The lowest bucket
        interpolates from 0; ranks landing in the +Inf bucket clamp to
        the highest finite bound.  NaN when the histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]; got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return math.nan
        rank = q * total
        bounds = self.bounds + (math.inf,)
        cumulative = 0
        for i, n in enumerate(counts):
            below = cumulative
            cumulative += n
            if cumulative >= rank and n > 0:
                upper = bounds[i]
                if math.isinf(upper):
                    return self.bounds[-1]
                lower = bounds[i - 1] if i > 0 else 0.0
                return lower + (upper - lower) * ((rank - below) / n)
        return self.bounds[-1]


class MetricsRegistry:
    """Thread-safe home of every instrument, keyed by (name, labels).

    Instruments are created on first use and returned on every later
    call with the same name and labels — call sites never hold state.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------ instruments
    def _get(self, cls, name: str, labels: dict, **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(
                f"metric name '{name}' is not a dotted lowercase identifier"
            )
        key = (name, _label_key(labels))
        with self._lock:
            inst = self._metrics.get(key)
            if inst is None:
                inst = cls(name, labels, **kwargs)
                self._metrics[key] = inst
            elif not isinstance(inst, cls):
                raise ValueError(
                    f"metric '{name}' already registered as {inst.kind}"
                )
            return inst

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------- inspection
    def collect(self) -> list[Counter | Gauge | Histogram]:
        """Every instrument, sorted by (name, labels) for stable output."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def names(self) -> list[str]:
        """Sorted distinct metric names registered so far."""
        with self._lock:
            return sorted({name for name, _ in self._metrics})

    def value(self, name: str, **labels: str) -> float:
        """Current value of one counter/gauge (KeyError if absent)."""
        inst = self._metrics[(name, _label_key(labels))]
        return inst.value

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot: ``name{k=v,...}`` -> value (histograms
        become ``{count, sum, buckets}`` objects)."""
        out: dict[str, object] = {}
        for inst in self.collect():
            key = inst.name
            if inst.labels:
                inner = ",".join(f"{k}={v}" for k, v in sorted(inst.labels.items()))
                key = f"{inst.name}{{{inner}}}"
            if isinstance(inst, Histogram):
                out[key] = {
                    "count": inst.count,
                    "sum": inst.sum,
                    "buckets": {
                        ("+Inf" if math.isinf(b) else repr(b)): n
                        for b, n in inst.cumulative_buckets()
                    },
                    "quantiles": {
                        f"p{int(q * 100)}": inst.quantile(q)
                        for q in (0.5, 0.95, 0.99)
                    },
                }
            else:
                out[key] = inst.value
        return out


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "null"
    labels: dict = {}
    kind = "null"
    value = 0.0
    count = 0
    sum = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def cumulative_buckets(self) -> list:
        return []

    def quantile(self, q: float) -> float:
        return 0.0


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """The disabled default: hands out one shared no-op instrument."""

    enabled = False

    def counter(self, name: str, **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels: str):  # type: ignore[override]
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=DEFAULT_BUCKETS, **labels):  # type: ignore[override]
        return _NULL_INSTRUMENT


NULL_REGISTRY = NullRegistry()

_active: MetricsRegistry = NULL_REGISTRY


def registry() -> MetricsRegistry:
    """The process-wide active registry (a no-op unless installed)."""
    return _active


def set_registry(reg: MetricsRegistry | None) -> MetricsRegistry:
    """Install ``reg`` (None restores the no-op default); returns the
    previously active registry so callers can restore it."""
    global _active
    previous = _active
    _active = reg if reg is not None else NULL_REGISTRY
    return previous


def enabled() -> bool:
    return _active.enabled

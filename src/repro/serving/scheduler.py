"""Continuous-batching scheduler over the simulated accelerator.

The simulator models an asynchronous multi-tenant transcription
service in *virtual time*: requests arrive open-loop from an
:mod:`arrival <repro.serving.arrival>` model while one simulated
accelerator serves them.  Scheduling is iteration-level (Orca-style):

* the device alternates between **prefill** passes (the padded
  single-shot accelerator pass the pipeline accounts as
  ``accelerator_ms``, which fills the encoder memory and projects the
  cross-attention K/V) and **decode iterations**, in which every
  in-flight request advances one KV-cached step;
* requests join the in-flight decode batch at step boundaries the
  moment their prefill completes — *continuous batching* — and leave
  the moment their last token decodes, instead of waiting for a full
  batch to drain;
* a decode iteration streams each decoder's weight panels from HBM
  once for the whole batch (:meth:`repro.hw.controller.LatencyModel.
  decode_iteration_cycles`), so per-request decode cost falls as the
  batch fills — the throughput lever continuous batching exists for.

Admission control is **cache-pressure-aware**: a request is admitted
only when the K/V bytes the whole batch could grow to (every member
decoded to its full token budget, the
:func:`repro.hw.kv_cache.modeled_resident_bytes` arithmetic that a
live :class:`~repro.hw.kv_cache.DecoderKVCache` reports as
``resident_bytes()``) fit the configured budget.  A higher-priority
arrival that cannot reserve may **preempt** lower-priority in-flight
requests: their self-attention rows are evicted through the existing
rewind support and replayed after readmission — functionally exact,
paid for in replayed steps.

Everything is deterministic: virtual time advances in integer fabric
cycles, arrival traces come from ``random.Random``, and the bench
harness gates the cycle totals exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.hw.controller import LatencyModel
from repro.hw.kv_cache import modeled_resident_bytes
from repro.hw.scheduler import Architecture
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.vtrace import NULL_SAMPLER, NULL_VTRACE, VSampler, VTraceRecorder
from repro.serving.request import RequestRecord, RequestState, UtteranceRequest

__all__ = [
    "ServingConfig",
    "ServingResult",
    "ModeledExecutor",
    "FunctionalExecutor",
    "ContinuousBatchingScheduler",
    "meets_slo",
    "simulate",
]


def meets_slo(latency_ms: float, slo_ms: float) -> bool:
    """The SLO boundary, in one place.

    The boundary is **closed**: a request whose latency lands exactly
    on the objective counts as good (``latency_ms <= slo_ms``), the
    convention of "complete *within* X ms".  Goodput accounting here
    and attainment/burn accounting in :mod:`repro.serving.slo` both
    route through this predicate so they can never disagree; the
    choice is pinned by a regression test because an off-by-one here
    silently shifts every goodput curve.
    """
    return latency_ms <= slo_ms


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving simulator."""

    #: Hardware sequence length (prefill pass and cross-attention span).
    s: int = 32
    architecture: str = "A3"
    #: Iteration width: max requests decoding (or awaiting prefill).
    max_batch: int = 8
    #: K/V BRAM budget the whole batch must fit, bytes.  ``None``
    #: sizes it for ``max_batch`` full-length caches (no pressure).
    kv_budget_bytes: int | None = None
    #: Stream decoder panels once per iteration (continuous-batching
    #: amortization) instead of once per member.
    share_weights: bool = True
    #: Allow priority preemption of in-flight requests.
    preemption: bool = True
    #: Latency SLO used for goodput accounting, virtual ms.
    slo_ms: float = 3000.0
    #: Reject (rather than raise on) requests whose worst-case cache
    #: can never fit ``kv_budget_bytes``; they complete the lifecycle
    #: as ``RequestState.REJECTED`` with a ``reject`` trace event.
    reject_oversized: bool = False

    def __post_init__(self) -> None:
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.kv_budget_bytes is not None and self.kv_budget_bytes <= 0:
            raise ValueError("kv_budget_bytes must be positive")
        if self.slo_ms <= 0:
            raise ValueError("slo_ms must be positive")
        Architecture(self.architecture)


class ModeledExecutor:
    """Data-free costs from the cycle model (the serving default).

    Prefill and iteration costs are pure arithmetic over the
    configuration, so a whole load sweep runs in milliseconds and its
    cycle totals gate exactly in the bench harness.
    """

    def __init__(self, config: ServingConfig, latency_model: LatencyModel | None = None):
        self.config = config
        self.lm = latency_model or LatencyModel()
        self._prefill = self.lm.latency_report(
            config.s, config.architecture
        ).total_cycles
        self._iteration_cache: dict[tuple[int, ...], int] = {}

    def prefill_cycles(self, record: RequestRecord) -> int:
        return self._prefill

    def iteration_cycles(self, prefix_lengths: list[int]) -> int:
        key = tuple(prefix_lengths)
        cycles = self._iteration_cache.get(key)
        if cycles is None:
            cycles = self.lm.decode_iteration_cycles(
                prefix_lengths,
                self.config.s,
                self.config.architecture,
                share_weights=self.config.share_weights,
            )
            self._iteration_cache[key] = cycles
        return cycles

    def resident_bytes(self, t: int) -> int:
        return modeled_resident_bytes(self.lm.model, self.config.s, t)

    @property
    def clock_hz(self) -> float:
        return self.lm.hardware.clock_mhz * 1e6

    # Functional hooks are no-ops in the modeled executor.
    def open_session(self, record: RequestRecord) -> None:
        return None

    def step_many(self, items: list[tuple[RequestRecord, bool]]) -> None:
        """One decode iteration over the whole active batch.  The
        modeled executor has no state to advance; the functional
        executor overrides this with a batched fabric step."""
        return None

    def preempt(self, record: RequestRecord) -> None:
        return None


class FunctionalExecutor(ModeledExecutor):
    """Costs from the cycle model, *state* from the real fabric.

    Each request opens a live :class:`repro.hw.accelerator.
    HwDecodeSession` over its features and decodes greedily, so
    preemption/rewind correctness is observable: the emitted token
    sequence must be identical with and without preemption.
    """

    def __init__(
        self,
        config,
        accelerator,
        features_of,
        start_token: int = 1,
    ):
        super().__init__(config, accelerator.latency_model)
        self.accelerator = accelerator
        self.features_of = features_of
        self.start_token = int(start_token)
        self.emitted: dict[int, list[int]] = {}
        self._sessions: dict[int, object] = {}

    def open_session(self, record: RequestRecord) -> None:
        rid = record.request.request_id
        self._sessions[rid] = self.accelerator.decode_session(
            self.features_of(record.request)
        )
        self.emitted.setdefault(rid, [])

    def _feed_token(self, rid: int) -> int:
        session = self._sessions[rid]
        t = len(session.tokens)
        return self.start_token if t == 0 else self.emitted[rid][t - 1]

    def step_many(self, items: list[tuple[RequestRecord, bool]]) -> None:
        """One decode iteration through the batched fabric executor.

        Same-prefix-length sessions advance as one batched program run
        (:func:`repro.hw.accelerator.step_sessions` — bit-identical to
        per-session steps); each member not replaying then emits its
        greedy token.
        """
        from repro.hw.accelerator import step_sessions

        if not items:
            return
        rids = [record.request.request_id for record, _ in items]
        sessions = [self._sessions[rid] for rid in rids]
        feeds = [self._feed_token(rid) for rid in rids]
        outs = step_sessions(sessions, feeds)
        for (record, replay), rid, out in zip(items, rids, outs):
            if not replay:
                self.emitted[rid].append(int(np.argmax(out)))

    def preempt(self, record: RequestRecord) -> None:
        self._sessions[record.request.request_id].preempt()


@dataclass
class ServingResult:
    """One simulated run: per-request records plus device accounting."""

    config: ServingConfig
    records: list[RequestRecord]
    #: Virtual time at which the device finished its last event, cycles.
    device_end_cycles: int
    prefill_cycles_total: int
    decode_cycles_total: int
    replay_cycles_total: int
    idle_cycles_total: int
    prefills: int
    decode_iterations: int
    preemptions: int
    replayed_steps: int
    peak_kv_bytes: int
    peak_queue_depth: int
    peak_batch: int
    clock_hz: float
    rejections: int = 0
    details: dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> list[RequestRecord]:
        return [r for r in self.records if r.state is RequestState.COMPLETED]

    @property
    def duration_s(self) -> float:
        """Virtual span from first arrival to last device event."""
        if not self.records:
            return 0.0
        start = min(r.request.arrival_s for r in self.records)
        return max(self.device_end_cycles / self.clock_hz - start, 0.0)

    @property
    def throughput_rps(self) -> float:
        """Completed requests per virtual second."""
        d = self.duration_s
        return len(self.completed) / d if d > 0 else 0.0

    @property
    def goodput_rps(self) -> float:
        """Completions meeting the latency SLO, per virtual second."""
        d = self.duration_s
        if d <= 0:
            return 0.0
        good = sum(
            1 for r in self.completed if meets_slo(r.e2e_ms, self.config.slo_ms)
        )
        return good / d

    def latency_quantile(self, q: float, which: str = "e2e") -> float:
        """Linear-interpolated quantile of per-request virtual latency."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        values = sorted(
            r.e2e_ms if which == "e2e" else r.queue_ms for r in self.completed
        )
        if not values:
            raise ValueError("no completed requests")
        if len(values) == 1:
            return values[0]
        pos = q * (len(values) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)


class ContinuousBatchingScheduler:
    """The virtual-time event loop (see module docstring)."""

    def __init__(
        self,
        config: ServingConfig | None = None,
        executor: ModeledExecutor | None = None,
        vtrace: VTraceRecorder | None = None,
        sampler: VSampler | None = None,
    ) -> None:
        self.config = config or ServingConfig()
        self.executor = executor or ModeledExecutor(self.config)
        #: Lifecycle event sink; the shared null recorder costs one
        #: ``enabled`` check per hook and keeps the run bit-identical.
        self.vtrace = vtrace or NULL_VTRACE
        self.sampler = sampler or NULL_SAMPLER
        budget = self.config.kv_budget_bytes
        if budget is None:
            budget = self.config.max_batch * self.executor.resident_bytes(
                self.config.s
            )
        self.kv_budget_bytes = int(budget)

    # ----------------------------------------------------------- helpers
    def _reservation(self, record: RequestRecord) -> int:
        """Worst-case K/V bytes this request can grow to (its budget
        decoded in full) — what admission must reserve."""
        return self.executor.resident_bytes(record.request.decode_tokens)

    def run(self, requests: list[UtteranceRequest]) -> ServingResult:
        cfg = self.config
        ex = self.executor
        vt = self.vtrace
        sampler = self.sampler
        if not requests:
            raise ValueError("need at least one request")
        clock_hz = ex.clock_hz
        records = [RequestRecord(request=r) for r in sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )]
        reg = obs_metrics.registry()
        tr = obs_spans.tracer()

        rejections = 0
        oversized = [
            r for r in records
            if ex.resident_bytes(r.request.decode_tokens) > self.kv_budget_bytes
        ]
        if oversized and not cfg.reject_oversized:
            worst = max(
                ex.resident_bytes(r.request.decode_tokens) for r in oversized
            )
            raise ValueError(
                f"kv_budget_bytes={self.kv_budget_bytes} cannot hold even one "
                f"request's cache (needs {worst}); raise the budget"
            )
        for record in oversized:
            record.state = RequestState.REJECTED
            rejections += 1
            if vt.enabled:
                vt.emit(
                    "reject",
                    math.ceil(record.request.arrival_s * clock_hz),
                    record.request.request_id,
                    tenant=record.request.tenant,
                    needed_bytes=ex.resident_bytes(record.request.decode_tokens),
                    kv_budget_bytes=self.kv_budget_bytes,
                )

        pending = [r for r in records if r.state is not RequestState.REJECTED]
        #: Admission pool: (priority, arrival_s, request_id) min-heap.
        queue: list[tuple[float, float, int, RequestRecord]] = []
        prefill_fifo: list[RequestRecord] = []
        active: list[_Active] = []
        now = 0  # device time, cycles
        reserved = 0  # K/V bytes reserved by admitted requests
        #: Cycle each request last (re-)entered the admission pool —
        #: arrival, or the preemption instant — for queue_wait events.
        queued_since: dict[int, int] = {}

        prefills = decode_iterations = preemptions = replayed_steps = 0
        prefill_cycles_total = decode_cycles_total = replay_cycles_total = 0
        idle_cycles_total = 0
        peak_kv = peak_queue = peak_batch = 0

        def push(record: RequestRecord) -> None:
            heapq.heappush(queue, (
                record.request.priority,
                record.request.arrival_s,
                record.request.request_id,
                record,
            ))

        def admitted_count() -> int:
            return len(active) + len(prefill_fifo)

        def resident_now() -> int:
            return sum(ex.resident_bytes(a.t) for a in active) + sum(
                ex.resident_bytes(0) for _ in prefill_fifo
            )

        def try_preempt_for(record: RequestRecord) -> bool:
            """Evict strictly-lower-priority members until ``record``'s
            reservation fits; returns True on success.  Feasibility is
            checked *before* evicting anything, so no request pays a
            rewind for an admission that cannot happen anyway."""
            nonlocal reserved, preemptions
            if not cfg.preemption:
                return False
            need = self._reservation(record)
            # Lowest priority first (highest value), then latest arrival.
            victims = sorted(
                (a for a in active
                 if a.record.request.priority > record.request.priority),
                key=lambda a: (-a.record.request.priority,
                               -a.record.request.arrival_s),
            )
            plan: list[_Active] = []
            freed = 0
            for victim in victims:
                if (reserved - freed + need <= self.kv_budget_bytes
                        and admitted_count() - len(plan) < cfg.max_batch):
                    break
                plan.append(victim)
                freed += self._reservation(victim.record)
            if (reserved - freed + need > self.kv_budget_bytes
                    or admitted_count() - len(plan) >= cfg.max_batch):
                return False
            for victim in plan:
                active.remove(victim)
                reserved -= self._reservation(victim.record)
                victim.record.state = RequestState.PREEMPTED
                victim.record.preemptions += 1
                victim.record.replayed_steps += victim.t
                ex.preempt(victim.record)
                push(victim.record)
                preemptions += 1
                reg.counter("repro.serving.preemptions").inc()
                if vt.enabled:
                    rid = victim.record.request.request_id
                    queued_since[rid] = now
                    vt.emit(
                        "preempt",
                        now,
                        rid,
                        tenant=victim.record.request.tenant,
                        evicted_steps=victim.t,
                        by_request=record.request.request_id,
                    )
            return bool(plan)

        while pending or queue or prefill_fifo or active:
            # 1. arrivals up to the current device time enter the pool.
            now_s = now / clock_hz
            while pending and pending[0].request.arrival_s <= now_s:
                record = pending.pop(0)
                push(record)
                reg.counter("repro.serving.requests").inc()
                if vt.enabled:
                    rid = record.request.request_id
                    arrive_cycle = math.ceil(
                        record.request.arrival_s * clock_hz
                    )
                    queued_since[rid] = arrive_cycle
                    vt.emit(
                        "arrive",
                        arrive_cycle,
                        rid,
                        tenant=record.request.tenant,
                        decode_tokens=record.request.decode_tokens,
                        priority=record.request.priority,
                    )

            # 2. admission at the step boundary: reserve worst-case K/V.
            while queue:
                _, _, _, head = queue[0]
                fits = (
                    admitted_count() < cfg.max_batch
                    and reserved + self._reservation(head) <= self.kv_budget_bytes
                )
                if not fits and not try_preempt_for(head):
                    break
                heapq.heappop(queue)
                reserved += self._reservation(head)
                if head.admitted_s is None:
                    head.admitted_s = now_s
                # Preempted requests re-run prefill too: the rewound
                # cache rebuilds through replay, but the cross K/V must
                # be re-projected first.
                head.state = RequestState.PREFILLING
                prefill_fifo.append(head)
                if vt.enabled:
                    rid = head.request.request_id
                    vt.emit(
                        "queue_wait",
                        now,
                        rid,
                        tenant=head.request.tenant,
                        wait_cycles=now - queued_since.pop(rid, now),
                    )
                    vt.emit(
                        "admit",
                        now,
                        rid,
                        tenant=head.request.tenant,
                        reserved_bytes=self._reservation(head),
                        queue_depth=len(queue),
                    )

            peak_queue = max(peak_queue, len(queue))
            reg.gauge("repro.serving.queue_depth").set(len(queue))

            # 3. pick work: prefill first (it unblocks batching), else
            #    one decode iteration over every in-flight request.
            if prefill_fifo:
                record = prefill_fifo.pop(0)
                cycles = ex.prefill_cycles(record)
                if vt.enabled:
                    vt.emit(
                        "prefill_start",
                        now,
                        record.request.request_id,
                        tenant=record.request.tenant,
                        cycles=cycles,
                        replay=bool(record.preemptions),
                    )
                now += cycles
                prefills += 1
                prefill_cycles_total += cycles
                record.prefill_done_s = now / clock_hz
                record.state = RequestState.DECODING
                entry = _Active(record=record, t=0)
                if record.preemptions:
                    entry.replay_until = record.decoded_tokens
                ex.open_session(record)
                active.append(entry)
                reg.counter("repro.serving.prefills").inc()
                if vt.enabled:
                    vt.emit(
                        "prefill_end",
                        now,
                        record.request.request_id,
                        tenant=record.request.tenant,
                        replay=bool(record.preemptions),
                    )
            elif active:
                lengths = [a.t + 1 for a in active]
                cycles = ex.iteration_cycles(lengths)
                is_replay = [a.t < a.replay_until for a in active]
                if vt.enabled:
                    # Batch membership rides on the iteration event so
                    # the cost ledger can apportion the shared cycles
                    # to exactly the members that ran (schema v2).
                    vt.emit(
                        "decode_iter",
                        now,
                        None,
                        cycles=cycles,
                        batch=len(active),
                        prefix_lengths=lengths,
                        request_ids=[
                            a.record.request.request_id for a in active
                        ],
                        tenants=[a.record.request.tenant for a in active],
                    )
                    for entry, replay in zip(active, is_replay):
                        if replay:
                            vt.emit(
                                "replay",
                                now,
                                entry.record.request.request_id,
                                tenant=entry.record.request.tenant,
                                cycles=cycles,
                                step=entry.t,
                            )
                now += cycles
                decode_iterations += 1
                decode_cycles_total += cycles
                if any(is_replay):
                    replay_cycles_total += cycles
                now_s = now / clock_hz
                finished: list[_Active] = []
                snapshot = list(active)
                # One executor call for the whole iteration: the
                # functional executor batches same-length sessions
                # through the fabric instead of stepping one by one.
                ex.step_many(
                    [(e.record, r) for e, r in zip(snapshot, is_replay)]
                )
                for entry, replay in zip(snapshot, is_replay):
                    entry.t += 1
                    if replay:
                        replayed_steps += 1
                        reg.counter("repro.serving.replayed_steps").inc()
                    else:
                        entry.record.decoded_tokens = max(
                            entry.record.decoded_tokens, entry.t
                        )
                    entry.record.step_end_s.append(now_s)
                    if entry.t >= entry.record.request.decode_tokens:
                        finished.append(entry)
                for entry in finished:
                    active.remove(entry)
                    reserved -= self._reservation(entry.record)
                    entry.record.state = RequestState.COMPLETED
                    entry.record.finished_s = now_s
                    reg.counter("repro.serving.completions").inc()
                    reg.histogram("repro.serving.e2e_ms").observe(
                        entry.record.e2e_ms
                    )
                    reg.histogram("repro.serving.queue_ms").observe(
                        entry.record.queue_ms
                    )
                    tr.record_span(
                        "serving.request",
                        start_us=entry.record.request.arrival_s * 1e6,
                        duration_us=entry.record.e2e_ms * 1e3,
                        request_id=entry.record.request.request_id,
                        priority=entry.record.request.priority,
                        preemptions=entry.record.preemptions,
                    )
                    if vt.enabled:
                        vt.emit(
                            "complete",
                            now,
                            entry.record.request.request_id,
                            tenant=entry.record.request.tenant,
                            e2e_ms=entry.record.e2e_ms,
                            queue_ms=entry.record.queue_ms,
                            preemptions=entry.record.preemptions,
                        )
                reg.counter("repro.serving.decode_iterations").inc()
                reg.gauge("repro.serving.batch_size").set(len(active))
            elif pending:
                # Nothing runnable: the device idles to the next arrival.
                # Ceil, not round: idling must land at-or-after the
                # arrival instant or the loop would spin in place.
                next_cycles = math.ceil(pending[0].request.arrival_s * clock_hz)
                idle_cycles_total += max(next_cycles - now, 0)
                now = max(now, next_cycles)
            else:
                raise RuntimeError(
                    "scheduler wedged: queued requests but nothing runnable"
                )  # pragma: no cover - admission validation prevents this

            kv_now = resident_now()
            peak_kv = max(peak_kv, kv_now)
            peak_batch = max(peak_batch, len(active))
            reg.gauge("repro.serving.kv_resident_bytes").set(kv_now)
            if sampler.enabled:
                sampler.sample(now, {
                    "batch_size": len(active),
                    "queue_depth": len(queue),
                    "kv_resident_bytes": kv_now,
                    "kv_reserved_bytes": reserved,
                    "kv_budget_bytes": self.kv_budget_bytes,
                    # Cumulative device-cycle accounts; rate_series()
                    # turns these into busy/idle fractions over time.
                    "prefill_cycles": prefill_cycles_total,
                    "decode_cycles": decode_cycles_total,
                    "replay_cycles": replay_cycles_total,
                    "idle_cycles": idle_cycles_total,
                })

        return ServingResult(
            config=cfg,
            records=records,
            device_end_cycles=now,
            prefill_cycles_total=prefill_cycles_total,
            decode_cycles_total=decode_cycles_total,
            replay_cycles_total=replay_cycles_total,
            idle_cycles_total=idle_cycles_total,
            prefills=prefills,
            decode_iterations=decode_iterations,
            preemptions=preemptions,
            replayed_steps=replayed_steps,
            peak_kv_bytes=peak_kv,
            peak_queue_depth=peak_queue,
            peak_batch=peak_batch,
            clock_hz=clock_hz,
            rejections=rejections,
            details={"kv_budget_bytes": float(self.kv_budget_bytes)},
        )


@dataclass
class _Active:
    """One in-flight decode-batch member."""

    record: RequestRecord
    #: Self-attention rows currently banked (prefix length).
    t: int
    #: Rows below this replay previously-decoded positions.
    replay_until: int = 0


def simulate(
    requests: list[UtteranceRequest],
    config: ServingConfig | None = None,
    executor: ModeledExecutor | None = None,
    vtrace: VTraceRecorder | None = None,
    sampler: VSampler | None = None,
) -> ServingResult:
    """Convenience: run one trace through a fresh scheduler."""
    config = config or ServingConfig()
    return ContinuousBatchingScheduler(config, executor, vtrace, sampler).run(
        requests
    )

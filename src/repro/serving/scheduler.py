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
  the moment their last token decodes;
* a decode iteration streams each decoder's weight panels from HBM
  once for the whole batch (:meth:`repro.hw.controller.LatencyModel.
  decode_iteration_cycles`), so per-request decode cost falls as the
  batch fills — the throughput lever continuous batching exists for.

Admission control is **cache-pressure-aware**: a request is admitted
only when the K/V bytes the whole batch could grow to (every member
decoded to its full token budget, per
:func:`repro.hw.memory.modeled_resident_bytes`, the arithmetic of a
live cache's ``resident_bytes()``) fit the configured budget.  A
higher-priority arrival that cannot reserve may **preempt**
lower-priority in-flight requests: their self-attention rows are
evicted through the existing rewind support and replayed after
readmission — functionally exact, paid for in replayed steps.

A run is phase handlers over one run state: each turn takes in the
arrivals, admits (preempting for the pool head if allowed), then runs
one prefill, else one decode iteration (completing finished members),
else idles to the next arrival, and samples.  Reserved and resident
K/V bytes are exact integer running totals the handlers update.
Everything is deterministic: virtual time advances in integer fabric
cycles, arrival traces come from ``random.Random``, and the bench
harness gates the cycle totals exactly.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from repro.hw.controller import LatencyModel
from repro.hw.memory import modeled_resident_bytes
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

    def prefill_cycles(self, record: RequestRecord) -> int:
        return self._prefill

    def iteration_cycles(self, prefix_lengths: list[int]) -> int:
        """One iteration's cycles: with shared weights, B reads of the
        latency model's per-step memo."""
        return self.lm.decode_iteration_cycles(
            prefix_lengths,
            self.config.s,
            self.config.architecture,
            share_weights=self.config.share_weights,
        )

    def resident_bytes(self, t: int) -> int:
        """K/V bytes of one request's cache at prefix length ``t``.  An
        override must stay affine in ``t``, as
        :func:`~repro.hw.memory.modeled_resident_bytes` is: the scheduler
        keeps the batch's resident bytes as a running total priced from
        ``t = 0`` and ``t = 1`` alone."""
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

        The sessions advance as one batched program run at their own
        prefix lengths (:func:`repro.hw.accelerator.step_sessions` —
        bit-identical to per-session steps); each member not replaying
        then emits its greedy token.
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
                self.emitted[rid].append(int(out.argmax()))

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
            budget = self.config.max_batch * self.executor.resident_bytes(self.config.s)
        self.kv_budget_bytes = int(budget)

    def run(self, requests: list[UtteranceRequest]) -> ServingResult:
        """Serve ``requests`` in virtual time (see module docstring)."""
        state = _Run(self, requests)
        while state.busy():
            state.arrive()
            state.admit()
            if state.prefill_fifo:
                state.prefill()
            elif state.active:
                state.decode()
            else:
                state.idle()
            state.sample()
        return state.result()


@dataclass(eq=False)
class _Member:
    """One admissible request, from arrival to completion."""

    record: RequestRecord
    #: Worst-case K/V bytes it can grow to (its budget decoded in
    #: full): what admission reserves.
    need: int
    #: Self-attention rows currently banked (prefix length).
    t: int = 0
    #: Rows below this replay previously-decoded positions.
    replay_until: int = 0


class _Run:
    """The state of one :meth:`ContinuousBatchingScheduler.run` and its
    phase handlers.

    Reserved and resident K/V bytes are running totals.  The executor's
    ``resident_bytes`` is affine in the prefix length t
    (:func:`~repro.hw.memory.modeled_resident_bytes` is ``D·(s + t)``),
    so the batch holds ``resident_bytes(0)`` per admitted member plus
    ``resident_bytes(1) − resident_bytes(0)`` per banked row; the
    handlers count the rows as members step, finish and are preempted.
    """

    def __init__(self, sched: ContinuousBatchingScheduler,
                 requests: list[UtteranceRequest]) -> None:
        if not requests:
            raise ValueError("need at least one request")
        ids = [r.request_id for r in requests]
        if len(set(ids)) < len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate request_id {dup}")
        self.cfg, self.ex, self.vt = sched.config, sched.executor, sched.vtrace
        self.sampler, self.budget = sched.sampler, sched.kv_budget_bytes
        self.clock_hz = self.ex.clock_hz
        self.registry = obs_metrics.registry()
        self.tracer = obs_spans.tracer()
        self.now = 0  # device time, cycles
        self.records = [RequestRecord(request=r) for r in sorted(
            requests, key=lambda r: (r.arrival_s, r.request_id)
        )]
        worst = self.ex.resident_bytes  # a cache grown to its full budget
        members = [_Member(r, worst(r.request.decode_tokens)) for r in self.records]
        oversized = [m for m in members if m.need > self.budget]
        if oversized and not self.cfg.reject_oversized:
            raise ValueError(
                f"kv_budget_bytes={self.budget} cannot hold even one request's "
                f"cache (needs {max(m.need for m in oversized)}); raise the budget"
            )
        for member in oversized:
            member.record.state = RequestState.REJECTED
            self.emit("reject", member, self.arrival_cycle(member),
                      needed_bytes=member.need, kv_budget_bytes=self.budget)
        self.rejections = len(oversized)
        self.pending = [m for m in members if m.need <= self.budget]
        if self.pending:  # the instruments every turn updates, bound once
            reg = self.registry
            self.queue_depth = reg.gauge("repro.serving.queue_depth")
            self.kv_gauge = reg.gauge("repro.serving.kv_resident_bytes")
            self.batch_size = reg.gauge("repro.serving.batch_size")
            self.iterations = reg.counter("repro.serving.decode_iterations")
        self.arrived = 0  # members of ``pending`` that entered the pool
        #: Admission pool: (priority, arrival_s, request_id) min-heap.
        self.queue: list[tuple[float, float, int, _Member]] = []
        self.prefill_fifo: deque[_Member] = deque()
        self.active: list[_Member] = []
        #: Cycle each request last (re-)entered the admission pool —
        #: arrival, or the preemption instant — for queue_wait events.
        self.queued_since: dict[int, int] = {}
        self.reserved = 0  # K/V bytes reserved by admitted members
        self.rows = 0  # self-attention rows banked across the batch
        self.row0_bytes = self.ex.resident_bytes(0)
        self.row_bytes = self.ex.resident_bytes(1) - self.row0_bytes
        self.prefills = self.decode_iterations = self.preemptions = 0
        self.replayed_steps = self.prefill_cycles = self.decode_cycles = 0
        self.replay_cycles = self.idle_cycles = 0
        self.peak_kv = self.peak_queue = self.peak_batch = 0

    def busy(self) -> bool:
        return bool(self.arrived < len(self.pending) or self.queue
                    or self.prefill_fifo or self.active)

    def admitted(self) -> int:
        return len(self.active) + len(self.prefill_fifo)

    def arrival_cycle(self, member: _Member) -> int:
        return math.ceil(member.record.request.arrival_s * self.clock_hz)

    def emit(self, kind: str, member: _Member, cycle: int | None = None,
             **attrs) -> None:
        """One lifecycle event of ``member``, at ``cycle`` or now."""
        if self.vt.enabled:
            request = member.record.request
            self.vt.emit(kind, self.now if cycle is None else cycle,
                         request.request_id, tenant=request.tenant, **attrs)

    def push(self, member: _Member, since: int) -> None:
        """Enter the admission pool at cycle ``since``."""
        request = member.record.request
        heapq.heappush(self.queue, (
            request.priority, request.arrival_s, request.request_id, member,
        ))
        self.queued_since[request.request_id] = since

    def arrive(self) -> None:
        """Arrivals up to the current device time enter the pool."""
        now_s = self.now / self.clock_hz
        pending = self.pending
        while (self.arrived < len(pending)
               and pending[self.arrived].record.request.arrival_s <= now_s):
            member = pending[self.arrived]
            self.arrived += 1
            cycle = self.arrival_cycle(member)
            self.push(member, cycle)
            self.registry.counter("repro.serving.requests").inc()
            request = member.record.request
            self.emit("arrive", member, cycle, decode_tokens=request.decode_tokens,
                      priority=request.priority)

    def admit(self) -> None:
        """Admission at the step boundary: reserve the pool head's worst
        case while it fits, preempting for it when it does not."""
        queue, now_s = self.queue, self.now / self.clock_hz
        while queue:
            head = queue[0][3]
            if not self.fits(head) and not self.preempt_for(head):
                break
            heapq.heappop(queue)
            self.reserved += head.need
            record = head.record
            if record.admitted_s is None:
                record.admitted_s = now_s
            # Preempted requests re-run prefill too: the rewound cache
            # rebuilds through replay, but the cross K/V must be
            # re-projected first.
            record.state = RequestState.PREFILLING
            self.prefill_fifo.append(head)
            since = self.queued_since.pop(record.request.request_id)
            self.emit("queue_wait", head, wait_cycles=self.now - since)
            self.emit("admit", head, reserved_bytes=head.need,
                      queue_depth=len(queue))
        self.peak_queue = max(self.peak_queue, len(queue))
        self.queue_depth.set(len(queue))

    def fits(self, member: _Member, evicted: int = 0, freed: int = 0) -> bool:
        """Whether ``member`` fits the batch and the budget once
        ``evicted`` members holding ``freed`` reserved bytes are gone."""
        return (self.admitted() - evicted < self.cfg.max_batch
                and self.reserved - freed + member.need <= self.budget)

    def preempt_for(self, member: _Member) -> bool:
        """Evict strictly-lower-priority members until ``member``'s
        reservation fits; returns True on success.  Feasibility is
        checked *before* evicting anything, so no request pays a rewind
        for an admission that cannot happen anyway."""
        if not self.cfg.preemption:
            return False
        priority = member.record.request.priority
        # Lowest priority first (highest value), then latest arrival.
        victims = sorted(
            (a for a in self.active if a.record.request.priority > priority),
            key=lambda a: (-a.record.request.priority, -a.record.request.arrival_s),
        )
        plan: list[_Member] = []
        freed = 0
        for victim in victims:
            if self.fits(member, len(plan), freed):
                break
            plan.append(victim)
            freed += victim.need
        if not self.fits(member, len(plan), freed):
            return False
        for victim in plan:
            self.evict(victim, member.record.request.request_id)
        return bool(plan)

    def evict(self, victim: _Member, by_request: int) -> None:
        """Preempt one active member: rewind its rows and requeue it."""
        record = victim.record
        self.active.remove(victim)
        self.reserved -= victim.need
        self.rows -= victim.t
        record.state = RequestState.PREEMPTED
        record.preemptions += 1
        record.replayed_steps += victim.t
        self.ex.preempt(record)
        self.push(victim, self.now)
        self.preemptions += 1
        self.registry.counter("repro.serving.preemptions").inc()
        self.emit("preempt", victim, evicted_steps=victim.t, by_request=by_request)
        victim.t = 0

    def prefill(self) -> None:
        """The prefill FIFO head's encoder pass; then it joins the batch."""
        member = self.prefill_fifo.popleft()
        record = member.record
        cycles = self.ex.prefill_cycles(record)
        replay = bool(record.preemptions)
        self.emit("prefill_start", member, cycles=cycles, replay=replay)
        self.now += cycles
        self.prefills += 1
        self.prefill_cycles += cycles
        record.prefill_done_s = self.now / self.clock_hz
        record.state = RequestState.DECODING
        # Zero at the first prefill; after a preemption, the rows to replay.
        member.replay_until = record.decoded_tokens
        self.ex.open_session(record)
        self.active.append(member)
        self.registry.counter("repro.serving.prefills").inc()
        self.emit("prefill_end", member, replay=replay)

    def decode(self) -> None:
        """One decode iteration over every in-flight member."""
        active = self.active
        lengths = [a.t + 1 for a in active]
        cycles = self.ex.iteration_cycles(lengths)
        is_replay = [a.t < a.replay_until for a in active]
        if self.vt.enabled:
            # Batch membership rides on the iteration event so the cost
            # ledger can apportion the shared cycles to exactly the
            # members that ran (schema v2).
            self.vt.emit(
                "decode_iter", self.now, None, cycles=cycles, batch=len(active),
                prefix_lengths=lengths,
                request_ids=[a.record.request.request_id for a in active],
                tenants=[a.record.request.tenant for a in active],
            )
            for member, replay in zip(active, is_replay):
                if replay:
                    self.emit("replay", member, cycles=cycles, step=member.t)
        self.now += cycles
        self.decode_iterations += 1
        self.decode_cycles += cycles
        if any(is_replay):
            self.replay_cycles += cycles
        # One executor call for the whole iteration: the functional
        # executor steps every session through the fabric as one batch,
        # whatever its prefix length.
        self.ex.step_many([(a.record, r) for a, r in zip(active, is_replay)])
        self.rows += len(active)
        for member, replay in zip(active, is_replay):
            member.t += 1
            if replay:
                self.replayed_steps += 1
                self.registry.counter("repro.serving.replayed_steps").inc()
            elif member.t > member.record.decoded_tokens:
                member.record.decoded_tokens = member.t
        if any(a.t >= a.record.request.decode_tokens for a in active):
            self.active = [a for a in active if a.t < a.record.request.decode_tokens]
            now_s = self.now / self.clock_hz
            for member in active:
                if member.t >= member.record.request.decode_tokens:
                    self.complete(member, now_s)
        self.iterations.inc()
        self.batch_size.set(len(self.active))

    def complete(self, member: _Member, now_s: float) -> None:
        """A member decoded its last token at ``now_s``: release it and
        report."""
        record, request = member.record, member.record.request
        self.reserved -= member.need
        self.rows -= member.t
        record.state = RequestState.COMPLETED
        record.finished_s = now_s
        self.registry.counter("repro.serving.completions").inc()
        self.registry.histogram("repro.serving.e2e_ms").observe(record.e2e_ms)
        self.registry.histogram("repro.serving.queue_ms").observe(record.queue_ms)
        self.tracer.record_span(
            "serving.request", start_us=request.arrival_s * 1e6,
            duration_us=record.e2e_ms * 1e3, request_id=request.request_id,
            priority=request.priority, preemptions=record.preemptions,
        )
        self.emit("complete", member, e2e_ms=record.e2e_ms,
                  queue_ms=record.queue_ms, preemptions=record.preemptions)

    def idle(self) -> None:
        """Nothing runnable: the device idles to the next arrival.  Ceil,
        not round: idling must land at-or-after the arrival instant or
        the loop would spin in place."""
        if self.arrived == len(self.pending):
            raise RuntimeError(
                "scheduler wedged: queued requests but nothing runnable"
            )  # pragma: no cover - admission validation prevents this
        arrival = self.arrival_cycle(self.pending[self.arrived])
        self.idle_cycles += max(arrival - self.now, 0)
        self.now = max(self.now, arrival)

    def sample(self) -> None:
        """End of turn: the peaks, the K/V gauge and the sampler."""
        kv_now = self.row0_bytes * self.admitted() + self.row_bytes * self.rows
        self.peak_kv = max(self.peak_kv, kv_now)
        self.peak_batch = max(self.peak_batch, len(self.active))
        self.kv_gauge.set(kv_now)
        if self.sampler.enabled:
            self.sampler.sample(self.now, {
                "batch_size": len(self.active),
                "queue_depth": len(self.queue),
                "kv_resident_bytes": kv_now,
                "kv_reserved_bytes": self.reserved,
                "kv_budget_bytes": self.budget,
                # Cumulative device-cycle accounts; rate_series() turns
                # these into busy/idle fractions over time.
                "prefill_cycles": self.prefill_cycles,
                "decode_cycles": self.decode_cycles,
                "replay_cycles": self.replay_cycles,
                "idle_cycles": self.idle_cycles,
            })

    def result(self) -> ServingResult:
        return ServingResult(
            config=self.cfg, records=self.records, device_end_cycles=self.now,
            prefill_cycles_total=self.prefill_cycles,
            decode_cycles_total=self.decode_cycles,
            replay_cycles_total=self.replay_cycles,
            idle_cycles_total=self.idle_cycles,
            prefills=self.prefills, decode_iterations=self.decode_iterations,
            preemptions=self.preemptions, replayed_steps=self.replayed_steps,
            peak_kv_bytes=self.peak_kv, peak_queue_depth=self.peak_queue,
            peak_batch=self.peak_batch, clock_hz=self.clock_hz,
            rejections=self.rejections,
            details={"kv_budget_bytes": float(self.budget)},
        )


def simulate(
    requests: list[UtteranceRequest],
    config: ServingConfig | None = None,
    executor: ModeledExecutor | None = None,
    vtrace: VTraceRecorder | None = None,
    sampler: VSampler | None = None,
) -> ServingResult:
    """Convenience: run one trace through a fresh scheduler."""
    return ContinuousBatchingScheduler(config, executor, vtrace, sampler).run(requests)

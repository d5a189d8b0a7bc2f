"""``ContinuousBatchingScheduler.run`` as it stood before it became
phase handlers over one run state, kept as the test oracle.

The loop re-sums the K/V bytes of every member on every turn, asks the
executor for a record's reservation each time it needs it, pops its
arrival list from the front and looks every metric instrument up by
name on each use.  The body is unchanged apart from ``self`` becoming
the ``scheduler`` argument; ``tests/test_scheduler_oracle.py`` pins the
handlers equal to it on generated serving runs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.serving.request import RequestRecord, RequestState, UtteranceRequest
from repro.serving.scheduler import ContinuousBatchingScheduler, ServingResult


def _reservation(scheduler: ContinuousBatchingScheduler, record: RequestRecord) -> int:
    """Worst-case K/V bytes this request can grow to (its budget
    decoded in full) — what admission must reserve."""
    return scheduler.executor.resident_bytes(record.request.decode_tokens)


def reference_run(
    scheduler: ContinuousBatchingScheduler, requests: list[UtteranceRequest]
) -> ServingResult:
    cfg = scheduler.config
    ex = scheduler.executor
    vt = scheduler.vtrace
    sampler = scheduler.sampler
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
        if ex.resident_bytes(r.request.decode_tokens) > scheduler.kv_budget_bytes
    ]
    if oversized and not cfg.reject_oversized:
        worst = max(
            ex.resident_bytes(r.request.decode_tokens) for r in oversized
        )
        raise ValueError(
            f"kv_budget_bytes={scheduler.kv_budget_bytes} cannot hold even one "
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
                kv_budget_bytes=scheduler.kv_budget_bytes,
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
        need = _reservation(scheduler, record)
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
            if (reserved - freed + need <= scheduler.kv_budget_bytes
                    and admitted_count() - len(plan) < cfg.max_batch):
                break
            plan.append(victim)
            freed += _reservation(scheduler, victim.record)
        if (reserved - freed + need > scheduler.kv_budget_bytes
                or admitted_count() - len(plan) >= cfg.max_batch):
            return False
        for victim in plan:
            active.remove(victim)
            reserved -= _reservation(scheduler, victim.record)
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
                and reserved + _reservation(scheduler, head) <= scheduler.kv_budget_bytes
            )
            if not fits and not try_preempt_for(head):
                break
            heapq.heappop(queue)
            reserved += _reservation(scheduler, head)
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
                    reserved_bytes=_reservation(scheduler, head),
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
            # functional executor steps every session through the
            # fabric as one batch, whatever its prefix length.
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
                if entry.t >= entry.record.request.decode_tokens:
                    finished.append(entry)
            for entry in finished:
                active.remove(entry)
                reserved -= _reservation(scheduler, entry.record)
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
                "kv_budget_bytes": scheduler.kv_budget_bytes,
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
        details={"kv_budget_bytes": float(scheduler.kv_budget_bytes)},
    )


@dataclass
class _Active:
    """One in-flight decode-batch member."""

    record: RequestRecord
    #: Self-attention rows currently banked (prefix length).
    t: int
    #: Rows below this replay previously-decoded positions.
    replay_until: int = 0

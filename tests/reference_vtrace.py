"""The serving-log readers as they stood before the one fold of
:func:`repro.obs.vtrace.serving_log`, kept as the test oracle.

:func:`reference_cost_ledger` is the old ``build_cost_ledger``: its own
sweep over the sorted event stream, with the K/V residency integral
charged between consecutive event cycles and ``replay`` events linked
to their iteration by cycle.  :func:`reference_phases` is the old
``request_phases``.  The bodies are unchanged apart from the names; the
property in ``tests/test_serving_log.py`` pins the fold's readers equal
to them on generated serving runs.
"""

from __future__ import annotations

from repro.hw.controller import LatencyModel
from repro.hw.kv_cache import modeled_resident_bytes
from repro.hw.program import program_load_bytes
from repro.obs.costs import CostLedger, RequestCost, largest_remainder_split
from repro.obs.vtrace import VEvent
from repro.serving.scheduler import ServingResult, meets_slo


def _sorted_events(events: list[VEvent]) -> list[VEvent]:
    """Events by (cycle, emission index) — a stable virtual-time order."""
    return [ev for _, ev in sorted(enumerate(events), key=lambda t: (t[1].cycle, t[0]))]


def reference_phases(events: list[VEvent]) -> dict[int, list[tuple[str, int, int]]]:
    """Rebuild per-request lifecycle phases from the event stream.

    Returns ``request_id -> [(phase, start_cycle, end_cycle), ...]``
    with phases from :data:`PHASE_NAMES`: ``queued`` (arrival or
    post-preemption wait to prefill start), ``prefill``, ``decode``,
    ``preempted`` (eviction to readmission prefill) and ``rejected``
    (zero-length marker).  Any phase still open when the stream ends is
    closed at the last observed cycle.
    """
    phases: dict[int, list[tuple[str, int, int]]] = {}
    open_phase: dict[int, tuple[str, int]] = {}
    last_cycle = 0

    def close(rid: int, cycle: int) -> None:
        started = open_phase.pop(rid, None)
        if started is not None:
            name, start = started
            phases.setdefault(rid, []).append((name, start, cycle))

    for ev in _sorted_events(events):
        last_cycle = max(last_cycle, ev.cycle)
        rid = ev.request_id
        if rid is None:
            continue
        if ev.kind == "arrive":
            open_phase[rid] = ("queued", ev.cycle)
            phases.setdefault(rid, [])
        elif ev.kind == "prefill_start":
            close(rid, ev.cycle)
            open_phase[rid] = ("prefill", ev.cycle)
        elif ev.kind == "prefill_end":
            close(rid, ev.cycle)
            open_phase[rid] = ("decode", ev.cycle)
        elif ev.kind == "preempt":
            close(rid, ev.cycle)
            open_phase[rid] = ("preempted", ev.cycle)
        elif ev.kind == "complete":
            close(rid, ev.cycle)
        elif ev.kind == "reject":
            close(rid, ev.cycle)
            phases.setdefault(rid, []).append(("rejected", ev.cycle, ev.cycle))
    for rid in sorted(open_phase):
        close(rid, last_cycle)
    return phases


def reference_cost_ledger(
    result: ServingResult,
    events: list[VEvent],
    latency_model: LatencyModel | None = None,
) -> CostLedger:
    """Attribute every device cycle, HBM byte and KV byte-cycle of a
    serving run to the request (hence tenant) that caused it.

    ``events`` must be the :class:`~repro.obs.vtrace.VTraceRecorder`
    stream of the *same* run as ``result`` (schema >= 2, whose
    ``decode_iter`` events carry batch membership).  The returned
    ledger has already passed :meth:`~repro.obs.costs.CostLedger.
    verify_conservation` plus cross-checks against the scheduler's own
    prefill/decode totals, so a mis-split cannot escape silently.
    """
    if not events:
        raise ValueError(
            "build_cost_ledger needs the vtrace event stream; run the "
            "scheduler with a VTraceRecorder installed"
        )
    cfg = result.config
    lm = latency_model or LatencyModel()
    s, arch = cfg.s, cfg.architecture

    costs: dict[int, RequestCost] = {
        r.request.request_id: RequestCost(
            request_id=r.request.request_id, tenant=r.request.tenant
        )
        for r in result.records
    }

    # Per-prefix-length caches: the weight basis (stand-alone step
    # cycles), the step program's HBM bytes, and the modeled resident
    # bytes — each computed once per distinct t.
    step_cycles: dict[int, int] = {}
    step_bytes: dict[int, int] = {}
    resident: dict[int, int] = {}
    prefill_bytes = program_load_bytes(lm.full_pass_program(s))

    def weight_of(t: int) -> int:
        c = step_cycles.get(t)
        if c is None:
            c = step_cycles[t] = lm.decode_step_cycles(t, s, arch)
        return c

    def bytes_of(t: int) -> int:
        b = step_bytes.get(t)
        if b is None:
            b = step_bytes[t] = program_load_bytes(lm.decode_step_program(t, s))
        return b

    def resident_of(t: int) -> int:
        b = resident.get(t)
        if b is None:
            b = resident[t] = modeled_resident_bytes(lm.model, s, t)
        return b

    # Sweep state for the KV residency integral: requests holding a
    # cache right now -> rows banked (t).  A request opens at admission
    # (its reservation is taken and the cross-attention K/V will land),
    # grows by one row per iteration, and closes at completion or
    # preemption (rewind evicts the rows).
    holding: dict[int, int] = {}
    sweep_cycle = 0
    # The decode iteration just processed, for associating the replay
    # events that follow it at the same cycle with their shares.
    last_iter: tuple[int, dict[int, int]] | None = None

    def charge_residency(until: int) -> None:
        nonlocal sweep_cycle
        span = until - sweep_cycle
        if span > 0:
            for rid, t in holding.items():
                costs[rid].kv_byte_cycles += resident_of(t) * span
        sweep_cycle = max(sweep_cycle, until)

    for ev in _sorted_events(events):
        charge_residency(ev.cycle)
        rid = ev.request_id
        if ev.kind == "queue_wait":
            costs[rid].queue_cycles += int(ev.attrs["wait_cycles"])
        elif ev.kind == "admit":
            holding[rid] = 0
        elif ev.kind == "prefill_start":
            cycles = int(ev.attrs["cycles"])
            costs[rid].prefill_cycles += cycles
            costs[rid].hbm_load_bytes += prefill_bytes
            if ev.attrs.get("replay"):
                costs[rid].replay_cycles += cycles
        elif ev.kind == "decode_iter":
            rids = ev.attrs.get("request_ids")
            if rids is None:
                raise ValueError(
                    "decode_iter event lacks request_ids (event schema "
                    "< 2); re-run the scheduler to produce an "
                    "attributable stream"
                )
            lengths = [int(t) for t in ev.attrs["prefix_lengths"]]
            cycles = int(ev.attrs["cycles"])
            weights = [weight_of(t) for t in lengths]
            shares = largest_remainder_split(cycles, weights)
            if cfg.share_weights:
                # The panels streamed once for the whole batch (the
                # iteration's loads are member 0's chain); apportion
                # those bytes by the same weight basis as the cycles.
                byte_shares = largest_remainder_split(
                    bytes_of(lengths[0]), weights
                )
            else:
                byte_shares = [bytes_of(t) for t in lengths]
            iter_shares: dict[int, int] = {}
            for member, t, share, bshare in zip(
                rids, lengths, shares, byte_shares
            ):
                costs[member].decode_cycles += share
                costs[member].hbm_load_bytes += bshare
                iter_shares[member] = share
                holding[member] = t
            last_iter = (ev.cycle, iter_shares)
        elif ev.kind == "replay":
            if last_iter is not None and last_iter[0] == ev.cycle:
                costs[rid].replay_cycles += last_iter[1].get(rid, 0)
        elif ev.kind == "preempt":
            costs[rid].preemptions += 1
            holding.pop(rid, None)
        elif ev.kind == "complete":
            holding.pop(rid, None)
            rc = costs[rid]
            rc.completed = True
            rc.e2e_ms = float(ev.attrs["e2e_ms"])
            rc.good = meets_slo(rc.e2e_ms, cfg.slo_ms)
        elif ev.kind == "reject":
            costs[rid].rejected = True
    charge_residency(result.device_end_cycles)

    ledger = CostLedger(
        requests=[costs[rid] for rid in sorted(costs)],
        makespan_cycles=result.device_end_cycles,
        unattributed_cycles=result.idle_cycles_total,
        clock_hz=result.clock_hz,
        metadata={
            "architecture": cfg.architecture,
            "s": cfg.s,
            "max_batch": cfg.max_batch,
            "share_weights": cfg.share_weights,
            "slo_ms": cfg.slo_ms,
        },
    )
    # Cross-check against the scheduler's own aggregate account before
    # the conservation identity: a mis-split that happened to cancel
    # out between phases would still be caught here.
    totals = ledger.totals()
    if totals["prefill_cycles"] != result.prefill_cycles_total:
        raise ValueError(
            f"prefill attribution drifted: ledger "
            f"{totals['prefill_cycles']} != scheduler "
            f"{result.prefill_cycles_total}"
        )
    if totals["decode_cycles"] != result.decode_cycles_total:
        raise ValueError(
            f"decode attribution drifted: ledger "
            f"{totals['decode_cycles']} != scheduler "
            f"{result.decode_cycles_total}"
        )
    ledger.verify_conservation()
    return ledger

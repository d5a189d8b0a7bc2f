"""Builds the per-request / per-tenant cost ledger of a serving run.

The scheduler already accounts device time exactly — every cycle of
``device_end_cycles`` is a prefill pass, a decode iteration, or an
idle jump to the next arrival — but only in aggregate.  This module
reads the vtrace event log (:func:`repro.obs.vtrace.serving_log`) and
assigns every one of those cycles to the request that caused it:

* a **prefill** pass (and a re-prefill after preemption) is one
  request's alone — full cycles, full program HBM bytes;
* a **decode iteration** is split across its batch members by
  largest-remainder integer apportionment
  (:func:`repro.obs.costs.largest_remainder_split`), weighted by each
  member's stand-alone step cost — the same rule as
  :meth:`repro.hw.controller.LatencyModel.per_member_cycle_shares`,
  applied to the *scheduled* iteration total from the event, so shares
  sum exactly to what the device actually spent;
* **idle** cycles are attributable to no request and stay
  unattributed.

That makes the conservation invariant

    sum(per-request attributed cycles) + unattributed == makespan

hold in exact integer arithmetic (:meth:`repro.obs.costs.CostLedger.
verify_conservation` — checked eagerly at build time), including runs
with preemption and replay: replayed work is charged to the preempted
request as ``replay_cycles``, a *subset* of its attributed total, just
as the scheduler's ``replay_cycles_total`` is a subset of decode
cycles.

Beyond cycles, each request accumulates its HBM weight-stream bytes
(from the lowered program IR via :func:`repro.hw.program.
program_load_bytes`) and a KV-cache residency integral in byte-cycles
(modeled resident bytes held from admission to completion or
preemption, sized per :func:`repro.hw.memory.modeled_resident_bytes`
at the rows banked by the end of each iteration), summed over the
log's residency intervals.

:func:`estimate_capacity` turns the ledger into the capacity
extrapolation ROADMAP item 5 asks for: mean attributed cycles per
completed request -> utterances/s one card sustains -> cards needed
for a target offered load at a utilization cap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from repro.hw.controller import LatencyModel
from repro.hw.memory import modeled_resident_bytes
from repro.hw.program import program_load_bytes
from repro.obs import metrics as obs_metrics
from repro.obs.costs import CostLedger, RequestCost, largest_remainder_split
from repro.obs.vtrace import VEvent, serving_log
from repro.serving.scheduler import ServingResult, meets_slo

__all__ = [
    "build_cost_ledger",
    "CapacityEstimate",
    "estimate_capacity",
    "record_cost_metrics",
    "render_cost_dashboard",
]


def build_cost_ledger(
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
    log = serving_log(events)
    if log.missing:
        pos, kind, attr = log.missing[0]
        raise ValueError(
            f"event {pos} ({kind}) lacks the '{attr}' attr the cost ledger "
            "needs; re-run the scheduler to produce an attributable stream"
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

    # Per-prefix-length costs, each computed once per distinct t: the
    # weight basis (stand-alone step cycles), the step program's HBM
    # bytes, and the modeled resident bytes.
    prefill_bytes = program_load_bytes(lm.full_pass_program(s))

    @functools.cache
    def weight_of(t: int) -> int:
        return lm.decode_step_cycles(t, s, arch)

    @functools.cache
    def bytes_of(t: int) -> int:
        return program_load_bytes(lm.decode_step_program(t, s))

    @functools.cache
    def resident_of(t: int) -> int:
        return modeled_resident_bytes(lm.model, s, t)

    # Per-request accounts and K/V residency from the log's requests;
    # device cycles and HBM bytes from its passes.
    for rid, req in log.requests.items():
        rc = costs.get(rid)
        if rc is None:
            pos, kind = req.first_event
            raise ValueError(
                f"event {pos} ({kind}) names request {rid}, which the "
                "serving result does not hold; pass the events of the "
                "same run"
            )
        rc.queue_cycles = req.queue_cycles
        rc.preemptions = req.preemptions
        rc.rejected = req.rejected
        rc.kv_byte_cycles = sum(
            resident_of(rows) * (end - start)
            for rows, start, end in req.residency
        )
        if req.complete_cycle is not None:
            rc.completed = True
            rc.e2e_ms = float(req.e2e_ms)
            rc.good = meets_slo(rc.e2e_ms, cfg.slo_ms)
    for p in log.passes:
        if p.kind == "prefill":
            shares, byte_shares = [p.cycles], [prefill_bytes]
        else:
            weights = [weight_of(t) for t in p.prefix_lengths]
            shares = largest_remainder_split(p.cycles, weights)
            if cfg.share_weights:
                # The panels streamed once for the whole batch (the
                # iteration's loads are member 0's chain); apportion
                # those bytes by the same weight basis as the cycles.
                byte_shares = largest_remainder_split(
                    bytes_of(p.prefix_lengths[0]), weights
                )
            else:
                byte_shares = [bytes_of(t) for t in p.prefix_lengths]
        for member, share, bshare in zip(p.members, shares, byte_shares):
            rc = costs[member]
            if p.kind == "prefill":
                rc.prefill_cycles += share
            else:
                rc.decode_cycles += share
            rc.hbm_load_bytes += bshare
            if member in p.replays:
                rc.replay_cycles += share

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
    for phase in ("prefill", "decode"):
        ours = totals[f"{phase}_cycles"]
        theirs = getattr(result, f"{phase}_cycles_total")
        if ours != theirs:
            raise ValueError(
                f"{phase} attribution drifted: ledger {ours} != scheduler "
                f"{theirs}"
            )
    ledger.verify_conservation()
    return ledger


# -------------------------------------------------- capacity extrapolation
@dataclass(frozen=True)
class CapacityEstimate:
    """Cycles/request -> utterances/s/card -> cards for a target load.

    The seed of ROADMAP item 5: a deliberately simple steady-state
    model (mean attributed cycles per completed request, one card =
    one modeled accelerator at its fabric clock) whose inputs are the
    exactly-conserved ledger totals rather than wall-clock guesses.
    """

    #: Mean attributed device cycles per completed request (all
    #: attributed work divided by completions, so preemption overhead
    #: and abandoned work are charged, not dropped).
    cycles_per_request: float
    #: Steady-state completions one card sustains at 100% device time.
    utterances_per_s_per_card: float
    target_rps: float
    #: Fraction of a card the plan may actually load (headroom for
    #: queueing transients keeps the SLO attainable at the knee).
    utilization_cap: float
    cards_needed: int
    cards_at_full_utilization: int


def estimate_capacity(
    ledger: CostLedger,
    target_rps: float,
    utilization_cap: float = 0.7,
) -> CapacityEstimate:
    """Extrapolate fleet size from the ledger's exact per-request costs."""
    if target_rps <= 0:
        raise ValueError("target_rps must be positive")
    if not 0 < utilization_cap <= 1:
        raise ValueError("utilization_cap must be in (0, 1]")
    completed = sum(1 for rc in ledger.requests if rc.completed)
    if completed == 0:
        raise ValueError("capacity extrapolation needs completed requests")
    cycles_per_request = ledger.attributed_cycles / completed
    per_card = ledger.clock_hz / cycles_per_request
    return CapacityEstimate(
        cycles_per_request=cycles_per_request,
        utterances_per_s_per_card=per_card,
        target_rps=float(target_rps),
        utilization_cap=float(utilization_cap),
        cards_needed=math.ceil(target_rps / (utilization_cap * per_card)),
        cards_at_full_utilization=math.ceil(target_rps / per_card),
    )


# ----------------------------------------------------------- metrics
def record_cost_metrics(ledger: CostLedger) -> None:
    """Publish the ledger as the ``repro.serving.cost.*`` metric
    family (per-tenant series labeled ``tenant``).  A no-op unless
    telemetry is enabled, like every other instrumented layer."""
    if not obs_metrics.enabled():
        return
    reg = obs_metrics.registry()
    reg.counter("repro.serving.cost.unattributed_cycles").inc(
        ledger.unattributed_cycles
    )
    reg.gauge("repro.serving.cost.jain_index").set(ledger.jain_fairness())
    for tc in ledger.per_tenant():
        label = str(tc.tenant)
        reg.counter(
            "repro.serving.cost.attributed_cycles", tenant=label
        ).inc(tc.attributed_cycles)
        reg.counter("repro.serving.cost.hbm_bytes", tenant=label).inc(
            tc.hbm_load_bytes
        )
        reg.counter("repro.serving.cost.kv_byte_cycles", tenant=label).inc(
            tc.kv_byte_cycles
        )
        reg.counter("repro.serving.cost.requests", tenant=label).inc(
            tc.requests
        )


# --------------------------------------------------------- dashboard
def render_cost_dashboard(
    ledger: CostLedger,
    capacity: CapacityEstimate | None = None,
    by_tenant: bool = False,
) -> str:
    """Human-readable cost report: conserved totals, optional
    per-tenant breakdown with fairness readouts, and the capacity
    extrapolation."""
    totals = ledger.totals()
    makespan = totals["makespan_cycles"]
    util = totals["attributed_cycles"] / makespan if makespan else 0.0
    lines = [
        "cost attribution (exact integer conservation)",
        f"  makespan       {makespan:>14,} cycles",
        f"  attributed     {totals['attributed_cycles']:>14,} cycles "
        f"({util:.1%} of device time)",
        f"    prefill      {totals['prefill_cycles']:>14,} cycles",
        f"    decode       {totals['decode_cycles']:>14,} cycles",
        f"    replay tax   {totals['replay_cycles']:>14,} cycles (subset)",
        f"  unattributed   {totals['unattributed_cycles']:>14,} cycles (idle)",
        f"  hbm streamed   {totals['hbm_load_bytes']:>14,} bytes",
        f"  kv residency   {totals['kv_byte_cycles']:>14,} byte-cycles",
        f"  queue waiting  {totals['queue_cycles']:>14,} cycles (overlapped)",
    ]
    tenants = ledger.per_tenant()
    if by_tenant or len(tenants) > 1:
        lines.append("")
        lines.append(
            "  tenant  requests  done  good   cycles           hbm bytes"
            "        kv byte-cycles   cycle share"
        )
        attributed = totals["attributed_cycles"]
        for tc in tenants:
            share = tc.attributed_cycles / attributed if attributed else 0.0
            lines.append(
                f"  {tc.tenant:>6}  {tc.requests:>8}  {tc.completed:>4}  "
                f"{tc.good:>4}   {tc.attributed_cycles:>14,}  "
                f"{tc.hbm_load_bytes:>14,}  {tc.kv_byte_cycles:>20,}   "
                f"{share:>6.1%}"
            )
        lines.append(
            f"  jain fairness index (cycles): {ledger.jain_fairness():.4f}"
        )
        for tenant, dom in sorted(ledger.dominant_resource_shares().items()):
            lines.append(
                f"  tenant {tenant} dominant resource: {dom['resource']} "
                f"({dom['share']:.1%})"
            )
    if capacity is not None:
        lines += [
            "",
            "capacity extrapolation",
            f"  cycles/request          {capacity.cycles_per_request:>14,.0f}",
            f"  utterances/s per card   "
            f"{capacity.utterances_per_s_per_card:>14.2f}",
            f"  target load             {capacity.target_rps:>14.2f} req/s",
            f"  cards @ {capacity.utilization_cap:.0%} utilization "
            f"  {capacity.cards_needed:>10}",
            f"  cards @ 100% (no headroom) {capacity.cards_at_full_utilization:>7}",
        ]
    return "\n".join(lines)

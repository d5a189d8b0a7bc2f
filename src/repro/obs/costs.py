"""Per-request / per-tenant cost attribution primitives.

The serving scheduler is a shared device: prefill passes serve one
request, but a continuous-batching decode iteration streams each
decoder's weight panels from HBM *once for the whole batch* — the
amortization the serving layer exists for.  Any per-request cost
readout therefore needs an apportionment rule, and it must be exact:
the bench harness gates cycle totals to the integer, so attributed
shares that round away even one cycle would break the conservation
invariant the ledger is built on.

The rule used throughout is the **largest-remainder (Hamilton)
split** (:func:`largest_remainder_split`): each batch member is
weighted by what its decode step would cost stand-alone
(:meth:`repro.hw.controller.LatencyModel.decode_step_cycles`), the
scheduled iteration total is divided proportionally in exact integer
arithmetic, and the leftover cycles go to the largest fractional
remainders (ties to the lowest index).  Shares always sum exactly to
the total being split.

A :class:`CostLedger` holds one :class:`RequestCost` per request and
the run-level account, under the PR-5-style conservation invariant

    sum(attributed cycles) + unattributed (idle) == makespan

checked in exact integer arithmetic by :meth:`CostLedger.
verify_conservation`.  :meth:`CostLedger.per_tenant` rolls requests up
to :class:`TenantCost` totals with fairness readouts (goodput share,
dominant-resource share, Jain index).

:func:`cost_flow_events` correlates the layers in the merged Perfetto
trace: flow arrows from each request's lifecycle lane (pid 3, see
:func:`repro.obs.vtrace.request_track_events`) to the device-lane
slices it paid for (pid 1, :func:`repro.obs.export.chrome_trace`), so
an SLO violation drills down to the exact device work that request
was charged.

The ledger is *built* from a serving run by
:func:`repro.serving.accounting.build_cost_ledger`; this module keeps
the arithmetic and trace plumbing dependency-light so the ``hw`` layer
can borrow :func:`largest_remainder_split` without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.obs.export import ACCEL_PID, engine_lane_tids
from repro.obs.vtrace import REQUEST_PID, VEvent, serving_log

__all__ = [
    "largest_remainder_split",
    "jain_index",
    "RequestCost",
    "TenantCost",
    "CostLedger",
    "cost_flow_events",
]


def largest_remainder_split(total: int, weights: Sequence[int]) -> list[int]:
    """Split an integer ``total`` proportionally to ``weights`` so the
    shares sum *exactly* to ``total`` (largest-remainder method).

    Pure integer arithmetic: member ``i`` gets
    ``floor(total * w_i / W)`` plus one of the leftover units, handed
    out by descending remainder ``(total * w_i) mod W`` with ties to
    the lowest index — deterministic and drift-free.  All-zero weights
    degrade to an equal split.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    if not weights:
        raise ValueError("weights must be non-empty")
    w = [int(x) for x in weights]
    if any(x < 0 for x in w):
        raise ValueError("weights must be non-negative")
    total = int(total)
    wsum = sum(w)
    if wsum == 0:
        w = [1] * len(w)
        wsum = len(w)
    shares = [total * x // wsum for x in w]
    remainders = [total * x % wsum for x in w]
    leftover = total - sum(shares)
    for i in sorted(range(len(w)), key=lambda i: (-remainders[i], i))[:leftover]:
        shares[i] += 1
    return shares


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` over
    non-negative allocations: 1.0 for a perfectly even split, ``1/n``
    when one member holds everything.  An all-zero allocation is
    vacuously fair (1.0)."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("values must be non-empty")
    if any(v < 0 for v in vals):
        raise ValueError("values must be non-negative")
    total = sum(vals)
    if total == 0:
        return 1.0
    return total * total / (len(vals) * sum(v * v for v in vals))


@dataclass
class RequestCost:
    """Everything one request was charged, in exact integer units."""

    request_id: int
    tenant: int = 0
    #: Prefill passes this request triggered (re-prefills included).
    prefill_cycles: int = 0
    #: Largest-remainder shares of every decode iteration it joined
    #: (replayed iterations included — replay is a cost, not a freebie).
    decode_cycles: int = 0
    #: The preemption tax inside the above: re-prefill passes plus the
    #: shares of iterations spent replaying previously-decoded steps.
    replay_cycles: int = 0
    #: Admission-pool waiting (arrival->admit plus preempt->readmit).
    #: Queueing overlaps device work for other requests, so it is *not*
    #: part of the attributed-cycle conservation sum.
    queue_cycles: int = 0
    #: HBM weight-stream bytes: full prefill programs, plus the
    #: apportioned share of each (shared) decode iteration's stream.
    hbm_load_bytes: int = 0
    #: KV-cache residency integral: modeled resident bytes x cycles
    #: held, from admission to completion/preemption.
    kv_byte_cycles: int = 0
    preemptions: int = 0
    completed: bool = False
    rejected: bool = False
    #: Completed within the latency SLO (goodput numerator).
    good: bool = False
    e2e_ms: float | None = None

    @property
    def attributed_cycles(self) -> int:
        """Device cycles this request is charged for (prefill + decode
        shares); the quantity the conservation invariant sums."""
        return self.prefill_cycles + self.decode_cycles


@dataclass
class TenantCost:
    """One tenant's rollup of :class:`RequestCost` records."""

    tenant: int
    requests: int = 0
    completed: int = 0
    good: int = 0
    rejected: int = 0
    prefill_cycles: int = 0
    decode_cycles: int = 0
    replay_cycles: int = 0
    queue_cycles: int = 0
    hbm_load_bytes: int = 0
    kv_byte_cycles: int = 0

    @property
    def attributed_cycles(self) -> int:
        return self.prefill_cycles + self.decode_cycles

    def add(self, rc: RequestCost) -> None:
        self.requests += 1
        self.completed += int(rc.completed)
        self.good += int(rc.good)
        self.rejected += int(rc.rejected)
        self.prefill_cycles += rc.prefill_cycles
        self.decode_cycles += rc.decode_cycles
        self.replay_cycles += rc.replay_cycles
        self.queue_cycles += rc.queue_cycles
        self.hbm_load_bytes += rc.hbm_load_bytes
        self.kv_byte_cycles += rc.kv_byte_cycles


#: Resources a tenant can be dominant in (DRF-style share accounting).
_RESOURCES = ("attributed_cycles", "hbm_load_bytes", "kv_byte_cycles")


@dataclass
class CostLedger:
    """The full cost account of one serving run.

    ``unattributed_cycles`` is the device's idle time — cycles no
    request paid for — so the conservation invariant is exactly the
    scheduler's own device-time account:

        sum(rc.attributed_cycles) + unattributed_cycles == makespan
    """

    requests: list[RequestCost]
    #: Device time at the last scheduler event, cycles.
    makespan_cycles: int
    #: Idle cycles (device waiting for arrivals) — attributable to no
    #: request by construction.
    unattributed_cycles: int
    clock_hz: float
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------ sums
    @property
    def attributed_cycles(self) -> int:
        return sum(rc.attributed_cycles for rc in self.requests)

    def request(self, request_id: int) -> RequestCost:
        for rc in self.requests:
            if rc.request_id == request_id:
                return rc
        raise KeyError(f"no cost record for request {request_id}")

    def totals(self) -> dict[str, int]:
        """Run-level integer totals across all requests."""
        return {
            "makespan_cycles": self.makespan_cycles,
            "attributed_cycles": self.attributed_cycles,
            "unattributed_cycles": self.unattributed_cycles,
            "prefill_cycles": sum(rc.prefill_cycles for rc in self.requests),
            "decode_cycles": sum(rc.decode_cycles for rc in self.requests),
            "replay_cycles": sum(rc.replay_cycles for rc in self.requests),
            "queue_cycles": sum(rc.queue_cycles for rc in self.requests),
            "hbm_load_bytes": sum(rc.hbm_load_bytes for rc in self.requests),
            "kv_byte_cycles": sum(rc.kv_byte_cycles for rc in self.requests),
        }

    # --------------------------------------------------- conservation
    def verify_conservation(self) -> None:
        """Exact-integer conservation: every device cycle is either
        attributed to exactly one request or declared idle.  Raises
        :class:`ValueError` with the full account on any mismatch."""
        attributed = self.attributed_cycles
        if attributed + self.unattributed_cycles != self.makespan_cycles:
            raise ValueError(
                "cost-attribution conservation violated: "
                f"attributed={attributed} + "
                f"unattributed={self.unattributed_cycles} != "
                f"makespan={self.makespan_cycles} "
                f"(off by {attributed + self.unattributed_cycles - self.makespan_cycles})"
            )

    # -------------------------------------------------------- tenants
    def per_tenant(self) -> list[TenantCost]:
        """Rollup to per-tenant totals, sorted by tenant id.  The
        tenant sums reproduce the global totals exactly because every
        request belongs to exactly one tenant."""
        by: dict[int, TenantCost] = {}
        for rc in self.requests:
            tc = by.get(rc.tenant)
            if tc is None:
                tc = by[rc.tenant] = TenantCost(tenant=rc.tenant)
            tc.add(rc)
        return [by[t] for t in sorted(by)]

    def goodput_shares(self) -> dict[int, float]:
        """Each tenant's share of SLO-meeting completions."""
        tenants = self.per_tenant()
        total_good = sum(tc.good for tc in tenants)
        if total_good == 0:
            return {tc.tenant: 0.0 for tc in tenants}
        return {tc.tenant: tc.good / total_good for tc in tenants}

    def dominant_resource_shares(self) -> dict[int, dict]:
        """DRF-style readout: each tenant's largest share across the
        accounted resources (cycles, HBM bytes, KV byte-cycles)."""
        tenants = self.per_tenant()
        totals = {
            res: sum(getattr(tc, res) for tc in tenants) for res in _RESOURCES
        }
        out: dict[int, dict] = {}
        for tc in tenants:
            best_res, best_share = _RESOURCES[0], 0.0
            for res in _RESOURCES:
                share = getattr(tc, res) / totals[res] if totals[res] else 0.0
                if share > best_share:
                    best_res, best_share = res, share
            out[tc.tenant] = {"resource": best_res, "share": best_share}
        return out

    def jain_fairness(self) -> float:
        """Jain index over per-tenant attributed cycles."""
        tenants = self.per_tenant()
        if not tenants:
            return 1.0
        return jain_index([tc.attributed_cycles for tc in tenants])

    # --------------------------------------------------------- export
    def as_dict(self) -> dict:
        """JSON-ready form: totals, per-request and per-tenant rows,
        fairness readouts.  Integer fields stay integers."""
        return {
            "totals": self.totals(),
            "clock_hz": self.clock_hz,
            "metadata": dict(self.metadata),
            "requests": [
                {
                    "request_id": rc.request_id,
                    "tenant": rc.tenant,
                    "prefill_cycles": rc.prefill_cycles,
                    "decode_cycles": rc.decode_cycles,
                    "replay_cycles": rc.replay_cycles,
                    "queue_cycles": rc.queue_cycles,
                    "hbm_load_bytes": rc.hbm_load_bytes,
                    "kv_byte_cycles": rc.kv_byte_cycles,
                    "preemptions": rc.preemptions,
                    "completed": rc.completed,
                    "rejected": rc.rejected,
                    "good": rc.good,
                    "e2e_ms": rc.e2e_ms,
                }
                for rc in self.requests
            ],
            "tenants": [
                {
                    "tenant": tc.tenant,
                    "requests": tc.requests,
                    "completed": tc.completed,
                    "good": tc.good,
                    "rejected": tc.rejected,
                    "attributed_cycles": tc.attributed_cycles,
                    "prefill_cycles": tc.prefill_cycles,
                    "decode_cycles": tc.decode_cycles,
                    "replay_cycles": tc.replay_cycles,
                    "queue_cycles": tc.queue_cycles,
                    "hbm_load_bytes": tc.hbm_load_bytes,
                    "kv_byte_cycles": tc.kv_byte_cycles,
                }
                for tc in self.per_tenant()
            ],
            "fairness": {
                "jain_index": self.jain_fairness(),
                "goodput_shares": {
                    str(t): s for t, s in self.goodput_shares().items()
                },
                "dominant_resource": {
                    str(t): d
                    for t, d in self.dominant_resource_shares().items()
                },
            },
        }


# ------------------------------------------------- Perfetto flow events
def cost_flow_events(
    events: list[VEvent],
    clock_mhz: float = 300.0,
    max_decode_flows: int = 2,
) -> list[dict]:
    """Chrome-trace flow events binding each request's lifecycle lane
    to the device-lane slices it paid for.

    For every prefill pass, a flow arrow runs from the request's
    ``prefill`` slice on its pid-3 lane to the matching
    ``device.prefill`` slice; for the first ``max_decode_flows`` decode
    iterations a request joins, an arrow runs from its ``decode`` slice
    to the ``device.decode`` slice it shared (capped so wide batches
    don't bury the trace in arrows).  Merge the result into
    :func:`repro.obs.export.chrome_trace` as ``extra_events`` together
    with :func:`repro.obs.vtrace.request_track_events` — both are
    scaled by the same ``clock_mhz``, and the lane/tid assignment is
    shared with the exporters (:func:`repro.obs.export.
    engine_lane_tids`, :func:`repro.obs.vtrace.request_lane_tids`), so
    the arrows bind to the right slices.

    The arrows follow the device passes of :func:`repro.obs.vtrace.
    serving_log`; a schema-v1 stream (no decode membership) yields
    prefill flows only.
    """
    if clock_mhz <= 0:
        raise ValueError("clock_mhz must be positive")
    scale = 1.0 / clock_mhz
    log = serving_log(events)
    req_tid = log.lane_tids
    dev_tid = engine_lane_tids(p.lane for p in log.passes)
    out: list[dict] = []
    decode_flows: dict[int, int] = {}
    for p in log.passes:
        for rid in p.members:
            if p.kind == "decode":
                if decode_flows.get(rid, 0) >= max_decode_flows:
                    continue
                decode_flows[rid] = decode_flows.get(rid, 0) + 1
            # Two events per arrow; arrow ids count from 1.
            common = {"name": f"cost:r{rid}:{p.kind}", "cat": "serving",
                      "id": len(out) // 2 + 1, "ts": p.cycle * scale}
            out.append({**common, "ph": "s", "pid": REQUEST_PID,
                        "tid": req_tid[rid], "args": {"request_id": rid}})
            out.append({**common, "ph": "f", "bp": "e", "pid": ACCEL_PID,
                        "tid": dev_tid[p.lane], "args": {"request_id": rid}})
    return out

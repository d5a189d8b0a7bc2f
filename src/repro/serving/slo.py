"""Declarative latency SLOs over the virtual-time serving simulator.

An :class:`SloObjective` states the promise — "``target`` of requests
complete within ``latency_ms``" — and :func:`evaluate_slo` holds one
simulated run to it using the lifecycle events the scheduler emitted,
read through their one fold (:func:`repro.obs.vtrace.serving_log`):

* **attainment** — the fraction of completions meeting the latency
  bound (the boundary itself is *closed*:
  :func:`repro.serving.scheduler.meets_slo`, shared with the
  scheduler's goodput accounting so the two can never disagree);
* **error budget** — the miss allowance ``(1 - target) * total`` and
  how much of it the run consumed;
* **burn rate** — per :class:`SloWindow`, the rolling bad fraction
  divided by the allowance.  A burn of 1.0 spends the budget exactly
  at the promised pace; the classic multi-window alert fires on the
  rising edge where *every* window burns past its threshold (a short
  window for responsiveness, a long one to suppress blips), and the
  alert is emitted back into the event stream as ``slo_alert`` so it
  lands in the merged Perfetto trace;
* **violation drill-down** — each missed request is attributed
  *macro* (which lifecycle phase ate the latency: queueing, prefill,
  decode, or preemption+replay) from its rebuilt phase timeline, and
  *micro* (which PR-5 stall cause bounds that phase's block program:
  :func:`phase_stall_report` over :func:`repro.hw.introspect.
  classify_stalls`).

Everything is arithmetic over integer-cycle events — deterministic,
so the bench harness exact-gates alert and violation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.controller import LatencyModel
from repro.hw.introspect import classify_stalls
from repro.obs import metrics as obs_metrics
from repro.obs.diffprof import RunProfile
from repro.obs.vtrace import VEvent, VTraceRecorder, serving_log
from repro.serving.scheduler import ServingResult, meets_slo

__all__ = [
    "SloWindow",
    "SloObjective",
    "ViolationAttribution",
    "SloAlert",
    "SloReport",
    "phase_stall_report",
    "evaluate_slo",
    "render_slo_dashboard",
]

#: Macro attribution buckets, in tie-break priority order.
MACRO_PHASES = ("queueing", "prefill", "decode", "preemption")


@dataclass(frozen=True)
class SloWindow:
    """One burn-rate evaluation window."""

    name: str
    #: Rolling window span, virtual seconds.
    window_s: float
    #: Burn rate at or above which this window votes to alert.
    burn_threshold: float

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.burn_threshold <= 0:
            raise ValueError("burn_threshold must be positive")


@dataclass(frozen=True)
class SloObjective:
    """A latency promise: ``target`` of requests within ``latency_ms``."""

    latency_ms: float
    #: Attainment target in (0, 1); the error budget is ``1 - target``.
    target: float = 0.95
    name: str = "e2e_latency"
    #: Multi-window burn-rate alert policy: ALL windows must exceed
    #: their threshold simultaneously (fast window reacts, slow window
    #: confirms the burn is sustained).
    windows: tuple[SloWindow, ...] = (
        SloWindow("fast", window_s=2.0, burn_threshold=4.0),
        SloWindow("slow", window_s=10.0, burn_threshold=2.0),
    )

    def __post_init__(self) -> None:
        if self.latency_ms <= 0:
            raise ValueError("latency_ms must be positive")
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if not self.windows:
            raise ValueError("need at least one burn-rate window")


@dataclass(frozen=True)
class SloAlert:
    """One rising-edge multi-window burn alert (carried in the trace)."""

    cycle: int
    #: Burn rate per window name at the moment of firing.
    burn: dict

    def as_dict(self) -> dict:
        return {"cycle": self.cycle, "burn": dict(self.burn)}


@dataclass(frozen=True)
class ViolationAttribution:
    """Why one request missed the SLO: macro phase + micro stall cause."""

    request_id: int
    e2e_ms: float
    #: Virtual milliseconds spent per macro bucket.
    phase_ms: dict
    #: Dominant bucket from :data:`MACRO_PHASES`.
    macro: str
    #: Dominant PSA stall cause of the phase's block program
    #: (PR-5 taxonomy), or ``"none"``.
    micro: str
    #: Which block program the micro verdict was classified over.
    stall_program: str

    def as_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "e2e_ms": round(self.e2e_ms, 3),
            "phase_ms": {k: round(v, 3) for k, v in self.phase_ms.items()},
            "macro": self.macro,
            "micro": self.micro,
            "stall_program": self.stall_program,
        }


@dataclass
class SloReport:
    """One run held against one objective."""

    objective: SloObjective
    total: int
    good: int
    attainment: float
    #: Fraction of the error budget consumed (can exceed 1.0).
    error_budget_consumed: float
    #: Final burn rate per window name (over each window's span ending
    #: at the last completion).
    burn: dict
    alerts: list[SloAlert]
    violations: list[ViolationAttribution]
    #: Rolling attainment over the slowest window, per completion:
    #: ``(cycle, attainment)``.
    attainment_series: list[tuple[int, float]] = field(default_factory=list)

    @property
    def violated(self) -> int:
        return self.total - self.good

    def as_dict(self) -> dict:
        return {
            "objective": {
                "name": self.objective.name,
                "latency_ms": self.objective.latency_ms,
                "target": self.objective.target,
                "windows": [
                    {
                        "name": w.name,
                        "window_s": w.window_s,
                        "burn_threshold": w.burn_threshold,
                    }
                    for w in self.objective.windows
                ],
            },
            "total": self.total,
            "good": self.good,
            "violated": self.violated,
            "attainment": round(self.attainment, 6),
            "error_budget_consumed": round(self.error_budget_consumed, 6),
            "burn": {k: round(v, 6) for k, v in self.burn.items()},
            "alerts": [a.as_dict() for a in self.alerts],
            "violations": [v.as_dict() for v in self.violations],
            "attainment_series": [
                [cycle, round(value, 6)] for cycle, value in self.attainment_series
            ],
        }


def phase_stall_report(
    lm: LatencyModel, phase: str, s: int, architecture: str
) -> tuple[str, RunProfile]:
    """The PR-5 stall taxonomy for one serving phase's block program.

    ``prefill`` classifies the full padded pass; ``decode`` (and the
    replay work of ``preemption``, which re-runs decode steps) a
    representative mid-sequence decode step.  Shared by the saturation
    attribution (:func:`repro.serving.analysis.attribute_saturation`)
    and the per-violation drill-down here, so both name stall causes
    over identical programs.  The device profile is verified
    conservative when it is built.
    """
    if phase == "prefill":
        program = lm.full_pass_program(s)
        label = f"full_pass(s={s})"
    elif phase in ("decode", "preemption"):
        t_repr = max(s // 2, 1)
        program = lm.decode_step_program(t_repr, s)
        label = f"decode_step(t={t_repr}, s={s})"
    else:
        raise ValueError(
            f"no block program for phase '{phase}'; "
            "expected prefill/decode/preemption"
        )
    return label, classify_stalls(program, architecture)


#: Lifecycle phase -> the macro bucket its time is charged to.
_MACRO_OF = {"queued": "queueing", "prefill": "prefill", "decode": "decode",
             "preempted": "preemption"}


def _macro_phase_ms(
    phases: list[tuple[str, int, int]], replay_cycles: int, clock_hz: float
) -> dict:
    """Fold a request's phase timeline into the macro buckets,
    reassigning replayed decode work from ``decode`` to ``preemption``
    (replay is decode cycles the request only needed because it was
    evicted)."""
    to_ms = 1e3 / clock_hz
    out = {name: 0.0 for name in MACRO_PHASES}
    for name, start, end in phases:
        if name in _MACRO_OF:
            out[_MACRO_OF[name]] += (end - start) * to_ms
    replay_ms = replay_cycles * to_ms
    shift = min(out["decode"], replay_ms)
    out["decode"] -= shift
    out["preemption"] += shift
    return out


def evaluate_slo(
    result: ServingResult,
    events: list[VEvent],
    objective: SloObjective | None = None,
    latency_model: LatencyModel | None = None,
    recorder: VTraceRecorder | None = None,
) -> SloReport:
    """Hold one simulated run to one objective (module docstring).

    ``events`` is the lifecycle stream the scheduler emitted for this
    run; ``recorder`` (usually the same one) receives ``slo_alert``
    events so alerts travel with the trace.  When telemetry is enabled
    the ``repro.serving.slo.*`` metric family is populated.
    """
    objective = objective or SloObjective(latency_ms=result.config.slo_ms)
    lm = latency_model or LatencyModel()
    clock_hz = result.clock_hz
    records = {r.request.request_id: r for r in result.records}

    log = serving_log(events)
    flags = [
        (log.requests[rid].complete_cycle, rid,
         meets_slo(records[rid].e2e_ms, objective.latency_ms))
        for rid in log.completions
    ]

    total = len(flags)
    good = sum(1 for _, _, ok in flags if ok)
    attainment = good / total if total else 1.0
    budget = (1.0 - objective.target) * total
    error_budget_consumed = (total - good) / budget if budget > 0 else 0.0

    # Multi-window burn: evaluated at every completion instant over the
    # outcomes inside each window ending there (never empty: a window
    # holds its own closing completion).  Completions arrive in cycle
    # order, so each window keeps the index of its first outcome and
    # its bad count, moved forward as completions arrive: the pass is
    # linear, and the integer counts give the ratios a rescan would.
    windows = objective.windows
    slowest = windows.index(max(windows, key=lambda w: w.window_s))
    starts, bad = [0] * len(windows), [0] * len(windows)
    alerts: list[SloAlert] = []
    attainment_series: list[tuple[int, float]] = []
    firing = False
    final_burn = {w.name: 0.0 for w in windows}
    for i, (cycle, _, ok) in enumerate(flags):
        burns = {}
        for k, w in enumerate(windows):
            bad[k] += not ok
            while flags[starts[k]][0] <= cycle - w.window_s * clock_hz:
                bad[k] -= not flags[starts[k]][2]
                starts[k] += 1
            burns[w.name] = bad[k] / (i + 1 - starts[k]) / (1.0 - objective.target)
        final_burn = burns
        rolled = i + 1 - starts[slowest]
        attainment_series.append((cycle, (rolled - bad[slowest]) / rolled))
        now_firing = all(burns[w.name] >= w.burn_threshold for w in windows)
        if now_firing and not firing:
            alerts.append(SloAlert(cycle=cycle, burn=burns))
            if recorder is not None and recorder.enabled:
                recorder.emit(
                    "slo_alert",
                    cycle,
                    **{f"burn_{k}": round(v, 4) for k, v in burns.items()},
                )
        firing = now_firing

    # Per-violation drill-down: macro phase from the rebuilt timeline,
    # micro stall cause from that phase's block program.
    s = result.config.s
    arch = result.config.architecture
    stall_cache: dict[str, tuple[str, str]] = {}

    def micro_for(macro: str) -> tuple[str, str]:
        # Queueing delay is caused by whatever the device was busy
        # with; attribute it to the run's dominant device phase.
        phase = macro
        if macro == "queueing":
            phase = (
                "prefill"
                if result.prefill_cycles_total >= result.decode_cycles_total
                else "decode"
            )
        cached = stall_cache.get(phase)
        if cached is None:
            label, report = phase_stall_report(lm, phase, s, arch)
            cached = stall_cache[phase] = (
                label,
                report.dominant_cause(".psa") or "none",
            )
        return cached

    violations: list[ViolationAttribution] = []
    for cycle, rid, ok in flags:
        if ok:
            continue
        record = records[rid]
        req = log.requests[rid]
        phase_ms = _macro_phase_ms(req.phases, req.replay_cycles, clock_hz)
        macro = max(MACRO_PHASES, key=lambda name: phase_ms[name])
        label, cause = micro_for(macro)
        violations.append(
            ViolationAttribution(
                request_id=rid,
                e2e_ms=record.e2e_ms,
                phase_ms=phase_ms,
                macro=macro,
                micro=cause,
                stall_program=label,
            )
        )

    report = SloReport(
        objective=objective,
        total=total,
        good=good,
        attainment=attainment,
        error_budget_consumed=error_budget_consumed,
        burn=final_burn,
        alerts=alerts,
        violations=violations,
        attainment_series=attainment_series,
    )

    if obs_metrics.enabled():
        reg = obs_metrics.registry()
        reg.gauge("repro.serving.slo.attainment").set(report.attainment)
        reg.gauge("repro.serving.slo.error_budget_consumed").set(
            report.error_budget_consumed
        )
        for name, value in report.burn.items():
            reg.gauge("repro.serving.slo.burn_rate", window=name).set(value)
        if report.violated:
            reg.counter("repro.serving.slo.violations").inc(report.violated)
        if report.alerts:
            reg.counter("repro.serving.slo.alerts").inc(len(report.alerts))

    return report


def render_slo_dashboard(report: SloReport) -> str:
    """Fixed-width SLO dashboard (the ``repro-asr slo`` surface)."""
    obj = report.objective
    lines = [
        f"SLO [{obj.name}]: {obj.target:.1%} of requests within "
        f"{obj.latency_ms:.0f} ms (virtual)",
        f"  attainment        : {report.attainment:.1%} "
        f"({report.good}/{report.total} good)",
        f"  error budget used : {report.error_budget_consumed:.1%}",
    ]
    for window in obj.windows:
        burn = report.burn.get(window.name, 0.0)
        flag = " **" if burn >= window.burn_threshold else ""
        lines.append(
            f"  burn[{window.name:<5}] ({window.window_s:>4.1f} s) : "
            f"{burn:>6.2f}x (alert >= {window.burn_threshold:.1f}x){flag}"
        )
    lines.append(
        f"  alerts fired      : {len(report.alerts)}"
        + (
            " at cycles "
            + ", ".join(str(a.cycle) for a in report.alerts[:8])
            if report.alerts
            else ""
        )
    )
    if report.violations:
        lines.append(
            f"{'request':>9} {'e2e ms':>10} {'macro':>10} "
            f"{'queue ms':>10} {'prefill ms':>11} {'decode ms':>10} "
            f"{'preempt ms':>11}  micro (stall cause)"
        )
        for v in report.violations:
            lines.append(
                f"{v.request_id:>9d} {v.e2e_ms:>10.1f} {v.macro:>10} "
                f"{v.phase_ms['queueing']:>10.1f} {v.phase_ms['prefill']:>11.1f} "
                f"{v.phase_ms['decode']:>10.1f} {v.phase_ms['preemption']:>11.1f}  "
                f"{v.micro} [{v.stall_program}]"
            )
    else:
        lines.append("  no violating requests")
    return "\n".join(lines)

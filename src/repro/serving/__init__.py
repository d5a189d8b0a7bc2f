"""Multi-tenant serving simulator over the modeled accelerator.

Virtual-time, request-level scheduling of the transformer ASR
accelerator: open-loop arrivals (:mod:`repro.serving.arrival`),
continuous batching with cache-pressure admission control and priority
preemption (:mod:`repro.serving.scheduler`), latency-vs-load sweeps
with saturation attribution (:mod:`repro.serving.analysis`), and
declarative latency SLOs with burn-rate alerting and per-violation
drill-down (:mod:`repro.serving.slo`), and exact per-request /
per-tenant cost attribution with capacity extrapolation
(:mod:`repro.serving.accounting`).

Every public name resolves from its defining module on first access
(:func:`repro._lazy.lazy_names`), so importing the package loads
only the modules a caller reads.
"""

from repro._lazy import lazy_names

_EXPORTS = {
    "repro.serving.accounting": (
        "CapacityEstimate", "build_cost_ledger", "estimate_capacity",
        "record_cost_metrics", "render_cost_dashboard",
    ),
    "repro.serving.arrival": (
        "ArrivalModel", "BurstyArrivals", "DiurnalArrivals", "PoissonArrivals",
        "make_arrival_model",
    ),
    "repro.serving.analysis": (
        "LoadPoint", "ServingSweep", "SweepDelta", "attribute_saturation",
        "diff_sweeps", "find_saturation", "render_sweep", "render_sweep_delta",
        "sweep_offered_load",
    ),
    "repro.serving.request": (
        "RequestRecord", "RequestState", "UtteranceRequest", "synthesize_requests",
    ),
    "repro.serving.scheduler": (
        "ContinuousBatchingScheduler", "FunctionalExecutor", "ModeledExecutor",
        "ServingConfig", "ServingResult", "meets_slo", "simulate",
    ),
    "repro.serving.slo": (
        "SloAlert", "SloObjective", "SloReport", "SloWindow",
        "ViolationAttribution", "evaluate_slo", "phase_stall_report",
        "render_slo_dashboard",
    ),
}

__all__, __getattr__, __dir__ = lazy_names(__name__, _EXPORTS)

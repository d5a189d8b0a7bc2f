"""Declarative benchmark scenarios and their runner.

A :class:`Scenario` names a *kind* (one of :data:`RUNNERS`) plus its
parameters; :func:`run_scenario` executes it ``repeats`` times inside a
fresh :func:`repro.obs.telemetry` session each time, records the
wall-clock of every repeat, and keeps the scenario's cycle metrics.

Two metric classes come out of a run:

* ``cycles`` — simulated-cycle quantities from the cycle model
  (schedule totals, stalls, load bytes...).  These are pure arithmetic
  over the configuration, identical on every machine, and the runner
  *verifies* they are identical across repeats — the comparator then
  gates them with exact equality.
* ``info`` — everything else worth recording but not gating: modeled
  latencies that depend on data-dependent token counts (BLAS rounding
  can flip a greedy argmax across platforms), measured host times, RTF.

Wall-clock is always reported as a median-of-k with a robust spread
(:class:`repro.bench.snapshot.WallStats`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.bench.snapshot import WallStats

__all__ = [
    "Scenario",
    "ScenarioResult",
    "RUNNERS",
    "default_scenarios",
    "run_scenario",
    "run_suite",
]


@dataclass(frozen=True)
class Scenario:
    """One declarative benchmark case."""

    name: str
    kind: str
    params: Mapping[str, object] = field(default_factory=dict)
    repeats: int = 3

    def __post_init__(self) -> None:
        if self.kind not in RUNNERS:
            raise ValueError(
                f"unknown scenario kind '{self.kind}'; "
                f"expected one of {sorted(RUNNERS)}"
            )
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass(frozen=True)
class ScenarioResult:
    """Everything one scenario run produced."""

    name: str
    kind: str
    params: Mapping[str, object]
    wall: WallStats
    #: Deterministic simulated-cycle metrics (exact-match gated).
    cycles: dict[str, float]
    #: Informational metrics (recorded, never gated).
    info: dict[str, float]
    #: Optional serialized :class:`repro.obs.diffprof.RunProfile` of
    #: the scenario's traced program — embedded in the snapshot so a
    #: later exact-gate failure can be *attributed* (which blocks,
    #: engines and stall causes the cycles moved on), not just flagged.
    profile: dict | None = None


# --------------------------------------------------------------- runners
def _run_arch_sweep(
    params: Mapping[str, object], session
) -> tuple[dict, dict, dict]:
    """One (architecture, s) cell of the Table 5.1 sweep: the data-free
    cycle model's end-to-end latency report, plus the run profile of
    the scheduled pass so a later cycle drift is attributable."""
    from repro.hw.controller import LatencyModel
    from repro.obs.diffprof import profile_run

    s = int(params.get("s", 32))
    arch = str(params.get("arch", "A3"))
    lm = LatencyModel()
    report = lm.latency_report(s, arch)
    cycles = {
        "total_cycles": float(report.total_cycles),
        "schedule_cycles": float(report.schedule_cycles),
        "stall_cycles": float(report.schedule.stall_cycles),
        "load_cycles_total": float(report.schedule.load_cycles_total),
        "compute_cycles_total": float(report.schedule.compute_cycles_total),
        "io_cycles": float(
            report.input_transfer_cycles + report.output_transfer_cycles
        ),
    }
    info = {"latency_ms": report.latency_ms}
    profile = profile_run(
        lm.full_pass_program(s), arch, label=f"{arch} s={s}"
    ).as_dict()
    return cycles, info, profile


def _run_encoder_prefill(
    params: Mapping[str, object], session
) -> tuple[dict, dict, dict]:
    """Trace-executor probe of the full prefill pass: where the cycles
    go per engine under one architecture."""
    from repro import obs
    from repro.hw.controller import LatencyModel
    from repro.hw.program import program_load_bytes
    from repro.obs.diffprof import profile_run

    s = int(params.get("s", 32))
    arch = str(params.get("arch", "A3"))
    lm = LatencyModel()
    program = lm.full_pass_program(s)
    timeline = obs.record_program_metrics(program, architecture=arch)
    cycles = {
        "program_ops": float(program.num_ops),
        "program_blocks": float(len(program.blocks)),
        "load_bytes": float(program_load_bytes(program)),
        "schedule_total_cycles": session.metrics.value(
            "repro.hw.schedule.total_cycles"
        ),
        "schedule_stall_cycles": session.metrics.value(
            "repro.hw.schedule.stall_cycles"
        ),
        "trace_makespan_cycles": float(timeline.makespan),
    }
    stall_by_cause: dict[str, float] = {}
    for key, value in session.metrics.as_dict().items():
        if key.startswith("repro.hw.hbm.bytes{"):
            channel = key[key.index("{") + 1 : -1].split("=")[1]
            cycles[f"hbm_bytes_ch{channel}"] = float(value)
        elif key.startswith("repro.hw.stall.cycles{"):
            labels = dict(
                part.split("=", 1)
                for part in key[key.index("{") + 1 : -1].split(",")
            )
            cause = labels.get("cause", "unknown")
            stall_by_cause[cause] = stall_by_cause.get(cause, 0.0) + float(value)
    # Per-cause stall totals over all lanes are exact cycle metrics
    # (they partition makespan), so they ride the exact-match gate.
    for cause, total in sorted(stall_by_cause.items()):
        cycles[f"stall_{cause}_cycles"] = total
    info = {"psa_occupancy": session.metrics.value("repro.hw.psa.occupancy")}
    profile = profile_run(program, arch, label=f"{arch} s={s}").as_dict()
    return cycles, info, profile


def _run_kv_decode(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """Modeled KV-cached autoregressive decode of a fixed token budget
    (data-free, so the step count cannot drift with BLAS rounding)."""
    from repro.hw.controller import LatencyModel

    num_tokens = int(params.get("num_tokens", 8))
    s = int(params.get("s", 32))
    arch = str(params.get("arch", "A3"))
    report = LatencyModel().autoregressive_report(num_tokens, s, arch)
    cycles = {
        "decode_total_cycles": report.details["decode_total_cycles"],
        "decode_first_step_cycles": report.details["decode_first_step_cycles"],
        "decode_last_step_cycles": report.details["decode_last_step_cycles"],
        "decode_stall_cycles": report.details["decode_stall_cycles"],
    }
    info = {
        "decode_per_token_cycles": report.details["decode_per_token_cycles"],
        "decode_steady_tokens_per_s": report.details["decode_steady_tokens_per_s"],
        "latency_ms": report.latency_ms,
    }
    return cycles, info


def _run_e2e_transcribe(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """The full functional pipeline on one synthetic utterance — the
    wall-clock-heavy scenario.  Gated cycles cover only the padded
    prefill pass (data-independent); token-count-dependent results are
    informational."""
    from repro.asr.dataset import LibriSpeechLikeDataset
    from repro.asr.pipeline import AsrPipeline
    from repro.model.params import init_transformer_params

    words = int(params.get("words", 2))
    seed = int(params.get("seed", 42))
    beam = params.get("beam")
    arch = str(params.get("arch", "A3"))
    params_set = init_transformer_params(seed=seed)
    pipeline = AsrPipeline(params_set, hw_seq_len=32, architecture=arch)
    utt = LibriSpeechLikeDataset(seed=seed).generate(
        1, min_words=words, max_words=words
    )[0]
    result = pipeline.transcribe(
        utt.waveform, beam_size=int(beam) if beam else None
    )
    cycles = {
        "prefill_total_cycles": float(result.accelerator_report.total_cycles),
        "prefill_stall_cycles": float(
            result.accelerator_report.schedule.stall_cycles
        ),
        "sequence_length": float(result.sequence_length),
    }
    info = {
        "tokens": float(result.tokens.size),
        "decode_steps": result.details.get("decode_steps", 0.0),
        "e2e_ms_modeled": result.e2e_ms,
        "host_ms_measured": result.measured_host_ms,
        "decode_ms_modeled": result.decode_total_ms,
    }
    return cycles, info


def _run_streaming(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """Chunked long-form transcription through the fixed-s hardware."""
    import numpy as np

    from repro.asr.dataset import LibriSpeechLikeDataset
    from repro.asr.pipeline import AsrPipeline
    from repro.asr.streaming import StreamingTranscriber
    from repro.model.params import init_transformer_params

    seed = int(params.get("seed", 7))
    num_utts = int(params.get("num_utts", 2))
    params_set = init_transformer_params(seed=seed)
    pipeline = AsrPipeline(params_set, hw_seq_len=32)
    utts = LibriSpeechLikeDataset(seed=seed).generate(
        num_utts, min_words=2, max_words=2
    )
    waveform = np.concatenate([u.waveform for u in utts])
    transcriber = StreamingTranscriber(pipeline)
    result = transcriber.transcribe(waveform)
    cycles = {
        "chunks": float(result.num_chunks),
        "chunk_samples": float(transcriber.chunk_samples),
        "program_ops_per_chunk": result.details["program_ops_per_chunk"],
    }
    info = {
        "rtf_modeled": result.real_time_factor,
        "audio_seconds": result.audio_seconds,
        "e2e_ms_modeled": result.total_e2e_ms,
    }
    return cycles, info


def _run_serving_load(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """Multi-tenant serving sweep: the same request population replayed
    at a ladder of offered loads through the continuous-batching
    scheduler.  Virtual time is integer cycles and arrivals come from
    ``random.Random``, so every cycle-domain quantity is bit-identical
    across repeats and platforms; latency quantiles and goodput are
    reported as informational metrics."""
    from repro.serving import ServingConfig, find_saturation, sweep_offered_load

    loads = [float(x) for x in params.get("loads_rps", (0.5, 2.0, 8.0))]
    num_requests = int(params.get("num_requests", 16))
    arrival = str(params.get("arrival", "poisson"))
    seed = int(params.get("seed", 11))
    config = ServingConfig(
        s=int(params.get("s", 32)),
        architecture=str(params.get("arch", "A3")),
        max_batch=int(params.get("max_batch", 4)),
        slo_ms=float(params.get("slo_ms", 1500.0)),
    )
    sweep = sweep_offered_load(
        loads, num_requests=num_requests, arrival_kind=arrival,
        config=config, seed=seed,
    )
    cycles: dict[str, float] = {}
    info: dict[str, float] = {}
    for point in sweep.points:
        tag = f"load{point.offered_rps:g}"
        cycles[f"{tag}_device_cycles"] = float(point.device_cycles)
        cycles[f"{tag}_completed"] = float(point.completed)
        cycles[f"{tag}_preemptions"] = float(point.preemptions)
        cycles[f"{tag}_replayed_steps"] = float(point.replayed_steps)
        cycles[f"{tag}_peak_kv_bytes"] = float(point.peak_kv_bytes)
        info[f"{tag}_p50_ms"] = point.p50_ms
        info[f"{tag}_p95_ms"] = point.p95_ms
        info[f"{tag}_p99_ms"] = point.p99_ms
        info[f"{tag}_goodput_rps"] = point.goodput_rps
    knee = find_saturation(sweep.points)
    info["saturation_rps"] = knee.offered_rps if knee else 0.0
    att = sweep.attribution
    info[f"bottleneck_is_{att['bottleneck']}"] = 1.0
    info[f"psa_dominant_is_{att['psa_dominant_cause']}"] = 1.0
    return cycles, info


def _run_serving_slo(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """Instrumented serving run held to a latency SLO: lifecycle event
    counts from the vtrace recorder, sampler depth, and the SLO
    monitor's violation/alert counts.  Every gated quantity is an
    integer derived from the integer-cycle event stream, so the
    exact-match gate pins the whole observability pipeline — a change
    in scheduler event emission, sampler cadence handling or SLO
    arithmetic shows up as a bench diff."""
    from repro.obs.vtrace import VSampler, VTraceRecorder
    from repro.serving import (
        ContinuousBatchingScheduler,
        ServingConfig,
        SloObjective,
        evaluate_slo,
        make_arrival_model,
        synthesize_requests,
    )

    load = float(params.get("load_rps", 8.0))
    num_requests = int(params.get("num_requests", 16))
    arrival_kind = str(params.get("arrival", "poisson"))
    seed = int(params.get("seed", 11))
    config = ServingConfig(
        s=int(params.get("s", 32)),
        architecture=str(params.get("arch", "A3")),
        max_batch=int(params.get("max_batch", 4)),
        slo_ms=float(params.get("slo_ms", 1500.0)),
    )
    arrival = make_arrival_model(arrival_kind, load, seed=seed)
    requests = synthesize_requests(arrival, num_requests, seed=seed)
    recorder = VTraceRecorder()
    sampler = VSampler(cadence_cycles=int(params.get("sample_cycles", 100_000)))
    result = ContinuousBatchingScheduler(
        config, vtrace=recorder, sampler=sampler
    ).run(requests)
    objective = SloObjective(
        latency_ms=config.slo_ms, target=float(params.get("target", 0.9))
    )
    report = evaluate_slo(result, recorder.events, objective, recorder=recorder)

    cycles: dict[str, float] = {
        "device_end_cycles": float(result.device_end_cycles),
        "slo_violations": float(report.violated),
        "slo_alerts": float(len(report.alerts)),
        "sample_count": float(
            len(next(iter(sampler.series().values())))
            if sampler.series() else 0
        ),
    }
    for kind, count in sorted(recorder.counts().items()):
        cycles[f"events_{kind}"] = float(count)
    info = {
        "attainment": report.attainment,
        "error_budget_consumed": report.error_budget_consumed,
    }
    for name, value in report.burn.items():
        info[f"burn_{name}"] = value
    return cycles, info


def _run_serving_costs(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """Per-tenant cost attribution run: the ledger's exactly-conserved
    integer totals, gated to the cycle.  Every gated quantity derives
    from the integer-cycle event stream through largest-remainder
    apportionment, so a change to the split rule, the tenant stream,
    the scheduler's emission, or the conservation arithmetic shows up
    as a bench diff — and the conservation/rollup identities are gated
    as explicit 0/1 metrics so they can never silently regress."""
    from repro.obs.vtrace import VTraceRecorder
    from repro.serving import (
        ContinuousBatchingScheduler,
        ServingConfig,
        build_cost_ledger,
        estimate_capacity,
        make_arrival_model,
        synthesize_requests,
    )

    load = float(params.get("load_rps", 8.0))
    num_requests = int(params.get("num_requests", 16))
    seed = int(params.get("seed", 11))
    config = ServingConfig(
        s=int(params.get("s", 32)),
        architecture=str(params.get("arch", "A3")),
        max_batch=int(params.get("max_batch", 4)),
        slo_ms=float(params.get("slo_ms", 1500.0)),
    )
    arrival = make_arrival_model(
        str(params.get("arrival", "poisson")), load, seed=seed
    )
    requests = synthesize_requests(
        arrival,
        num_requests,
        seed=seed,
        tenant_classes=int(params.get("tenant_classes", 2)),
    )
    recorder = VTraceRecorder()
    result = ContinuousBatchingScheduler(config, vtrace=recorder).run(requests)
    ledger = build_cost_ledger(result, recorder.events)
    ledger.verify_conservation()
    totals = ledger.totals()

    cycles: dict[str, float] = {
        "makespan_cycles": float(totals["makespan_cycles"]),
        "attributed_cycles": float(totals["attributed_cycles"]),
        "unattributed_cycles": float(totals["unattributed_cycles"]),
        "replay_cycles": float(totals["replay_cycles"]),
        "hbm_load_bytes": float(totals["hbm_load_bytes"]),
        "conservation_exact": float(
            totals["attributed_cycles"] + totals["unattributed_cycles"]
            == totals["makespan_cycles"]
        ),
    }
    tenants = ledger.per_tenant()
    for tc in tenants:
        cycles[f"tenant{tc.tenant}_cycles"] = float(tc.attributed_cycles)
        cycles[f"tenant{tc.tenant}_hbm_bytes"] = float(tc.hbm_load_bytes)
        cycles[f"tenant{tc.tenant}_requests"] = float(tc.requests)
    cycles["tenant_rollup_exact"] = float(
        sum(tc.attributed_cycles for tc in tenants)
        == totals["attributed_cycles"]
        and sum(tc.hbm_load_bytes for tc in tenants)
        == totals["hbm_load_bytes"]
    )
    capacity = estimate_capacity(
        ledger, float(params.get("target_rps", 100.0))
    )
    info = {
        "jain_index": ledger.jain_fairness(),
        "cycles_per_request": capacity.cycles_per_request,
        "utterances_per_s_per_card": capacity.utterances_per_s_per_card,
        "cards_at_target": float(capacity.cards_needed),
    }
    return cycles, info


def _run_a4_optimized(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """The A4 pass-pipeline synthesis: exact A3 vs A4 cycles plus the
    PSA stall attribution the win comes out of.  Both ``synthesize_a4``
    and the lowering are ``lru_cache``d, so each repeat clears them
    first: every wall sample times a cold search, and the cycle metrics
    still gate exactly."""
    from repro.hw.dse import synthesize_a4
    from repro.hw.program import lower

    s = int(params.get("s", 32))
    arch = str(params.get("arch", "A3"))
    synthesize_a4.cache_clear()
    lower.cache_clear()
    result = synthesize_a4(s=s, architecture=arch)
    cycles = {
        "a3_cycles": float(result.baseline_cycles),
        "a4_cycles": float(result.optimized_cycles),
        "cycles_saved": float(result.cycles_saved),
        "pipeline_passes": float(len(result.pipeline.names)),
        "candidates_tried": float(result.candidates_tried),
    }
    for cause in sorted(
        set(result.psa_stalls_before) | set(result.psa_stalls_after)
    ):
        cycles[f"stall_{cause}_a3"] = float(result.psa_stalls_before.get(cause, 0))
        cycles[f"stall_{cause}_a4"] = float(result.psa_stalls_after.get(cause, 0))
    info = {"improvement_pct": result.improvement_pct}
    return cycles, info


def _run_batched_serving(params: Mapping[str, object], session) -> tuple[dict, dict]:
    """Functional serving through the batched fabric executor: the
    continuous-batching scheduler decodes a request population in
    batched steps.  Its emitted tokens must equal each request's solo
    greedy decode, and its device cycles those of a modeled run of the
    same requests; both gate exactly.  The batched run's wall clock is
    reported."""
    import numpy as np

    from repro.config import ModelConfig
    from repro.hw.accelerator import TransformerAccelerator
    from repro.model.params import init_transformer_params
    from repro.serving import (
        ContinuousBatchingScheduler,
        FunctionalExecutor,
        ModeledExecutor,
        ServingConfig,
        UtteranceRequest,
    )

    seed = int(params.get("seed", 5))
    s = int(params.get("s", 16))
    num_requests = int(params.get("num_requests", 4))
    decode_tokens = int(params.get("decode_tokens", 6))
    model = ModelConfig(
        num_encoders=int(params.get("num_encoders", 2)),
        num_decoders=int(params.get("num_decoders", 2)),
    )
    weights = init_transformer_params(model, seed=seed)
    rng = np.random.default_rng(seed)
    feats = {
        i: rng.normal(size=(s - 2, model.d_model)).astype(np.float32)
        for i in range(num_requests)
    }
    reqs = [
        UtteranceRequest(i, 0.001 * i, decode_tokens)
        for i in range(num_requests)
    ]
    scfg = ServingConfig(
        s=s, max_batch=int(params.get("max_batch", 4)), slo_ms=1e9
    )

    accel = TransformerAccelerator(weights, hw_seq_len=s)
    ex = FunctionalExecutor(scfg, accel, lambda r: feats[r.request_id])
    start = time.perf_counter()
    result = ContinuousBatchingScheduler(scfg, ex).run(list(reqs))
    bat_ms = (time.perf_counter() - start) * 1e3
    modeled = ContinuousBatchingScheduler(
        scfg, ModeledExecutor(scfg, accel.latency_model)
    ).run(list(reqs))

    def solo_greedy(rid: int) -> list[int]:
        decode = accel.decode_session(feats[rid])
        token, tokens = ex.start_token, []
        for _ in range(decode_tokens):
            token = int(np.argmax(decode.step(token)))
            tokens.append(token)
        return tokens

    identical = all(
        ex.emitted[r.request_id] == solo_greedy(r.request_id) for r in reqs
    )
    cycles = {
        "requests": float(num_requests),
        "decode_tokens_each": float(decode_tokens),
        "device_cycles": float(result.device_end_cycles),
        "decode_iterations": float(result.decode_iterations),
        "tokens_bit_identical": float(identical),
        "device_cycles_match": float(
            result.device_end_cycles == modeled.device_end_cycles
        ),
    }
    info = {
        "batched_wall_ms": bat_ms,
        "peak_batch": float(result.peak_batch),
    }
    return cycles, info


#: kind -> runner(params, telemetry session) -> (cycles, info) or
#: (cycles, info, profile) — the optional third element is a
#: serialized :class:`repro.obs.diffprof.RunProfile` embedded in the
#: snapshot for differential attribution of exact-gate failures.
RUNNERS: dict[str, Callable[[Mapping[str, object], object], tuple]] = {
    "arch_sweep": _run_arch_sweep,
    "encoder_prefill": _run_encoder_prefill,
    "kv_decode": _run_kv_decode,
    "e2e_transcribe": _run_e2e_transcribe,
    "streaming": _run_streaming,
    "serving_load": _run_serving_load,
    "serving_slo": _run_serving_slo,
    "serving_costs": _run_serving_costs,
    "a4_optimized": _run_a4_optimized,
    "batched_serving": _run_batched_serving,
}


def default_scenarios(quick: bool = False, repeats: int = 3) -> list[Scenario]:
    """The standard suite: the A1/A2/A3 × s sweep plus the prefill
    probe, fixed-budget KV decode, one functional E2E utterance and one
    streaming run.  ``quick`` trims to one repeat and drops the
    functional scenarios (useful in tests and smoke runs)."""
    if quick:
        repeats = 1
    scenarios = [
        Scenario(
            f"sweep_{arch.lower()}_s{s}",
            "arch_sweep",
            {"arch": arch, "s": s},
            repeats=repeats,
        )
        for arch in ("A1", "A2", "A3")
        for s in ((32,) if quick else (4, 32))
    ]
    scenarios += [
        Scenario("encoder_prefill_a3_s32", "encoder_prefill",
                 {"arch": "A3", "s": 32}, repeats=repeats),
        Scenario("kv_decode_a3_t8", "kv_decode",
                 {"arch": "A3", "s": 32, "num_tokens": 8}, repeats=repeats),
        Scenario(
            "serving_load_poisson",
            "serving_load",
            {
                "arrival": "poisson",
                "loads_rps": (0.5, 2.0, 8.0),
                "num_requests": 8 if quick else 16,
                "max_batch": 4,
                "seed": 11,
            },
            repeats=repeats,
        ),
    ]
    if not quick:
        scenarios += [
            Scenario("e2e_greedy_w2", "e2e_transcribe",
                     {"words": 2, "seed": 42}, repeats=repeats),
            Scenario("streaming_2utt", "streaming",
                     {"seed": 7, "num_utts": 2}, repeats=repeats),
            Scenario("a4_optimized_s32", "a4_optimized",
                     {"arch": "A3", "s": 32}, repeats=repeats),
            Scenario(
                "batched_serving_b4",
                "batched_serving",
                {"s": 16, "num_requests": 4, "decode_tokens": 6, "seed": 5},
                repeats=repeats,
            ),
            Scenario(
                "serving_slo_poisson",
                "serving_slo",
                {
                    "arrival": "poisson",
                    "load_rps": 8.0,
                    "num_requests": 16,
                    "max_batch": 4,
                    "slo_ms": 1500.0,
                    "target": 0.9,
                    "seed": 11,
                },
                repeats=repeats,
            ),
            Scenario(
                "serving_costs_2tenants",
                "serving_costs",
                {
                    "arrival": "poisson",
                    "load_rps": 8.0,
                    "num_requests": 16,
                    "max_batch": 4,
                    "slo_ms": 1500.0,
                    "tenant_classes": 2,
                    "seed": 11,
                },
                repeats=repeats,
            ),
        ]
    return scenarios


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario ``repeats`` times under telemetry.

    The cycle metrics must come out identical on every repeat — the
    simulator is deterministic — and the runner enforces that, so a
    nondeterministic metric can never silently reach the exact-match
    comparator gate.
    """
    from repro import obs

    samples: list[float] = []
    cycles: dict[str, float] | None = None
    info: dict[str, float] = {}
    profile: dict | None = None
    seen_profile = False
    for _ in range(scenario.repeats):
        with obs.telemetry() as session:
            start = time.perf_counter()
            out = RUNNERS[scenario.kind](scenario.params, session)
            samples.append((time.perf_counter() - start) * 1e3)
        run_cycles, run_info = out[0], out[1]
        run_profile = out[2] if len(out) > 2 else None
        if cycles is not None and run_cycles != cycles:
            changed = sorted(
                k for k in set(cycles) | set(run_cycles)
                if cycles.get(k) != run_cycles.get(k)
            )
            raise RuntimeError(
                f"scenario '{scenario.name}' produced nondeterministic "
                f"cycle metrics across repeats: {changed}"
            )
        # The embedded run profile rides the same determinism contract
        # as the cycle metrics: it feeds the exact-delta attribution,
        # so a repeat-to-repeat wobble must fail loudly here.
        if seen_profile and run_profile != profile:
            raise RuntimeError(
                f"scenario '{scenario.name}' produced a nondeterministic "
                f"run profile across repeats"
            )
        cycles = run_cycles
        info = run_info
        profile = run_profile
        seen_profile = True
    assert cycles is not None
    return ScenarioResult(
        name=scenario.name,
        kind=scenario.kind,
        params=dict(scenario.params),
        wall=WallStats.from_samples(samples),
        cycles=cycles,
        info=info,
        profile=profile,
    )


def run_suite(scenarios: list[Scenario] | None = None) -> dict[str, ScenarioResult]:
    """Run a scenario list (default: :func:`default_scenarios`)."""
    scenarios = default_scenarios() if scenarios is None else scenarios
    names = [sc.name for sc in scenarios]
    if len(set(names)) != len(names):
        raise ValueError("scenario names must be unique")
    return {sc.name: run_scenario(sc) for sc in scenarios}

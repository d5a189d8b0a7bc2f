"""Command-line interface: ``repro-asr <command> [options]``.

Every command and its options are declared once, in the ``COMMANDS``
table at the bottom of this module; ``repro-asr --help`` and
``repro-asr <command> --help`` list them.

Each subcommand prints one of the paper's analyses from the simulator;
``transcribe`` runs the full E2E pipeline on a synthetic utterance.
``profile`` re-runs it inside a telemetry session and writes a
Perfetto-loadable Chrome trace plus Prometheus/JSONL metric dumps;
``metrics`` prints the Prometheus exposition text to stdout.  ``bench``
is the performance-trajectory harness: ``run`` writes a
schema-versioned ``BENCH_<n>.json`` snapshot of modeled numbers,
``compare`` gates its cycle counts exactly against a baseline,
``report`` prints the bottleneck attribution; host wall time is
perfbench's (``perfbench/``, bounds in ``BENCHMARK.json``).
``diff`` is the differential profiler: it compares any two runs — two
live architectures (A4 is the optimizer's synthesized schedule), two
saved ``runprofile.json`` artifacts, two bench snapshots with embedded
profiles, or two serving variants (``--serve``) — and prints a delta
waterfall whose leaves sum *exactly* to the makespan delta.
``serve-sim`` sweeps the multi-tenant serving simulator over offered
loads and reports p50/p95/p99 latency, goodput and the saturation
bottleneck; with ``--trace/--timeseries/--slo-report`` it re-runs the
heaviest load instrumented and writes a merged Perfetto trace (device
lanes + per-request lifecycle tracks), a deterministic JSONL event
log, sampled virtual-time series and the SLO report.  ``slo`` prints
the SLO dashboard for one offered load (exit 1 if burn-rate alerts
fired).  ``costs`` attributes every device cycle and HBM byte to a
request and tenant.

Exit codes: 0 on success; 1 for a negative verdict (``resources``: does
not fit, ``slo``: burn-rate alerts fired, ``verify``: a case failed,
``bench compare``: regression); 2 for a usage error, printed as
``error: <message>``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Callable, NamedTuple, Sequence

import repro.hw as hw  # resolves names lazily: --help compiles no cycle model
from repro.analysis.inventory import weight_inventory
from repro.analysis.report import format_table
from repro.config import HardwareConfig

PERFETTO = "(open in https://ui.perfetto.dev)"


def _write(path, text: str, note: str | None) -> pathlib.Path:
    """Write ``text`` to ``path``, creating parent directories, then
    print ``note`` with the path filled in (nothing if ``None``)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    if note:
        print(note.format(path))
    return path


def _emit(payload, path=None, note: str | None = "wrote {}") -> None:
    """The one JSON serializer: print ``payload`` with ``indent=2``, or
    with a ``path`` write it there with a trailing newline (see
    :func:`_write`)."""
    text = json.dumps(payload, indent=2)
    if path is None:
        print(text)
    else:
        _write(path, text + "\n", note)


def _cmd_latency(args: argparse.Namespace) -> int:
    lm = hw.LatencyModel()
    rows = []
    for s in args.seq:
        for arch in args.arch:
            rows.append([s, arch, lm.latency_ms(s, arch)])
    print(format_table(["s", "arch", "latency ms"], rows))
    return 0


def _cmd_crossover(args: argparse.Namespace) -> int:
    del args
    lm = hw.LatencyModel()
    rows = []
    for s in range(2, 41, 2):
        load, compute = lm.mha_ffn_load_compute(s)
        rows.append([s, load, compute])
    print(format_table(["s", "load ms", "compute ms"], rows))
    print(f"compute exceeds load from s = {lm.crossover_sequence_length()}")
    return 0


def _cmd_resources(args: argparse.Namespace) -> int:
    est = hw.estimate_resources(HardwareConfig(psa_rows=args.psa_rows), seq_len=args.seq)
    util = est.utilization()
    rows = [
        [name, used, est.available[name], f"{util[name]:.1%}"]
        for name, used in est.as_dict().items()
    ]
    print(format_table(["resource", "used", "available", "util"], rows))
    print(f"binding resource: {est.binding_resource()}; "
          f"{'fits' if est.fits() else 'DOES NOT FIT'} the device")
    return 0 if est.fits() else 1


def _cmd_dse(args: argparse.Namespace) -> int:
    points = hw.head_parallelism_sweep(s=args.seq)
    rows = [
        [p.parallel_heads, p.concurrent_psas_per_head, p.latency_ms]
        for p in points
    ]
    print(format_table(["parallel heads", "PSAs/head", "latency ms"], rows))
    return 0


def _cmd_precision(args: argparse.Namespace) -> int:
    del args
    from repro.quant.analysis import precision_sweep

    rows = [
        [
            p.precision.name,
            p.encoder_load_ms,
            p.crossover_s,
            f"{p.lut_utilization_base:.0%}",
            p.best_psa_rows,
            p.latency_ms_best,
        ]
        for p in precision_sweep()
    ]
    print(format_table(
        ["precision", "enc load ms", "crossover", "LUT", "best rows", "best ms"],
        rows,
    ))
    return 0


def _result_breakdown(result) -> dict:
    """JSON-ready latency breakdown of one transcription result."""
    return {
        "text": result.text,
        "espnet_text": result.espnet_text,
        "tokens": [int(t) for t in result.tokens],
        "sequence_length": result.sequence_length,
        "latency_ms": {
            "host_modeled": result.modeled_host_ms,
            "host_measured": result.measured_host_ms,
            "accelerator_prefill": result.accelerator_ms,
            "decode_total": result.decode_total_ms,
            "decode_per_token": result.decode_per_token_ms,
            "e2e": result.e2e_ms,
        },
        "throughput_seq_per_s": result.throughput_seq_per_s,
        "details": dict(result.details),
    }


def _utterance(args: argparse.Namespace, architecture: str = "A3"):
    """The pipeline (weights seeded by ``--seed``) and the one synthetic
    ``--words``-word utterance the utterance commands run.  Returns
    ``(pipeline, utterance, beam_size)``."""
    from repro.asr.dataset import LibriSpeechLikeDataset
    from repro.asr.pipeline import AsrPipeline
    from repro.model.params import init_transformer_params

    params = init_transformer_params(seed=args.seed)
    pipeline = AsrPipeline(params, hw_seq_len=32, architecture=architecture)
    utt = LibriSpeechLikeDataset(seed=args.seed).generate(
        1, min_words=args.words, max_words=args.words
    )[0]
    return pipeline, utt, args.beam if args.beam > 1 else None


def _cmd_transcribe(args: argparse.Namespace) -> int:
    from repro import obs

    pipeline, utt, beam = _utterance(args)
    if args.json:
        with obs.telemetry() as session:
            result = pipeline.transcribe(utt.waveform, beam_size=beam)
        payload = _result_breakdown(result)
        payload["reference"] = utt.transcript
        payload["metrics"] = session.metrics.as_dict()
        _emit(payload)
        return 0
    result = pipeline.transcribe(utt.waveform, beam_size=beam)
    print(f"reference:  {utt.transcript!r}")
    print(f"recognized: {result.text!r}   ({result.espnet_text})")
    print(f"s={result.sequence_length}  host {result.modeled_host_ms:.1f} ms  "
          f"accel {result.accelerator_ms:.1f} ms  e2e {result.e2e_ms:.1f} ms")
    return 0


def _profiled_run(args: argparse.Namespace):
    """One synthetic utterance under a telemetry session, plus the
    device-profile probe of the accelerator's block program.  Returns
    (result, session, pipeline)."""
    from repro import obs

    pipeline, utt, beam = _utterance(args, architecture=args.arch)
    with obs.telemetry() as session:
        result = pipeline.transcribe(utt.waveform, beam_size=beam)
        obs.record_program_metrics(
            pipeline.accelerator.program(), architecture=args.arch
        )
    return result, session, pipeline


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.hw.introspect import counter_tracks
    from repro.hw.program import trace_program
    from repro.obs.diffprof import profile_run

    result, session, pipeline = _profiled_run(args)
    hardware = pipeline.accelerator.latency_model.hardware
    program = pipeline.accelerator.program()
    timeline = trace_program(
        program, args.arch, program.fabric.calibration.block_overhead_cycles
    )
    out = pathlib.Path(args.out)
    trace_path = _write(
        out / "trace.json",
        obs.chrome_trace_json(
            timeline,
            session.spans.records,
            clock_mhz=hardware.clock_mhz,
            metadata={"architecture": args.arch, "seed": args.seed},
            counters=counter_tracks(timeline),
        ),
        None,
    )
    prom_path = _write(
        out / "metrics.prom", obs.prometheus_text(session.metrics), None
    )
    jsonl_path = _write(
        out / "events.jsonl",
        "".join(f"{line}\n" for line in obs.jsonl_lines(
            session.metrics, session.spans.records
        )),
        None,
    )
    # Exact-integer run profile of the accelerator's block program —
    # the offline input of `repro-asr diff --profiles A B`.
    prof = profile_run(
        program,
        args.arch,
        label=f"{args.arch} s={program.meta.get('s')} seed={args.seed}",
    )
    profile_path = out / "runprofile.json"
    _emit(prof.as_dict(), profile_path, None)
    print(f"recognized: {result.text!r}  "
          f"(s={result.sequence_length}, e2e {result.e2e_ms:.1f} ms)")
    print(f"chrome trace: {trace_path}  {PERFETTO}")
    print(f"prometheus:   {prom_path}")
    print(f"jsonl:        {jsonl_path}")
    print(f"run profile:  {profile_path}  (diff with `repro-asr diff "
          f"--profiles A B`)")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro import obs

    _, session, _ = _profiled_run(args)
    print(obs.prometheus_text(session.metrics), end="")
    return 0


def _cmd_bench_run(args: argparse.Namespace) -> int:
    from repro.bench import build_snapshot, default_scenarios, run_suite, write_snapshot

    results = run_suite(default_scenarios(quick=args.quick))
    snapshot = build_snapshot(results, config={"quick": bool(args.quick)})
    path = write_snapshot(snapshot, args.out)
    rows = [[name, len(results[name].cycles)] for name in sorted(results)]
    print(format_table(["scenario", "cycle metrics"], rows))
    print(f"snapshot: {path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    from repro.bench import compare_snapshots, load_snapshot, resolve_snapshot_path

    baseline, current = map(resolve_snapshot_path, (args.baseline, args.current))
    report = compare_snapshots(load_snapshot(baseline), load_snapshot(current))
    print(f"baseline: {baseline}")
    print(f"current:  {current}")
    print(report.format())
    if not report.passed and args.artifact_hint:
        print(f"differential waterfall artifact: {args.artifact_hint} "
              f"(per-(block, engine, cause) attribution of the drift)")
    return 0 if report.passed else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.bench import build_attribution_report

    report = build_attribution_report(s=args.seq, architecture=args.arch)
    print(report.format())
    return 0


def _serving_config(
    args: argparse.Namespace,
    architecture: str | None = None,
    max_batch: int | None = None,
):
    """The ``ServingConfig`` of the serving options; ``architecture``
    and ``max_batch`` override ``--arch``/``--max-batch`` when set."""
    from repro.serving import ServingConfig

    return ServingConfig(
        s=args.seq,
        architecture=architecture or args.arch,
        max_batch=max_batch or args.max_batch,
        # `diff --serve` takes no --kv-budget-bytes: both its variants
        # get the default budget.
        kv_budget_bytes=getattr(args, "kv_budget_bytes", None),
        slo_ms=args.slo_ms,
    )


def _loads(args: argparse.Namespace) -> list[float]:
    """The ``--loads`` sweep, ascending."""
    loads = sorted(float(x) for x in args.loads.split(","))
    if len(loads) < 3:
        raise ValueError("need at least 3 offered loads for a sweep")
    return loads


def _sweep(args: argparse.Namespace, loads: list[float], config):
    from repro.serving import sweep_offered_load

    return sweep_offered_load(
        loads,
        num_requests=args.requests,
        arrival_kind=args.arrival,
        config=config,
        seed=args.seed,
    )


def _serving_run(
    args: argparse.Namespace,
    config,
    load_rps: float,
    tenant_classes: int = 1,
    sampler=None,
):
    """One serving run of ``--requests`` ``--arrival`` requests at
    ``load_rps`` with the vtrace recorder installed.  Returns
    ``(result, recorder)``."""
    from repro.obs.vtrace import VTraceRecorder
    from repro.serving import (
        ContinuousBatchingScheduler,
        make_arrival_model,
        synthesize_requests,
    )

    arrival = make_arrival_model(args.arrival, load_rps, seed=args.seed)
    requests = synthesize_requests(
        arrival, args.requests, seed=args.seed, tenant_classes=tenant_classes
    )
    recorder = VTraceRecorder()
    sched = ContinuousBatchingScheduler(
        config, vtrace=recorder, sampler=sampler
    )
    return sched.run(requests), recorder


def _instrumented_serving_run(args: argparse.Namespace, config, load_rps: float):
    """One serving run at ``load_rps`` with the vtrace recorder +
    sampler installed, held to the ``--slo-target`` objective.  Returns
    (result, recorder, sampler, slo_report) — the raw material of every
    serving observability artifact (merged Perfetto trace, JSONL event
    log, time series, SLO report)."""
    from repro.obs.vtrace import VSampler
    from repro.serving import SloObjective, evaluate_slo

    sampler = VSampler(cadence_cycles=args.sample_cycles)
    result, recorder = _serving_run(args, config, load_rps, sampler=sampler)
    objective = SloObjective(latency_ms=config.slo_ms, target=args.slo_target)
    report = evaluate_slo(result, recorder.events, objective, recorder=recorder)
    return result, recorder, sampler, report


def _serving_stall_rate_tracks(result, sampler) -> dict:
    """Perfetto counter tracks of PSA stall-cause *rates*: the PR-5
    per-cause lane-time fraction of each phase's block program, scaled
    by the instantaneous rate at which the device runs that phase
    (from the sampler's cumulative cycle series)."""
    from repro.obs.vtrace import rate_series
    from repro.serving import phase_stall_report

    lm = hw.LatencyModel()
    tracks: dict = {}
    for phase, cum_name in (
        ("prefill", "prefill_cycles"),
        ("decode", "decode_cycles"),
    ):
        series = sampler.get(cum_name)
        if series is None or len(series) < 2:
            continue
        rates = rate_series(series)
        _, report = phase_stall_report(
            lm, phase, result.config.s, result.config.architecture
        )
        psa_lanes = sum(1 for name in report.lanes if ".psa" in name)
        lane_time = report.makespan * max(psa_lanes, 1)
        for cause, cycles in report.totals(".psa").items():
            if cycles <= 0:
                continue
            frac = cycles / lane_time
            tracks[f"serving:stall_rate:{phase}:{cause}"] = [
                (cycle, rate * frac) for cycle, rate in rates
            ]
    return tracks


def _write_serving_artifacts(
    args, load_rps, result, recorder, sampler, report
) -> None:
    """Write the --trace / --timeseries / --slo-report artifacts."""
    from repro import obs
    from repro.obs.costs import cost_flow_events
    from repro.obs.vtrace import (
        device_timeline,
        request_track_events,
        vtrace_jsonl_lines,
    )

    clock_mhz = result.clock_hz / 1e6
    meta = {
        "architecture": result.config.architecture,
        "seed": args.seed,
        "arrival": args.arrival,
        "offered_rps": load_rps,
        "slo_ms": result.config.slo_ms,
    }
    if args.trace:
        counters = sampler.counter_tracks()
        counters.update(_serving_stall_rate_tracks(result, sampler))
        # Request lifecycle lanes plus cost flow arrows: each arrow
        # binds a request's lane to the device-lane slice it paid for,
        # so an SLO violation drills down to the charged device work.
        extra = request_track_events(recorder.events, clock_mhz=clock_mhz)
        extra.extend(cost_flow_events(recorder.events, clock_mhz=clock_mhz))
        trace_path = _write(
            args.trace,
            obs.chrome_trace_json(
                device_timeline(recorder.events),
                clock_mhz=clock_mhz,
                metadata=meta,
                counters=counters,
                extra_events=extra,
            ),
            f"merged trace: {{}}  {PERFETTO}",
        )
        _write(
            trace_path.with_suffix(".events.jsonl"),
            "".join(
                f"{line}\n"
                for line in vtrace_jsonl_lines(recorder.events, metadata=meta)
            ),
            "event log:    {}",
        )
    if args.timeseries:
        payload = {
            "cadence_cycles": sampler.cadence_cycles,
            "clock_mhz": clock_mhz,
            "series": {
                name: {"samples": ts.samples, "dropped": ts.dropped}
                for name, ts in sorted(sampler.series().items())
            },
        }
        _emit(payload, args.timeseries, "time series:  {}")
    if args.slo_report:
        _emit(report.as_dict(), args.slo_report, "slo report:   {}")


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.serving import render_slo_dashboard, render_sweep

    loads = _loads(args)
    config = _serving_config(args)
    sweep = _sweep(args, loads, config)
    print(render_sweep(sweep))
    if args.json:
        payload = {
            "config": dataclasses.asdict(config),
            "arrival": args.arrival,
            "num_requests": args.requests,
            "seed": args.seed,
            "points": [dataclasses.asdict(p) for p in sweep.points],
            "attribution": sweep.attribution,
        }
        _emit(payload, args.json)
    if args.trace or args.timeseries or args.slo_report:
        # Instrumented re-run of the heaviest offered load: that is
        # where the lifecycle (queueing, preemption, SLO misses) is.
        result, recorder, sampler, report = _instrumented_serving_run(
            args, config, loads[-1]
        )
        print()
        print(f"instrumented run at {loads[-1]:g} req/s:")
        print(render_slo_dashboard(report))
        _write_serving_artifacts(
            args, loads[-1], result, recorder, sampler, report
        )
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.serving import render_slo_dashboard

    config = _serving_config(args)
    result, recorder, _, report = _instrumented_serving_run(
        args, config, args.load
    )
    if args.json:
        payload = report.as_dict()
        payload["offered_rps"] = args.load
        payload["event_counts"] = recorder.counts()
        payload["device_end_cycles"] = result.device_end_cycles
        _emit(payload)
    else:
        print(
            f"serving SLO dashboard: {args.arrival} arrivals at {args.load:g} "
            f"req/s, {args.requests} requests, arch {config.architecture}, "
            f"batch<={config.max_batch}"
        )
        print(render_slo_dashboard(report))
        counts = recorder.counts()
        print(
            "events: "
            + ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        )
    return 0 if not report.alerts else 1


def _cmd_costs(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.serving import (
        build_cost_ledger,
        estimate_capacity,
        render_cost_dashboard,
    )

    config = _serving_config(args)
    result, recorder = _serving_run(
        args, config, args.load, tenant_classes=args.tenants
    )
    ledger = build_cost_ledger(result, recorder.events)
    capacity = estimate_capacity(ledger, args.target_rps, args.utilization_cap)
    if args.json:
        payload = ledger.as_dict()
        payload["offered_rps"] = args.load
        payload["capacity"] = dataclasses.asdict(capacity)
        _emit(payload)
        return 0
    print(
        f"serving cost attribution: {args.arrival} arrivals at "
        f"{args.load:g} req/s, {args.requests} requests across "
        f"{args.tenants} tenant(s), arch {config.architecture}, "
        f"batch<={config.max_batch}"
    )
    print(render_cost_dashboard(ledger, capacity, by_tenant=args.by_tenant))
    return 0


def _diff_live_program(spec: str, s: int):
    """Resolve an architecture spec to ``(program, architecture)``.

    A1/A2/A3 run the full-pass block program under that architecture;
    A4 is the optimizer's synthesized schedule (``synthesize_a4``) run
    under A3 — the pass-transformed program, not a different fabric.
    """
    if spec == "A4":
        from repro.hw.dse import synthesize_a4

        return synthesize_a4(s=s, architecture="A3").program, "A3"
    return hw.LatencyModel().full_pass_program(s), spec


def _show_delta(args: argparse.Namespace, delta, render) -> None:
    """Print ``delta`` as JSON (--json) or as ``render``'s tables; with
    --out also write its JSON there."""
    if args.json:
        _emit(delta.as_dict())
    else:
        print(render(delta, top=args.top))
    if args.out:
        _emit(delta.as_dict(), args.out)


def _diff_serve(args: argparse.Namespace) -> int:
    from repro.obs.diffprof import diff_tenant_costs
    from repro.serving import build_cost_ledger, diff_sweeps, render_sweep_delta

    loads = _loads(args)
    configs = (
        _serving_config(args),
        _serving_config(args, args.cand_arch, args.cand_max_batch),
    )
    base_sweep, cand_sweep = (_sweep(args, loads, c) for c in configs)
    delta = diff_sweeps(base_sweep, cand_sweep)
    print(render_sweep_delta(delta))
    print()

    # SLO attainment and per-tenant cost deltas from an instrumented
    # re-run of each variant at the heaviest offered load — that is
    # where queueing, preemption, and SLO misses actually diverge.
    sides = []
    for config in configs:
        result, recorder, _, slo_report = _instrumented_serving_run(
            args, config, loads[-1]
        )
        sides.append((slo_report, build_cost_ledger(result, recorder.events)))
    (base_slo, base_ledger), (cand_slo, cand_ledger) = sides
    costs = diff_tenant_costs(base_ledger, cand_ledger)
    d_att = cand_slo.attainment - base_slo.attainment
    totals = costs["totals"]
    print(f"instrumented deltas at {loads[-1]:g} req/s (cand - base):")
    print(f"  SLO attainment : {base_slo.attainment:.1%} -> "
          f"{cand_slo.attainment:.1%} ({d_att:+.1%})")
    print(f"  device cycles  : {totals['makespan_cycles']:+,} "
          f"(attributed {totals['attributed_cycles']:+,})")
    print(f"  HBM load bytes : {totals['hbm_load_bytes']:+,}")
    rows = [
        [tenant, f"{t['requests']:+d}", f"{t['good']:+d}",
         f"{t['attributed_cycles']:+,}", f"{t['hbm_load_bytes']:+,}"]
        for tenant, t in sorted(costs["tenants"].items())
    ]
    if rows:
        print(format_table(
            ["tenant", "Δreq", "Δgood", "Δcycles", "Δhbm bytes"], rows
        ))
    payload = {
        "sweep": delta.as_dict(),
        "heaviest_load_rps": loads[-1],
        "slo_attainment": {
            "base": base_slo.attainment,
            "cand": cand_slo.attainment,
            "delta": d_att,
        },
        "costs": costs,
    }
    if args.json:
        _emit(payload)
    if args.out:
        _emit(payload, args.out)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.hw.program import trace_program
    from repro.obs.diffprof import (
        delta_counter_tracks,
        diff_profiles,
        load_profile,
        profile_run,
        render_waterfall,
    )

    if args.serve:
        return _diff_serve(args)
    if args.snapshots:
        from repro.bench import (
            diff_snapshots,
            load_snapshot,
            render_snapshot_delta,
        )

        delta = diff_snapshots(*map(load_snapshot, args.snapshots))
        _show_delta(args, delta, render_snapshot_delta)
        return 0

    runs = ()
    if args.profiles:
        base_prof, cand_prof = map(load_profile, args.profiles)
    else:
        overhead = hw.LatencyModel().calibration.block_overhead_cycles
        runs = [_diff_live_program(spec, args.seq)
                for spec in (args.base, args.cand)]
        base_prof, cand_prof = (
            profile_run(program, arch, overhead, label=f"{spec} s={args.seq}")
            for (program, arch), spec in zip(runs, (args.base, args.cand))
        )
    waterfall = diff_profiles(base_prof, cand_prof)
    _show_delta(args, waterfall, render_waterfall)
    if args.trace:
        if not runs:
            raise ValueError("--trace needs a live diff (--base/--cand); "
                             "saved profiles carry no timeline")
        timelines = [trace_program(*run, overhead) for run in runs]
        _write(
            args.trace,
            obs.chrome_trace_json(
                clock_mhz=HardwareConfig().clock_mhz,
                metadata={
                    "base": base_prof.label,
                    "cand": cand_prof.label,
                    "makespan_delta_cycles": waterfall.makespan_delta,
                },
                counters=delta_counter_tracks(*timelines),
            ),
            f"delta trace: {{}}  {PERFETTO}",
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.hw.verification import verify_equivalence

    results = verify_equivalence()
    rows = [
        [
            r.case.name,
            f"{r.max_abs_error:.2e}",
            f"{r.max_rel_error:.2e}",
            "PASS" if r.passed else "FAIL",
        ]
        for r in results
    ]
    print(format_table(["case", "max |err|", "max rel err", "status"], rows))
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} cases passed")
    del args
    return 1 if failed else 0


def _cmd_utilization(args: argparse.Namespace) -> int:
    from repro.analysis.bandwidth import architecture_utilization_table

    rows = []
    for r in architecture_utilization_table(s=args.seq):
        rows.append([
            r.architecture.value,
            f"{r.compute_busy_fraction:.0%}",
            f"{r.compute_stall_fraction:.0%}",
            f"{r.effective_load_gbps:.2f}",
            f"{r.sustained_gflops:.1f}",
        ])
    print(format_table(
        ["arch", "compute busy", "compute stall", "load GB/s", "GFLOPs/s"],
        rows,
    ))
    return 0


def _cmd_inventory(args: argparse.Namespace) -> int:
    del args
    rows = [[r.name, r.count, r.dims] for r in weight_inventory()]
    print(format_table(["matrix", "count", "dims"], rows))
    return 0


def _cmd_program(args: argparse.Namespace) -> int:
    from repro.hw.visualize import render_program_gantt

    lm = hw.LatencyModel()
    program = lm.full_pass_program(args.seq)
    shown = list(program.ops[: args.ops])
    rows = [
        [
            op.op_id,
            op.block,
            op.kind.value,
            "+".join(op.engines),
            op.cycles,
            op.label,
        ]
        for op in shown
    ]
    print(f"block program: {program.num_ops} ops, "
          f"{len(program.blocks)} blocks (s={args.seq})")
    print(format_table(["op", "block", "kind", "engines", "cycles", "label"], rows))
    if program.num_ops > len(shown):
        print(f"... {program.num_ops - len(shown)} more ops "
              f"(raise --ops to see them)")
    print()
    print(f"per-engine Gantt under {args.arch}:")
    print(render_program_gantt(program, args.arch, width=args.width))
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.hw.introspect import (
        classify_stalls,
        default_watchpoints,
        render_stall_dashboard,
        run_watchpoints,
        stall_summary,
    )
    from repro.hw.program import trace_program
    from repro.hw.visualize import render_program_gantt

    lm = hw.LatencyModel()
    program = lm.full_pass_program(args.seq)
    overhead = lm.calibration.block_overhead_cycles
    timeline = trace_program(program, args.arch, overhead)
    report = classify_stalls(program, args.arch, overhead)
    hits = run_watchpoints(
        timeline, default_watchpoints(timeline, idle_fraction=args.watch_idle)
    )
    crossover = lm.crossover_sequence_length()
    if args.json:
        payload = stall_summary(report)
        payload["s"] = args.seq
        payload["crossover_s"] = crossover
        payload["watchpoint_hits"] = [h.as_dict() for h in hits]
        _emit(payload)
        return 0
    print(render_stall_dashboard(report, hits, width=max(args.width // 3, 10)))
    print()
    side = "compute" if args.seq >= crossover else "load"
    print(f"Fig 5.2 context: encoder compute overtakes its weight load at "
          f"s = {crossover} (paper: s > 18); at s={args.seq} the encoder is "
          f"{side}-bound under {args.arch}.")
    if args.gantt:
        print()
        print(f"stall-annotated Gantt ({args.arch}):")
        print(render_program_gantt(
            program, args.arch, width=args.width, annotate_stalls=True
        ))
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from repro.hw.dse import synthesize_a4

    result = synthesize_a4(s=args.seq, architecture=args.arch)
    payload = result.as_dict()
    if args.out:
        _emit(payload, args.out, None)
    if args.json:
        _emit(payload)
        return 0
    print(
        f"A4 synthesis over {args.arch} at s={args.seq} "
        f"({result.candidates_tried} candidate pipelines):"
    )
    print(f"  winning pipeline : {' -> '.join(result.pipeline.names)}")
    print(f"  baseline cycles  : {result.baseline_cycles:>12,}")
    print(f"  optimized cycles : {result.optimized_cycles:>12,}")
    print(f"  saved            : {result.cycles_saved:>12,} "
          f"({result.improvement_pct:.2f}%)")
    print()
    rows = [
        [
            p.name,
            len(p.actions),
            f"{p.cycles_before:,}",
            f"{p.cycles_after:,}",
            f"{p.cycles_before - p.cycles_after:,}",
        ]
        for p in result.report.passes
    ]
    print(format_table(
        ["pass", "actions", "cycles before", "cycles after", "saved"], rows
    ))
    print()
    print("PSA stall attribution (cycles):")
    causes = sorted(
        set(result.psa_stalls_before) | set(result.psa_stalls_after)
    )
    rows = [
        [
            cause,
            f"{int(result.psa_stalls_before.get(cause, 0)):,}",
            f"{int(result.psa_stalls_after.get(cause, 0)):,}",
        ]
        for cause in causes
    ]
    print(format_table(["cause", "A3", "A4"], rows))
    if args.out:
        print(f"\nreport written to {args.out}")
    return 0


# --- the command table -------------------------------------------------

Option = tuple[tuple[str, ...], dict]


def _opt(*flags: str, **kwargs) -> Option:
    """One ``add_argument`` call, declared as data."""
    return flags, kwargs


def _json_flag(what: str) -> Option:
    return _opt("--json", action="store_true", help=f"emit {what} as JSON")


class Command(NamedTuple):
    """One ``repro-asr`` subcommand: a leaf runs ``run``, a group
    dispatches to its ``subcommands``."""

    name: str
    help: str
    run: Callable[[argparse.Namespace], int] | None = None
    options: tuple[Option, ...] = ()
    subcommands: tuple["Command", ...] = ()


ARCHS = ["A1", "A2", "A3"]

SEQ = _opt("--seq", type=int, default=32)
ARCH = _opt("--arch", default="A3", choices=ARCHS)
SEQ_ARCH = (SEQ, ARCH)

# One synthetic utterance (profile and metrics add --arch).
UTTERANCE = (
    _opt("--words", type=int, default=3),
    _opt("--seed", type=int, default=42),
    _opt("--beam", type=int, default=1),
)

# A serving run: workload, fabric and SLO.  slo, serve-sim and costs
# add KV_BUDGET; the instrumented runs (diff --serve, serve-sim, slo)
# add INSTRUMENTED.
SERVING = (
    _opt("--arrival", default="poisson",
         choices=["poisson", "bursty", "diurnal"]),
    _opt("--requests", type=int, default=16,
         help="requests simulated per load level"),
    *SEQ_ARCH,
    _opt("--max-batch", type=int, default=4,
         help="decode-iteration width (continuous batch size)"),
    _opt("--slo-ms", type=float, default=1500.0,
         help="latency SLO for goodput accounting (virtual ms)"),
    _opt("--seed", type=int, default=11),
)
KV_BUDGET = _opt("--kv-budget-bytes", type=int, default=None,
                 help="K/V BRAM budget; default fits max-batch full caches")
INSTRUMENTED = (
    _opt("--slo-target", type=float, default=0.95,
         help="SLO attainment target in (0,1) for the instrumented run"),
    _opt("--sample-cycles", type=int, default=100_000,
         help="virtual-time sampler cadence, fabric cycles"),
)
LOADS = _opt("--loads", default="0.5,2,8",
             help="comma-separated offered loads, requests/s (>=3)")
LOAD = _opt("--load", type=float, default=8.0, help="offered load, requests/s")

BENCH = (
    Command(
        "run", "run the scenario suite and write a BENCH_<n>.json snapshot",
        _cmd_bench_run,
        (
            _opt("--out", default="benchmarks/snapshots",
                 help="directory receiving the next BENCH_<n>.json"),
            _opt("--quick", action="store_true",
                 help="trimmed suite, one repeat (smoke runs / tests)"),
        ),
    ),
    Command(
        "compare", "diff a snapshot against a baseline (exit 1 on failure)",
        _cmd_bench_compare,
        (
            _opt("baseline",
                 help="committed baseline snapshot path, or a directory "
                      "holding BENCH_<n>.json files (highest n wins)"),
            _opt("current",
                 help="fresh snapshot path, or a directory holding "
                      "BENCH_<n>.json files (highest n wins)"),
            _opt("--artifact-hint", default=None, metavar="PATH",
                 help="on failure, point the reader at the differential "
                      "waterfall artifact explaining the drift (CI wires "
                      "this to the uploaded diff JSON)"),
        ),
    ),
    Command(
        "report",
        "bottleneck attribution: block bounds, crossover, roofline",
        _cmd_bench_report,
        SEQ_ARCH,
    ),
)

COMMANDS = (
    Command(
        "latency", "Table 5.1 latency sweep", _cmd_latency,
        (
            _opt("--arch", nargs="+", default=list(ARCHS), choices=ARCHS),
            _opt("--seq", nargs="+", type=int, default=[4, 8, 16, 32]),
        ),
    ),
    Command("crossover", "Fig 5.2 load/compute crossover", _cmd_crossover),
    Command(
        "resources", "Table 5.2 resource estimate", _cmd_resources,
        (SEQ, _opt("--psa-rows", type=int, default=2)),
    ),
    Command("dse", "Table 5.3 head-parallelism DSE", _cmd_dse, (SEQ,)),
    Command("precision", "fixed-precision sweep (§6.2)", _cmd_precision),
    Command(
        "transcribe", "E2E demo on a synthetic utterance", _cmd_transcribe,
        (*UTTERANCE, _json_flag("the result breakdown + metrics")),
    ),
    Command(
        "profile", "profiled E2E run: Chrome trace (Perfetto) + metric dumps",
        _cmd_profile,
        (
            _opt("--out", default="profile_out",
                 help="output directory for trace.json / metrics.prom / "
                      "events.jsonl"),
            *UTTERANCE,
            ARCH,
        ),
    ),
    Command(
        "metrics", "Prometheus exposition text of a profiled E2E run",
        _cmd_metrics, (*UTTERANCE, ARCH),
    ),
    Command(
        "bench", "performance-trajectory harness: snapshot, gate, attribute",
        subcommands=BENCH,
    ),
    Command(
        "diff",
        "differential profiler: conservation-checked cycle-delta waterfall "
        "between two runs (live A1-A4, saved profiles, bench snapshots, or "
        "serving variants)",
        _cmd_diff,
        (
            _opt("--base", default="A3", choices=[*ARCHS, "A4"],
                 help="baseline run for a live diff (A4 = the "
                      "optimizer's synthesized schedule over A3)"),
            _opt("--cand", default="A4", choices=[*ARCHS, "A4"],
                 help="candidate run for a live diff"),
            _opt("--top", type=int, default=8,
                 help="leaves/rows shown per waterfall table"),
            _opt("--snapshots", nargs=2, metavar=("BASE", "CURRENT"),
                 default=None,
                 help="diff two BENCH_<n>.json snapshots instead "
                      "(waterfalls where both embed run profiles)"),
            _opt("--profiles", nargs=2, metavar=("BASE", "CAND"),
                 default=None,
                 help="diff two saved runprofile.json artifacts (or "
                      "`repro-asr profile` output directories)"),
            _opt("--serve", action="store_true",
                 help="diff two serving variants: sweep deltas, knee "
                      "movement, SLO attainment and per-tenant costs"),
            _json_flag("the delta"),
            _opt("--out", default=None, metavar="PATH",
                 help="also write the delta JSON to this path (the CI "
                      "waterfall artifact)"),
            _opt("--trace", default=None, metavar="PATH",
                 help="write Perfetto delta counter tracks "
                      "(candidate-minus-base utilization per engine; "
                      "live diffs only)"),
            *SERVING,
            *INSTRUMENTED,
            LOADS,
            _opt("--cand-arch", default=None, choices=ARCHS,
                 help="candidate serving architecture (--serve; "
                      "defaults to --arch)"),
            _opt("--cand-max-batch", type=int, default=None,
                 help="candidate decode-batch width (--serve; defaults "
                      "to --max-batch)"),
        ),
    ),
    Command(
        "serve-sim", "multi-tenant serving simulator: latency vs offered load",
        _cmd_serve_sim,
        (
            *SERVING,
            KV_BUDGET,
            *INSTRUMENTED,
            LOADS,
            _opt("--json", default=None, metavar="PATH",
                 help="also write the sweep + attribution as JSON"),
            _opt("--trace", default=None, metavar="PATH",
                 help="write a merged Perfetto trace (device lanes + "
                      "per-request lifecycle tracks) of an instrumented "
                      "re-run at the highest load, plus a JSONL event "
                      "log next to it"),
            _opt("--timeseries", default=None, metavar="PATH",
                 help="write the sampled virtual-time series "
                      "(batch, queue depth, KV bytes, cycle accounts) "
                      "as JSON"),
            _opt("--slo-report", default=None, metavar="PATH",
                 help="write the SLO report (attainment, burn rates, "
                      "per-violation attribution) as JSON"),
        ),
    ),
    Command(
        "slo",
        "serving SLO dashboard: attainment, error budget, burn-rate "
        "alerts, per-violation phase + stall-cause attribution",
        _cmd_slo,
        (
            *SERVING,
            KV_BUDGET,
            *INSTRUMENTED,
            LOAD,
            _json_flag("the SLO report + event counts"),
        ),
    ),
    Command(
        "costs",
        "per-request/per-tenant cost attribution: exact cycle shares, HBM "
        "bytes, KV residency, fairness readouts, and the capacity "
        "extrapolation (cards for a target load)",
        _cmd_costs,
        (
            *SERVING,
            KV_BUDGET,
            LOAD,
            _opt("--tenants", type=int, default=2,
                 help="tenant classes in the synthesized mix"),
            _opt("--target-rps", type=float, default=100.0,
                 help="target offered load for the capacity "
                      "extrapolation (utterances/s fleet-wide)"),
            _opt("--utilization-cap", type=float, default=0.7,
                 help="per-card utilization headroom in (0,1]"),
            _opt("--by-tenant", action="store_true",
                 help="include the per-tenant breakdown and fairness "
                      "readouts in the dashboard"),
            _json_flag("the full ledger (per-request, per-tenant, "
                       "fairness, capacity)"),
        ),
    ),
    Command("inventory", "Table 4.1 weight inventory", _cmd_inventory),
    Command(
        "program", "lowered block-program op list + per-engine Gantt",
        _cmd_program,
        (
            *SEQ_ARCH,
            _opt("--ops", type=int, default=24,
                 help="number of ops to list (the Gantt always covers all)"),
            _opt("--width", type=int, default=100),
        ),
    ),
    Command(
        "inspect",
        "ILA-style stall dashboard: utilization bars, stall causes, "
        "watchpoint hits",
        _cmd_inspect,
        (
            *SEQ_ARCH,
            _opt("--width", type=int, default=100),
            _opt("--watch-idle", type=float, default=0.05,
                 help="idle watchpoint threshold, as a fraction of the "
                      "makespan"),
            _opt("--gantt", action="store_true",
                 help="append the stall-annotated per-engine Gantt"),
            _json_flag("the stall report + watchpoint hits"),
        ),
    ),
    Command(
        "optimize",
        "search the pass pipeline space and synthesize the A4 schedule "
        "(exact cycles + stall attribution)",
        _cmd_optimize,
        (
            *SEQ_ARCH,
            _json_flag("the full A4 report"),
            _opt("--out", default=None,
                 help="also write the JSON report to this path (the CI "
                      "pass-report artifact)"),
        ),
    ),
    Command("verify", "accelerator vs golden-model battery", _cmd_verify),
    Command(
        "utilization", "engine utilization per architecture", _cmd_utilization,
        (SEQ,),
    ),
)


def _add_commands(parser, commands: Sequence[Command], dest: str) -> None:
    sub = parser.add_subparsers(dest=dest, required=True)
    for command in commands:
        p = sub.add_parser(command.name, help=command.help)
        for flags, kwargs in command.options:
            p.add_argument(*flags, **kwargs)
        if command.subcommands:
            _add_commands(p, command.subcommands, f"{command.name}_command")
        else:
            p.set_defaults(func=command.run)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asr",
        description="Transformer-ASR FPGA accelerator simulator (RAW 2023 repro)",
    )
    _add_commands(parser, COMMANDS, "command")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""Tests for the serving SLO monitor: the closed goodput boundary,
attainment/error-budget/burn-rate arithmetic, multi-window alerts, and
the per-violation macro-phase + micro-stall-cause drill-down."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.hw.introspect import STALL_CAUSES
from repro.obs.vtrace import VSampler, VTraceRecorder
from repro.serving import (
    ContinuousBatchingScheduler,
    ModeledExecutor,
    RequestState,
    ServingConfig,
    ServingResult,
    SloObjective,
    SloWindow,
    UtteranceRequest,
    evaluate_slo,
    make_arrival_model,
    meets_slo,
    phase_stall_report,
    render_slo_dashboard,
    synthesize_requests,
)
from repro.serving.request import RequestRecord
from repro.serving.slo import MACRO_PHASES
from tests.reference_slo import reference_burn_alerts


def _pressured_run(slo_ms=1500.0):
    """The seed-11 poisson run at 8 req/s: known to preempt and to
    produce at least one SLO miss at 1500 ms."""
    config = ServingConfig(s=32, max_batch=4, slo_ms=slo_ms)
    requests = synthesize_requests(
        make_arrival_model("poisson", 8.0, seed=11), 16, seed=11
    )
    vt, sm = VTraceRecorder(), VSampler(cadence_cycles=100_000)
    result = ContinuousBatchingScheduler(config, vtrace=vt, sampler=sm).run(
        requests
    )
    return result, vt, sm


def _synthetic_result(latencies_ms, clock_hz=1.0e6, slo_ms=100.0, cycles=None):
    """A hand-built run: request i completes at virtual second i * 0.5
    (or at cycle ``cycles[i]``) with the given end-to-end latency.  Lets
    the burn/alert arithmetic be tested against exact numbers."""
    records, events = [], []
    vt = VTraceRecorder()
    for i, lat in enumerate(latencies_ms):
        finish_s = 0.5 * (i + 1) if cycles is None else cycles[i] / clock_hz
        req = UtteranceRequest(i, arrival_s=finish_s - lat / 1e3,
                               decode_tokens=1)
        rec = RequestRecord(request=req, state=RequestState.COMPLETED,
                            admitted_s=req.arrival_s, finished_s=finish_s)
        records.append(rec)
        cycle = int(finish_s * clock_hz) if cycles is None else cycles[i]
        vt.emit("complete", cycle, i, e2e_ms=lat)
    result = ServingResult(
        config=ServingConfig(s=32, max_batch=4, slo_ms=slo_ms),
        records=records,
        device_end_cycles=int(0.5 * len(latencies_ms) * clock_hz),
        prefill_cycles_total=0, decode_cycles_total=1,
        replay_cycles_total=0, idle_cycles_total=0,
        prefills=0, decode_iterations=0, preemptions=0, replayed_steps=0,
        peak_kv_bytes=0, peak_queue_depth=0, peak_batch=0,
        clock_hz=clock_hz,
    )
    return result, vt


class TestSloBoundary:
    def test_boundary_is_closed(self):
        # Exactly-on-the-objective counts as good: <=, not <.  Pinned
        # because an off-by-one here shifts every goodput curve.
        assert meets_slo(1500.0, 1500.0) is True
        assert meets_slo(1500.0000001, 1500.0) is False

    def test_goodput_counts_exact_boundary_request(self):
        requests = [UtteranceRequest(0, arrival_s=0.001, decode_tokens=4)]
        probe = ContinuousBatchingScheduler(_cfg()).run(list(requests))
        e2e = probe.completed[0].e2e_ms
        at_boundary = ContinuousBatchingScheduler(_cfg(slo_ms=e2e)).run(
            list(requests)
        )
        assert at_boundary.goodput_rps == at_boundary.throughput_rps > 0
        below = ContinuousBatchingScheduler(
            _cfg(slo_ms=e2e * (1 - 1e-9))
        ).run(list(requests))
        assert below.goodput_rps == 0.0

    def test_attainment_counts_exact_boundary_completion(self):
        result, vt = _synthetic_result([100.0, 100.0])
        report = evaluate_slo(result, vt.events,
                              SloObjective(latency_ms=100.0, target=0.5))
        assert report.attainment == 1.0
        assert report.violations == []


def _cfg(**kw):
    defaults = dict(s=32, max_batch=4, slo_ms=1e9)
    defaults.update(kw)
    return ServingConfig(**defaults)


class TestSloArithmetic:
    def test_attainment_and_error_budget(self):
        # 8 good, 2 bad at target 0.8 -> attainment 0.8, budget exactly
        # consumed (2 misses allowed, 2 spent).
        result, vt = _synthetic_result([50.0] * 8 + [200.0] * 2)
        report = evaluate_slo(result, vt.events,
                              SloObjective(latency_ms=100.0, target=0.8))
        assert report.total == 10 and report.good == 8
        assert report.attainment == pytest.approx(0.8)
        assert report.error_budget_consumed == pytest.approx(1.0)

    def test_empty_run_is_vacuously_attained(self):
        result, vt = _synthetic_result([50.0])
        report = evaluate_slo(result, [], SloObjective(latency_ms=100.0))
        assert report.total == 0
        assert report.attainment == 1.0
        assert report.error_budget_consumed == 0.0
        assert report.alerts == []

    def test_alert_fires_once_on_rising_edge(self):
        # Every completion misses: burn = 1/(1-0.9) = 10x in every
        # window from the first completion on -> exactly one alert
        # (rising edge), carried back into the recorder's event stream.
        result, vt = _synthetic_result([500.0] * 6)
        report = evaluate_slo(
            result, vt.events,
            SloObjective(latency_ms=100.0, target=0.9), recorder=vt,
        )
        assert len(report.alerts) == 1
        assert report.alerts[0].burn["fast"] == pytest.approx(10.0)
        slo_events = [e for e in vt.events if e.kind == "slo_alert"]
        assert len(slo_events) == 1
        assert slo_events[0].cycle == report.alerts[0].cycle

    def test_no_alert_when_within_budget(self):
        result, vt = _synthetic_result([50.0] * 10)
        report = evaluate_slo(result, vt.events,
                              SloObjective(latency_ms=100.0, target=0.9))
        assert report.alerts == []
        assert all(v == 0.0 for v in report.burn.values())

    def test_all_windows_must_agree(self):
        # A miss burst older than the fast window but inside the slow
        # one: the slow window still burns, the fast one has recovered,
        # so no alert fires at the later completions.
        result, vt = _synthetic_result(
            [500.0, 500.0] + [50.0] * 8,
            slo_ms=100.0,
        )
        objective = SloObjective(
            latency_ms=100.0, target=0.9,
            windows=(SloWindow("fast", 1.0, 4.0),
                     SloWindow("slow", 60.0, 2.0)),
        )
        report = evaluate_slo(result, vt.events, objective)
        # the opening burst alerts once; recovery never re-alerts
        assert len(report.alerts) == 1
        assert report.alerts[0].cycle == vt.events[0].cycle

    def test_attainment_series_is_rolling(self):
        result, vt = _synthetic_result([500.0, 50.0, 50.0])
        report = evaluate_slo(result, vt.events,
                              SloObjective(latency_ms=100.0, target=0.5))
        assert [round(v, 3) for _, v in report.attainment_series] == [
            0.0, 0.5, pytest.approx(0.667, abs=1e-3)
        ]

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SloObjective(latency_ms=0.0)
        with pytest.raises(ValueError):
            SloObjective(latency_ms=100.0, target=1.0)
        with pytest.raises(ValueError):
            SloObjective(latency_ms=100.0, windows=())
        with pytest.raises(ValueError):
            SloWindow("w", window_s=0.0, burn_threshold=1.0)


@st.composite
def outcome_streams(draw):
    """Completions in cycle order (ties included) with their met flags,
    on a 1 kHz clock, and an objective of one to three windows."""
    # Gaps of whole window spans put completions exactly on a window's
    # open start edge.
    gaps = draw(st.lists(
        st.sampled_from([0, 250, 500, 1_000, 2_000]) | st.integers(0, 3_000),
        max_size=120,
    ))
    cycles = [1_000 + sum(gaps[: i + 1]) for i in range(len(gaps))]
    flags = draw(st.lists(st.booleans(), min_size=len(cycles), max_size=len(cycles)))
    windows = tuple(
        SloWindow(f"w{i}", window_s=draw(st.sampled_from([0.5, 1.0, 2.0, 7.5])),
                  burn_threshold=draw(st.sampled_from([0.5, 1.0, 4.0])))
        for i in range(draw(st.integers(1, 3)))
    )
    target = draw(st.sampled_from([0.5, 0.9, 0.95, 0.999]))
    return list(zip(cycles, flags)), SloObjective(100.0, target, windows=windows)


class TestBurnOracle:
    """The moving-window burn equals the rescanning loop it replaced."""

    @given(stream=outcome_streams())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_rescan(self, stream):
        outcomes, objective = stream
        result, vt = _synthetic_result(
            [50.0 if ok else 200.0 for _, ok in outcomes], clock_hz=1_000.0,
            cycles=[cycle for cycle, _ in outcomes],
        )
        alert_vt = VTraceRecorder()
        report = evaluate_slo(result, vt.events, objective, recorder=alert_vt)
        alerts, series, burn = reference_burn_alerts(outcomes, objective, 1_000.0)
        assert (report.alerts, report.attainment_series) == (alerts, series)
        assert report.burn == burn
        assert [e.cycle for e in alert_vt.events] == [a.cycle for a in alerts]


class TestViolationDrilldown:
    def test_names_phase_and_stall_cause(self):
        result, vt, _ = _pressured_run(slo_ms=1500.0)
        report = evaluate_slo(
            result, vt.events, SloObjective(latency_ms=1500.0, target=0.9)
        )
        assert report.violations, "expected at least one SLO miss"
        for v in report.violations:
            assert v.macro in MACRO_PHASES
            assert v.micro == "none" or v.micro in STALL_CAUSES
            assert v.stall_program.startswith(("full_pass", "decode_step"))
            assert v.e2e_ms > 1500.0
            # phase decomposition covers the whole latency
            assert sum(v.phase_ms.values()) == pytest.approx(
                v.e2e_ms, rel=1e-6
            )

    def test_phase_stall_report_matches_analysis_labels(self):
        lm = ModeledExecutor(_cfg()).lm
        label, report = phase_stall_report(lm, "prefill", 32, "A3")
        assert label == "full_pass(s=32)"
        report.verify_conservation()
        label, _ = phase_stall_report(lm, "decode", 32, "A3")
        assert label == "decode_step(t=16, s=32)"
        with pytest.raises(ValueError):
            phase_stall_report(lm, "queueing", 32, "A3")

    def test_metrics_emitted_when_telemetry_enabled(self):
        result, vt, _ = _pressured_run(slo_ms=1500.0)
        with obs.telemetry() as session:
            report = evaluate_slo(
                result, vt.events,
                SloObjective(latency_ms=1500.0, target=0.9),
            )
        values = session.metrics.as_dict()
        assert values["repro.serving.slo.attainment"] == pytest.approx(
            report.attainment
        )
        assert values["repro.serving.slo.violations"] == report.violated
        assert 'repro.serving.slo.burn_rate{window=fast}' in values

    def test_dashboard_renders(self):
        result, vt, _ = _pressured_run(slo_ms=1500.0)
        report = evaluate_slo(
            result, vt.events, SloObjective(latency_ms=1500.0, target=0.9)
        )
        text = render_slo_dashboard(report)
        assert "attainment" in text and "burn[fast" in text
        assert report.violations[0].macro in text

    def test_report_as_dict_round_trips(self):
        import json

        result, vt, _ = _pressured_run()
        report = evaluate_slo(
            result, vt.events, SloObjective(latency_ms=1500.0, target=0.9)
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["total"] == report.total
        assert payload["objective"]["target"] == 0.9


class TestRejection:
    def _budgeted(self, reject):
        ex = ModeledExecutor(_cfg())
        budget = ex.resident_bytes(8)
        config = _cfg(kv_budget_bytes=budget, reject_oversized=reject)
        requests = [
            UtteranceRequest(0, 0.001, decode_tokens=4),
            UtteranceRequest(1, 0.002, decode_tokens=16),  # cannot ever fit
        ]
        return config, requests

    def test_raises_without_reject_oversized(self):
        config, requests = self._budgeted(reject=False)
        with pytest.raises(ValueError, match="cannot hold even one"):
            ContinuousBatchingScheduler(config).run(requests)

    def test_rejects_and_completes_the_rest(self):
        config, requests = self._budgeted(reject=True)
        vt = VTraceRecorder()
        result = ContinuousBatchingScheduler(config, vtrace=vt).run(requests)
        assert result.rejections == 1
        assert result.records[1].state is RequestState.REJECTED
        assert result.records[0].state is RequestState.COMPLETED
        (reject,) = [e for e in vt.events if e.kind == "reject"]
        assert reject.request_id == 1
        assert reject.attrs["needed_bytes"] > reject.attrs["kv_budget_bytes"]

"""Tests for the stall-attribution classifier, watchpoints and the
introspection surfacing (metrics, counters, dashboard, attribution)."""

import dataclasses
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.controller import LatencyModel
from repro.hw.introspect import (
    STALL_CAUSES,
    FlightRecorder,
    StallInterval,
    Watchpoint,
    classify_stalls,
    counter_tracks,
    default_watchpoints,
    render_stall_dashboard,
    run_watchpoints,
    stall_intervals,
    stall_summary,
    utilization_counters,
)
from repro.hw.kernels import Fabric
from repro.hw.passes import (
    CoalesceLoadsPass,
    PassPipeline,
    PrefetchChannelPass,
    ReorderOpsPass,
    StageExposedLoadsPass,
)
from repro.hw.passes import _psa_stalls
from repro.hw.program import lower_full_pass, trace_program
from repro.hw.trace import Timeline
from tests.reference_shapes import reference_profile


@pytest.fixture(scope="module")
def lm():
    return LatencyModel()


def _program(lm, s):
    return lm.full_pass_program(s)


class TestConservation:
    """busy + sum(stall causes) + no_work == makespan, exactly."""

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("s", [8, 18, 32])
    def test_exact_per_engine_conservation(self, lm, arch, s):
        report = classify_stalls(_program(lm, s), arch)
        assert report.makespan > 0
        for engine, lane in report.lanes.items():
            total = lane.busy + lane.stall_total + lane.no_work
            assert total == report.makespan, engine
        report.verify_conservation()  # must not raise

    def test_intervals_match_breakdown_totals(self, lm):
        """The Gantt chart's positioned stall intervals, summed per
        (cause, unit), are the profile's leaves on every lane."""
        program = _program(lm, 8)
        overhead = lm.calibration.block_overhead_cycles
        report = classify_stalls(program, "A1", overhead)
        timeline = trace_program(program, "A1", overhead)
        by_lane: dict = {}
        for iv in stall_intervals(timeline, program, "A1", overhead):
            blocks = by_lane.setdefault(iv.engine, {}).setdefault(iv.cause, {})
            blocks[iv.block] = blocks.get(iv.block, 0) + iv.cycles
        assert list(report.lanes) == timeline.engines()
        for engine, lane in report.lanes.items():
            assert by_lane.get(engine, {}) == lane.stalls, engine

    def test_verify_conservation_raises_on_corruption(self, lm):
        report = classify_stalls(_program(lm, 8), "A3")
        engine = next(iter(report.lanes))
        lane = report.lanes[engine]
        corrupt = dataclasses.replace(report, lanes={
            **report.lanes, engine: dataclasses.replace(lane, busy=lane.busy + 1)
        })
        with pytest.raises(ValueError, match="not conservative"):
            corrupt.verify_conservation()


class TestCauseAttribution:
    def test_a1_more_load_starved_than_a3_at_s8(self, lm):
        program = _program(lm, 8)
        a1 = classify_stalls(program, "A1").totals(".psa")["load_starved"]
        a3 = classify_stalls(program, "A3").totals(".psa")["load_starved"]
        assert a1 > a3  # strictly: prefetch hides load behind compute

    def test_a1_has_no_channel_contention(self, lm):
        # A1 never overlaps loads, so nothing serializes behind a LOAD.
        report = classify_stalls(_program(lm, 8), "A1")
        assert report.totals()["channel_contention"] == 0.0

    def test_a2_single_channel_contention_at_small_s(self, lm):
        # A2 prefetches every bundle on one channel: back-to-back LOADs
        # serialize, which is the paper's motivation for A3.
        report = classify_stalls(_program(lm, 8), "A2")
        assert report.totals()["channel_contention"] > 0.0

    def test_dominant_cause_on_psa_lanes(self, lm):
        report = classify_stalls(_program(lm, 8), "A1")
        assert report.dominant_cause(".psa") == "load_starved"

    def test_overhead_attributed_when_configured(self, lm):
        report = classify_stalls(
            _program(lm, 8), "A3",
            block_overhead=lm.calibration.block_overhead_cycles,
        )
        if lm.calibration.block_overhead_cycles > 0:
            assert report.totals()["overhead"] > 0.0

    def test_as_dict_round_trips(self, lm):
        payload = stall_summary(classify_stalls(_program(lm, 8), "A3"))
        parsed = json.loads(json.dumps(payload))
        assert parsed["architecture"] == "A3"
        assert set(parsed["totals"]) == set(STALL_CAUSES)
        assert parsed["engines"]


class TestWatchpoints:
    def _timeline(self):
        tl = Timeline()
        tl.add("hbm0", "LW:enc1", 0, 100, kind="load")
        tl.add("slr0.psa0", "h0:MM1", 100, 200)
        tl.add("slr0.psa0", "h0:MM4", 500, 600)
        return tl

    def test_idle_trigger_fires_with_context(self):
        hits = run_watchpoints(
            self._timeline(),
            [Watchpoint("psa-idle", "idle", engine=r"\.psa", threshold=200)],
        )
        assert len(hits) == 1
        hit = hits[0]
        assert hit.engine == "slr0.psa0"
        assert hit.cycle == 500
        assert "idle 300" in hit.detail
        assert any(e.label == "h0:MM1" for e in hit.window)

    def test_idle_trigger_counts_lead_in(self):
        hits = run_watchpoints(
            self._timeline(),
            [Watchpoint("first", "idle", engine=r"\.psa", threshold=100)],
        )
        assert any(h.cycle == 100 for h in hits)

    def test_label_trigger_matches_regex(self):
        hits = run_watchpoints(
            self._timeline(),
            [Watchpoint("mm4", "label", pattern=r"MM4.*")],
        )
        assert len(hits) == 1
        assert "h0:MM4" in hits[0].detail

    def test_bandwidth_trigger_fires_on_quiet_window(self):
        tl = Timeline()
        tl.add("hbm0", "LW:a", 0, 100, kind="load")
        tl.add("hbm0", "LW:b", 900, 1000, kind="load")
        hits = run_watchpoints(
            tl,
            [Watchpoint("bw", "bandwidth", engine=r"^hbm",
                        threshold=0.5, window=200)],
        )
        assert hits
        assert all(h.engine == "hbm0" for h in hits)

    def test_watchpoint_validation(self):
        with pytest.raises(ValueError, match="unknown watchpoint kind"):
            Watchpoint("w", "bogus")
        with pytest.raises(ValueError, match="positive threshold"):
            Watchpoint("w", "idle", threshold=0)
        with pytest.raises(ValueError, match="pattern"):
            Watchpoint("w", "label")
        with pytest.raises(ValueError, match="busy-fraction"):
            Watchpoint("w", "bandwidth", threshold=2.0, window=10)
        with pytest.raises(ValueError, match="positive window"):
            Watchpoint("w", "bandwidth", threshold=0.5)

    def test_flight_recorder_bounded(self):
        rec = FlightRecorder(capacity=2)
        tl = self._timeline()
        for event in tl.events:
            rec.record(event)
        assert len(rec) == 2
        assert rec.dropped == 1
        labels = [e.label for e in rec.snapshot()]
        assert labels == ["h0:MM1", "h0:MM4"]

    def test_flight_recorder_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_default_watchpoints_on_real_program(self, lm):
        from repro.hw.program import trace_program

        timeline = trace_program(
            _program(lm, 8), "A1", lm.calibration.block_overhead_cycles
        )
        hits = run_watchpoints(
            timeline, default_watchpoints(timeline, idle_fraction=0.01)
        )
        assert hits  # A1 at s=8 is riddled with long PSA idles
        assert default_watchpoints(Timeline()) == []


class TestCounters:
    def test_bucketed_utilization(self):
        tl = Timeline()
        tl.add("e", "a", 0, 50)
        tl.add("e", "b", 150, 200)
        samples = utilization_counters(tl, bucket_cycles=100)["e"]
        assert samples == [(0.0, 0.5), (100.0, 0.5)]

    def test_counter_tracks_named_by_role(self):
        tl = Timeline()
        tl.add("hbm0", "LW", 0, 10, kind="load")
        tl.add("slr0.psa0", "C", 10, 20)
        tracks = counter_tracks(tl, bucket_cycles=10)
        assert "bandwidth:hbm0" in tracks
        assert "utilization:slr0.psa0" in tracks

    def test_empty_timeline_yields_no_tracks(self):
        assert utilization_counters(Timeline()) == {}

    def test_rejects_bad_bucket(self):
        tl = Timeline()
        tl.add("e", "a", 0, 10)
        with pytest.raises(ValueError):
            utilization_counters(tl, bucket_cycles=0)


class TestStallMetrics:
    """repro.hw.stall.cycles rides record_program_metrics, gated on
    telemetry being enabled."""

    def test_emitted_when_enabled(self, lm):
        from repro import obs
        from repro.obs.probe import record_program_metrics

        with obs.telemetry() as session:
            record_program_metrics(_program(lm, 8), architecture="A1")
            sampled = {
                key: value
                for key, value in session.metrics.as_dict().items()
                if key.startswith("repro.hw.stall.cycles{")
            }
        assert sampled
        assert any("cause=load_starved" in key for key in sampled)
        # the per-engine sums reproduce the classifier exactly
        report = classify_stalls(_program(lm, 8), "A1")
        psa0 = "slr0.psa0"
        for cause in STALL_CAUSES[:-1]:
            cycles = report.lanes[psa0].stall_cycles(cause)
            key = f"repro.hw.stall.cycles{{cause={cause},engine={psa0}}}"
            if cycles > 0:
                assert sampled[key] == cycles
            else:
                assert key not in sampled

    def test_null_registry_stays_free(self, lm):
        from repro.obs.metrics import NULL_REGISTRY
        from repro.obs.probe import record_program_metrics

        assert not NULL_REGISTRY.enabled
        result = record_program_metrics(
            _program(lm, 8), architecture="A1", registry=NULL_REGISTRY
        )
        assert result is None
        assert list(NULL_REGISTRY.collect()) == []


class TestDashboard:
    def test_renders_all_sections(self, lm):
        report = classify_stalls(_program(lm, 8), "A1")
        art = render_stall_dashboard(report, width=20)
        assert "stall attribution: A1" in art
        assert "slr0.psa0" in art
        for cause in STALL_CAUSES:
            assert cause in art
        assert "watchpoint hits: none" in art

    def test_renders_hits(self, lm):
        from repro.hw.introspect import WatchpointHit

        report = classify_stalls(_program(lm, 8), "A1")
        hit = WatchpointHit("psa-idle", 123.0, "slr0.psa0", "idle 99 cycles")
        art = render_stall_dashboard(report, hits=[hit])
        assert "watchpoint hits (1):" in art
        assert "psa-idle" in art


class TestAttributionStallSection:
    def test_report_carries_per_arch_summaries(self):
        from repro.bench.attribution import build_attribution_report

        report = build_attribution_report(s=8)
        archs = [summ.architecture for summ in report.stalls]
        assert archs == ["A1", "A2", "A3"]
        a1 = report.stall_summary("A1")
        a3 = report.stall_summary("A3")
        assert (
            a1.psa_stall_cycles("load_starved")
            > a3.psa_stall_cycles("load_starved")
        )
        text = report.format()
        assert "stall-cause attribution" in text
        assert "A1->A3 shift" in text

    def test_unknown_architecture_raises(self):
        from repro.bench.attribution import build_attribution_report

        with pytest.raises(KeyError):
            build_attribution_report(s=8).stall_summary("A9")


class TestInspectCli:
    def test_text_dashboard(self, capsys):
        from repro.cli import main

        assert main(["inspect", "--seq", "8", "--arch", "A1"]) == 0
        out = capsys.readouterr().out
        assert "stall attribution: A1" in out
        assert "Fig 5.2 context" in out

    def test_json_payload(self, capsys):
        from repro.cli import main

        assert main(["inspect", "--seq", "8", "--arch", "A3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["architecture"] == "A3"
        assert payload["s"] == 8
        assert "watchpoint_hits" in payload
        assert set(payload["totals"]) == set(STALL_CAUSES)


class TestClassifierEdgeCases:
    def test_stall_interval_cycles(self):
        iv = StallInterval("e", 10, 25, "dependency")
        assert iv.cycles == 15

    def test_memoized_on_the_program(self, lm):
        """One profile per (program, architecture, overhead), shared by
        a meta-only copy that schedules the same way."""
        program = _program(lm, 8)
        overhead = lm.calibration.block_overhead_cycles
        report = classify_stalls(program, "A2", overhead)
        assert classify_stalls(program, "A2") is report
        assert classify_stalls(program, "A2", overhead + 1) is not report
        assert classify_stalls(program, "A3", overhead) is not report
        same = program.with_meta({**program.meta, "note": 1})
        assert classify_stalls(same, "A2", overhead) is report
        deeper = program.with_meta(
            {**program.meta, "schedule_params": {"num_weight_buffers": 3}}
        )
        assert classify_stalls(deeper, "A2", overhead) is not report


MODELS = {
    "tiny": ModelConfig(
        d_model=64, num_heads=2, d_ff=128, num_encoders=1, num_decoders=1
    ),
    "small": ModelConfig(num_encoders=2, num_decoders=2),
    "paper": ModelConfig(),
}
FABRIC = Fabric(HardwareConfig(), CalibrationConfig())
CALIBRATED = CalibrationConfig().block_overhead_cycles
#: The A4 search's passes, by name, for a given architecture.
A4_PASSES = {
    "split1": lambda arch: StageExposedLoadsPass(limit=1, architecture=arch),
    "split2": lambda arch: StageExposedLoadsPass(limit=2, architecture=arch),
    "coalesce": lambda arch: CoalesceLoadsPass(architecture=arch),
    "prefetch": lambda arch: PrefetchChannelPass(architecture=arch),
    "prefetch4": lambda arch: PrefetchChannelPass(
        num_weight_buffers=4, architecture=arch
    ),
    "reorder": lambda arch: ReorderOpsPass(architecture=arch),
}


class TestPsaStallTotals:
    """The device profile, built without a trace, is the gap-walking
    classifier's account of the traced program on the programs the A4
    passes produce: every lane in trace order, its busy cycles, every
    (cause, unit) leaf in time order and its drain tail; the PSA stall
    totals the passes read are one view of it."""

    @given(
        model=st.sampled_from(sorted(MODELS)),
        s=st.integers(1, 40),
        arch=st.sampled_from(["A1", "A2", "A3"]),
        overhead=st.one_of(
            st.sampled_from([0, CALIBRATED]), st.integers(1, 5000)
        ),
        pass_arch=st.sampled_from(["A1", "A2", "A3"]),
        passes=st.lists(st.sampled_from(sorted(A4_PASSES)), unique=True, max_size=4),
    )
    @example(
        model="paper", s=32, arch="A3", overhead=CALIBRATED, pass_arch="A3",
        passes=["split2", "coalesce", "prefetch", "reorder"],
    )
    @example(
        model="paper", s=8, arch="A1", overhead=0, pass_arch="A3",
        passes=["reorder", "split1"],
    )
    @example(
        model="tiny", s=1, arch="A2", overhead=1, pass_arch="A2", passes=[]
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_the_classifier(
        self, model, s, arch, overhead, pass_arch, passes
    ):
        program = lower_full_pass(MODELS[model], FABRIC, s)
        pipeline = PassPipeline(
            tuple(A4_PASSES[name](pass_arch) for name in passes),
            architecture=pass_arch,
        )
        program = pipeline.apply_program(program)
        report = classify_stalls(program, arch, overhead)
        oracle = reference_profile(program, arch, overhead)
        report.verify_conservation()
        assert report == oracle
        assert list(report.lanes) == list(oracle.lanes)
        assert json.dumps(report.as_dict()) == json.dumps(oracle.as_dict())
        totals = _psa_stalls(program, arch, overhead)
        assert list(totals.items()) == list(oracle.totals(".psa").items())

    def test_overhead_defaults_to_the_calibrated_one(self, lm):
        program = _program(lm, 8)
        assert _psa_stalls(program, "A2", None) == _psa_stalls(
            program, "A2", lm.calibration.block_overhead_cycles
        )


class TestProfileBuiltOnce:
    """``repro-asr profile`` and the bench ``encoder_prefill`` scenario
    take the probe's gauges and the run profile from one device profile
    per (program, architecture, overhead)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.hw import introspect
        from repro.hw import program as program_module
        from repro.hw.program import lowering_cache_info

        counts: dict = {}
        build = introspect._device_profile

        def counted(program, arch, overhead):
            key = (id(program), arch, overhead)
            counts[key] = counts.get(key, 0) + 1
            return build(program, arch, overhead)

        monkeypatch.setattr(introspect, "_device_profile", counted)
        for name in lowering_cache_info():
            getattr(program_module, name).cache_clear()
        return counts

    def test_profile_command(self, builds, tmp_path, capsys):
        from repro.cli import main

        assert main(["profile", "--out", str(tmp_path), "--words", "1"]) == 0
        assert builds and set(builds.values()) == {1}

    def test_encoder_prefill_scenario(self, builds):
        from repro.bench.scenarios import Scenario, run_scenario

        run_scenario(Scenario("p", "encoder_prefill", {"arch": "A3", "s": 8}))
        assert builds and set(builds.values()) == {1}

"""Scenario runner, snapshot round-trip, and bottleneck attribution."""

import pytest

from repro.bench import (
    SNAPSHOT_SCHEMA,
    Scenario,
    build_attribution_report,
    build_snapshot,
    compare_snapshots,
    default_scenarios,
    latest_snapshot_path,
    load_snapshot,
    next_snapshot_path,
    run_scenario,
    run_suite,
    write_snapshot,
)
from repro.bench import scenarios as scenarios_mod
from repro.hw.controller import LatencyModel


class TestScenarioDeclarations:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario kind"):
            Scenario("x", "no_such_kind")

    def test_repeats_must_be_positive(self):
        with pytest.raises(ValueError):
            Scenario("x", "arch_sweep", repeats=0)

    def test_default_suite_names_are_unique_and_cover_archs(self):
        suite = default_scenarios()
        names = [s.name for s in suite]
        assert len(set(names)) == len(names)
        for arch in ("a1", "a2", "a3"):
            assert any(f"sweep_{arch}" in n for n in names)
        kinds = {s.kind for s in suite}
        assert {"arch_sweep", "encoder_prefill", "kv_decode",
                "e2e_transcribe", "streaming"} <= kinds

    def test_quick_suite_is_single_repeat_and_model_only(self):
        suite = default_scenarios(quick=True)
        assert all(s.repeats == 1 for s in suite)
        assert {s.kind for s in suite} == {
            "arch_sweep", "encoder_prefill", "kv_decode", "serving_load"
        }


class TestScenarioRunner:
    def test_arch_sweep_matches_latency_model(self):
        result = run_scenario(
            Scenario("s", "arch_sweep", {"arch": "A3", "s": 8}, repeats=2)
        )
        report = LatencyModel().latency_report(8, "A3")
        assert result.cycles["total_cycles"] == report.total_cycles
        assert result.cycles["stall_cycles"] == report.schedule.stall_cycles

    def test_encoder_prefill_accounts_are_consistent(self):
        result = run_scenario(
            Scenario("p", "encoder_prefill", {"arch": "A3", "s": 8})
        )
        # Per-channel HBM bytes total the program's load bytes, and the
        # trace makespan equals the schedule total (same scheduling pass).
        channel_bytes = sum(
            v for k, v in result.cycles.items() if k.startswith("hbm_bytes_ch")
        )
        assert channel_bytes == result.cycles["load_bytes"]
        assert (result.cycles["trace_makespan_cycles"]
                == result.cycles["schedule_total_cycles"])

    def test_kv_decode_is_data_free_and_deterministic(self):
        a = run_scenario(Scenario("d", "kv_decode", {"num_tokens": 3, "s": 8}))
        b = run_scenario(Scenario("d", "kv_decode", {"num_tokens": 3, "s": 8}))
        assert a.cycles == b.cycles

    def test_nondeterministic_cycles_are_rejected(self, monkeypatch):
        calls = {"n": 0}

        def flaky(params, session):
            calls["n"] += 1
            return {"cycles": float(calls["n"])}, {}

        monkeypatch.setitem(scenarios_mod.RUNNERS, "flaky", flaky)
        with pytest.raises(RuntimeError, match="nondeterministic"):
            run_scenario(Scenario("f", "flaky", repeats=2))

    def test_duplicate_scenario_names_rejected(self):
        dup = Scenario("same", "arch_sweep", {"s": 4})
        with pytest.raises(ValueError, match="unique"):
            run_suite([dup, dup])

    def test_traced_runners_embed_a_conservative_profile(self):
        from repro.obs.diffprof import RunProfile

        result = run_scenario(
            Scenario("s", "arch_sweep", {"arch": "A3", "s": 8}, repeats=2)
        )
        prof = RunProfile.from_dict(result.profile)  # verifies conservation
        # The profile captures the scheduled pass; total_cycles adds
        # the host IO transfers on top of it.
        assert prof.makespan == result.cycles["schedule_cycles"]
        assert prof.makespan < result.cycles["total_cycles"]
        assert prof.architecture == "A3"

    def test_untraced_runners_carry_no_profile(self):
        result = run_scenario(
            Scenario("d", "kv_decode", {"num_tokens": 3, "s": 8})
        )
        assert result.profile is None

    def test_nondeterministic_profile_is_rejected(self, monkeypatch):
        calls = {"n": 0}

        def flaky(params, session):
            calls["n"] += 1
            return {"cycles": 1.0}, {}, {"wobble": calls["n"]}

        monkeypatch.setitem(scenarios_mod.RUNNERS, "flaky", flaky)
        with pytest.raises(RuntimeError, match="nondeterministic run profile"):
            run_scenario(Scenario("f", "flaky", repeats=2))


class TestSnapshotRoundTrip:
    def test_quick_suite_snapshot_roundtrip(self, tmp_path):
        results = run_suite(default_scenarios(quick=True))
        snapshot = build_snapshot(results, config={"quick": True})
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        assert snapshot.keys() == {"schema", "config", "scenarios"}
        path = write_snapshot(snapshot, tmp_path)
        assert path.name == "BENCH_1.json"
        loaded = load_snapshot(path)
        assert loaded["scenarios"].keys() == snapshot["scenarios"].keys()
        # A snapshot always passes against itself.
        assert compare_snapshots(loaded, snapshot).passed
        # Traced scenarios embed their run profile; the self-diff of
        # the round-tripped snapshot is empty.
        from repro.bench.delta import diff_snapshots

        embedded = [
            name for name, sc in loaded["scenarios"].items()
            if "profile" in sc
        ]
        assert embedded  # the quick suite traces the arch sweep
        assert not diff_snapshots(loaded, snapshot).changed

    def test_snapshot_numbering_monotonic(self, tmp_path):
        (tmp_path / "BENCH_3.json").write_text("{}")
        (tmp_path / "BENCH_10.json").write_text("{}")
        assert next_snapshot_path(tmp_path).name == "BENCH_11.json"
        assert latest_snapshot_path(tmp_path).name == "BENCH_10.json"

    def test_latest_of_empty_dir_is_none(self, tmp_path):
        assert latest_snapshot_path(tmp_path) is None


class TestAttribution:
    def test_crossover_matches_fig_5_2(self):
        report = build_attribution_report(s=32)
        # Fig 5.2: compute exceeds load for s > 18 (model says 19); at
        # the deployed s=32 every block runs compute-bound.
        assert report.crossover_s == 19
        assert report.block_bound("enc1") == "compute"
        assert not report.load_bound_blocks

    def test_short_sequences_are_load_bound(self):
        report = build_attribution_report(s=8)
        assert report.block_bound("enc1") == "load"
        assert report.compute_bound_blocks == []
        assert all(b.ratio > 1 for b in report.blocks)

    def test_a3_splits_decoders_a1_merges_them(self):
        a3 = build_attribution_report(s=16, architecture="A3")
        a1 = build_attribution_report(s=16, architecture="A1")
        a3_labels = {b.label for b in a3.blocks}
        a1_labels = {b.label for b in a1.blocks}
        assert "dec1m" in a3_labels and "dec1f" in a3_labels
        assert "dec1" in a1_labels and "dec1m" not in a1_labels

    def test_roofline_rows_cover_mm1_to_mm6(self):
        report = build_attribution_report(s=32)
        names = [m.name for m in report.matmuls]
        assert names == ["MM1", "MM2", "MM3", "MM4", "MM5", "MM6"]
        by_name = {m.name: m for m in report.matmuls}
        # §4.2: weight matmuls are memory-bound (intensity scales with
        # s/2 FLOP per weight byte, far below the ridge).
        for name in ("MM1", "MM4", "MM5", "MM6"):
            mm = by_name[name]
            assert mm.bound == "memory"
            assert mm.intensity == pytest.approx(32 / 2)
            assert mm.attainable_gflops == pytest.approx(
                report.roofline.bandwidth_gbps * mm.intensity
            )
        # MM2/MM3 multiply on-chip activations: no HBM traffic.
        for name in ("MM2", "MM3"):
            assert by_name[name].bound == "on-chip"
            assert by_name[name].hbm_bytes == 0
            assert by_name[name].intensity is None

    def test_report_text_names_crossover_and_bounds(self):
        text = build_attribution_report(s=32).format()
        assert "s = 19" in text
        assert "compute-bound" in text
        assert "MM6" in text and "ridge" in text

    def test_invalid_s_rejected(self):
        with pytest.raises(ValueError):
            build_attribution_report(s=0)

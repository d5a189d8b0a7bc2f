"""Comparator edge cases: missing baselines, metric churn, zero-valued
baselines, malformed snapshots, and the gating semantics."""

import json

import pytest

from repro.bench.compare import ComparisonReport, Finding, compare_snapshots
from repro.bench.snapshot import SNAPSHOT_SCHEMA, load_snapshot


def make_snapshot(cycles=None, name="scn", schema=SNAPSHOT_SCHEMA):
    return {
        "schema": schema,
        "config": {},
        "scenarios": {
            name: {
                "kind": "arch_sweep",
                "params": {},
                "cycles": dict(cycles or {"total_cycles": 100.0}),
            }
        },
    }


class TestExactCycleGate:
    def test_identical_snapshots_pass(self):
        report = compare_snapshots(make_snapshot(), make_snapshot())
        assert report.passed
        assert report.findings == []

    def test_any_cycle_delta_fails(self):
        report = compare_snapshots(
            make_snapshot({"total_cycles": 100.0}),
            make_snapshot({"total_cycles": 100.0001}),
        )
        assert not report.passed
        assert "cycle count changed" in report.failures[0].message

    def test_zero_valued_baseline_cycle_change_fails_without_crash(self):
        report = compare_snapshots(
            make_snapshot({"stall_cycles": 0.0}),
            make_snapshot({"stall_cycles": 7.0}),
        )
        assert not report.passed
        assert "0 -> 7" in report.failures[0].message

    def test_zero_stays_zero_passes(self):
        report = compare_snapshots(
            make_snapshot({"stall_cycles": 0.0}),
            make_snapshot({"stall_cycles": 0.0}),
        )
        assert report.passed

    def test_removed_cycle_metric_fails(self):
        report = compare_snapshots(
            make_snapshot({"a": 1.0, "b": 2.0}), make_snapshot({"a": 1.0})
        )
        assert not report.passed
        assert report.failures[0].metric == "b"
        assert "removed" in report.failures[0].message

    def test_added_cycle_metric_warns_only(self):
        report = compare_snapshots(
            make_snapshot({"a": 1.0}), make_snapshot({"a": 1.0, "b": 2.0})
        )
        assert report.passed
        assert len(report.warnings) == 1
        assert "new cycle metric" in report.warnings[0].message


class TestScenarioChurn:
    def test_missing_scenario_fails(self):
        baseline = make_snapshot()
        current = make_snapshot()
        current["scenarios"] = {}
        report = compare_snapshots(baseline, current)
        assert not report.passed
        assert "missing from current" in report.failures[0].message

    def test_new_scenario_warns_only(self):
        baseline = make_snapshot()
        current = make_snapshot()
        current["scenarios"]["extra"] = current["scenarios"]["scn"]
        report = compare_snapshots(baseline, current)
        assert report.passed
        assert any("new scenario" in w.message for w in report.warnings)

    def test_schema_mismatch_fails_immediately(self):
        # repro.bench/1 snapshots carried host wall time.
        for schema in ("repro.bench/0", "repro.bench/1"):
            report = compare_snapshots(
                make_snapshot(schema=schema), make_snapshot()
            )
            assert not report.passed
            assert "schema mismatch" in report.failures[0].message
            # No per-scenario findings after a schema failure.
            assert len(report.findings) == 1


class TestSnapshotIo:
    def test_missing_baseline_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_snapshot(tmp_path / "nope.json")

    def test_malformed_json_raises_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_snapshot(path)

    def test_schemaless_payload_raises_value_error(self, tmp_path):
        path = tmp_path / "noschema.json"
        path.write_text(json.dumps({"scenarios": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_snapshot(path)

    @pytest.mark.parametrize("scenarios, match", [
        (None, "'scenarios' must map"),
        ([], "'scenarios' must map"),
        ({"scn": [1, 2]}, "scenario 'scn' is not a mapping"),
        ({"scn": {"kind": "arch_sweep"}}, "'cycles' must map"),
        ({"scn": {"cycles": [100.0]}}, "'cycles' must map"),
        ({"scn": {"cycles": {"total": "100"}}}, "'cycles' must map"),
        ({"scn": {"cycles": {"total": True}}}, "'cycles' must map"),
        ({"scn": {"cycles": {}, "profile": [1]}}, "'profile' is not"),
    ])
    def test_malformed_structure_raises_value_error(
        self, tmp_path, scenarios, match
    ):
        snapshot = {"schema": SNAPSHOT_SCHEMA}
        if scenarios is not None:
            snapshot["scenarios"] = scenarios
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ValueError, match=match):
            load_snapshot(path)

    def test_directory_loads_its_latest_snapshot(self, tmp_path):
        for n, total in ((2, 200.0), (10, 1000.0)):
            (tmp_path / f"BENCH_{n}.json").write_text(
                json.dumps(make_snapshot({"total_cycles": total}))
            )
        loaded = load_snapshot(tmp_path)
        assert loaded["scenarios"]["scn"]["cycles"]["total_cycles"] == 1000.0


class TestReportRendering:
    def test_format_orders_failures_first_and_states_result(self):
        report = compare_snapshots(
            make_snapshot({"a": 1.0}), make_snapshot({"a": 2.0, "b": 1.0})
        )
        text = report.format()
        assert text.index("[FAIL]") < text.index("[WARN]")
        assert text.strip().endswith("1 failure(s), 1 warning(s))")

    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError):
            Finding("nope", "s", "m", "msg")

    def test_report_add_and_passed(self):
        report = ComparisonReport()
        report.add("warn", "s", "m", "w")
        assert report.passed
        report.add("fail", "s", "m", "f")
        assert not report.passed


class TestFailureAttribution:
    """A failed exact cycle gate self-explains when both snapshots
    embed the scenario's run profile: the comparator attaches the top
    (block, engine, cause) triples the cycles moved on."""

    @staticmethod
    def _with_profile(snap, makespan, busy, stall):
        from repro.obs.diffprof import PROFILE_SCHEMA

        scenario = next(iter(snap["scenarios"].values()))
        scenario["profile"] = {
            "schema": PROFILE_SCHEMA,
            "label": "seed",
            "architecture": "A3",
            "makespan_cycles": makespan,
            "lanes": {
                "mha.psa0": {
                    "busy": busy,
                    "stalls": {"load_starved": {"enc1": stall}},
                    "no_work": makespan - busy - stall,
                }
            },
            "block_work": {"enc1": {"load": 10, "compute": busy}},
            "channel_bytes": {"0": 1024},
            "meta": {},
        }
        return snap

    def test_seeded_failure_names_the_moved_triples(self):
        baseline = self._with_profile(
            make_snapshot({"total_cycles": 100.0}), 100, busy=60, stall=30
        )
        current = self._with_profile(
            make_snapshot({"total_cycles": 90.0}), 90, busy=55, stall=25
        )
        report = compare_snapshots(baseline, current)
        assert not report.passed
        (attribution,) = [
            f for f in report.findings if f.metric == "attribution"
        ]
        assert attribution.severity == "info"
        assert "cycle delta attribution" in attribution.message
        assert "Δmakespan -10 cycles" in attribution.message
        assert "(enc1, mha.psa0, load_starved) -5" in attribution.message
        assert "attribution" in report.format()

    def test_no_profiles_no_attribution(self):
        report = compare_snapshots(
            make_snapshot({"total_cycles": 100.0}),
            make_snapshot({"total_cycles": 90.0}),
        )
        assert not report.passed
        assert not [f for f in report.findings if f.metric == "attribution"]

    def test_identical_profiles_noted_when_other_metric_drifts(self):
        baseline = self._with_profile(
            make_snapshot({"total_cycles": 100.0, "flops": 5.0}),
            100, busy=60, stall=30,
        )
        current = self._with_profile(
            make_snapshot({"total_cycles": 100.0, "flops": 6.0}),
            100, busy=60, stall=30,
        )
        report = compare_snapshots(baseline, current)
        assert not report.passed
        (attribution,) = [
            f for f in report.findings if f.metric == "attribution"
        ]
        assert "cycle-identical" in attribution.message

    def test_undiffable_profiles_degrade_to_info(self):
        baseline = self._with_profile(
            make_snapshot({"total_cycles": 100.0}), 100, busy=60, stall=30
        )
        current = self._with_profile(
            make_snapshot({"total_cycles": 90.0}), 90, busy=55, stall=25
        )
        next(iter(current["scenarios"].values()))["profile"]["schema"] = "bad"
        report = compare_snapshots(baseline, current)
        assert not report.passed  # the gate itself still fails
        (attribution,) = [
            f for f in report.findings if f.metric == "attribution"
        ]
        assert "not diffable" in attribution.message

    def test_passing_compare_never_attaches_attribution(self):
        baseline = self._with_profile(
            make_snapshot({"total_cycles": 100.0}), 100, busy=60, stall=30
        )
        current = self._with_profile(
            make_snapshot({"total_cycles": 100.0}), 90, busy=55, stall=25
        )
        report = compare_snapshots(baseline, current)
        assert report.passed
        assert not [f for f in report.findings if f.metric == "attribution"]

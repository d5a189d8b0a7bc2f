"""Tests for the repro-asr command-line interface."""

import argparse
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

# Parsed defaults and option specs (flags, action kind, nargs, type,
# choices) of every command, recorded from the hand-written parser the
# command table replaced.  A table entry that changes a default, a dest
# or a choice list fails here.  Regenerate only for an intended change.
CLI_DEFAULTS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "cli_defaults.json").read_text()
)
POSITIONALS = {"bench compare": ["BASELINE", "CURRENT"]}


def _leaf_commands(parser, prefix=()):
    """``(path, subparser)`` of every leaf command, e.g. ``"bench run"``."""
    subs = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not subs:
        yield " ".join(prefix), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_commands(sub, prefix + (name,))


def _option_spec(action) -> dict:
    return {
        "flags": list(action.option_strings),
        "kind": type(action).__name__,
        "nargs": action.nargs,
        "type": getattr(action.type, "__name__", None),
        "choices": list(action.choices) if action.choices is not None else None,
        "required": action.required,
    }


class TestParserPinned:
    def test_same_commands(self):
        assert sorted(c for c, _ in _leaf_commands(build_parser())) == sorted(
            CLI_DEFAULTS
        )

    @pytest.mark.parametrize("command", sorted(CLI_DEFAULTS))
    def test_defaults_and_options(self, command):
        parser = build_parser()
        args = vars(parser.parse_args(
            command.split() + POSITIONALS.get(command, [])
        ))
        assert callable(args.pop("func"))
        assert args == CLI_DEFAULTS[command]["defaults"]
        sub = dict(_leaf_commands(parser))[command]
        options = {
            a.dest: _option_spec(a)
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        assert options == CLI_DEFAULTS[command]["options"]

    @pytest.mark.parametrize("command", sorted(CLI_DEFAULTS) + ["bench"])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--help"])
        assert exc.value.code == 0
        assert f"usage: repro-asr {command}" in capsys.readouterr().out


class TestUsageErrors:
    """A bad value is a usage error: ``error: <message>`` on stdout and
    exit 2, never a traceback.  Exit 1 keeps its per-command meaning
    (does not fit, alerts fired, case failed, regression)."""

    @pytest.mark.parametrize("argv", [
        "latency --seq 0",
        "program --seq 0",
        "resources --seq 0",
        "dse --seq 0",
        "inspect --seq 0",
        "optimize --seq 0",
        "utilization --seq 0",
        "serve-sim --loads 1,x,3",
        "serve-sim --loads 0,1,2",
        "serve-sim --loads 1,2",
        "slo --requests 0",
        "slo --slo-target 1.5",
        "slo --load -1",
        "costs --utilization-cap 0",
        "transcribe --words 0",
    ])
    def test_exits_2_with_message(self, argv, capsys):
        assert main(argv.split()) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: ")
        assert out.count("\n") == 1


class TestCli:
    def test_latency(self, capsys):
        assert main(["latency", "--seq", "8", "--arch", "A3"]) == 0
        out = capsys.readouterr().out
        assert "A3" in out and "latency ms" in out

    def test_crossover(self, capsys):
        assert main(["crossover"]) == 0
        assert "compute exceeds load from s = 19" in capsys.readouterr().out

    def test_resources_fits(self, capsys):
        assert main(["resources"]) == 0
        out = capsys.readouterr().out
        assert "LUT" in out and "fits" in out

    def test_resources_overbudget_exit_code(self, capsys):
        assert main(["resources", "--psa-rows", "16"]) == 1
        assert "DOES NOT FIT" in capsys.readouterr().out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        assert "parallel heads" in capsys.readouterr().out

    def test_precision(self, capsys):
        assert main(["precision"]) == 0
        out = capsys.readouterr().out
        assert "int8" in out and "fp32" in out

    def test_inventory(self, capsys):
        assert main(["inventory"]) == 0
        out = capsys.readouterr().out
        assert "W_Q/K/V" in out and "576" in out

    def test_program(self, capsys):
        assert main(["program", "--seq", "8", "--ops", "6", "--width", "80"]) == 0
        out = capsys.readouterr().out
        # Op table: header, a load op and an attention matmul.
        assert "block program:" in out
        assert "LW:enc1" in out and "h0:MM1(K)" in out
        assert "more ops" in out  # truncation notice past --ops
        # Gantt: both HBM channel lanes (A3 two-channel prefetch) plus
        # compute engine lanes.
        assert "hbm0" in out and "hbm1" in out
        assert "slr0.psa0" in out and "slr1" in out

    def test_program_a1(self, capsys):
        assert main(["program", "--seq", "4", "--arch", "A1", "--ops", "1"]) == 0
        out = capsys.readouterr().out
        assert "per-engine Gantt under A1" in out

    def test_transcribe_small(self, capsys):
        assert main(["transcribe", "--words", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "recognized:" in out and "e2e" in out

    def test_transcribe_json(self, capsys):
        import json

        assert main(["transcribe", "--words", "1", "--seed", "3", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {
            "text", "tokens", "sequence_length", "latency_ms", "metrics",
            "reference",
        }
        assert payload["latency_ms"]["e2e"] > 0
        assert payload["metrics"]["repro.asr.utterances"] == 1
        assert payload["metrics"]["repro.e2e_ms"]["count"] == 1

    def test_profile_writes_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "prof"
        assert main([
            "profile", "--out", str(out_dir), "--words", "1", "--seed", "3",
        ]) == 0
        stdout = capsys.readouterr().out
        assert "perfetto" in stdout.lower()
        trace = json.loads((out_dir / "trace.json").read_text())
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert {"hbm0", "hbm1", "host"} <= lanes
        assert any(lane.startswith("slr0.psa") for lane in lanes)
        prom = (out_dir / "metrics.prom").read_text()
        for expected in (
            "repro_e2e_ms", "repro_hw_engine_busy_cycles", "repro_hw_hbm_bytes",
        ):
            assert expected in prom
        assert (out_dir / "events.jsonl").read_text().strip()
        # The exact-integer run profile rides along for `repro-asr diff`.
        from repro.obs.diffprof import RunProfile

        profile = RunProfile.from_dict(
            json.loads((out_dir / "runprofile.json").read_text())
        )
        assert profile.makespan > 0

    def test_metrics_exposition(self, capsys):
        assert main(["metrics", "--words", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_e2e_ms histogram" in out
        assert "repro_asr_utterances 1" in out

    def test_optimize_out_creates_parents_and_matches_json(
        self, capsys, tmp_path
    ):
        out = tmp_path / "deep" / "dir" / "report.json"
        assert main(["optimize", "--seq", "8", "--json", "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out
        golden = Path(__file__).resolve().parent / "golden" / "optimize_seq8_A3.json"
        assert out.read_text() == golden.read_text()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_parser_program_name(self):
        assert build_parser().prog == "repro-asr"


class TestBenchCli:
    def test_run_writes_snapshot_and_self_compares_clean(self, capsys, tmp_path):
        out = tmp_path / "snaps"
        assert main(["bench", "run", "--out", str(out), "--quick"]) == 0
        stdout = capsys.readouterr().out
        assert "BENCH_1.json" in stdout
        assert (out / "BENCH_1.json").is_file()
        # A snapshot compared against itself passes with no findings.
        assert main(
            ["bench", "compare", str(out / "BENCH_1.json"), str(out)]
        ) == 0
        assert "result: PASS" in capsys.readouterr().out
        # A directory resolves to its latest snapshot on either side.
        assert main(["bench", "compare", str(out), str(out)]) == 0
        stdout = capsys.readouterr().out
        assert f"baseline: {out / 'BENCH_1.json'}\n" in stdout
        assert stdout.endswith("result: PASS (0 failure(s), 0 warning(s))\n")

    def test_compare_fails_on_injected_cycle_regression(self, capsys, tmp_path):
        import json

        out = tmp_path / "snaps"
        assert main(["bench", "run", "--out", str(out), "--quick"]) == 0
        capsys.readouterr()
        baseline = out / "BENCH_1.json"
        snapshot = json.loads(baseline.read_text())
        scenario = snapshot["scenarios"]["sweep_a3_s32"]
        scenario["cycles"]["total_cycles"] += 1000
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(snapshot))
        assert main(["bench", "compare", str(baseline), str(regressed)]) == 1
        stdout = capsys.readouterr().out
        assert "[FAIL]" in stdout
        assert "cycle count changed" in stdout

    def test_compare_missing_baseline_is_usage_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["bench", "compare", str(missing), str(missing)]) == 2
        assert "nope.json" in capsys.readouterr().out

    def test_compare_empty_snapshot_dir_is_usage_error(self, capsys, tmp_path):
        baseline = tmp_path / "b.json"
        baseline.write_text("{}")
        empty = tmp_path / "empty"
        empty.mkdir()
        for argv in ([baseline, empty], [empty, baseline]):
            assert main(["bench", "compare", *map(str, argv)]) == 2
            assert capsys.readouterr().out == (
                f"error: no BENCH_<n>.json snapshot found in {empty}\n"
            )

    def test_run_snapshots_are_byte_identical(self, tmp_path):
        # A snapshot holds modeled numbers only, so it depends on the
        # code alone: two runs in fresh processes with different hash
        # seeds write the same bytes.
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "bench", "run",
                 "--quick", "--out", str(tmp_path / seed)],
                check=True, env=env, stdout=subprocess.DEVNULL,
            )
        first = (tmp_path / "1" / "BENCH_1.json").read_bytes()
        assert first == (tmp_path / "2" / "BENCH_1.json").read_bytes()

    @pytest.mark.parametrize("scenarios", [
        ["scn"],
        {"scn": [1.0]},
        {"scn": {"cycles": [1.0]}},
        {"scn": {"cycles": {"total_cycles": "1"}}},
    ], ids=["scenarios-list", "scenario-list", "cycles-list", "cycles-str"])
    @pytest.mark.parametrize("command", ["bench compare", "diff --snapshots"])
    def test_malformed_snapshot_is_usage_error(
        self, capsys, tmp_path, command, scenarios
    ):
        from repro.bench.snapshot import SNAPSHOT_SCHEMA

        good = tmp_path / "good.json"
        good.write_text(json.dumps({
            "schema": SNAPSHOT_SCHEMA, "config": {},
            "scenarios": {"scn": {"cycles": {"total_cycles": 1.0}}},
        }))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "schema": SNAPSHOT_SCHEMA, "config": {}, "scenarios": scenarios,
        }))
        for pair in ((bad, good), (good, bad)):
            argv = command.split() + [str(p) for p in pair]
            assert main(argv) == 2
            out = capsys.readouterr().out
            assert out.startswith(f"error: snapshot {bad}")
            assert out.count("\n") == 1

    def test_report_names_crossover_and_roofline(self, capsys):
        assert main(["bench", "report", "--seq", "32", "--arch", "A3"]) == 0
        out = capsys.readouterr().out
        assert "s = 19" in out
        assert "compute-bound" in out
        assert "MM6" in out


def _diff_profile_dict(makespan, busy, stall, label="p"):
    from repro.obs.diffprof import PROFILE_SCHEMA

    return {
        "schema": PROFILE_SCHEMA,
        "label": label,
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


class TestDiffCli:
    def test_live_diff_writes_waterfall_and_delta_trace(
        self, capsys, tmp_path
    ):
        import json

        out = tmp_path / "waterfall.json"
        trace = tmp_path / "delta_trace.json"
        assert main([
            "diff", "--base", "A1", "--cand", "A3", "--seq", "8",
            "--top", "3", "--out", str(out), "--trace", str(trace),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "differential profile: A1 s=8 -> A3 s=8" in stdout
        assert "conservation" in stdout
        payload = json.loads(out.read_text())
        assert payload["makespan_delta"] < 0  # A3 is strictly faster
        assert payload["cand"]["makespan_cycles"] - payload["base"][
            "makespan_cycles"
        ] == payload["makespan_delta"]
        counters = {
            e["name"]
            for e in json.loads(trace.read_text())["traceEvents"]
            if e.get("ph") == "C"
        }
        assert any(n.startswith("delta:utilization:") for n in counters)
        assert any(n.startswith("delta:bandwidth:hbm") for n in counters)

    def test_saved_profiles_diff_offline(self, capsys, tmp_path):
        import json

        a = tmp_path / "a"
        b = tmp_path / "b"
        for d, makespan in ((a, 100), (b, 90)):
            d.mkdir()
            (d / "runprofile.json").write_text(json.dumps(
                _diff_profile_dict(makespan, busy=60, stall=makespan - 70)
            ))
        assert main(["diff", "--profiles", str(a), str(b), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["makespan_delta"] == -10
        # Offline profiles carry no timeline: --trace is a usage error.
        assert main([
            "diff", "--profiles", str(a), str(b),
            "--trace", str(tmp_path / "t.json"),
        ]) == 2

    def test_missing_profile_is_usage_error(self, capsys, tmp_path):
        import json

        assert main([
            "diff", "--profiles", str(tmp_path / "x"), str(tmp_path / "y"),
        ]) == 2
        assert "error:" in capsys.readouterr().out

        # Malformed profiles are usage errors naming the file and field.
        def without(key, lane_key=None):
            payload = _diff_profile_dict(100, busy=60, stall=30)
            if lane_key is None:
                del payload[key]
            else:
                del payload["lanes"]["mha.psa0"][lane_key]
            return payload

        def replaced(path, value):
            payload = _diff_profile_dict(100, busy=60, stall=30)
            *parents, last = path
            node = payload
            for key in parents:
                node = node[key]
            node[last] = value
            return payload

        good = tmp_path / "good.json"
        good.write_text(json.dumps(_diff_profile_dict(100, busy=60, stall=30)))
        bad = tmp_path / "bad.json"
        for payload, field in (
            ([_diff_profile_dict(100, busy=60, stall=30)], "the profile"),
            (7, "the profile"),
            (without("makespan_cycles"), "makespan_cycles"),
            (without("lanes"), "lanes"),
            (without("lanes", "busy"), "busy"),
            (without("lanes", "no_work"), "no_work"),
            (replaced(["lanes"], [1]), "lanes"),
            (replaced(["lanes", "mha.psa0"], [60, 40]), "mha.psa0"),
            (replaced(["lanes", "mha.psa0", "stalls"], []), "mha.psa0.stalls"),
            (replaced(["lanes", "mha.psa0", "stalls", "load_starved"], 30),
             "mha.psa0.stalls.load_starved"),
        ):
            bad.write_text(json.dumps(payload))
            for pair in ((bad, good), (good, bad)):
                assert main(["diff", "--profiles", *map(str, pair)]) == 2
                out = capsys.readouterr().out
                assert out.startswith(f"error: run profile {bad}: "), out
                assert field in out and out.count("\n") == 1, out

    def test_snapshot_diff_mode(self, capsys, tmp_path):
        import json

        from repro.bench.snapshot import SNAPSHOT_SCHEMA

        def snap(path, cycles, makespan):
            path.write_text(json.dumps({
                "schema": SNAPSHOT_SCHEMA,
                "config": {},
                "scenarios": {
                    "scn": {
                        "kind": "arch_sweep", "params": {},
                        "cycles": cycles,
                        "profile": _diff_profile_dict(
                            makespan, busy=60, stall=makespan - 70
                        ),
                    }
                },
            }))
            return path

        base = snap(tmp_path / "b.json", {"total": 100.0}, 100)
        cand = snap(tmp_path / "c.json", {"total": 90.0}, 90)
        assert main(["diff", "--snapshots", str(base), str(cand)]) == 0
        stdout = capsys.readouterr().out
        assert "== scn ==" in stdout
        assert "differential profile" in stdout
        assert main(["diff", "--snapshots", str(base), str(base)]) == 0
        assert "no cycle-metric differences" in capsys.readouterr().out

    def test_compare_failure_attributes_and_hints_artifact(
        self, capsys, tmp_path
    ):
        import json

        from repro.bench.snapshot import SNAPSHOT_SCHEMA

        def snap(path, total, makespan, stall):
            path.write_text(json.dumps({
                "schema": SNAPSHOT_SCHEMA,
                "config": {},
                "scenarios": {
                    "scn": {
                        "kind": "arch_sweep", "params": {},
                        "cycles": {"total_cycles": total},
                        "profile": _diff_profile_dict(
                            makespan, busy=60, stall=stall
                        ),
                    }
                },
            }))
            return path

        baseline = snap(tmp_path / "base.json", 100.0, 100, 30)
        current = snap(tmp_path / "cur.json", 90.0, 90, 20)
        assert main([
            "bench", "compare", str(baseline), str(current),
            "--artifact-hint", "profile_out/diff_waterfall.json",
        ]) == 1
        stdout = capsys.readouterr().out
        assert "cycle delta attribution" in stdout
        assert "(enc1, mha.psa0, load_starved) -10" in stdout
        assert (
            "differential waterfall artifact: "
            "profile_out/diff_waterfall.json" in stdout
        )

    def test_serve_diff_reports_knee_slo_and_tenant_deltas(
        self, capsys, tmp_path
    ):
        import json

        out = tmp_path / "serve_delta.json"
        assert main([
            "diff", "--serve", "--loads", "1,4,8", "--requests", "6",
            "--cand-max-batch", "2", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "serving diff:" in stdout
        assert "saturation knee:" in stdout
        assert "SLO attainment" in stdout
        payload = json.loads(out.read_text())
        totals = payload["costs"]["totals"]
        assert (
            totals["attributed_cycles"] + totals["unattributed_cycles"]
            == totals["makespan_cycles"]
        )
        assert payload["sweep"]["points"][0]["offered_rps"] == 1.0


class TestServingObservabilityCli:
    def test_serve_sim_writes_trace_timeseries_and_slo_report(
        self, capsys, tmp_path
    ):
        import json

        trace = tmp_path / "serving_trace.json"
        series = tmp_path / "series.json"
        slo = tmp_path / "slo.json"
        assert main([
            "serve-sim", "--loads", "1,4,8", "--requests", "8",
            "--seed", "11",
            "--trace", str(trace),
            "--timeseries", str(series),
            "--slo-report", str(slo),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "attainment" in stdout

        # one merged Perfetto trace: device lanes + request lanes on a
        # consistent clock
        payload = json.loads(trace.read_text())
        pids_by_name = {
            e["args"]["name"]: e["pid"]
            for e in payload["traceEvents"]
            if e.get("name") == "process_name"
        }
        assert "accelerator (simulated)" in pids_by_name
        assert "serving requests (virtual)" in pids_by_name
        request_pid = pids_by_name["serving requests (virtual)"]
        assert any(
            e["ph"] == "X" and e["pid"] == request_pid
            for e in payload["traceEvents"]
        )
        counters = {
            e["name"] for e in payload["traceEvents"] if e["ph"] == "C"
        }
        assert "serving:queue_depth" in counters
        assert any(name.startswith("serving:stall_rate:") for name in counters)

        # the JSONL event log rides next to the trace
        events_path = trace.with_suffix(".events.jsonl")
        lines = events_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "vtrace_header"
        assert header["events"] == len(lines) - 1

        ts = json.loads(series.read_text())
        assert ts["cadence_cycles"] == 100_000
        assert "batch_size" in ts["series"]

        report = json.loads(slo.read_text())
        assert 0.0 <= report["attainment"] <= 1.0
        assert report["objective"]["latency_ms"] == 1500.0

    def test_serve_sim_event_log_is_deterministic(self, capsys, tmp_path):
        paths = []
        for tag in ("a", "b"):
            trace = tmp_path / f"trace_{tag}.json"
            assert main([
                "serve-sim", "--loads", "1,2,4", "--requests", "6",
                "--seed", "7", "--trace", str(trace),
            ]) == 0
            paths.append(trace.with_suffix(".events.jsonl"))
        capsys.readouterr()
        assert paths[0].read_text() == paths[1].read_text()

    def test_slo_command_json(self, capsys):
        import json

        assert main([
            "slo", "--load", "8", "--requests", "8", "--seed", "11",
            "--slo-ms", "1e9", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attainment"] == 1.0
        assert payload["violations"] == []
        assert payload["event_counts"]["complete"] == 8
        assert payload["offered_rps"] == 8.0

    def test_slo_command_dashboard_text(self, capsys):
        rc = main([
            "slo", "--load", "8", "--requests", "8", "--seed", "11",
            "--slo-ms", "900", "--slo-target", "0.5",
        ])
        out = capsys.readouterr().out
        assert "attainment" in out and "burn[" in out
        assert rc in (0, 1)  # 1 when burn-rate alerts fired

    def test_serve_sim_trace_contains_cost_flow_events(
        self, capsys, tmp_path
    ):
        """Acceptance criterion: the merged Perfetto trace carries flow
        arrows from at least one request lane to the device-lane slices
        it paid for."""
        import json

        trace = tmp_path / "trace.json"
        assert main([
            "serve-sim", "--loads", "1,4,8", "--requests", "6",
            "--seed", "11", "--trace", str(trace),
        ]) == 0
        capsys.readouterr()
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert starts and finishes
        pids_by_name = {
            e["args"]["name"]: e["pid"]
            for e in events if e.get("name") == "process_name"
        }
        request_pid = pids_by_name["serving requests (virtual)"]
        accel_pid = pids_by_name["accelerator (simulated)"]
        flow = starts[0]
        assert flow["pid"] == request_pid
        mate = next(e for e in finishes if e["id"] == flow["id"])
        assert mate["pid"] == accel_pid
        assert mate["bp"] == "e"
        # the arrow endpoints land inside real slices on both lanes
        def covered(pid, tid, ts):
            return any(
                e["ph"] == "X" and e["pid"] == pid and e["tid"] == tid
                and e["ts"] <= ts <= e["ts"] + e["dur"]
                for e in events
            )
        assert covered(flow["pid"], flow["tid"], flow["ts"])
        assert covered(mate["pid"], mate["tid"], mate["ts"])

    def test_costs_command_json_conserves(self, capsys):
        import json

        assert main([
            "costs", "--load", "8", "--requests", "10", "--seed", "11",
            "--tenants", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        totals = payload["totals"]
        assert (
            totals["attributed_cycles"] + totals["unattributed_cycles"]
            == totals["makespan_cycles"]
        )
        assert payload["offered_rps"] == 8.0
        assert payload["capacity"]["cards_needed"] >= 1
        # per-tenant rows reproduce the global totals exactly
        assert sum(t["attributed_cycles"] for t in payload["tenants"]) == (
            totals["attributed_cycles"]
        )
        assert sum(t["hbm_load_bytes"] for t in payload["tenants"]) == (
            totals["hbm_load_bytes"]
        )
        assert sum(t["requests"] for t in payload["tenants"]) == len(
            payload["requests"]
        )

    def test_costs_command_by_tenant_dashboard(self, capsys):
        assert main([
            "costs", "--load", "8", "--requests", "10", "--seed", "11",
            "--tenants", "2", "--by-tenant",
        ]) == 0
        out = capsys.readouterr().out
        assert "cost attribution (exact integer conservation)" in out
        assert "jain fairness index" in out
        assert "capacity extrapolation" in out
        assert "dominant resource" in out

    def test_costs_single_tenant_still_conserves(self, capsys):
        import json

        assert main([
            "costs", "--load", "4", "--requests", "6", "--seed", "3",
            "--tenants", "1", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        totals = payload["totals"]
        assert (
            totals["attributed_cycles"] + totals["unattributed_cycles"]
            == totals["makespan_cycles"]
        )
        assert [t["tenant"] for t in payload["tenants"]] == [0]

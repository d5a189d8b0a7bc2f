"""Differential profiler: conservation-checked cycle-delta attribution.

The load-bearing invariants, exercised as properties over the real
architectures and sequence lengths:

* capture — every :class:`RunProfile` lane account sums exactly to the
  makespan (inherited from the stall classifier, re-verified here);
* self-diff — ``diff(a, a)`` is identically zero;
* anti-symmetry — ``diff(a, b) == diff(b, a).negated()``;
* conservation — every lane's delta leaves sum exactly to the makespan
  delta, block-work leaves to the total-work delta, channel-byte
  leaves to the load-bytes delta — including cross-architecture diffs
  and the pass-transformed (A4) program.
"""

import json

import pytest

from repro.hw.controller import LatencyModel
from repro.obs.diffprof import (
    PROFILE_SCHEMA,
    LaneProfile,
    RunProfile,
    delta_counter_tracks,
    diff_profiles,
    diff_tenant_costs,
    load_profile,
    profile_run,
    render_waterfall,
)

ARCHES = ("A1", "A2", "A3")
SEQS = (8, 18, 32)


@pytest.fixture(scope="module")
def lm():
    return LatencyModel()


@pytest.fixture(scope="module")
def profiles(lm):
    """Real profiles over the full architecture × sequence grid, plus
    the optimizer's pass-transformed A4 program at s=32."""
    out = {}
    for arch in ARCHES:
        for s in SEQS:
            out[(arch, s)] = profile_run(
                lm.full_pass_program(s), arch, label=f"{arch} s={s}"
            )
    from repro.hw.dse import synthesize_a4

    result = synthesize_a4(s=32, architecture="A3")
    overhead = lm.calibration.block_overhead_cycles
    out[("A4", 32)] = profile_run(
        result.program, "A3", overhead, label="A4 s=32"
    )
    out["_a4_result"] = result
    return out


def _grid(profiles):
    return [(k, v) for k, v in profiles.items() if isinstance(k, tuple)]


class TestRunProfileCapture:
    def test_every_lane_conserves_exactly(self, profiles):
        for key, prof in _grid(profiles):
            prof.verify_conservation()
            for name, lane in prof.lanes.items():
                assert (
                    lane.busy + lane.stall_total + lane.no_work
                    == prof.makespan
                ), (key, name)

    def test_all_quantities_are_ints(self, profiles):
        for _, prof in _grid(profiles):
            assert isinstance(prof.makespan, int)
            for lane in prof.lanes.values():
                assert isinstance(lane.busy, int)
                assert isinstance(lane.no_work, int)
                for blocks in lane.stalls.values():
                    assert all(isinstance(c, int) for c in blocks.values())

    def test_stall_blocks_are_real_unit_labels(self, profiles):
        """The (cause, block) nesting carries the UnitSpan labels the
        work actually stalled on — not empty strings, not engine names."""
        prof = profiles[("A3", 32)]
        labeled = set()
        for lane in prof.lanes.values():
            for blocks in lane.stalls.values():
                labeled.update(blocks)
        labeled.discard("")
        assert labeled  # the A3 schedule does stall on real units
        assert labeled <= set(prof.block_work)

    def test_channel_bytes_sum_to_program_load_bytes(self, profiles, lm):
        from repro.hw.program import program_load_bytes

        for (arch, s), prof in _grid(profiles):
            if arch == "A4":
                continue
            assert prof.load_bytes == program_load_bytes(
                lm.full_pass_program(s)
            )

    def test_json_round_trip_is_lossless(self, profiles):
        prof = profiles[("A2", 18)]
        back = RunProfile.from_dict(json.loads(json.dumps(prof.as_dict())))
        assert back.as_dict() == prof.as_dict()
        assert diff_profiles(prof, back).is_zero

    def test_from_dict_rejects_wrong_schema(self, profiles):
        payload = profiles[("A1", 8)].as_dict()
        payload["schema"] = "repro.diffprof/0"
        with pytest.raises(ValueError, match="schema"):
            RunProfile.from_dict(payload)

    def test_from_dict_rejects_fractional_cycles(self, profiles):
        payload = profiles[("A1", 8)].as_dict()
        payload["makespan_cycles"] = payload["makespan_cycles"] + 0.5
        with pytest.raises(ValueError, match="not an exact integer"):
            RunProfile.from_dict(payload)

    def test_from_dict_rejects_nonconservative_account(self, profiles):
        payload = profiles[("A1", 8)].as_dict()
        lane = next(iter(payload["lanes"]))
        payload["lanes"][lane]["busy"] += 1
        with pytest.raises(ValueError, match="not conservative"):
            RunProfile.from_dict(payload)

    def test_load_profile_resolves_directories(self, profiles, tmp_path):
        (tmp_path / "runprofile.json").write_text(
            json.dumps(profiles[("A3", 8)].as_dict())
        )
        assert load_profile(tmp_path).makespan == profiles[("A3", 8)].makespan
        with pytest.raises(FileNotFoundError):
            load_profile(tmp_path / "nope")


class TestDeltaProperties:
    def test_self_diff_is_identically_zero(self, profiles):
        for key, prof in _grid(profiles):
            wf = diff_profiles(prof, prof)
            assert wf.is_zero, key
            assert wf.makespan_delta == 0
            assert wf.leaves() == []
            assert wf.cause_totals() == {}
            assert wf.dominant_cause(".psa") is None

    def test_antisymmetry(self, profiles):
        pairs = [
            (("A1", 8), ("A3", 8)),
            (("A2", 18), ("A3", 18)),
            (("A3", 8), ("A3", 32)),
            (("A3", 32), ("A4", 32)),
        ]
        for a_key, b_key in pairs:
            fwd = diff_profiles(profiles[a_key], profiles[b_key])
            rev = diff_profiles(profiles[b_key], profiles[a_key])
            assert fwd.negated().as_dict() == rev.as_dict(), (a_key, b_key)
            assert fwd.makespan_delta == -rev.makespan_delta

    def test_every_lane_leaf_sum_equals_makespan_delta(self, profiles):
        keys = [k for k, _ in _grid(profiles)]
        for a_key in keys:
            for b_key in keys:
                wf = diff_profiles(profiles[a_key], profiles[b_key])
                wf.verify_conservation()
                for name, lane in wf.lanes.items():
                    assert lane.total == wf.makespan_delta, (
                        a_key, b_key, name,
                    )

    def test_leaves_partition_each_lane(self, profiles):
        """Grouping the flat leaf list by engine must reproduce the
        per-lane account exactly — nothing dropped, nothing doubled."""
        wf = diff_profiles(profiles[("A1", 32)], profiles[("A3", 32)])
        by_engine: dict[str, int] = {}
        for leaf in wf.leaves():
            by_engine[leaf.engine] = by_engine.get(leaf.engine, 0) + leaf.delta
        for engine, total in by_engine.items():
            assert total == wf.makespan_delta, engine
        # Engines absent from the list moved nothing on any leaf.
        for name in set(wf.lanes) - set(by_engine):
            assert wf.lanes[name].total == wf.makespan_delta

    def test_work_and_byte_facets_conserve(self, profiles):
        wf = diff_profiles(profiles[("A1", 18)], profiles[("A3", 18)])
        work_leaves = sum(
            w.get("load", 0) + w.get("compute", 0)
            for w in wf.block_work.values()
        )
        assert work_leaves == wf.cand_work_cycles - wf.base_work_cycles
        assert sum(wf.channel_bytes.values()) == (
            wf.cand_load_bytes - wf.base_load_bytes
        )

    def test_missing_lane_treated_as_fully_idle(self):
        """A lane present in only one profile diffs as if the other run
        had observed it drained for its whole makespan, preserving the
        per-lane identity even across architectures with different
        engine inventories."""
        base = RunProfile(
            label="a", architecture="A1", makespan=100,
            lanes={"psa0": LaneProfile(busy=60, stalls={}, no_work=40)},
            block_work={}, channel_bytes={},
        )
        cand = RunProfile(
            label="b", architecture="A3", makespan=80,
            lanes={
                "psa0": LaneProfile(busy=60, stalls={}, no_work=20),
                "hbm1": LaneProfile(
                    busy=30,
                    stalls={"dependency": {"enc1": 10}},
                    no_work=40,
                ),
            },
            block_work={}, channel_bytes={},
        )
        wf = diff_profiles(base, cand)
        assert wf.makespan_delta == -20
        assert wf.lanes["hbm1"].busy == 30
        assert wf.lanes["hbm1"].stalls == {"dependency": {"enc1": 10}}
        assert wf.lanes["hbm1"].no_work == 40 - 100
        assert wf.lanes["hbm1"].total == wf.makespan_delta

    def test_diff_rejects_nonconservative_input(self):
        bad = RunProfile(
            label="bad", architecture="A3", makespan=100,
            lanes={"psa0": LaneProfile(busy=60, stalls={}, no_work=99)},
            block_work={}, channel_bytes={},
        )
        with pytest.raises(ValueError, match="not conservative"):
            diff_profiles(bad, bad)


class TestA4Waterfall:
    def test_rederives_the_optimizer_win_exactly(self, profiles, lm):
        """The A3→A4 waterfall must reproduce the optimizer's own
        accounting to the cycle: the makespan delta is the pinned
        −534,843 at s=32, and the dominant PSA cause is the
        load-starvation the prefetch passes removed."""
        result = profiles["_a4_result"]
        overhead = lm.calibration.block_overhead_cycles
        base = profile_run(
            result.baseline_program, "A3", overhead, label="A3 s=32"
        )
        wf = diff_profiles(base, profiles[("A4", 32)])
        assert wf.makespan_delta == (
            result.optimized_cycles - result.baseline_cycles
        )
        assert wf.makespan_delta == -534_843
        cause, delta = wf.dominant_cause(".psa")
        assert cause == "load_starved"
        assert delta == (
            int(result.psa_stalls_after.get("load_starved", 0))
            - int(result.psa_stalls_before.get("load_starved", 0))
        )
        assert delta < 0  # A4 exists to remove PSA load starvation

    def test_waterfall_renders_the_win(self, profiles, lm):
        result = profiles["_a4_result"]
        overhead = lm.calibration.block_overhead_cycles
        base = profile_run(
            result.baseline_program, "A3", overhead, label="A3 s=32"
        )
        text = render_waterfall(diff_profiles(base, profiles[("A4", 32)]))
        assert "-534,843" in text
        assert "load_starved" in text
        assert "conservation" in text


class TestDeltaCounterTracks:
    def test_shared_grid_and_naming(self, lm):
        from repro.hw.program import trace_program

        overhead = lm.calibration.block_overhead_cycles
        program = lm.full_pass_program(8)
        tl_a1 = trace_program(program, "A1", overhead)
        tl_a3 = trace_program(program, "A3", overhead)
        tracks = delta_counter_tracks(tl_a1, tl_a3)
        assert tracks
        for name, samples in tracks.items():
            assert name.startswith(("delta:utilization:", "delta:bandwidth:"))
            assert samples
        # Engine union: both runs' lanes appear even when one run
        # never used the engine.
        names = {n.split(":", 2)[2] for n in tracks}
        assert names == set(tl_a1.engines()) | set(tl_a3.engines())

    def test_self_diff_tracks_are_flat_zero(self, lm):
        from repro.hw.program import trace_program

        overhead = lm.calibration.block_overhead_cycles
        tl = trace_program(lm.full_pass_program(8), "A3", overhead)
        for samples in delta_counter_tracks(tl, tl).values():
            assert all(value == 0.0 for _, value in samples)


class _FakeLedger:
    def __init__(self, totals, tenants):
        self._totals = totals
        self._tenants = tenants

    def totals(self):
        return dict(self._totals)

    def per_tenant(self):
        return list(self._tenants)


class TestTenantCostDiff:
    def _run_ledger(self, max_batch):
        from repro.obs.vtrace import VTraceRecorder
        from repro.serving import (
            ContinuousBatchingScheduler,
            ServingConfig,
            build_cost_ledger,
            make_arrival_model,
            synthesize_requests,
        )

        config = ServingConfig(s=32, architecture="A3", max_batch=max_batch)
        arrival = make_arrival_model("poisson", 4.0, seed=3)
        requests = synthesize_requests(
            arrival, 6, seed=3, tenant_classes=2
        )
        recorder = VTraceRecorder()
        result = ContinuousBatchingScheduler(config, vtrace=recorder).run(
            requests
        )
        return build_cost_ledger(result, recorder.events)

    def test_real_ledgers_diff_conservatively(self):
        base = self._run_ledger(max_batch=4)
        cand = self._run_ledger(max_batch=2)
        delta = diff_tenant_costs(base, cand)
        totals = delta["totals"]
        assert (
            totals["attributed_cycles"] + totals["unattributed_cycles"]
            == totals["makespan_cycles"]
        )
        assert sum(
            t["attributed_cycles"] for t in delta["tenants"].values()
        ) == totals["attributed_cycles"]
        assert diff_tenant_costs(base, base)["totals"][
            "makespan_cycles"
        ] == 0

    def test_broken_tenant_sum_raises(self):
        from types import SimpleNamespace

        totals = {
            "makespan_cycles": 100,
            "attributed_cycles": 90,
            "unattributed_cycles": 10,
        }
        tenant = SimpleNamespace(
            tenant=0, attributed_cycles=50, hbm_load_bytes=0,
            requests=1, good=1,
        )
        base = _FakeLedger(totals, [tenant])
        cand = _FakeLedger(
            {**totals, "attributed_cycles": 95, "unattributed_cycles": 5},
            [tenant],  # tenant delta 0 != Δattributed 5
        )
        with pytest.raises(ValueError, match="tenant cycle deltas"):
            diff_tenant_costs(base, cand)


class TestRendering:
    def test_self_diff_message(self, profiles):
        text = render_waterfall(
            diff_profiles(profiles[("A1", 8)], profiles[("A1", 8)])
        )
        assert "cycle-identical" in text

    def test_cross_arch_waterfall_structure(self, profiles):
        wf = diff_profiles(profiles[("A1", 8)], profiles[("A3", 8)])
        text = render_waterfall(wf, top=4)
        assert f"{wf.makespan_delta:+,}" in text
        assert "Δcycles by cause" in text
        assert "top 4 leaves" in text
        assert "PSA lanes dominated by" in text

    def test_as_dict_is_json_serializable(self, profiles):
        wf = diff_profiles(profiles[("A2", 8)], profiles[("A3", 32)])
        payload = json.loads(json.dumps(wf.as_dict()))
        assert payload["schema"] == PROFILE_SCHEMA
        assert payload["makespan_delta"] == wf.makespan_delta
        assert len(payload["top_leaves"]) <= 10

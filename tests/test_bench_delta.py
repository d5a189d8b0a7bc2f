"""Offline snapshot diffing and the comparator's failure attribution.

Snapshots here are handcrafted with tiny embedded run profiles so the
expected deltas are exact by construction; the live capture path is
covered by ``test_obs_diffprof.py`` and ``test_bench_scenarios.py``.
"""

import pytest

from repro.bench.delta import (
    attribution_lines,
    diff_profile_dicts,
    diff_snapshots,
    render_snapshot_delta,
)
from repro.bench.snapshot import SNAPSHOT_SCHEMA
from repro.obs.diffprof import PROFILE_SCHEMA


def make_profile(makespan=100, busy=60, stall=30, label="p"):
    """A one-lane profile whose account conserves by construction."""
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
        "channel_bytes": {"0": 4096},
        "meta": {},
    }


def make_snapshot(scenarios):
    return {
        "schema": SNAPSHOT_SCHEMA,
        "config": {},
        "scenarios": scenarios,
    }


def scenario(cycles, profile=None):
    entry = {"kind": "arch_sweep", "params": {}, "cycles": cycles}
    if profile is not None:
        entry["profile"] = profile
    return entry


class TestDiffSnapshots:
    def test_schema_mismatch_raises(self):
        good = make_snapshot({})
        bad = dict(good, schema="repro.bench/0")
        with pytest.raises(ValueError, match="baseline snapshot schema"):
            diff_snapshots(bad, good)
        with pytest.raises(ValueError, match="current snapshot schema"):
            diff_snapshots(good, bad)

    def test_identical_snapshots_do_not_change(self):
        snap = make_snapshot({"a": scenario({"total": 100.0}, make_profile())})
        delta = diff_snapshots(snap, snap)
        assert not delta.changed
        assert delta.scenarios["a"].waterfall.is_zero
        assert render_snapshot_delta(delta) == (
            "no cycle-metric differences between the snapshots"
        )

    def test_metric_deltas_and_membership(self):
        base = make_snapshot({
            "a": scenario({"total": 100.0, "stall": 5.0}),
            "gone": scenario({"total": 1.0}),
        })
        cand = make_snapshot({
            "a": scenario({"total": 90.0, "stall": 5.0}),
            "new": scenario({"total": 2.0}),
        })
        delta = diff_snapshots(base, cand)
        assert delta.only_base == ["gone"]
        assert delta.only_cand == ["new"]
        (m,) = delta.scenarios["a"].metrics
        assert (m.metric, m.base, m.cand, m.delta) == ("total", 100.0, 90.0, -10.0)

    def test_waterfall_attached_only_when_both_sides_have_profiles(self):
        base = make_snapshot({
            "a": scenario({"total": 100.0}, make_profile(100)),
            "b": scenario({"total": 100.0}, make_profile(100)),
        })
        cand = make_snapshot({
            "a": scenario({"total": 90.0}, make_profile(90, busy=55, stall=25)),
            "b": scenario({"total": 90.0}),  # no profile on this side
        })
        delta = diff_snapshots(base, cand)
        wf = delta.scenarios["a"].waterfall
        assert wf is not None and wf.makespan_delta == -10
        assert delta.scenarios["b"].waterfall is None
        text = render_snapshot_delta(delta)
        assert "== a ==" in text and "== b ==" in text
        assert "differential profile" in text

    def test_corrupt_embedded_profile_propagates(self):
        broken = make_profile()
        broken["lanes"]["mha.psa0"]["busy"] += 1
        base = make_snapshot({"a": scenario({"total": 1.0}, make_profile())})
        cand = make_snapshot({"a": scenario({"total": 2.0}, broken)})
        with pytest.raises(ValueError, match="not conservative"):
            diff_snapshots(base, cand)


class TestAttributionLines:
    def test_triples_and_units_formatted(self):
        wf = diff_profile_dicts(
            make_profile(100, busy=60, stall=30),
            make_profile(90, busy=55, stall=25),
        )
        lines = attribution_lines(wf, top=3)
        assert lines[0] == "Δmakespan -10 cycles (100 -> 90)"
        assert "(enc1, mha.psa0, load_starved) -5" in lines
        assert "(-, mha.psa0, busy) -5" in lines
        assert any(line.startswith("unit enc1:") for line in lines)

    def test_leaf_lines_sum_to_makespan_delta(self):
        wf = diff_profile_dicts(
            make_profile(100, busy=60, stall=30),
            make_profile(70, busy=40, stall=20),
        )
        leaf_sum = sum(leaf.delta for leaf in wf.top_leaves(100))
        # One lane: the flat leaves ARE the lane account.
        assert leaf_sum == wf.makespan_delta == -30

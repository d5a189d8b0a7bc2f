"""Performance-trajectory harness: scenario runner, snapshots,
regression gating and bottleneck attribution.

The paper's evaluation is an analysis of where cycles go (Fig 5.2,
§4.2, Table 5.1); :mod:`repro.bench` turns that one-shot analysis into
a trajectory that can be tracked across changes:

* :mod:`repro.bench.scenarios` — a declarative scenario suite (encoder
  prefill, KV-cached decode, streaming, the A1/A2/A3 × sequence-length
  sweep).  Each scenario runs under :func:`repro.obs.telemetry` and
  yields the simulator's *deterministic* cycle metrics, checked
  identical across repeats.
* :mod:`repro.bench.snapshot` — schema-versioned ``BENCH_<n>.json``
  snapshots that depend only on the code.
* :mod:`repro.bench.compare` — diffs a snapshot against a committed
  baseline with exact-match gating of cycle counts.
* :mod:`repro.bench.attribution` — classifies each block as load- or
  compute-bound, locates the Fig 5.2 crossover from the model, and
  builds the §4.2 roofline table per matmul MM1–MM6.

CLI surface: ``repro-asr bench run|compare|report``.  This package
owns the modeled numbers; host wall time belongs to perfbench
(``perfbench/``, bounds in ``BENCHMARK.json``).
"""

from __future__ import annotations

from repro.bench.attribution import (
    AttributionReport,
    BlockAttribution,
    MatmulRoofline,
    build_attribution_report,
)
from repro.bench.compare import ComparisonReport, Finding, compare_snapshots
from repro.bench.delta import (
    MetricDelta,
    ScenarioDelta,
    SnapshotDelta,
    attribution_lines,
    diff_profile_dicts,
    diff_snapshots,
    render_snapshot_delta,
)
from repro.bench.scenarios import (
    Scenario,
    ScenarioResult,
    default_scenarios,
    run_scenario,
    run_suite,
)
from repro.bench.snapshot import (
    SNAPSHOT_SCHEMA,
    build_snapshot,
    latest_snapshot_path,
    load_snapshot,
    next_snapshot_path,
    resolve_snapshot_path,
    write_snapshot,
)

__all__ = [
    "Scenario",
    "ScenarioResult",
    "default_scenarios",
    "run_scenario",
    "run_suite",
    "SNAPSHOT_SCHEMA",
    "build_snapshot",
    "latest_snapshot_path",
    "load_snapshot",
    "next_snapshot_path",
    "resolve_snapshot_path",
    "write_snapshot",
    "ComparisonReport",
    "Finding",
    "compare_snapshots",
    "MetricDelta",
    "ScenarioDelta",
    "SnapshotDelta",
    "diff_snapshots",
    "diff_profile_dicts",
    "attribution_lines",
    "render_snapshot_delta",
    "AttributionReport",
    "BlockAttribution",
    "MatmulRoofline",
    "build_attribution_report",
]

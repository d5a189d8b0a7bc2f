"""Snapshot comparator: exact-match gating of cycle metrics.

Cycle metrics are pure arithmetic over the configuration, so any
change is a real change to the modeled hardware (or a bug): the gate
is exact equality and a mismatch is a hard failure.  A failure is
attributed to the (block, engine, cause) triples the cycles moved on
when both snapshots embed the scenario's run profile.  Host time is
not compared here; perfbench's bounds (``BENCHMARK.json``) gate it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.bench.snapshot import SNAPSHOT_SCHEMA

__all__ = ["Finding", "ComparisonReport", "compare_snapshots"]


@dataclass(frozen=True)
class Finding:
    """One comparator observation."""

    severity: str  # "fail" | "warn" | "info"
    scenario: str
    metric: str
    message: str

    def __post_init__(self) -> None:
        if self.severity not in ("fail", "warn", "info"):
            raise ValueError(f"unknown severity '{self.severity}'")


@dataclass
class ComparisonReport:
    """All findings of one baseline-vs-current diff."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, severity: str, scenario: str, metric: str, message: str) -> None:
        self.findings.append(Finding(severity, scenario, metric, message))

    @property
    def failures(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "fail"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    @property
    def passed(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines: list[str] = []
        order = {"fail": 0, "warn": 1, "info": 2}
        for f in sorted(self.findings, key=lambda f: (order[f.severity], f.scenario)):
            lines.append(
                f"[{f.severity.upper():4s}] {f.scenario} :: {f.metric}: {f.message}"
            )
        lines.append(
            f"result: {'PASS' if self.passed else 'FAIL'} "
            f"({len(self.failures)} failure(s), {len(self.warnings)} warning(s))"
        )
        return "\n".join(lines)


def _attach_attribution(
    report: ComparisonReport,
    scenario: str,
    base_scenario: Mapping[str, object],
    cur_scenario: Mapping[str, object],
) -> None:
    """When a scenario's exact cycle gate failed and both snapshots
    embedded its run profile, append the differential-profiler verdict:
    the makespan delta and the top (block, engine, cause) triples the
    cycles moved on, so the failure self-explains."""
    base_prof = base_scenario.get("profile")
    cur_prof = cur_scenario.get("profile")
    if not base_prof or not cur_prof:
        return
    from repro.bench.delta import attribution_lines, diff_profile_dicts

    try:
        waterfall = diff_profile_dicts(base_prof, cur_prof)
    except ValueError as exc:
        report.add("info", scenario, "attribution",
                   f"embedded profiles not diffable: {exc}")
        return
    if waterfall.is_zero:
        report.add("info", scenario, "attribution",
                   "embedded profiles are cycle-identical (the drifted "
                   "metric is outside the traced schedule)")
        return
    report.add("info", scenario, "attribution",
               "cycle delta attribution: "
               + "; ".join(attribution_lines(waterfall)))


def _compare_cycles(
    report: ComparisonReport,
    scenario: str,
    base: Mapping[str, float],
    cur: Mapping[str, float],
) -> None:
    for metric in sorted(set(base) | set(cur)):
        if metric not in cur:
            report.add("fail", scenario, metric,
                       f"cycle metric removed (baseline {base[metric]:g})")
            continue
        if metric not in base:
            report.add("warn", scenario, metric,
                       f"new cycle metric (current {cur[metric]:g}); "
                       f"refresh the baseline to start gating it")
            continue
        b, c = float(base[metric]), float(cur[metric])
        if b != c:
            rel = (c - b) / b if b else math.inf
            report.add(
                "fail", scenario, metric,
                f"cycle count changed: {b:g} -> {c:g} ({rel:+.4%})",
            )


def compare_snapshots(baseline: dict, current: dict) -> ComparisonReport:
    """Diff ``current``'s cycle metrics against ``baseline``'s."""
    report = ComparisonReport()
    b_schema = baseline.get("schema")
    c_schema = current.get("schema")
    if b_schema != SNAPSHOT_SCHEMA or c_schema != SNAPSHOT_SCHEMA:
        report.add(
            "fail", "-", "schema",
            f"schema mismatch: baseline '{b_schema}', current '{c_schema}', "
            f"comparator speaks '{SNAPSHOT_SCHEMA}'",
        )
        return report

    b_scenarios = baseline.get("scenarios", {})
    c_scenarios = current.get("scenarios", {})
    for name in sorted(set(b_scenarios) | set(c_scenarios)):
        if name not in c_scenarios:
            report.add("fail", name, "-",
                       "scenario present in baseline but missing from current run")
            continue
        if name not in b_scenarios:
            report.add("warn", name, "-",
                       "new scenario (not in baseline); refresh the baseline "
                       "to start gating it")
            continue
        failures_before = len(report.failures)
        _compare_cycles(
            report, name,
            b_scenarios[name].get("cycles", {}),
            c_scenarios[name].get("cycles", {}),
        )
        if len(report.failures) > failures_before:
            _attach_attribution(
                report, name, b_scenarios[name], c_scenarios[name]
            )
    return report

"""Schema-versioned benchmark snapshots (``BENCH_<n>.json``).

A snapshot records one run of the scenario suite: per scenario its
kind and parameters, the deterministic simulated-cycle metrics, the
informational modeled metrics and, for traced scenarios, the run
profile.  Everything in it is modeled arithmetic, so a snapshot
depends only on the code: two runs of the same tree write the same
bytes.  Host time is not recorded here; perfbench (``BENCHMARK.json``)
measures and bounds it.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping

#: Bumped whenever the snapshot layout changes incompatibly.  The
#: comparator refuses to diff snapshots with different schemas.
SNAPSHOT_SCHEMA = "repro.bench/2"

_SNAPSHOT_RE = re.compile(r"^BENCH_(\d+)\.json$")


def build_snapshot(
    results: Mapping[str, "object"],
    config: Mapping[str, object] | None = None,
) -> dict:
    """Assemble the JSON-ready snapshot from scenario results
    (``name -> ScenarioResult``; duck-typed to stay import-light)."""
    scenarios = {}
    for name in sorted(results):
        r = results[name]
        entry = {
            "kind": r.kind,
            "params": dict(r.params),
            "cycles": {k: r.cycles[k] for k in sorted(r.cycles)},
            "info": {k: r.info[k] for k in sorted(r.info)},
        }
        # Scenario runners may attach a serialized run profile
        # (repro.obs.diffprof.RunProfile); the comparator uses it to
        # attribute exact-gate failures.
        profile = getattr(r, "profile", None)
        if profile:
            entry["profile"] = profile
        scenarios[name] = entry
    return {
        "schema": SNAPSHOT_SCHEMA,
        "config": dict(config or {}),
        "scenarios": scenarios,
    }


def next_snapshot_path(directory: str | Path) -> Path:
    """The next free ``BENCH_<n>.json`` in ``directory`` (1-based)."""
    directory = Path(directory)
    highest = 0
    if directory.exists():
        for entry in directory.iterdir():
            m = _SNAPSHOT_RE.match(entry.name)
            if m:
                highest = max(highest, int(m.group(1)))
    return directory / f"BENCH_{highest + 1}.json"


def latest_snapshot_path(directory: str | Path) -> Path | None:
    """The highest-numbered ``BENCH_<n>.json``, or None when empty."""
    directory = Path(directory)
    best: tuple[int, Path] | None = None
    if directory.exists():
        for entry in directory.iterdir():
            m = _SNAPSHOT_RE.match(entry.name)
            if m and (best is None or int(m.group(1)) > best[0]):
                best = (int(m.group(1)), entry)
    return best[1] if best else None


def resolve_snapshot_path(path: str | Path) -> Path:
    """The snapshot file ``path`` names: the file itself, or for a
    directory its highest-numbered ``BENCH_<n>.json``.  Raises
    ``FileNotFoundError`` when there is none."""
    path = Path(path)
    if path.is_dir():
        found = latest_snapshot_path(path)
        if found is None:
            raise FileNotFoundError(
                f"no BENCH_<n>.json snapshot found in {path}"
            )
        return found
    if not path.exists():
        raise FileNotFoundError(f"no snapshot at {path}")
    return path


def write_snapshot(snapshot: dict, directory: str | Path) -> Path:
    """Write the snapshot as the next ``BENCH_<n>.json``; returns the
    path."""
    path = next_snapshot_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def _check_structure(snapshot: object, where: Path) -> None:
    """Raise ``ValueError`` unless ``snapshot`` has the layout the
    comparator and the snapshot diff read: a ``schema``, and
    ``scenarios`` mapping names to mappings whose ``cycles`` map
    metric names to numbers (and whose ``profile``, if any, is a
    mapping)."""
    if not isinstance(snapshot, dict) or "schema" not in snapshot:
        raise ValueError(f"snapshot {where} has no 'schema' field")
    scenarios = snapshot.get("scenarios")
    if not isinstance(scenarios, dict):
        raise ValueError(
            f"snapshot {where}: 'scenarios' must map scenario names "
            f"to scenarios"
        )
    for name, scenario in scenarios.items():
        if not isinstance(scenario, dict):
            raise ValueError(
                f"snapshot {where}: scenario '{name}' is not a mapping"
            )
        cycles = scenario.get("cycles")
        if not isinstance(cycles, dict) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in cycles.values()
        ):
            raise ValueError(
                f"snapshot {where}: scenario '{name}' 'cycles' must map "
                f"metric names to numbers"
            )
        if not isinstance(scenario.get("profile") or {}, dict):
            raise ValueError(
                f"snapshot {where}: scenario '{name}' 'profile' is not "
                f"a mapping"
            )


def load_snapshot(path: str | Path) -> dict:
    """Read one snapshot (a file, or a directory's latest
    ``BENCH_<n>.json``); raises ``FileNotFoundError`` when there is
    none and ``ValueError`` when it is not valid JSON or not shaped
    like a snapshot."""
    path = resolve_snapshot_path(path)
    try:
        snapshot = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"snapshot {path} is not valid JSON: {exc}") from exc
    _check_structure(snapshot, path)
    return snapshot

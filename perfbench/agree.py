"""Check that two benchmark result files agree.

    python3 perfbench/agree.py A.json B.json

The files are what ``run.py --out DIR`` writes.  One row per workload
and metric: both values, the relative change from A to B (positive is
worse), the bound from BENCHMARK.json, and a verdict.  A host-time
metric agrees when its change, either way, stays within its bound.
Modeled and virtual-time metrics, and the share of operations that
failed, must be identical.  Exits 1 on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[list[str]], bool]:
    """Rows of (workload, metric, A, B, change, bound, verdict) and
    whether every row agrees."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows: list[list[str]] = []
    ok = True
    for workload in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for name, m in bounds.items():
            if name not in wa["metrics"] or name not in wb["metrics"]:
                continue
            va, vb = wa["metrics"][name]["value"], wb["metrics"][name]["value"]
            change = (vb - va) / va if va else float("inf")
            if m["better"] == "higher":
                change = -change
            agrees = abs(change) <= m["bound"]
            ok &= agrees
            rows.append([workload, name, f"{va:.6g}", f"{vb:.6g}", f"{change:+.2%}",
                         f"{m['bound']:.0%}", "ok" if agrees else "DISAGREE"])
        # A metric a workload does not model reads 0 in both files.
        exact = {
            f"modeled {k}": (wa["modeled"].get(k), wb["modeled"].get(k))
            for k in sorted(set(wa["modeled"]) | set(wb["modeled"]))
            if wa["modeled"].get(k) or wb["modeled"].get(k)
        }
        # Runs are time-boxed, so the number attempted may differ.
        exact["error_rate"] = (
            wa["failed"] / wa["attempted"], wb["failed"] / wb["attempted"]
        )
        for name, (va, vb) in exact.items():
            agrees = va == vb
            ok &= agrees
            rows.append([workload, name, f"{va}", f"{vb}", "", "exact",
                         "ok" if agrees else "DISAGREE"])
    return rows, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    a, b = (json.loads(p.read_text()) for p in (args.a, args.b))
    if a["header"]["seed"] != b["header"]["seed"]:
        print(f"note: seeds differ ({a['header']['seed']} vs "
              f"{b['header']['seed']}); modeled metrics will not match")
    rows, ok = compare(a, b, json.loads(BENCHMARK.read_text()))
    if not rows:
        print("the two files share no workload")
        return 1
    header = ["workload", "metric", "A", "B", "change", "bound", "verdict"]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print("agree" if ok else "DISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

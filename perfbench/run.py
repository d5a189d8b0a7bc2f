"""Run the benchmark on one workload, or on all four in turn.

    python3 perfbench/run.py --workload asr_greedy --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1 --out results          # every workload

Each workload runs in ``PROCESSES`` fresh interpreters, one at a time,
with BLAS pinned to one thread.  Every process times its own set-up
(import, construction, first cold call) and then a share of the
``--seconds`` budget; the metrics pool all of them.  ``--trace 1``
wraps the layer boundaries of ``tracing.BOUNDARIES`` and reports the
per-layer metrics instead of the end-to-end ones.

The program is run from ``src/`` next to this directory.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--out DIR`` also writes a
result file (and, when traced, the spans as JSONL and a Perfetto trace).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
PROCESSES = 3
#: A run must end within this many seconds; processes share what is left.
CAP_S = 180.0
DEADLINE_S = 170.0
BLAS_PINNING = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


_UNITS = {
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "serving.decode_iterations": "count",
    "serving.preemptions": "count",
    "serving.batch_mean": "count",
    "serving.peak_batch": "count",
}
#: Name suffix or infix -> unit, for every metric not in ``_UNITS``.
_UNIT_RULES = (
    ("_pct", "%"),
    (".calls_per_root", "count"),
    ("_ratio", "ratio"),
    ("model_ms", "model_ms"),
    ("cycles", "cycles"),
    ("_rps", "rps"),
)


def metric_unit(name: str) -> str:
    """The unit of a metric, from its name: host time is ``ms``/``s``,
    modeled and virtual time ``model_ms`` or ``cycles``."""
    if name in _UNITS:
        return _UNITS[name]
    for part, unit in _UNIT_RULES:
        if part in name:
            return unit
    raise KeyError(f"no unit for metric {name}")


# ----------------------------------------------------------------- metrics
def _plain(children: list[dict]) -> list[dict]:
    return [e for c in children for e in c["executions"] if e["mode"] == "plain"]


def end_to_end(children: list[dict]) -> dict[str, float]:
    """Host-time metrics over every untraced root of every process."""
    plain = _plain(children)
    return {
        "ops_per_s": sum(e["ops"] for e in plain) / sum(e["ns"] for e in plain) * 1e9,
        "peak_rss_mb": statistics.median(c["rss_kb"] for c in children) / 1024,
        "setup_s": statistics.median(c["setup_s"] for c in children),
    }


def op_ms_p50(children: list[dict]) -> float:
    """Median host ms per op over the untraced roots.  Printed, not
    gated: for roots that differ in kind it depends on a few of them."""
    return statistics.median(
        e["ns"] / 1e6 / e["ops"] for e in _plain(children) if e["ops"]
    )


def _overhead_pct(children: list[dict], mode: str) -> float:
    """Median slowdown of ``mode`` against plain on identical roots."""
    ratios = []
    for c in children:
        groups: dict[tuple, dict[str, int]] = {}
        for e in c["executions"]:
            groups.setdefault((e["round"], e["trace"]), {})[e["mode"]] = e["ns"]
        ratios += [g[mode] / g["plain"] for g in groups.values() if "plain" in g]
    return 100.0 * (statistics.median(ratios) - 1.0) if ratios else 0.0


def per_layer(workload: str, children: list[dict]) -> dict[str, float]:
    """Layer shares and counts over the traced roots, the tracing and
    telemetry overheads, and the modeled metrics."""
    traces = [c["trace"] for c in children]
    root_ns = sum(t["root_ns"] for t in traces)
    roots = sum(t["roots"] for t in traces)
    metrics: dict[str, float] = {}
    calls = {}
    for layer in tracing.LAYERS:
        self_ns = sum(t["layers"][layer]["self_ns"] for t in traces)
        calls[layer] = sum(t["layers"][layer]["calls"] for t in traces)
        metrics[f"{layer}.self_pct"] = 100.0 * self_ns / root_ns
        metrics[f"{layer}.calls_per_root"] = calls[layer] / roots
    metrics["bench.root_self_pct"] = (
        100.0 * sum(t["root_self_ns"] for t in traces) / root_ns
    )
    metrics["bench.trace_overhead_pct"] = _overhead_pct(children, "traced")
    metrics["obs.telemetry_overhead_pct"] = _overhead_pct(children, "telemetry")
    hits = sum(t["cache_hits"] for t in traces)
    misses = sum(t["cache_misses"] for t in traces)
    metrics["hw.program.lowering_cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0
    )
    pricing = calls["serving.pricing"]
    metrics["serving.iteration_cache_hit_ratio"] = (
        1.0 - calls["hw.controller.iteration"] / pricing if pricing else 0.0
    )
    metrics.update(modeled(workload, children))
    return metrics


def modeled(workload: str, children: list[dict]) -> dict[str, float]:
    return workloads.modeled_metrics(workload, [c["summary"] for c in children])


# -------------------------------------------------------------- processes
def _git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, keep_spans: bool
) -> list[dict]:
    """Run the workload's processes one after another; raises on failure."""
    env = dict(os.environ, **BLAS_PINNING)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    deadline = time.monotonic() + DEADLINE_S
    children = []
    for child in range(PROCESSES):
        cmd = [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds / PROCESSES), "--trace", str(int(trace)),
            "--child", str(child),
        ] + (["--keep-spans"] if keep_spans else [])
        # subprocess.run kills the process on timeout and waits for it.
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{workload} process {child} exited with {proc.returncode}"
            )
        children.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return children


def _write_spans(out: Path, workload: str, seed: int, children: list[dict]) -> None:
    spans = [c.pop("spans") for c in children]
    stem = f"{workload}-s{seed}"
    (out / f"spans-{stem}.jsonl").write_text(tracing.spans_jsonl(spans))
    (out / f"trace-{stem}.json").write_text(json.dumps(tracing.chrome_trace(spans)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--workload", default="all", choices=["all", *workloads.WORKLOADS]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads(BENCHMARK.read_text())["run_seconds"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)

    header = {
        "seed": args.seed,
        "git_rev": _git_rev(),
        "nproc": os.cpu_count(),
        "blas_pinning": BLAS_PINNING,
        "processes_per_workload": PROCESSES,
        "seconds": seconds,
        "trace": args.trace,
        "wall_s": {},
        "cap_s_per_workload": CAP_S,
        "total_cap_s": CAP_S * len(names),
    }
    results: dict[str, dict] = {}
    suite_start = time.monotonic()
    for name in names:
        start = time.monotonic()
        try:
            children = run_workload(
                name, args.seed, seconds, bool(args.trace),
                keep_spans=bool(args.trace and args.out),
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        header["wall_s"][name] = time.monotonic() - start
        header.update(children[0]["env"])
        if args.trace and args.out:
            _write_spans(args.out, name, args.seed, children)
        values = per_layer(name, children) if args.trace else end_to_end(children)
        results[name] = {
            "attempted": sum(c["attempted"] for c in children),
            "failed": sum(c["failed"] for c in children),
            "metrics": {
                m: {"value": v, "unit": metric_unit(m)} for m, v in values.items()
            },
            "modeled": modeled(name, children),
            "op_ms_p50": None if args.trace else op_ms_p50(children),
            "samples": sum(
                e["mode"] == ("traced" if args.trace else "plain")
                for c in children for e in c["executions"]
            ),
            "rounds": [c["rounds"] for c in children],
            "cold_start_entries": sum(c["cold_start_entries"] for c in children),
        }
    header["total_wall_s"] = time.monotonic() - suite_start

    print(f"perfbench seed={args.seed} trace={args.trace} git={header['git_rev']} "
          f"python={header['python']} numpy={header['numpy']} blas={header['blas']} "
          f"nproc={header['nproc']} threads=1")
    for name, res in results.items():
        print(f"[{name}] {res['samples']} timed roots, rounds per process "
              f"{res['rounds']}, wall {header['wall_s'][name]:.1f} s of {CAP_S:.0f} s, "
              f"failed {res['failed']}/{res['attempted']}")
        if res["op_ms_p50"] is not None:
            print(f"  {'median host ms per op (not gated)':44s} "
                  f"{res['op_ms_p50']:14.6g} ms")
        for metric, m in res["metrics"].items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
        if not args.trace:
            for metric, value in res["modeled"].items():
                if value:
                    print(f"  {metric:44s} {value:14.6g} {metric_unit(metric)}"
                          "  (modeled, exact)")
        if name.startswith("serve"):
            print("  open loop in virtual time: every request is timed from its "
                  "scheduled arrival, so the generator is never late")
    print(f"suite wall {header['total_wall_s']:.1f} s of {header['total_cap_s']:.0f} s")
    if args.out:
        path = args.out / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
        path.write_text(json.dumps({"header": header, "workloads": results}, indent=1))
        print(f"wrote {path}")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.workload == "all":
        metrics = {
            f"{name}/{m}": v for name, r in results.items()
            for m, v in r["metrics"].items()
        }
    else:
        metrics = results[args.workload]["metrics"]
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

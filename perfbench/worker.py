"""One benchmark process: set up a workload, time its roots for a share
of the run, check every output, and print one JSON result line.

``run.py`` starts this script once per process of a run, one at a time;
it is not meant to be run by hand.  Set-up time is measured from the
first line below, so it covers the ``repro`` imports.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: In a traced run, a compare root runs once in each mode.
MODES = ("plain", "traced", "telemetry")


def _execute(root: workloads.Root, mode: str, recorder) -> tuple[int, object, str | None]:
    """Run one root in ``mode``; returns (ns, result, traceback or None).

    A traced root also adds its lowering-cache hits and misses to the
    recorder's ``cache`` counts.
    """
    if root.prepare is not None:
        root.prepare()
    result = error = None
    if mode == "traced":
        hits, misses = _cache_counts()
        recorder.install()
        try:
            with recorder.root(root.kind, root.trace) as done:
                result = root.call()
        except Exception:
            error = traceback.format_exc()
        finally:
            recorder.uninstall()
        hits2, misses2 = _cache_counts()
        recorder.cache[0] += hits2 - hits
        recorder.cache[1] += misses2 - misses
        return done[0].duration_ns, result, error
    start = time.perf_counter_ns()
    try:
        if mode == "telemetry":
            from repro import obs

            with obs.telemetry():
                result = root.call()
        else:
            result = root.call()
    except Exception:
        error = traceback.format_exc()
    return time.perf_counter_ns() - start, result, error


def _environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def _cache_counts() -> tuple[int, int]:
    from repro.hw.program import lowering_cache_info

    infos = lowering_cache_info().values()
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_child(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    child: int,
    sizes: workloads.Sizes = workloads.FULL,
    keep_spans: bool = False,
    start: float | None = None,
) -> dict:
    """Set up ``workload``, run whole rounds for about ``seconds``, check.

    Rounds repeat while the next one is expected to end before
    ``seconds`` plus half a round; there is always at least one.
    """
    start = time.perf_counter() if start is None else start
    wl = workloads.WORKLOADS[workload]
    state = wl.setup(seed, child, sizes)
    setup_s = time.perf_counter() - start

    recorder = None
    if trace:
        import tracing

        recorder = tracing.SpanRecorder()
    executions: list[dict] = []
    done: list[tuple[workloads.Root, int, object, str | None]] = []
    round_s: list[float] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        for i, root in enumerate(wl.round(state, len(round_s))):
            if not trace:
                modes = ("plain",)
            elif root.compare:
                shift = (child + i) % len(MODES)
                modes = MODES[shift:] + MODES[:shift]
            else:
                modes = ("traced",)
            first = None
            for mode in modes:
                ns, result, error = _execute(root, mode, recorder)
                if error:
                    print(error, file=sys.stderr)
                executions.append({
                    "kind": root.kind, "trace": root.trace, "round": len(round_s),
                    "mode": mode, "ns": ns, "ops": 0 if error else root.ops(result),
                })
                first = first or (result, error)
            done.append((root, len(round_s), *first))
        round_s.append(time.perf_counter() - r0)
        if time.perf_counter() - t0 + 0.5 * statistics.fmean(round_s) >= seconds:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    attempted = failed = 0
    for root, _, result, error in done:
        attempted += root.attempted
        failed += root.attempted if error else root.check(result)
    summary = wl.summarize(
        [(root, result) for root, k, result, error in done
         if k < wl.summary_rounds and error is None],
        state,
    )
    out = {
        "setup_s": setup_s, "rounds": len(round_s),
        "rss_kb": rss_kb, "attempted": attempted, "failed": failed,
        "executions": executions, "summary": summary,
        "cold_start_entries": state.get("cold_start_entries", 0),
        "env": _environment(),
    }
    if trace:
        out["trace"] = {
            **tracing.layer_totals(recorder.spans),
            "cache_hits": recorder.cache[0], "cache_misses": recorder.cache[1],
        }
        if keep_spans:
            out["spans"] = tracing.span_dicts(recorder.spans)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--keep-spans", action="store_true")
    args = parser.parse_args(argv)

    import repro

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 3
    out = run_child(
        args.workload, args.seed, args.seconds, bool(args.trace), args.child,
        keep_spans=args.keep_spans, start=_START,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

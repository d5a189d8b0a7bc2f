"""Self-test of the benchmark, at a size that runs in seconds.

    PYTHONPATH=src python -m pytest -q perfbench/tests

Runs every workload through the same functions as the benchmark, with
a small model and few requests, and checks the declared metrics, the
layer wrappers, the self-time arithmetic and the output checks.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import agree  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
#: A seed whose tiny functional-serving run preempts and batches.
SEED = 3

#: Layers each workload must reach through the wrapped boundaries.
EXPECTED_LAYERS = {
    "asr_greedy": {
        "frontend", "decoding", "hw.accelerator.prefill", "hw.accelerator.step",
        "hw.controller.encoder", "hw.controller.decoder_step",
        "hw.controller.report", "hw.program.lower",
    },
    "dse_sweep": {
        "hw.controller.report", "hw.program.lower", "hw.program.schedule",
        "hw.passes.apply", "hw.dse.a4",
    },
    "serve_modeled": {
        "serving.scheduler", "serving.pricing", "hw.controller.iteration",
        "hw.program.lower",
    },
    "serve_functional": {
        "serving.scheduler", "serving.pricing", "hw.controller.iteration",
        "hw.accelerator.prefill", "hw.accelerator.step",
        "hw.accelerator.batch_step", "hw.accelerator.preempt",
        "hw.accelerator.rewind", "hw.controller.encoder",
        "hw.controller.decoder_step", "hw.controller.decoder_step_batch",
        "hw.program.lower",
    },
}


@pytest.fixture(scope="module")
def tiny_runs():
    """(workload, traced) -> the three process results of a tiny run."""
    return {
        (name, trace): [
            worker.run_child(name, SEED, 0.3, trace, child, sizes=workloads.TINY)
            for child in range(run.PROCESSES)
        ]
        for name in workloads.WORKLOADS
        for trace in (False, True)
    }


def _declared(group: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[group]}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_declared_metrics_are_the_emitted_ones(tiny_runs, name):
    e2e = run.end_to_end(tiny_runs[name, False])
    layer = run.per_layer(name, tiny_runs[name, True])
    assert {m: run.metric_unit(m) for m in e2e} == _declared("end_to_end")
    assert {m: run.metric_unit(m) for m in layer} == _declared("per_layer")
    assert all(v > 0 for v in e2e.values())


def test_workloads_are_declared():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_boundary_fires_on_its_workloads(tiny_runs, name):
    layers = {}
    for child in tiny_runs[name, True]:
        for layer, totals in child["trace"]["layers"].items():
            layers[layer] = layers.get(layer, 0) + totals["calls"]
    silent = {layer for layer in EXPECTED_LAYERS[name] if not layers[layer]}
    assert not silent, f"{name}: no calls through {sorted(silent)}"


def test_expected_layers_cover_the_boundary_table():
    assert set().union(*EXPECTED_LAYERS.values()) == set(tracing.LAYERS)


def test_imported_bindings_are_patched():
    workloads.WORKLOADS["dse_sweep"].setup(SEED, 0, workloads.TINY)
    bindings = tracing.SpanRecorder().bindings()
    # ``from repro.hw.program import schedule_program`` copied the name.
    assert "repro.hw.passes.schedule_program" in bindings
    assert "repro.hw.controller.lower_full_pass" in bindings


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_runs_pass_their_checks(tiny_runs, name):
    for trace in (False, True):
        children = tiny_runs[name, trace]
        assert sum(c["attempted"] for c in children) > 0
        assert sum(c["failed"] for c in children) == 0


def test_dse_roots_start_cold(tiny_runs):
    for trace in (False, True):
        assert all(c["cold_start_entries"] == 0 for c in tiny_runs["dse_sweep", trace])


# ------------------------------------------------------ self-time arithmetic
def _span(id, parent, start, end):
    return tracing.Span(id, parent, f"s{id}", "root" if parent is None else "x",
                        start, end, "t")


def test_self_time_nested():
    spans = [_span(0, None, 0, 100), _span(1, 0, 10, 60), _span(2, 1, 20, 30)]
    assert tracing.self_times(spans) == {0: 50, 1: 40, 2: 10}


def test_self_time_siblings():
    spans = [_span(0, None, 0, 100), _span(1, 0, 10, 20), _span(2, 0, 20, 50)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 60, 1: 10, 2: 30}
    tracing.check_conservation(spans, selfs)


def test_self_time_zero_length():
    spans = [_span(0, None, 0, 10), _span(1, 0, 5, 5)]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 10, 1: 0}
    tracing.check_conservation(spans, selfs)


def test_overlapping_children_break_conservation():
    spans = [_span(0, None, 0, 100), _span(1, 0, 10, 60), _span(2, 0, 40, 80)]
    with pytest.raises(ValueError):
        tracing.check_conservation(spans, tracing.self_times(spans))


def test_layer_shares_add_up_to_the_roots(tiny_runs):
    for name in workloads.WORKLOADS:
        for child in tiny_runs[name, True]:
            t = child["trace"]
            layer_ns = sum(v["self_ns"] for v in t["layers"].values())
            assert layer_ns + t["root_self_ns"] == t["root_ns"]


# ----------------------------------------------------------- output checks
def test_corrupted_tokens_fail_the_asr_check():
    wl = workloads.WORKLOADS["asr_greedy"]
    state = wl.setup(SEED, 0, workloads.TINY)
    utt = wl._utterance(state, 0)
    result = state["pipeline"].transcribe(utt.waveform)
    args = (state["params"], state["pipeline"], utt.waveform)
    assert workloads.golden_mismatch(*args, result.tokens) == 0
    corrupted = result.tokens.copy()
    corrupted[0] = (corrupted[0] + 1) % state["params"].config.vocab_size
    assert workloads.golden_mismatch(*args, corrupted) == 1


def test_rejected_request_fails_the_serving_check():
    from repro.serving import ServingConfig, UtteranceRequest, simulate

    config = ServingConfig(kv_budget_bytes=1, reject_oversized=True)
    result = simulate([UtteranceRequest(0, 0.0, 4)], config)
    assert result.rejections == 1
    assert workloads.serving_failed(result) == 1


def test_corrupted_tokens_fail_the_functional_check():
    wl = workloads.WORKLOADS["serve_functional"]
    state = wl.setup(SEED, 0, workloads.TINY)
    (root,) = wl.round(state, 0)
    root.prepare()
    result, emitted = root.call()
    assert root.check((result, emitted)) == 0
    rid = next(r.request.request_id for r in result.completed
               if r.request.request_id % workloads.CHECK_EVERY == 0)
    emitted[rid][-1] += 1
    assert root.check((result, emitted)) == 1


def test_a4_that_is_not_better_fails_the_dse_check():
    assert workloads.a4_failed(SimpleNamespace(baseline_cycles=10, optimized_cycles=9)) == 0
    assert workloads.a4_failed(SimpleNamespace(baseline_cycles=10, optimized_cycles=10)) == 1


# ------------------------------------------------------------------ tools
def _result(ops_per_s: float, a4_cycles: float, failed: int = 0) -> dict:
    return {
        "header": {"seed": 1},
        "workloads": {"dse_sweep": {
            "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}},
            "modeled": {"device.a4_cycles_s32": a4_cycles},
            "attempted": 10, "failed": failed,
        }},
    }


def test_agree_accepts_noise_within_the_bound():
    _, ok = agree.compare(_result(100.0, 5.0), _result(95.0, 5.0), SPEC)
    assert ok


def test_agree_rejects_host_change_beyond_the_bound():
    _, ok = agree.compare(_result(100.0, 5.0), _result(50.0, 5.0), SPEC)
    assert not ok


def test_agree_requires_exact_modeled_metrics_and_error_rate():
    assert not agree.compare(_result(100.0, 5.0), _result(100.0, 6.0), SPEC)[1]
    assert not agree.compare(_result(100.0, 5.0), _result(100.0, 5.0, 1), SPEC)[1]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

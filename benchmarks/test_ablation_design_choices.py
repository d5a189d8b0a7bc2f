"""Ablations of the design choices DESIGN.md calls out:

* the **pipelined partial-product adders** (Fig 4.3: ``8 t_PSA + t_ADD``
  instead of ``8 t_PSA + 7 t_ADD``),
* the **double-buffered prefetch** of A2 (one buffer degrades to
  load-after-compute; more than two buys nothing on a single channel),
* the **dual-SLR fabric** (all eight PSAs on one SLR halves the
  parallel width of MM4/MM5/MM6).
"""

from dataclasses import replace

import pytest

from benchmarks.conftest import emit
from repro.config import HardwareConfig
from repro.hw.controller import LatencyModel
from repro.hw.scheduler import schedule


def run_ablations(latency_model):
    base = latency_model
    results = {}

    # --- pipelined adders off
    hw_naive = replace(base.hardware, pipelined_adders=False)
    lm_naive = LatencyModel(hardware=hw_naive, calibration=base.calibration)
    results["adder"] = {
        "pipelined_ms": base.latency_ms(32, "A3"),
        "naive_ms": lm_naive.latency_ms(32, "A3"),
    }

    # --- prefetch buffer count (A2, load-bound s = 4)
    blocks = base.build_blocks(4, "A2")
    overhead = base.calibration.block_overhead_cycles
    results["buffers"] = {
        nb: schedule("A2", blocks, overhead, num_weight_buffers=nb).total_cycles
        / (base.hardware.clock_mhz * 1e3)
        for nb in (1, 2, 3)
    }

    # --- single-SLR fabric (same 8 PSAs but half the fan-out width is
    # irrelevant; the honest single-SLR point has 4 PSAs and no ISC)
    hw_single = replace(base.hardware, num_slrs=1, psas_per_slr=4)
    lm_single = LatencyModel(hardware=hw_single, calibration=base.calibration)
    results["slr"] = {
        "dual_ms": base.latency_ms(32, "A3"),
        "single_ms": lm_single.latency_ms(32, "A3"),
    }
    return results


def test_ablation_design_choices(benchmark, latency_model):
    r = benchmark(run_ablations, latency_model)

    emit(
        "Ablation: pipelined partial-product adders (A3 @ s=32)",
        ["variant", "latency ms"],
        [
            ["pipelined (Fig 4.3)", r["adder"]["pipelined_ms"]],
            ["naive folds", r["adder"]["naive_ms"]],
        ],
    )
    emit(
        "Ablation: A2 weight-buffer count (load-bound, s=4)",
        ["buffers", "latency ms"],
        [[nb, ms] for nb, ms in sorted(r["buffers"].items())],
    )
    emit(
        "Ablation: dual-SLR vs single-SLR fabric (A3 @ s=32)",
        ["fabric", "latency ms"],
        [
            ["2 SLRs x 4 PSAs (paper)", r["slr"]["dual_ms"]],
            ["1 SLR x 4 PSAs", r["slr"]["single_ms"]],
        ],
    )

    # Pipelining the adders helps, and only modestly (it hides folds,
    # not PSA passes).
    assert r["adder"]["naive_ms"] > r["adder"]["pipelined_ms"]
    assert r["adder"]["naive_ms"] < r["adder"]["pipelined_ms"] * 1.2
    # One buffer serializes like A1; two capture almost all the gain;
    # a third adds nothing on one load channel.
    assert r["buffers"][1] > r["buffers"][2]
    assert r["buffers"][3] == pytest.approx(r["buffers"][2], rel=0.01)
    # Halving the fabric roughly doubles compute-bound latency.
    ratio = r["slr"]["single_ms"] / r["slr"]["dual_ms"]
    assert 1.5 < ratio < 2.6

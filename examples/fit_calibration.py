#!/usr/bin/env python
"""Re-fit the cycle-model calibration constants against Table 5.1.

    python examples/fit_calibration.py        (~1-2 minutes)

Minimizes squared log-latency error over the twelve Table 5.1 cells,
with soft constraints pinning the Fig 5.2 crossover near s = 18 and the
Section 5.1.4 FFN/MHA ~ 2x latency ratio.  The resulting constants are
the ones checked into :class:`repro.config.CalibrationConfig`; every
other experiment is then a *prediction* of the same model (DESIGN.md
section 5).
"""

import numpy as np
from scipy.optimize import minimize

from repro.config import CalibrationConfig, HardwareConfig
from repro.hw.controller import LatencyModel
from repro.hw.program import LoweringSpec, lower

PAPER = {
    4: {"A1": 65.87, "A2": 53.45, "A3": 33.92},
    8: {"A1": 75.57, "A2": 54.5, "A3": 39.9},
    16: {"A1": 98.14, "A2": 56.27, "A3": 52.59},
    32: {"A1": 122.8, "A2": 84.15, "A3": 84.15},
}


def build(x: np.ndarray) -> LatencyModel:
    calibration = CalibrationConfig(
        attention_ii=float(x[0]),
        ffn_ii=float(x[1]),
        invocation_overhead_cycles=int(round(x[2])),
        block_overhead_cycles=int(round(x[3])),
    )
    hardware = HardwareConfig(hbm_channel_gbps=float(x[4]))
    return LatencyModel(hardware=hardware, calibration=calibration)


def ffn_mha_ratio(lm: LatencyModel, s: int = 32) -> float:
    """FFN / MHA block cycles of the lowered programs."""
    def span(scope: str) -> int:
        return lower(LoweringSpec(scope, lm.model, lm.fabric, s)).block_spans[scope]

    return span("ffn") / span("mha")


def loss(x: np.ndarray) -> float:
    if min(x[0], x[1]) < 1.0 or x[2] < 0 or x[3] < 0 or x[4] <= 0.1:
        return 1e9
    lm = build(x)
    err = 0.0
    for s, row in PAPER.items():
        for arch, paper_ms in row.items():
            err += (np.log(lm.latency_ms(s, arch)) - np.log(paper_ms)) ** 2
    try:
        crossover = lm.crossover_sequence_length()
    except ValueError:
        return 1e9
    err += 0.02 * (crossover - 18.5) ** 2
    ratio = ffn_mha_ratio(lm)
    err += 0.5 * (np.log(ratio) - np.log(2.0)) ** 2
    return err


def main() -> None:
    starts = (
        [5.7, 10.0, 2000, 9600, 2.82],
        [3.3, 12.3, 2020, 12500, 2.81],
        [4.0, 6.0, 1000, 30000, 3.0],
    )
    best = None
    for x0 in starts:
        result = minimize(
            loss,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-3, "fatol": 1e-8},
        )
        if best is None or result.fun < best.fun:
            best = result
    x = best.x
    print(f"fitted constants (loss {best.fun:.4f}):")
    print(f"  attention_ii               = {x[0]:.4f}")
    print(f"  ffn_ii                     = {x[1]:.4f}")
    print(f"  invocation_overhead_cycles = {int(round(x[2]))}")
    print(f"  block_overhead_cycles      = {int(round(x[3]))}")
    print(f"  hbm_channel_gbps           = {x[4]:.4f}")

    lm = build(x)
    print("\nTable 5.1 under the fit:")
    for s, row in PAPER.items():
        for arch, paper_ms in row.items():
            ours = lm.latency_ms(s, arch)
            print(f"  s={s:2d} {arch}: paper {paper_ms:7.2f}  "
                  f"model {ours:7.2f}  ({100 * (ours / paper_ms - 1):+5.1f}%)")
    print(f"crossover: s = {lm.crossover_sequence_length()} (target ~19)")
    print(f"FFN/MHA ratio @ s=32: {ffn_mha_ratio(lm):.2f} (target ~2)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Schedule gallery: ASCII renderings of the paper's schedule figures.

    python examples/schedule_gallery.py

Figs 4.8-4.10 (encoder stack under A1/A2/A3), Fig 4.11 (A3 decoder with
the m/f split loads) and the per-block cycle budget behind Fig 4.13.
"""

from repro.analysis.report import format_table
from repro.config import ModelConfig
from repro.hw.controller import LatencyModel
from repro.hw.kernels import (
    mm1_cycles,
    mm2_cycles,
    mm3_cycles,
    mm4_cycles,
    mm5_cycles,
    mm6_cycles,
)
from repro.hw.program import LoweringSpec, lower, trace_block
from repro.hw.scheduler import schedule
from repro.hw.visualize import render_gantt


def main() -> None:
    lm = LatencyModel()
    s = 8  # load-bound regime where the three architectures differ most

    print(f"Figs 4.8-4.10 — encoder-stack schedules at s = {s} "
          "('=' load, '#' compute)\n")
    enc_only = LatencyModel(model=ModelConfig(num_decoders=0))
    for arch in ("A1", "A2", "A3"):
        blocks = enc_only.build_blocks(s, arch)
        result = schedule(arch, blocks, enc_only.calibration.block_overhead_cycles)
        print(f"--- {arch} ({result.total_cycles / 300e3:.2f} ms) ---")
        print(render_gantt(result.timeline, width=100))
        print()

    print(f"Fig 4.11 — A3 decoder stack (m = MHA-part load on hbm0, "
          f"f = FFN-part load on hbm1) at s = {s}\n")
    dec_only = LatencyModel(model=ModelConfig(num_encoders=0))
    blocks = dec_only.build_blocks(s, "A3")
    result = schedule("A3", blocks, dec_only.calibration.block_overhead_cycles)
    print(render_gantt(result.timeline, width=100))

    print("\nFig 4.13 — per-operation cycle budget inside one encoder "
          "(s = 32):")
    fab, paper = lm.fabric, lm.model
    # Block totals are the ASAP makespans of the lowered programs.
    mha_program = lower(LoweringSpec("mha", paper, fab, 32))
    head0 = [e for e in trace_block(mha_program).events if e.label.startswith("h0:")]
    head = int(max(e.end for e in head0) - min(e.start for e in head0))
    mha = mha_program.block_spans["mha"]
    ffn = lower(LoweringSpec("ffn", paper, fab, 32)).block_spans["ffn"]
    layer = lower(LoweringSpec("encoder_layer", paper, fab, 32))
    (add_norm,) = [op.cycles for op in layer.ops if op.label == "Add-Norm1"]
    rows = [
        ["MM1 (one of 3 per head)", mm1_cycles(fab, 32, 512, 64)],
        ["MM2 (QK^T, padded)", mm2_cycles(fab, 32, 32, 64)],
        ["MM3 (SmV, padded)", mm3_cycles(fab, 32, 32, 64)],
        ["attention head total", head],
        ["MM4 (8 PSAs)", mm4_cycles(fab, 32, 8, 64, 512)],
        ["MHA block", mha],
        ["MM5 (8 PSAs)", mm5_cycles(fab, 32, 512, 2048)],
        ["MM6 (8 PSAs)", mm6_cycles(fab, 32, 2048, 512)],
        ["FFN block", ffn],
        ["Add-Norm", add_norm],
    ]
    print(format_table(["operation", "cycles @300 MHz"], rows))
    print(f"FFN / MHA latency ratio: {ffn / mha:.2f} "
          "(paper: FFN ~ 2x the MHA block)")

    print("\nFig 4.13 — per-engine trace of one encoder (s = 32, "
          "8 parallel heads):")
    print(render_gantt(trace_block(layer), width=110))


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Schedule gallery: ASCII renderings of the paper's schedule figures.

    python examples/schedule_gallery.py

Figs 4.8-4.10 (encoder stack under A1/A2/A3), Fig 4.11 (A3 decoder with
the m/f split loads) and the per-block cycle budget behind Fig 4.13.
"""

from repro.analysis.report import format_table
from repro.config import ModelConfig
from repro.hw.blocks import (
    add_norm_cycles,
    attention_head_cycles,
    ffn_cycles,
    mha_cycles,
)
from repro.hw.controller import LatencyModel
from repro.hw.kernels import (
    mm1_cycles,
    mm2_cycles,
    mm3_cycles,
    mm4_cycles,
    mm5_cycles,
    mm6_cycles,
)
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
    fab = lm.fabric
    rows = [
        ["MM1 (one of 3 per head)", mm1_cycles(fab, 32, 512, 64)],
        ["MM2 (QK^T, padded)", mm2_cycles(fab, 32, 32, 64)],
        ["MM3 (SmV, padded)", mm3_cycles(fab, 32, 32, 64)],
        ["attention head total", attention_head_cycles(fab, 32, 32, 512, 64)],
        ["MM4 (8 PSAs)", mm4_cycles(fab, 32, 8, 64, 512)],
        ["MHA block", mha_cycles(fab, 32, 32, 8, 512)],
        ["MM5 (8 PSAs)", mm5_cycles(fab, 32, 512, 2048)],
        ["MM6 (8 PSAs)", mm6_cycles(fab, 32, 2048, 512)],
        ["FFN block", ffn_cycles(fab, 32, 512, 2048)],
        ["Add-Norm", add_norm_cycles(fab, 32, 512)],
    ]
    print(format_table(["operation", "cycles @300 MHz"], rows))
    mha = mha_cycles(fab, 32, 32, 8, 512)
    ffn = ffn_cycles(fab, 32, 512, 2048)
    print(f"FFN / MHA latency ratio: {ffn / mha:.2f} "
          "(paper: FFN ~ 2x the MHA block)")

    print("\nFig 4.13 — per-engine trace of one encoder (s = 32, "
          "8 parallel heads):")
    from repro.hw.program import LoweringSpec, lower, trace_block

    layer = lower(LoweringSpec("encoder_layer", ModelConfig(), fab, 32))
    print(render_gantt(trace_block(layer), width=110))


if __name__ == "__main__":
    main()

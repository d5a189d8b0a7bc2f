"""ASCII Gantt rendering of schedule timelines (Figs 4.8-4.11).

``render_gantt`` draws one row per engine (HBM channels, compute
fabric) with each event as a labelled bar, scaled to a fixed character
width — enough to eyeball where A2/A3 hide the loads behind computes.
"""

from __future__ import annotations

from repro.hw.trace import Timeline

_KIND_CHARS = {
    "load": "=",
    "compute": "#",
    "store": "~",
    "overhead": ".",
    "stream": "-",
}

#: Idle-gap markers for the classified stall causes (``no_work`` stays
#: blank — a drained lane needs no explanation).
_STALL_CHARS = {
    "load_starved": "L",
    "dependency": "d",
    "channel_contention": "x",
    "overhead": "o",
}

_STALL_LEGEND = (
    "stalls: L=load_starved d=dependency x=channel_contention o=overhead"
)


def render_gantt(
    timeline: Timeline, width: int = 100, annotations=None
) -> str:
    """Render a timeline as an ASCII Gantt chart.

    ``annotations`` is an optional iterable of classified idle
    intervals (objects with ``engine``/``start``/``end``/``cause``
    attributes, e.g. :class:`repro.hw.introspect.StallInterval`);
    their cause markers are drawn into the otherwise-blank idle cells.
    """
    if width < 20:
        raise ValueError("width must be at least 20 characters")
    span = timeline.makespan
    if span <= 0:
        return "(empty timeline)"
    label_pad = max((len(e) for e in timeline.engines()), default=0) + 1
    scale = width / span
    marks: dict[str, list[tuple[int, int, str]]] = {}
    for iv in annotations or ():
        ch = _STALL_CHARS.get(iv.cause)
        if ch is None:
            continue
        start = int(iv.start * scale)
        end = min(max(int(iv.end * scale), start + 1), width)
        marks.setdefault(iv.engine, []).append((start, end, ch))
    lines = []
    for engine in timeline.engines():
        row = [" "] * width
        for event in timeline.on_engine(engine):
            start = int(event.start * scale)
            end = max(int(event.end * scale), start + 1)
            end = min(end, width)
            ch = _KIND_CHARS.get(event.kind, "#")
            for i in range(start, end):
                row[i] = ch
            # Inscribe the label when the bar is wide enough.
            name = event.label
            if end - start >= len(name) + 2:
                for j, c in enumerate(name):
                    row[start + 1 + j] = c
        # Stall markers only claim cells no event bar painted.
        for start, end, ch in marks.get(engine, ()):
            for i in range(start, end):
                if row[i] == " ":
                    row[i] = ch
        lines.append(f"{engine.rjust(label_pad)} |{''.join(row)}|")
    lines.append(
        f"{' ' * label_pad}  0{' ' * (width - 2 - len(f'{span:.0f}'))}"
        f"{span:.0f} cycles"
    )
    if marks:
        lines.append(f"{' ' * label_pad}  {_STALL_LEGEND}")
    return "\n".join(lines)


def render_program_gantt(
    program,
    architecture: str = "A3",
    width: int = 100,
    block_overhead: int | None = None,
    annotate_stalls: bool = False,
) -> str:
    """Gantt of a lowered block program under one architecture.

    Renders the trace executor's timeline: the HBM channel lanes come
    first (A3's two-channel decoder prefetch of Fig 4.11 shows up as
    interleaved ``hbm0``/``hbm1`` bars), then the per-engine op lanes
    and the host dispatch lane.  ``block_overhead`` defaults to the
    calibration value baked into the program's fabric.

    With ``annotate_stalls=True`` every idle gap is marked with its
    classified cause (plus a legend line), turning the chart into the
    Figs 4.8–4.11 narrative: A1's lanes fill with ``L`` between loads,
    A2's with ``x`` where its single channel serializes.
    """
    from repro.hw.introspect import stall_intervals
    from repro.hw.program import trace_program

    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles
    timeline = trace_program(program, architecture, block_overhead)
    annotations = None
    if annotate_stalls:
        annotations = stall_intervals(
            timeline, program, architecture, block_overhead
        )
    return render_gantt(timeline, width=width, annotations=annotations)


def render_platform_diagram(hardware=None) -> str:
    """ASCII rendition of the Fig 5.3 platform diagram: host and PCIe,
    HBM channels feeding one kernel per SLR, and the inter-SLR stream."""
    from repro.config import HardwareConfig

    hw = hardware or HardwareConfig()
    ch = hw.hbm_channels_per_slr
    lines = [
        "+--------------------- host CPU ----------------------+",
        "|  data prep | fbank features | OpenCL orchestration   |",
        "+---------------------------+--------------------------+",
        f"                            | PCIe Gen3 x16 ({hw.pcie_gbps:.0f} GB/s)",
        "+---------------------------v--------------------------+",
        f"|                HBM2 (8 GB, weights resident)         |",
    ]
    slr_cells = []
    for slr in range(hw.num_slrs):
        chans = " ".join(
            f"ch{slr * ch + c}" for c in range(ch)
        )
        slr_cells.append(
            f"SLR{slr}: {hw.psas_per_slr} x {hw.psa_rows}x{hw.psa_cols} PSA  "
            f"[{chans} @ {hw.hbm_channel_gbps:.1f} GB/s]"
        )
    width = max(len(c) for c in slr_cells) + 4
    lines.append("+" + "-" * (len(lines[0]) - 2) + "+")
    for i, cell in enumerate(slr_cells):
        lines.append(f"|  {cell.ljust(width - 4)}  |")
        if i < len(slr_cells) - 1:
            lines.append(
                "|  " + "~ inter-SLR AXI stream ~".center(width - 4) + "  |"
            )
    lines.append("+" + "-" * (len(lines[0]) - 2) + "+")
    return "\n".join(lines)


def render_comparison(results: dict[str, Timeline], width: int = 100) -> str:
    """Stack several labelled timelines (e.g. A1 vs A2 vs A3)."""
    blocks = []
    for name, timeline in results.items():
        blocks.append(f"--- {name} ---")
        blocks.append(render_gantt(timeline, width=width))
    return "\n".join(blocks)

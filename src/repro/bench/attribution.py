"""Automated bottleneck attribution.

Answers "where did the cycles go, and why" from the model itself
rather than from hardcoded paper numbers:

* classifies every schedulable block of the lowered program as
  load-bound or compute-bound (the per-block view behind Figs 4.8–4.11
  and the Table 5.1 stalls);
* locates the Fig 5.2 load/compute crossover by walking the cycle
  model (`LatencyModel.crossover_sequence_length`, the paper observes
  s > 18);
* builds the §4.2 roofline table per matmul MM1–MM6: FLOPs, HBM weight
  traffic, operational intensity, and what the roofline says each can
  attain.  MM2/MM3 multiply two on-chip activations and stream no HBM
  weights, which the table states instead of fabricating an intensity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.baselines.roofline import RooflineModel, accelerator_roofline
from repro.hw.controller import LatencyModel
from repro.hw.introspect import STALL_CAUSES, classify_stalls
from repro.hw.kernels import matmul_dims
from repro.hw.program import program_block_work

__all__ = [
    "BlockAttribution",
    "MatmulRoofline",
    "ArchStallSummary",
    "AttributionReport",
    "build_attribution_report",
]

#: Matmuls whose second operand is a weight panel streamed from HBM;
#: MM2 (QK^T) and MM3 (attn·V) consume on-chip activations only.
_WEIGHT_MATMULS = frozenset({"MM1", "MM4", "MM5", "MM6"})


@dataclass(frozen=True)
class BlockAttribution:
    """One schedulable block's load-vs-compute account."""

    label: str
    load_cycles: int
    compute_cycles: int

    @property
    def bound(self) -> str:
        return "load" if self.load_cycles > self.compute_cycles else "compute"

    @property
    def ratio(self) -> float:
        """load / compute; > 1 means the block is load-bound."""
        if self.compute_cycles == 0:
            return float("inf") if self.load_cycles else 0.0
        return self.load_cycles / self.compute_cycles


@dataclass(frozen=True)
class MatmulRoofline:
    """One MM1–MM6 row of the §4.2 roofline table."""

    name: str
    dims: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    flops: int
    hbm_bytes: int
    #: FLOPs per HBM byte; None when the matmul streams no HBM weights.
    intensity: float | None
    attainable_gflops: float | None
    #: "memory" / "compute" against the roofline ridge, or "on-chip"
    #: when the matmul streams no HBM weights at all.
    bound: str = "on-chip"


@dataclass(frozen=True)
class ArchStallSummary:
    """One architecture's per-cause stall account at the report's s.

    ``psa_totals`` restricts the account to the PSA lanes — the Table
    5.1 quantity (how long the matrix engines sat idle, and why).
    """

    architecture: str
    makespan: float
    totals: dict[str, float]
    psa_totals: dict[str, float]
    psa_dominant: str | None

    def psa_stall_cycles(self, cause: str) -> float:
        return self.psa_totals.get(cause, 0.0)


@dataclass
class AttributionReport:
    """The full bottleneck-attribution account at one design point."""

    architecture: str
    s: int
    crossover_s: int
    blocks: list[BlockAttribution]
    roofline: RooflineModel
    matmuls: list[MatmulRoofline]
    #: Per-architecture stall-cause account (A1, A2, A3 order).
    stalls: list[ArchStallSummary] = field(default_factory=list)

    def stall_summary(self, architecture: str) -> ArchStallSummary:
        for summary in self.stalls:
            if summary.architecture == architecture:
                return summary
        raise KeyError(f"no stall summary for architecture '{architecture}'")

    @property
    def load_bound_blocks(self) -> list[BlockAttribution]:
        return [b for b in self.blocks if b.bound == "load"]

    @property
    def compute_bound_blocks(self) -> list[BlockAttribution]:
        return [b for b in self.blocks if b.bound == "compute"]

    def block_bound(self, label: str) -> str:
        for b in self.blocks:
            if b.label == label:
                return b.bound
        raise KeyError(f"no block labelled '{label}'")

    def format(self) -> str:
        lines = [
            f"bottleneck attribution: architecture {self.architecture}, "
            f"s={self.s}",
            "",
            f"Fig 5.2 crossover (from the cycle model): encoder compute "
            f"exceeds its weight load from s = {self.crossover_s} "
            f"(paper: s > 18); at s={self.s} an encoder block is "
            f"{'compute' if self.s >= self.crossover_s else 'load'}-bound.",
            "",
            "per-block load/compute classification "
            f"({len(self.load_bound_blocks)} load-bound, "
            f"{len(self.compute_bound_blocks)} compute-bound):",
        ]
        lines.append(format_table(
            ["block", "load cyc", "compute cyc", "load/compute", "bound by"],
            [
                [b.label, b.load_cycles, b.compute_cycles,
                 f"{b.ratio:.2f}", b.bound]
                for b in self.blocks
            ],
        ))
        lines.append("")
        lines.append(
            f"roofline (§4.2): peak {self.roofline.peak_gflops:.1f} GFLOPs/s, "
            f"HBM bandwidth {self.roofline.bandwidth_gbps:.1f} GB/s, "
            f"ridge {self.roofline.ridge_point:.2f} FLOP/B"
        )
        rows = []
        for mm in self.matmuls:
            rows.append([
                mm.name,
                "x".join(str(d) for d in mm.dims[0]),
                "x".join(str(d) for d in mm.dims[1]),
                f"{mm.flops / 1e6:.2f}",
                f"{mm.hbm_bytes / 1e3:.1f}" if mm.hbm_bytes else "-",
                f"{mm.intensity:.3f}" if mm.intensity is not None else "-",
                (f"{mm.attainable_gflops:.1f}"
                 if mm.attainable_gflops is not None else "-"),
                mm.bound,
            ])
        lines.append(format_table(
            ["matmul", "in1", "weights", "MFLOP", "HBM kB", "FLOP/B",
             "attainable GF/s", "bound"],
            rows,
        ))
        if self.stalls:
            lines.append("")
            lines.append(
                f"stall-cause attribution at s={self.s} "
                "(PSA-lane idle cycles by cause; Table 5.1 causality):"
            )
            lines.append(format_table(
                ["arch", *STALL_CAUSES, "dominant"],
                [
                    [
                        summ.architecture,
                        *(f"{summ.psa_totals[c]:.0f}" for c in STALL_CAUSES),
                        summ.psa_dominant or "-",
                    ]
                    for summ in self.stalls
                ],
            ))
            try:
                a1 = self.stall_summary("A1")
                a3 = self.stall_summary("A3")
            except KeyError:
                pass
            else:
                delta = (
                    a1.psa_stall_cycles("load_starved")
                    - a3.psa_stall_cycles("load_starved")
                )
                lines.append(
                    "A1->A3 shift: two-channel prefetch hides "
                    f"{delta:.0f} PSA load-starved cycles "
                    f"({a1.psa_stall_cycles('load_starved'):.0f} -> "
                    f"{a3.psa_stall_cycles('load_starved'):.0f}); dominant "
                    f"PSA stall moves {a1.psa_dominant or '-'} -> "
                    f"{a3.psa_dominant or '-'}."
                )
        return "\n".join(lines)


def build_attribution_report(
    s: int = 32,
    architecture: str = "A3",
    latency_model: LatencyModel | None = None,
) -> AttributionReport:
    """Derive the attribution report from the cycle model at one
    (s, architecture) design point."""
    if s <= 0:
        raise ValueError("s must be positive")
    lm = latency_model or LatencyModel()
    program = lm.full_pass_program(s)
    blocks = [
        BlockAttribution(w.label, w.load_cycles, w.compute_cycles)
        for w in program_block_work(program, architecture)
    ]
    roofline = accelerator_roofline(lm.hardware)
    bpe = lm.hardware.bytes_per_element
    matmuls = []
    d_k = lm.model.d_model // lm.model.num_heads
    for name, (in1, in2, out) in matmul_dims(
        s, lm.model.d_model, d_k, lm.model.d_ff
    ).items():
        l, m = in1
        n = in2[1]
        flops = 2 * l * m * n
        if name in _WEIGHT_MATMULS:
            hbm_bytes = in2[0] * in2[1] * bpe
            intensity = flops / hbm_bytes
            attainable = roofline.attainable_gflops(intensity)
            bound = (
                "memory" if roofline.is_memory_bound(intensity) else "compute"
            )
        else:
            hbm_bytes = 0
            intensity = None
            attainable = None
            bound = "on-chip"
        matmuls.append(MatmulRoofline(
            name=name, dims=(in1, in2, out), flops=flops,
            hbm_bytes=hbm_bytes, intensity=intensity,
            attainable_gflops=attainable, bound=bound,
        ))
    stalls = []
    for arch in ("A1", "A2", "A3"):
        report = classify_stalls(program, arch)
        stalls.append(ArchStallSummary(
            architecture=arch,
            makespan=float(report.makespan),
            totals=report.totals(),
            psa_totals=report.totals(".psa"),
            psa_dominant=report.dominant_cause(".psa"),
        ))
    return AttributionReport(
        architecture=str(architecture),
        s=s,
        crossover_s=lm.crossover_sequence_length(),
        blocks=blocks,
        roofline=roofline,
        matmuls=matmuls,
        stalls=stalls,
    )

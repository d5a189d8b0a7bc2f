"""Design-space exploration (Table 5.3 and Section 5.1.4).

Two axes are explored, exactly as in the thesis:

* **Head parallelism** — eight parallel heads with one PSA each, four
  heads with two concurrent PSAs, two with four, one with eight
  (Table 5.3).  Latency degrades slightly as head parallelism drops
  because the small MM2/MM3/softmax stages stop overlapping across
  heads.
* **PSA dimensions** — the number of unrolled rows per systolic array;
  larger arrays cut latency but blow the LUT budget (the paper settled
  on 2 x 64 after evaluating alternatives, and notes a ~2.5x DSP-bound
  headroom that LUTs prevent from being realized).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.controller import LatencyModel
from repro.hw.resources import ResourceEstimate, estimate_resources
from repro.hw.scheduler import Architecture


@dataclass(frozen=True)
class DesignPoint:
    """One explored configuration and its predicted metrics."""

    parallel_heads: int
    concurrent_psas_per_head: int
    psa_rows: int
    psa_cols: int
    latency_ms: float
    resources: ResourceEstimate
    #: Op count of the lowered block program behind the latency figure.
    #: Head parallelism reshapes the dependency waves and engine
    #: placement but not the op count, so this stays constant across a
    #: sweep — a structural invariant the DSE tests pin.
    num_program_ops: int = 0

    @property
    def synthesizable(self) -> bool:
        return self.resources.fits()


def head_parallelism_sweep(
    s: int = 32,
    model: ModelConfig | None = None,
    hardware: HardwareConfig | None = None,
    calibration: CalibrationConfig | None = None,
    architecture: Architecture | str = Architecture.A3,
) -> list[DesignPoint]:
    """Reproduce Table 5.3: (8,1), (4,2), (2,4), (1,8) head/PSA splits."""
    model = model or ModelConfig()
    hardware = hardware or HardwareConfig()
    points = []
    parallel = hardware.total_psas
    while parallel >= 1:
        lm = LatencyModel(
            model=model,
            hardware=hardware,
            calibration=calibration,
            parallel_heads=parallel,
        )
        latency = lm.latency_ms(s, architecture)
        points.append(
            DesignPoint(
                parallel_heads=parallel,
                concurrent_psas_per_head=hardware.total_psas // parallel,
                psa_rows=hardware.psa_rows,
                psa_cols=hardware.psa_cols,
                latency_ms=latency,
                resources=estimate_resources(
                    hardware, seq_len=s, d_model=model.d_model, d_ff=model.d_ff,
                    num_softmax_units=model.num_heads,
                ),
                num_program_ops=lm.full_pass_program(s).num_ops,
            )
        )
        parallel //= 2
    return points


def psa_dimension_sweep(
    rows_options: tuple[int, ...] = (1, 2, 4, 8),
    s: int = 32,
    model: ModelConfig | None = None,
    hardware: HardwareConfig | None = None,
    calibration: CalibrationConfig | None = None,
    architecture: Architecture | str = Architecture.A3,
) -> list[DesignPoint]:
    """Explore PSA row unrolling: latency vs. resource pressure.

    Points that exceed the device are still reported (marked not
    synthesizable), mirroring the paper's finding that wider unrolling
    is LUT-infeasible.
    """
    model = model or ModelConfig()
    base_hw = hardware or HardwareConfig()
    points = []
    for rows in rows_options:
        if rows <= 0:
            raise ValueError("psa rows must be positive")
        hw = replace(base_hw, psa_rows=rows)
        lm = LatencyModel(model=model, hardware=hw, calibration=calibration)
        points.append(
            DesignPoint(
                parallel_heads=hw.total_psas,
                concurrent_psas_per_head=1,
                psa_rows=rows,
                psa_cols=hw.psa_cols,
                latency_ms=lm.latency_ms(s, architecture),
                resources=estimate_resources(
                    hw, seq_len=s, d_model=model.d_model, d_ff=model.d_ff,
                    num_softmax_units=model.num_heads,
                ),
                num_program_ops=lm.full_pass_program(s).num_ops,
            )
        )
    return points


def psa_grid_sweep(
    rows_options: tuple[int, ...] = (1, 2, 4, 8),
    cols_options: tuple[int, ...] = (16, 32, 64, 128),
    s: int = 32,
    model: ModelConfig | None = None,
    hardware: HardwareConfig | None = None,
    calibration: CalibrationConfig | None = None,
    architecture: Architecture | str = Architecture.A3,
) -> list[DesignPoint]:
    """Full 2-D PSA dimension exploration (Section 5.1.4: "we have
    experimented with various dimensions of the PSA block with
    different unroll factors")."""
    model = model or ModelConfig()
    base_hw = hardware or HardwareConfig()
    points = []
    for rows in rows_options:
        for cols in cols_options:
            if rows <= 0 or cols <= 0:
                raise ValueError("PSA dims must be positive")
            hw = replace(base_hw, psa_rows=rows, psa_cols=cols)
            lm = LatencyModel(model=model, hardware=hw, calibration=calibration)
            points.append(
                DesignPoint(
                    parallel_heads=hw.total_psas,
                    concurrent_psas_per_head=1,
                    psa_rows=rows,
                    psa_cols=cols,
                    latency_ms=lm.latency_ms(s, architecture),
                    resources=estimate_resources(
                        hw, seq_len=s, d_model=model.d_model, d_ff=model.d_ff,
                        num_softmax_units=model.num_heads,
                    ),
                    num_program_ops=lm.full_pass_program(s).num_ops,
                )
            )
    return points


def pareto_frontier(points: list[DesignPoint]) -> list[DesignPoint]:
    """Latency/LUT Pareto-optimal synthesizable points, by latency.

    A point is dominated if another synthesizable point is at least as
    good on both axes and strictly better on one.
    """
    feasible = [p for p in points if p.synthesizable]
    frontier = []
    for p in feasible:
        dominated = any(
            (q.latency_ms <= p.latency_ms and q.resources.lut <= p.resources.lut)
            and (q.latency_ms < p.latency_ms or q.resources.lut < p.resources.lut)
            for q in feasible
        )
        if not dominated:
            frontier.append(p)
    return sorted(frontier, key=lambda p: p.latency_ms)


def best_synthesizable(points: list[DesignPoint]) -> DesignPoint:
    """Lowest-latency point that fits the device."""
    feasible = [p for p in points if p.synthesizable]
    if not feasible:
        raise ValueError("no synthesizable design point in the sweep")
    return min(feasible, key=lambda p: p.latency_ms)


# --------------------------------------------------- A4 pass synthesis
@dataclass(frozen=True)
class A4Result:
    """The winning pass pipeline over A3 and its exact cycle evidence.

    "A4" is not a fourth hand-written architecture: it is whatever the
    optimizer found — an A3 schedule rewritten by the pass pipeline that
    minimized exact simulated cycles over the searched space.  The
    result pins no program: the baseline is the cached lowering of
    ``spec`` and the optimized program is rebuilt on first read.
    """

    s: int
    architecture: str
    pipeline: object  # PassPipeline (typed loosely to avoid an import cycle)
    baseline_cycles: int
    optimized_cycles: int
    #: PSA-lane stall attribution (cause -> cycles) before/after, from
    #: ``hw.introspect.classify_stalls`` — the evidence that the win
    #: comes out of ``load_starved``/``channel_contention``.
    psa_stalls_before: dict[str, float]
    psa_stalls_after: dict[str, float]
    report: object  # PipelineReport for the winning pipeline
    spec: object  # LoweringSpec of the baseline program
    candidates_tried: int

    @property
    def baseline_program(self):
        """The untransformed program (the lowering cache's object)."""
        from repro.hw.program import lower

        return lower(self.spec)

    @cached_property
    def program(self):
        """The optimized program: ``pipeline`` re-applied to the
        baseline on first read."""
        return self.pipeline.apply_program(self.baseline_program)

    @property
    def cycles_saved(self) -> int:
        return self.baseline_cycles - self.optimized_cycles

    @property
    def improvement_pct(self) -> float:
        if self.baseline_cycles == 0:
            return 0.0
        return 100.0 * self.cycles_saved / self.baseline_cycles

    def as_dict(self) -> dict:
        """JSON-ready report (programs omitted) — the artifact behind
        ``repro-asr optimize`` and the CI pass-report upload."""
        return {
            "s": self.s,
            "architecture": self.architecture,
            "pipeline": list(self.pipeline.names),
            "candidates_tried": self.candidates_tried,
            "baseline_cycles": self.baseline_cycles,
            "optimized_cycles": self.optimized_cycles,
            "cycles_saved": self.cycles_saved,
            "improvement_pct": self.improvement_pct,
            "psa_stalls_before": dict(self.psa_stalls_before),
            "psa_stalls_after": dict(self.psa_stalls_after),
            "report": self.report.as_dict(),
        }


def a4_candidate_pipelines(architecture: str = "A3") -> list:
    """The bounded pipeline grid :func:`synthesize_a4` searches: every
    combination of split depth x coalescing x prefetch depth x
    reordering over :func:`repro.hw.passes.default_pipeline`."""
    from repro.hw.passes import default_pipeline

    return [
        default_pipeline(
            split_limit=split_limit,
            coalesce=coalesce,
            num_weight_buffers=num_weight_buffers,
            reorder=reorder,
            architecture=architecture,
        )
        for split_limit in (0, 1, 2)
        for coalesce in (False, True)
        for num_weight_buffers in (None, 4)
        for reorder in (False, True)
    ]


def _candidate_programs(base, candidates: list) -> Iterator[tuple[object, object]]:
    """Yield ``(pipeline, program after its passes)`` per candidate.

    Passes are pure functions of their input program, and the grid
    order is the pass order, so consecutive candidates share pipeline
    prefixes: a stack of ``(pass, program after it)`` keeps the current
    chain, each candidate reuses its longest equal prefix and runs only
    the remaining passes.  The programs lack the ``passes`` meta entry
    :meth:`PassPipeline.apply` adds, which no schedule reads.
    """
    stack: list[tuple[object, object]] = [(None, base)]
    for pipeline in candidates:
        keep = 0
        for p, (done, _) in zip(pipeline.passes, stack[1:]):
            if p != done:
                break
            keep += 1
        del stack[keep + 1:]
        for p in pipeline.passes[keep:]:
            stack.append((p, p.run(stack[-1][1])[0]))
        yield pipeline, stack[-1][1]


@lru_cache(maxsize=8)
def synthesize_a4(
    model: ModelConfig | None = None,
    hardware: HardwareConfig | None = None,
    calibration: CalibrationConfig | None = None,
    s: int = 32,
    t: int | None = None,
    parallel_heads: int | None = None,
    architecture: str = "A3",
) -> A4Result:
    """Search the pass/parameter space for the cheapest schedule of the
    full prefill pass and call the winner "A4".

    Every candidate pipeline is semantics-preserving by construction
    (the passes are individually verified bit-identical); the search
    therefore only has to compare exact simulated cycles.  The winner
    must *strictly* beat the untransformed A3 schedule — if nothing
    does (e.g. a degenerate configuration with no exposed stalls), a
    ``ValueError`` is raised, mirroring :func:`best_synthesizable`.

    Cached: callers that ask for the same search share one result (the
    ``a4_optimized`` bench scenario clears the cache to time a cold one).
    """
    from repro.hw.kernels import Fabric
    from repro.hw.passes import _psa_stalls
    from repro.hw.program import LoweringSpec, lower, schedule_program

    model = model or ModelConfig()
    hardware = hardware or HardwareConfig()
    calibration = calibration or CalibrationConfig()
    spec = LoweringSpec(
        "full_pass", model, Fabric(hardware, calibration), s, t, parallel_heads
    )
    overhead = calibration.block_overhead_cycles
    base = lower(spec)
    baseline_cycles = schedule_program(base, architecture, overhead).total_cycles

    best_pipeline = None
    best_cycles = baseline_cycles
    candidates = a4_candidate_pipelines(architecture)
    for pipeline, optimized in _candidate_programs(base, candidates):
        cycles = schedule_program(optimized, architecture, overhead).total_cycles
        # Strictly better wins; on a tie, prefer the shorter pipeline
        # (deterministic because the grid order is fixed).
        if cycles < best_cycles or (
            best_pipeline is not None
            and cycles == best_cycles
            and len(pipeline.passes) < len(best_pipeline.passes)
        ):
            best_pipeline = pipeline
            best_cycles = cycles
    if best_pipeline is None:
        raise ValueError(
            f"no candidate pipeline strictly improves on {architecture} "
            f"at s={s} ({baseline_cycles} cycles)"
        )

    program, report = best_pipeline.apply(base, collect_stalls=False)
    return A4Result(
        s=s,
        architecture=architecture,
        pipeline=best_pipeline,
        baseline_cycles=baseline_cycles,
        optimized_cycles=best_cycles,
        psa_stalls_before=_psa_stalls(base, architecture, overhead),
        psa_stalls_after=_psa_stalls(program, architecture, overhead),
        report=report,
        spec=spec,
        candidates_tried=len(candidates),
    )

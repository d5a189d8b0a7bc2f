"""The accelerator simulator — the paper's primary contribution.

Layers (bottom-up):

* :mod:`repro.hw.systolic` / :mod:`repro.hw.adder` /
  :mod:`repro.hw.nonlinear` — the hardware primitives.
* :mod:`repro.hw.memory` — HBM / PCIe / BRAM models and weight sizing.
* :mod:`repro.hw.kernels` — the MM1..MM6 stripe schedules.
* :mod:`repro.hw.program` — the op-level block-program IR: one
  lowering of the Fig 4.13 schedule (attention heads, MHA, FFN,
  encoder and decoder layers) feeds the functional, cycle and trace
  executors.
* :mod:`repro.hw.scheduler` — the A1/A2/A3 load-compute overlap
  architectures.
* :mod:`repro.hw.controller` — the top-level controller + cycle model.
* :mod:`repro.hw.accelerator` — the host-facing facade.
* :mod:`repro.hw.resources` / :mod:`repro.hw.dse` — resource model and
  design-space exploration.
"""

from repro.hw.accelerator import (
    AcceleratorOutput,
    HwDecodeSession,
    TransformerAccelerator,
    step_batch,
)
from repro.hw.kv_cache import DecoderKVCache, modeled_resident_bytes
from repro.hw.adder import VectorAdder
from repro.hw.faults import FaultSpec, inject_faults, measure_impact
from repro.hw.multicard import multicard_throughput, saturation_point, scaling_sweep
from repro.hw.verification import verify_case, verify_equivalence
from repro.hw.controller import (
    AcceleratorController,
    ControllerRun,
    LatencyModel,
    LatencyReport,
)
from repro.hw.dse import (
    DesignPoint,
    head_parallelism_sweep,
    pareto_frontier,
    psa_dimension_sweep,
    psa_grid_sweep,
)
from repro.hw.faults import program_fault_hook
from repro.hw.introspect import (
    STALL_CAUSES,
    EngineStallBreakdown,
    FlightRecorder,
    StallInterval,
    StallReport,
    Watchpoint,
    WatchpointHit,
    classify_stalls,
    counter_tracks,
    default_watchpoints,
    render_stall_dashboard,
    run_watchpoints,
    utilization_counters,
)
from repro.hw.kernels import Fabric, matmul_dims
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    LoweringSpec,
    Op,
    OpKind,
    ProgramRun,
    UnitSpan,
    execute_program,
    lower,
    lower_decode_step,
    lower_full_pass,
    program_block_work,
    program_unit_spans,
    schedule_program,
    trace_program,
    trace_program_with_schedule,
)
from repro.hw.resources import ResourceEstimate, check_synthesizable, estimate_resources
from repro.hw.scheduler import (
    Architecture,
    BlockWork,
    ScheduleResult,
    schedule,
    schedule_a1,
    schedule_a2,
    schedule_a3,
)
from repro.hw.systolic import SystolicArray
from repro.hw.trace import Timeline, TraceEvent
from repro.hw.visualize import (
    render_comparison,
    render_gantt,
    render_platform_diagram,
    render_program_gantt,
)

__all__ = [
    "AcceleratorOutput",
    "DecoderKVCache",
    "HwDecodeSession",
    "TransformerAccelerator",
    "modeled_resident_bytes",
    "step_batch",
    "VectorAdder",
    "FaultSpec",
    "inject_faults",
    "measure_impact",
    "multicard_throughput",
    "saturation_point",
    "scaling_sweep",
    "verify_case",
    "verify_equivalence",
    "AcceleratorController",
    "ControllerRun",
    "LatencyModel",
    "LatencyReport",
    "DesignPoint",
    "head_parallelism_sweep",
    "pareto_frontier",
    "psa_dimension_sweep",
    "psa_grid_sweep",
    "program_fault_hook",
    "Fabric",
    "matmul_dims",
    "STALL_CAUSES",
    "EngineStallBreakdown",
    "FlightRecorder",
    "StallInterval",
    "StallReport",
    "Watchpoint",
    "WatchpointHit",
    "classify_stalls",
    "counter_tracks",
    "default_watchpoints",
    "render_stall_dashboard",
    "run_watchpoints",
    "utilization_counters",
    "BlockIR",
    "BlockProgram",
    "LoweringSpec",
    "Op",
    "OpKind",
    "ProgramRun",
    "UnitSpan",
    "execute_program",
    "lower",
    "lower_decode_step",
    "lower_full_pass",
    "program_block_work",
    "program_unit_spans",
    "schedule_program",
    "trace_program",
    "trace_program_with_schedule",
    "ResourceEstimate",
    "check_synthesizable",
    "estimate_resources",
    "Architecture",
    "BlockWork",
    "ScheduleResult",
    "schedule",
    "schedule_a1",
    "schedule_a2",
    "schedule_a3",
    "SystolicArray",
    "Timeline",
    "TraceEvent",
    "render_comparison",
    "render_gantt",
    "render_platform_diagram",
    "render_program_gantt",
]

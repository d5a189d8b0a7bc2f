"""The accelerator simulator — the paper's primary contribution.

Layers (bottom-up):

* :mod:`repro.hw.systolic` / :mod:`repro.hw.adder` /
  :mod:`repro.hw.nonlinear` — the hardware primitives' cycles.
* :mod:`repro.hw.memory` — HBM / PCIe / BRAM models, weight sizing and
  the K/V banks' data-free costs.
* :mod:`repro.hw.kernels` — the MM1..MM6 stripe schedules' cycles.
* :mod:`repro.hw.program` — the op-level block-program IR: one
  lowering of the Fig 4.13 schedule (attention heads, MHA, FFN,
  encoder and decoder layers) feeds the functional, cycle and trace
  executors.
* :mod:`repro.hw.scheduler` — the A1/A2/A3 load-compute overlap
  architectures.
* :mod:`repro.hw.controller` — the top-level cycle model.
* :mod:`repro.hw.resources` / :mod:`repro.hw.dse` — resource model and
  design-space exploration.

Those modules are the timing view and import no NumPy.  The functional
view runs on NumPy: :mod:`repro.hw.datapath` (the primitives' and
kernels' fp32 values), :mod:`repro.hw.executor` (the program
executor), :mod:`repro.hw.kv_cache` (the K/V banks),
:mod:`repro.hw.fabric_controller` (the functional controller) and
:mod:`repro.hw.accelerator` (the host-facing facade).  Every public
name below resolves from its module on first access, so
``import repro.hw`` loads neither view.
"""

from repro._lazy import lazy_names

_EXPORTS = {
    "repro.hw.accelerator": (
        "AcceleratorOutput", "HwDecodeSession", "TransformerAccelerator", "step_batch",
    ),
    "repro.hw.kv_cache": ("DecoderKVCache",),
    "repro.hw.memory": ("modeled_resident_bytes",),
    "repro.hw.adder": ("VectorAdder",),
    "repro.hw.faults": (
        "FaultSpec", "inject_faults", "measure_impact", "program_fault_hook",
    ),
    "repro.hw.multicard": ("multicard_throughput", "saturation_point", "scaling_sweep"),
    "repro.hw.verification": ("verify_case", "verify_equivalence"),
    "repro.hw.controller": ("LatencyModel", "LatencyReport"),
    "repro.hw.fabric_controller": ("AcceleratorController", "ControllerRun"),
    "repro.hw.dse": (
        "DesignPoint", "head_parallelism_sweep", "pareto_frontier",
        "psa_dimension_sweep", "psa_grid_sweep",
    ),
    "repro.hw.kernels": ("Fabric", "matmul_dims"),
    "repro.hw.introspect": (
        "STALL_CAUSES", "FlightRecorder", "StallInterval", "Watchpoint",
        "WatchpointHit", "classify_stalls", "counter_tracks",
        "default_watchpoints", "render_stall_dashboard", "run_watchpoints",
        "stall_intervals", "stall_summary", "utilization_counters",
    ),
    "repro.hw.program": (
        "BlockIR", "BlockProgram", "LoweringSpec", "Op", "OpKind", "UnitSpan",
        "lower", "lower_decode_step", "lower_full_pass", "program_block_work",
        "program_unit_spans", "schedule_program", "trace_program",
    ),
    "repro.hw.executor": ("ProgramRun", "execute_program"),
    "repro.hw.resources": ("ResourceEstimate", "check_synthesizable", "estimate_resources"),
    "repro.hw.scheduler": ("Architecture", "BlockWork", "ScheduleResult", "schedule"),
    "repro.hw.systolic": ("SystolicArray",),
    "repro.hw.trace": ("Timeline", "TraceEvent"),
    "repro.hw.visualize": (
        "render_comparison", "render_gantt", "render_platform_diagram",
        "render_program_gantt",
    ),
}

__all__, __getattr__, __dir__ = lazy_names(__name__, _EXPORTS)

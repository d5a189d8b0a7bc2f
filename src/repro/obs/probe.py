"""Deep accelerator probes: derive per-engine metrics from a lowered
block program's device profile.

The functional executor records *what ran* (op counts, bytes streamed);
this probe records *where the cycles went*: busy cycles per engine
lane, PSA occupancy, HBM bytes per channel, the schedule totals and the
per-cause stall account — the quantities Table 5.1 / Fig 4.11 reason
about.  They are read off the device profile
(:func:`repro.hw.introspect.classify_stalls`), which is built from the
block schedule without a trace and memoized on the program, so the
run profile ``repro-asr profile`` writes next to these metrics costs
nothing more.

Hardware imports stay inside the functions so ``repro.obs`` remains a
leaf package (the hw layer imports it for instrumentation).
"""

from __future__ import annotations

from repro.obs import metrics as _metrics
from repro.obs.diffprof import NO_WORK, STALL_CAUSES

__all__ = ["record_program_metrics"]


def record_program_metrics(
    program,
    architecture: str = "A3",
    registry: _metrics.MetricsRegistry | None = None,
    block_overhead: int | None = None,
):
    """Profile one :class:`repro.hw.program.BlockProgram` and record:

    * ``repro.hw.engine.busy_cycles{engine=...}`` — per-lane busy cycles
    * ``repro.hw.psa.occupancy`` — mean busy fraction of the PSA lanes
    * ``repro.hw.hbm.bytes{channel=...}`` — weight bytes per HBM channel
      under the architecture's actual load placement
    * ``repro.hw.schedule.total_cycles`` / ``.stall_cycles``
    * ``repro.hw.stall.cycles{engine=,cause=}`` — the device profile's
      per-cause account of every idle cycle
    * ``repro.hw.program.trace_ops{kind=...}`` — the program's op
      account, comparable against the functional executor's
      ``repro.hw.program.ops`` counters

    Returns the device profile (a :class:`repro.obs.diffprof.RunProfile`),
    or None when telemetry is disabled.
    """
    from repro.hw.introspect import classify_stalls
    from repro.hw.program import program_op_counts, schedule_program

    reg = registry if registry is not None else _metrics.registry()
    if not reg.enabled:
        return None
    if block_overhead is None:
        block_overhead = program.fabric.calibration.block_overhead_cycles

    profile = classify_stalls(program, architecture, block_overhead)
    psa_busy = psa_lanes = 0
    for engine, lane in profile.lanes.items():
        reg.gauge("repro.hw.engine.busy_cycles", engine=engine).set(lane.busy)
        if ".psa" in engine:
            psa_busy += lane.busy
            psa_lanes += 1
    makespan = profile.makespan
    if psa_lanes and makespan > 0:
        reg.gauge("repro.hw.psa.occupancy").set(psa_busy / (psa_lanes * makespan))

    for channel, num_bytes in profile.channel_bytes.items():
        reg.gauge("repro.hw.hbm.bytes", channel=channel).set(num_bytes)

    sched = schedule_program(program, architecture, block_overhead)
    reg.gauge("repro.hw.schedule.total_cycles").set(sched.total_cycles)
    reg.gauge("repro.hw.schedule.stall_cycles").set(sched.stall_cycles)

    for engine, lane in profile.lanes.items():
        for cause in STALL_CAUSES:
            cycles = lane.no_work if cause == NO_WORK else lane.stall_cycles(cause)
            if cycles > 0:
                reg.gauge(
                    "repro.hw.stall.cycles", engine=engine, cause=cause
                ).set(cycles)

    for kind, count in program_op_counts(program).items():
        reg.gauge("repro.hw.program.trace_ops", kind=kind).set(count)
    return profile

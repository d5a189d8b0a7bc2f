"""The A4 search's hot loops as they stood before trials were priced
as spliced ``BlockWork`` units and pipelines shared prefixes, kept as
the test oracle.

The bodies below are unchanged except for the function wrappers and
for pricing each trial program on a fresh copy, whose block spans are
computed rather than inherited from the input:
:func:`reference_coalesce` is the auto-mode loop of
``CoalesceLoadsPass.run`` (one ``_merge_adjacent`` rebuild per trial),
:func:`reference_stage_exposed_loads` the auto-mode loop of
``StageExposedLoadsPass.run`` (one split rebuild per trial),
:func:`reference_list_schedule_block` is ``_list_schedule_block`` with
its O(n) ready-set scan per pick (and its ``_dataflow_deps`` helper),
before it scheduled block shapes instead of blocks, and :func:`reference_search` is
``synthesize_a4``'s per-candidate loop (every pipeline applied to the
baseline afresh).  ``tests/test_hw_passes.py`` pins the current
code equal to them.
"""

from __future__ import annotations

import dataclasses

from repro.hw.dse import a4_candidate_pipelines
from repro.hw.introspect import classify_stalls
from repro.hw.passes import (
    PassError,
    _merge_adjacent,
    _overhead,
    _split_block,
    _split_parts,
    _splittable,
    _total_cycles,
)
from repro.hw.program import (
    BlockIR,
    BlockProgram,
    Op,
    OpKind,
    block_compute_cycles,
    program_unit_spans,
    schedule_program,
)


def reference_coalesce(
    program: BlockProgram, architecture: str = "A3"
) -> tuple[BlockProgram, tuple[str, ...]]:
    """``CoalesceLoadsPass(architecture=architecture).run(program)``
    in auto mode."""
    actions: list[str] = []
    prog = program
    report = classify_stalls(prog, architecture, _overhead(prog))
    overhead_stall = report.totals(".psa")["overhead"]
    actions.append(
        f"cost signal: {overhead_stall:g} PSA overhead-stall cycles"
    )
    if overhead_stall <= 0:
        actions.append("no dispatch overhead to recover; skipped")
        return prog, tuple(actions)
    best = _total_cycles(prog, architecture)
    improved = True
    while improved:
        improved = False
        for blk in prog.blocks[:-1]:
            cand = _merge_adjacent(prog, blk.label)
            if cand is None:
                continue
            cand = dataclasses.replace(cand)
            cycles = _total_cycles(cand, architecture)
            if cycles < best:
                actions.append(
                    f"coalesced {blk.label} with successor: "
                    f"{best} -> {cycles} cycles"
                )
                prog, best, improved = cand, cycles, True
                break
    if len(actions) == 1:
        actions.append("no profitable merge found")
    return prog, tuple(actions)


def reference_stage_exposed_loads(
    program: BlockProgram, limit: int = 1, architecture: str = "A3"
) -> tuple[BlockProgram, tuple[str, ...]]:
    """``StageExposedLoadsPass(limit=limit, architecture=architecture)
    .run(program)`` in auto mode."""
    model = program.meta["model"]
    actions: list[str] = []
    prog = program
    for _ in range(limit):
        spans, _sched = program_unit_spans(
            prog, architecture, _overhead(prog)
        )
        gaps: list[tuple[float, str]] = []
        prev_end = 0.0
        for span in spans:
            gap = span.compute_start - prev_end
            prev_end = span.compute_end
            if gap <= 0 or len(span.blocks) != 1:
                continue
            if _splittable(prog.block(span.blocks[0])):
                gaps.append((gap, span.blocks[0]))
        if not gaps:
            break
        gaps.sort(key=lambda g: (-g[0], g[1]))
        best = _total_cycles(prog, architecture)
        accepted = False
        for gap, label in gaps:
            parts = _split_parts(prog, label, model)
            if parts is None:
                continue
            cand = dataclasses.replace(_split_block(prog, *parts))
            cycles = _total_cycles(cand, architecture)
            if cycles < best:
                actions.append(
                    f"split {label} ({gap:g} exposed load cycles): "
                    f"{best} -> {cycles} cycles"
                )
                prog = cand
                accepted = True
                break
        if not accepted:
            break
    if not actions:
        actions.append("no profitable split found")
    return prog, tuple(actions)


def _dataflow_deps(op: Op, in_block: set[int]) -> tuple[int, ...]:
    """The block-internal edges that carry data: every in-block op the
    op *reads*.  The lowering's declared ``deps`` are not a superset of
    these — a dataflow edge implied transitively through a
    serialization edge (e.g. ``MM1(Q)`` reading the layer input behind
    its ``MM1(K)`` chain edge) is omitted there, so reordering must
    recover ordering from the inputs themselves."""
    return tuple(
        sorted(
            {
                ref.key
                for ref in op.inputs
                if ref.kind == "op" and ref.key in in_block
            }
        )
    )


def reference_list_schedule_block(
    program: BlockProgram, blk: BlockIR
) -> tuple[list[int], dict[int, tuple[int, ...]], int, int] | None:
    """List-schedule one block's compute DAG onto its engines.

    Returns (new op order, new deps per op in old-id space, old compute
    makespan, new compute makespan) or None when no strict improvement
    exists.  Priority is the critical-path length over dataflow edges;
    per-engine occupancy is re-emitted as chain dependency edges so the
    ASAP cycle model reproduces the list schedule exactly.
    """
    in_block = set(blk.op_ids)
    loads = [i for i in blk.op_ids if program.ops[i].kind is OpKind.LOAD]
    comps = [i for i in blk.op_ids if program.ops[i].kind is not OpKind.LOAD]
    if len(comps) < 2:
        return None
    df = {i: _dataflow_deps(program.ops[i], in_block) for i in comps}
    succs: dict[int, list[int]] = {i: [] for i in comps}
    for i in comps:
        for d in df[i]:
            succs[d].append(i)
    # Critical-path priority (longest path to a sink), reverse order.
    cp: dict[int, int] = {}
    for i in reversed(comps):
        cp[i] = program.ops[i].cycles + max(
            (cp[s] for s in succs[i]), default=0
        )

    engine_free: dict[str, int] = {}
    engine_last: dict[str, int] = {}
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    chain: dict[int, set[int]] = {i: set() for i in comps}
    pending = set(comps)
    while pending:
        ready = [i for i in pending if all(d in end for d in df[i])]
        est = {
            i: max(
                max((end[d] for d in df[i]), default=0),
                max(
                    (engine_free.get(e, 0) for e in program.ops[i].engines),
                    default=0,
                ),
            )
            for i in ready
        }
        # Earliest feasible start wins; critical path breaks ties.
        pick = min(ready, key=lambda i: (est[i], -cp[i], i))
        op = program.ops[pick]
        start[pick] = est[pick]
        end[pick] = est[pick] + op.cycles
        for e in op.engines:
            if e in engine_last:
                chain[pick].add(engine_last[e])
            engine_free[e] = end[pick]
            engine_last[e] = pick
        pending.remove(pick)

    old_span = block_compute_cycles(program, blk)
    new_span = max(end.values(), default=0)
    if new_span >= old_span:
        return None

    # Final order: Kahn over dataflow + chain edges, (start, id) priority.
    full_deps = {i: set(df[i]) | chain[i] for i in comps}
    indeg = {i: len(full_deps[i]) for i in comps}
    out_edges: dict[int, list[int]] = {i: [] for i in comps}
    for i in comps:
        for d in full_deps[i]:
            out_edges[d].append(i)
    frontier = sorted(
        (i for i in comps if indeg[i] == 0), key=lambda i: (start[i], i)
    )
    ordered: list[int] = []
    while frontier:
        frontier.sort(key=lambda i: (start[i], i))
        cur = frontier.pop(0)
        ordered.append(cur)
        for s in out_edges[cur]:
            indeg[s] -= 1
            if indeg[s] == 0:
                frontier.append(s)
    if len(ordered) != len(comps):
        raise PassError(f"reorder of '{blk.label}' produced a dependency cycle")

    deps_map: dict[int, tuple[int, ...]] = {}
    for i in comps:
        external = tuple(d for d in program.ops[i].deps if d not in in_block)
        deps_map[i] = tuple(sorted(set(external) | full_deps[i]))
    return loads + ordered, deps_map, old_span, new_span


def reference_search(
    base: BlockProgram, s: int, architecture: str, overhead: int
) -> tuple:
    """``synthesize_a4``'s loop over ``base``: returns (winning
    pipeline, its cycles)."""
    baseline_cycles = schedule_program(base, architecture, overhead).total_cycles
    best_pipeline = None
    best_cycles = baseline_cycles
    candidates = a4_candidate_pipelines(architecture)
    for pipeline in candidates:
        optimized = pipeline.apply_program(base)
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
    return best_pipeline, best_cycles

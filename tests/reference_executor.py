"""The per-op functional interpreter, kept as the test oracle.

Before execution plans, :func:`repro.hw.program.execute_program` walked
a program one op at a time, calling the public MM1..MM6 kernels once
per attention head.  This is that interpreter, unchanged: the planned,
head-stacked executor must reproduce its outputs, every
``ProgramRun.values`` entry and the cache contents bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.hw.kernels import mm1, mm2, mm3, mm4, mm5, mm6
from repro.hw.nonlinear import (
    add_norm_unit,
    bias_unit,
    relu_unit,
    scale_scores,
    softmax_unit,
)
from repro.hw.program import BlockProgram, Op, ParamRef, ProgramRun, ValueRef


def reference_execute_ops(
    program: BlockProgram,
    root: Any,
    inputs: dict[str, np.ndarray | None] | None,
    caches: Sequence[Any] | None,
    weight_hook: Callable[[ParamRef, np.ndarray], np.ndarray] | None,
) -> ProgramRun:
    fabric = program.fabric
    bound = inputs or {}
    values: dict[int, np.ndarray] = {}

    def value(ref: ValueRef) -> np.ndarray:
        if ref.kind == "op":
            return values[ref.key]
        if ref.kind == "ext":
            if ref.key not in bound:
                raise KeyError(f"missing external input '{ref.key}'")
            return bound[ref.key]
        which, layer, head = ref.key
        if caches is None:
            raise ValueError("program references a KV cache but none was bound")
        return getattr(caches[layer], which)[head]

    def weight(op: Op, idx: int, sliced: bool = False) -> np.ndarray:
        ref = op.params[idx]
        arr = ref.resolve(root)
        if weight_hook is not None:
            arr = weight_hook(ref, arr)
        head = op.attrs.get("head") if sliced else None
        return arr if head is None else arr[head]

    for op in program.ops:
        sem = op.semantic
        if sem is None:
            continue
        if sem == "mm1":
            out = mm1(
                fabric, value(op.inputs[0]), weight(op, 0, sliced=True),
                op.attrs.get("concurrent_psas", 1),
            ).output
        elif sem == "bias":
            out = bias_unit(value(op.inputs[0]), weight(op, 0, sliced=True))
        elif sem == "mm2":
            out = mm2(fabric, value(op.inputs[0]), value(op.inputs[1])).output
        elif sem == "scsm":
            mask_name = op.attrs.get("mask")
            mask = bound.get(mask_name) if mask_name else None
            out = softmax_unit(
                scale_scores(value(op.inputs[0]), op.attrs["d_k"]), mask=mask
            )
        elif sem == "mm3":
            out = mm3(fabric, value(op.inputs[0]), value(op.inputs[1])).output
        elif sem == "mm4":
            out = mm4(
                fabric, [value(r) for r in op.inputs], weight(op, 0)
            ).output
        elif sem == "mm5":
            out = mm5(fabric, value(op.inputs[0]), weight(op, 0)).output
        elif sem == "bias_relu":
            out = relu_unit(bias_unit(value(op.inputs[0]), weight(op, 0)))
        elif sem == "mm6":
            out = mm6(fabric, value(op.inputs[0]), weight(op, 0)).output
        elif sem == "add_norm":
            out = add_norm_unit(
                value(op.inputs[0]), value(op.inputs[1]),
                weight(op, 0), weight(op, 1),
            )
        elif sem == "cache_append_k":
            if caches is None:
                raise ValueError("cache op requires a bound cache")
            caches[op.attrs["layer"]].append_self_k(
                op.attrs["head"], value(op.inputs[0])
            )
            continue
        elif sem == "cache_append_v":
            if caches is None:
                raise ValueError("cache op requires a bound cache")
            caches[op.attrs["layer"]].append_self_v(
                op.attrs["head"], value(op.inputs[0])
            )
            continue
        else:
            raise ValueError(f"unknown op semantic '{sem}'")
        values[op.op_id] = out

    outputs = {name: value(ref) for name, ref in program.outputs.items()}
    return ProgramRun(
        outputs=outputs,
        block_compute_cycles=dict(program.block_spans),
        values=values,
    )

"""The per-op functional interpreter, kept as the test oracle.

Before execution plans, :func:`repro.hw.program.execute_program` walked
a program one op at a time, calling the MM1..MM6 kernels once per
attention head on 2-D slices.  This is that interpreter: the planned,
head-stacked executor must reproduce its outputs, every
``ProgramRun.values`` entry and the cache contents bit for bit.  It
calls the kernels' functional products (``mmN_product``), which is
what the kernels computed; operands are cast to fp32 first, as the
kernels did.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.hw.kernels import (
    mm1_product,
    mm2_product,
    mm3_product,
    mm4_product,
    mm5_product,
    mm6_product,
)
from repro.hw.nonlinear import (
    add_norm_unit,
    bias_unit,
    relu_unit,
    scale_scores,
    softmax_unit,
)
from repro.hw.program import BlockProgram, Op, ParamRef, ProgramRun, ValueRef
from repro.model.ops import MODEL_DTYPE


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

    def act(ref: ValueRef) -> np.ndarray:
        return np.asarray(value(ref), dtype=MODEL_DTYPE)

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
        return np.asarray(arr if head is None else arr[head], dtype=MODEL_DTYPE)

    for op in program.ops:
        sem = op.semantic
        if sem is None:
            continue
        if sem == "mm1":
            out = mm1_product(
                fabric, act(op.inputs[0]), weight(op, 0, sliced=True)
            )
        elif sem == "bias":
            out = bias_unit(value(op.inputs[0]), weight(op, 0, sliced=True))
        elif sem == "mm2":
            out = mm2_product(act(op.inputs[0]), act(op.inputs[1]))
        elif sem == "scsm":
            mask_name = op.attrs.get("mask")
            mask = bound.get(mask_name) if mask_name else None
            out = softmax_unit(
                scale_scores(value(op.inputs[0]), op.attrs["d_k"]), mask=mask
            )
        elif sem == "mm3":
            out = mm3_product(act(op.inputs[0]), act(op.inputs[1]))
        elif sem == "mm4":
            out = mm4_product(
                np.stack([act(r) for r in op.inputs]), weight(op, 0)
            )
        elif sem == "mm5":
            out = mm5_product(act(op.inputs[0]), weight(op, 0))
        elif sem == "bias_relu":
            out = relu_unit(bias_unit(value(op.inputs[0]), weight(op, 0)))
        elif sem == "mm6":
            out = mm6_product(act(op.inputs[0]), weight(op, 0))
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

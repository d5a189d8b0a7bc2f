"""The functional executor: runs a block program's fp32 dataflow.

:func:`execute_program` binds a program's execution plan
(:attr:`repro.hw.program.BlockProgram.execution_plan`) to a parameter
tree once (:class:`_BoundPlan`), then runs it as one flat loop over
the bound kernel calls of :mod:`repro.hw.datapath`.  The cycle side of
the program — lowering, block spans, schedules, traces — lives in
:mod:`repro.hw.program` and never loads NumPy; this module is the half
that does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.hw.datapath import (
    _fold_panels,
    add_norm_unit,
    bias_unit,
    mm1_panels,
    mm2_product,
    mm3_product,
    mm4_fold,
    mm4_panels,
    relu_unit,
    scale_scores,
    softmax_unit,
    split_panels,
    split_product,
)
from repro.hw.kernels import Fabric
from repro.hw.program import (
    _APPEND_BANKS,
    BlockProgram,
    Op,
    ParamRef,
    PlanOp,
    PlanStep,
    ValueRef,
    program_load_bytes,
    program_op_counts,
    record_lowering_cache_metrics,
)
from repro.model.ops import MODEL_DTYPE
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans


@dataclass
class ProgramRun:
    """Result of one functional execution of a program."""

    outputs: dict[str, np.ndarray]
    #: Per-block ASAP makespans (the cycle executor's block computes).
    block_compute_cycles: dict[str, int]
    #: Every op output, keyed by op id (diagnostics / testing), read
    #: from the plan's output stacks on access.
    values: Mapping[int, Any]


def execute_program(
    program: BlockProgram,
    root: Any = None,
    inputs: dict[str, np.ndarray | None] | None = None,
    caches: Sequence[Any] | None = None,
    weight_hook: Callable[[ParamRef, np.ndarray], np.ndarray] | None = None,
    bindings: dict | None = None,
) -> ProgramRun:
    """Run the numpy dataflow of a program.

    ``root`` is the parameter tree the program's :class:`ParamRef`
    paths resolve against; ``inputs`` binds the external names;
    ``caches`` binds per-layer :class:`repro.hw.kv_cache.LayerKVCache`
    objects for step programs, or, when the inputs carry a leading
    batch axis, per-layer adapters whose ``members`` hold each batch
    member's cache (:func:`repro.hw.kv_cache.batch_layer_caches`); the
    members may sit at different prefix lengths.  ``weight_hook`` sees
    every resolved parameter array (with its ref) before use — the
    fault-injection transform plugs in here.  It is called once per
    plan step on the whole array (a per-head stack before any head
    slicing), so it must be a pure function of ``(ref, array)``.  A
    bound activation whose shape is not the ``(rows, width)`` the
    program was lowered for (``meta["input_shapes"]``), with at most
    one leading batch axis, raises a ``ValueError`` naming it.

    The plan is bound to ``root`` first (:class:`_BoundPlan`), then
    run.  ``bindings`` is a memo the caller owns that keeps each
    binding for the next call; it must only ever see this one
    ``root`` (:class:`repro.hw.controller.AcceleratorController` keeps
    one per accelerator).  Without it, or with a ``weight_hook``, the
    plan binds per call.
    """
    bound_inputs = inputs or {}
    if inputs:
        _check_input_shapes(program, inputs)
    program_kind = str(program.meta.get("kind", "unknown"))
    with obs_spans.tracer().span("hw.execute_program", kind=program_kind):
        rank = _batch_rank(program, bound_inputs)
        plan = program.execution_plan
        if bindings is None or weight_hook is not None:
            bound = _BoundPlan(plan, program.fabric, root, weight_hook, rank)
        else:
            bound = bindings.get((id(plan), rank))
            if bound is None or bound.plan is not plan:
                bound = bindings[id(plan), rank] = _BoundPlan(
                    plan, program.fabric, root, None, rank
                )
        run = bound.run(program, bound_inputs, caches)
    reg = obs_metrics.registry()
    if reg.enabled:
        reg.counter("repro.hw.program.executions", kind=program_kind).inc()
        for op_kind, count in program_op_counts(program).items():
            reg.counter("repro.hw.program.ops", kind=op_kind).inc(count)
        reg.counter("repro.hw.hbm.bytes_streamed").inc(program_load_bytes(program))
        record_lowering_cache_metrics(reg)
    return run


def _check_input_shapes(
    program: BlockProgram, inputs: Mapping[str, np.ndarray | None]
) -> None:
    """Reject a bound activation whose (rows, width) differ from the
    ones the program was lowered for (its cycles price those rows)."""
    for name, (rows, width) in program.meta.get("input_shapes", {}).items():
        arr = inputs.get(name)
        if arr is None:
            continue
        shape = np.shape(arr)
        if shape[-2:] != (rows, width) or len(shape) > 3:
            raise ValueError(
                f"input '{name}' must have shape ({rows}, {width}) or "
                f"(B, {rows}, {width}); got {shape}"
            )


def _batch_rank(program: BlockProgram, inputs: Mapping[str, Any]) -> int:
    """1 when a bound activation carries a leading batch axis, else 0."""
    names = program.meta.get("input_shapes")
    if names is None:
        names = {
            ref.key for op in program.ops for ref in op.inputs if ref.kind == "ext"
        }
    return int(any(
        np.ndim(inputs[name]) > 2 for name in names if inputs.get(name) is not None
    ))


class _RunEnv:
    """What a bound call reads besides the plan's output stacks: the
    inputs, the activations among them cast to fp32 once, and each
    batch member's per-layer caches (one member when unbatched)."""

    __slots__ = ("inputs", "ext", "members")

    def __init__(
        self, inputs: Mapping[str, Any], ext: dict[str, np.ndarray],
        members: list[Sequence[Any]],
    ) -> None:
        self.inputs, self.ext, self.members = inputs, ext, members


#: Stacked semantics that run member by member at batch rank 1 when
#: they touch a KV cache or a member-by-member output.
_MEMBER_SEMANTICS = frozenset(
    {"mm2", "scsm", "mm3", "cache_append_k", "cache_append_v"}
)


class _BoundPlan:
    """An execution plan bound to one parameter tree, weight hook and
    batch rank (0: unbatched, 1: a leading batch axis).

    Binding walks the plan once.  It fixes each step's kernel, the
    resolved, head-sliced and lifted parameter views (views of the
    tree, never copies, for contiguous head ranges), the weight panels
    its folds multiply (MM1 stripes, MM4 head panels, MM5/MM6 column
    panels) and the slots each input gathers from.  :meth:`run` is then
    one flat loop over the bound calls, each leaving its output stack
    in its step's slot.

    At batch rank 1 the steps that touch a KV cache — the cache appends
    and the MM2, Sc+Sm and MM3 that read a bank or a member-by-member
    output — run member by member on each member's own banks, with the
    2-D BLAS slices of an unbatched step, so members may sit at
    different prefix lengths; their slot holds one output stack per
    member.  Every other step runs once over the stacked members.
    """

    def __init__(
        self,
        plan: tuple[PlanStep, ...],
        fabric: Fabric,
        root: Any,
        weight_hook: Callable[[ParamRef, np.ndarray], np.ndarray] | None,
        rank: int,
    ) -> None:
        self.plan = plan
        self.rank = rank
        #: op id -> (plan step, member), member None for one-op steps.
        self.slot_of: dict[int, tuple[int, int | None]] = {}
        self.per_member: list[bool] = []
        self.calls: list[Callable[[list, _RunEnv], Any]] = []
        self.ext_names: set[str] = set()
        self.reads_caches = False

        def param(ref: ParamRef) -> np.ndarray:
            arr = ref.resolve(root)
            if weight_hook is not None:
                arr = weight_hook(ref, arr)
            return np.asarray(arr, dtype=MODEL_DTYPE)

        for index, step in enumerate(plan):
            for ref in (r for op in step.ops for r in op.inputs):
                if ref.kind == "ext":
                    self.ext_names.add(ref.key)
                self.reads_caches |= ref.kind == "cache"
            self.reads_caches |= step.ops[0].semantic in _APPEND_BANKS
            if step.stacked:
                call, per_member = self._bind_group(index, step, fabric, param)
            else:
                op = step.ops[0]
                self.slot_of[op.op_id] = (index, None)
                call, per_member = self._bind_op(op, param), False
            self.calls.append(call)
            self.per_member.append(per_member)

    # ------------------------------------------------------------ run
    def run(
        self,
        program: BlockProgram,
        inputs: Mapping[str, Any],
        caches: Sequence[Any] | None,
    ) -> ProgramRun:
        missing = sorted(self.ext_names - inputs.keys())
        if missing:
            raise KeyError(f"missing external input '{missing[0]}'")
        if caches is None and self.reads_caches:
            raise ValueError("program references a KV cache but none was bound")
        members: list[Sequence[Any]] = []
        if caches is not None:
            members = [caches] if self.rank == 0 else [
                [layer.members[b] for layer in caches]
                for b in range(len(caches[0].members))
            ]
        env = _RunEnv(inputs, {
            name: np.asarray(inputs[name], dtype=MODEL_DTYPE)
            for name in self.ext_names if inputs[name] is not None
        }, members)
        stacks: list = []
        for call in self.calls:
            stacks.append(call(stacks, env))
        outputs = {
            name: (
                inputs[ref.key] if ref.kind == "ext"
                else self._ref(ref)(stacks, env, None)
            )
            for name, ref in program.outputs.items()
        }
        return ProgramRun(
            outputs=outputs,
            block_compute_cycles=dict(program.block_spans),
            values=_PlanValues(self, stacks),
        )

    def read(self, stacks: list, step: int, member: int | None) -> Any:
        """One op's output from its step's slot."""
        out = stacks[step]
        if member is None:
            return out
        if not (self.rank and self.per_member[step]):
            return out[member]
        # Stacked over the batch; one array per member when the members
        # ran at different prefix lengths.
        parts = [part[member] for part in out]
        return np.stack(parts) if len({p.shape for p in parts}) == 1 else tuple(parts)

    # ---------------------------------------------------------- gathers
    # A getter is ``get(stacks, env, b)``: the whole value when ``b`` is
    # None, else batch member ``b``'s slice of it.
    def _ref(self, ref: ValueRef) -> Callable[[list, _RunEnv, int | None], Any]:
        """One ref's value."""
        if ref.kind == "op":
            step, member = self.slot_of[ref.key]
            split = self.rank and self.per_member[step]

            def value(stacks: list, env: _RunEnv, b: int | None) -> Any:
                if b is None:
                    return self.read(stacks, step, member)
                out = stacks[step]
                if member is None:
                    return out[b]
                return out[b][member] if split else out[member][b]

            return value
        if ref.kind == "ext":
            name = ref.key
            return lambda stacks, env, b: env.ext[name] if b is None else env.ext[name][b]
        which, layer, head = ref.key

        def bank_row(stacks: list, env: _RunEnv, b: int | None) -> np.ndarray:
            if b is None and self.rank:
                return np.stack([
                    getattr(layers[layer], which)[head] for layers in env.members
                ])
            return getattr(env.members[b or 0][layer], which)[head]

        return bank_row

    def _gather(
        self, how: str, what: Any, members: int, lifted: bool, per_member: bool
    ) -> Callable[[list, _RunEnv, int | None], Any]:
        """How a stacked step reads one input slot (see :class:`PlanStep`).
        ``lifted``: the step's parameter stack carries the member axis,
        so a shared value need not be broadcast over it."""
        if how == "group":
            step = what
            if not per_member:
                return lambda stacks, env, b: stacks[step]
            if self.per_member[step]:
                return lambda stacks, env, b: stacks[step][b]
            return lambda stacks, env, b: stacks[step][:, b]
        if how == "shared":
            value = self._ref(what)
            if lifted:
                return value

            def shared(stacks: list, env: _RunEnv, b: int | None) -> np.ndarray:
                arr = value(stacks, env, b)
                return np.broadcast_to(arr, (members,) + arr.shape)

            return shared
        refs = what
        if (per_member or not self.rank) and all(
            ref.kind == "cache" and ref.key[:2] == refs[0].key[:2] for ref in refs
        ):
            # A head-ordered read of a whole head-stacked bank is the
            # bank itself.
            which, layer = refs[0].key[:2]
            heads = [ref.key[2] for ref in refs]

            def bank(stacks: list, env: _RunEnv, b: int | None) -> np.ndarray:
                banks = getattr(env.members[b or 0][layer], which)
                if isinstance(banks, np.ndarray) and heads == list(range(len(banks))):
                    return banks
                return np.stack([banks[h] for h in heads])

            return bank
        getters = [self._ref(ref) for ref in refs]
        return lambda stacks, env, b: np.stack([g(stacks, env, b) for g in getters])

    # ------------------------------------------------------------ steps
    def _bind_group(
        self,
        index: int,
        step: PlanStep,
        fabric: Fabric,
        param: Callable[[ParamRef], np.ndarray],
    ) -> tuple[Callable[[list, _RunEnv], Any], bool]:
        """One head-stacked kernel call (member by member, when it must)."""
        first = step.ops[0]
        sem = first.semantic
        per_member = self.rank == 1 and sem in _MEMBER_SEMANTICS and (
            sem in _APPEND_BANKS or any(
                ref.kind == "cache"
                or (ref.kind == "op" and self.per_member[self.slot_of[ref.key][0]])
                for op in step.ops for ref in op.inputs
            )
        )
        if sem not in _APPEND_BANKS:
            for j, op in enumerate(step.ops):
                self.slot_of[op.op_id] = (index, j)
        # A member call sees no batch axis; a whole call sees ``rank``.
        rank = 0 if per_member else self.rank
        lifted = sem in ("mm1", "bias")
        args = [
            self._gather(how, what, len(step.ops), lifted, per_member)
            for how, what in step.args
        ]
        kernel: Callable[[list, _RunEnv, int | None], Any]
        if sem == "mm1":
            panels = mm1_panels(fabric, _lift(_head_slice(
                param(first.params[0]), step.heads), rank))
            (x,) = args

            def kernel(stacks, env, b):
                return _fold_panels(x(stacks, env, b), panels)
        elif sem == "bias":
            bias = _lift(_head_slice(param(first.params[0]), step.heads), rank + 1)
            (x,) = args

            def kernel(stacks, env, b):
                return x(stacks, env, b) + bias
        elif sem in ("mm2", "mm3"):
            product = mm2_product if sem == "mm2" else mm3_product
            left, right = args

            def kernel(stacks, env, b):
                return product(left(stacks, env, b), right(stacks, env, b))
        elif sem == "scsm":
            d_k, mask_name = first.attrs["d_k"], first.attrs.get("mask")
            (x,) = args

            def kernel(stacks, env, b):
                mask = env.inputs.get(mask_name) if mask_name else None
                if b is not None and mask is not None and mask.ndim == 3:
                    mask = mask[b]
                return softmax_unit(scale_scores(x(stacks, env, b), d_k), mask=mask)
        else:
            append = "append_" + _APPEND_BANKS[sem]
            targets = [(op.attrs["layer"], op.attrs["head"]) for op in step.ops]
            (rows,) = args

            def kernel(stacks, env, b):
                layers = env.members[b or 0]
                for (layer, head), row in zip(targets, rows(stacks, env, b)):
                    getattr(layers[layer], append)(head, row)

        if not per_member:
            return (lambda stacks, env: kernel(stacks, env, None)), False
        return (
            lambda stacks, env: [kernel(stacks, env, b) for b in range(len(env.members))]
        ), True

    def _bind_op(
        self, op: PlanOp | Op, param: Callable[[ParamRef], np.ndarray]
    ) -> Callable[[list, _RunEnv], np.ndarray]:
        """One op outside the head groups (MM4, the FFN, Add-Norm)."""
        sem = op.semantic
        if sem == "mm4":
            heads = self._head_stack(op.inputs)
            wo = param(op.params[0])
            panels = mm4_panels(
                wo, len(op.inputs), wo.shape[0] // len(op.inputs), self.rank
            )
            return lambda stacks, env: mm4_fold(heads(stacks, env), panels)
        if sem not in ("mm5", "bias_relu", "mm6", "add_norm"):
            raise ValueError(f"unknown op semantic '{sem}'")
        x = self._ref(op.inputs[0])
        if sem in ("mm5", "mm6"):
            split = (2, 4) if sem == "mm5" else (8, 1)
            panels = split_panels(param(op.params[0]), *split)
            return lambda stacks, env: split_product(x(stacks, env, None), panels)
        if sem == "bias_relu":
            b1 = param(op.params[0])
            return lambda stacks, env: relu_unit(bias_unit(x(stacks, env, None), b1))
        residual = self._ref(op.inputs[1])
        weight, bias = param(op.params[0]), param(op.params[1])
        return lambda stacks, env: add_norm_unit(
            x(stacks, env, None), residual(stacks, env, None), weight, bias
        )

    def _head_stack(self, refs: Sequence[ValueRef]) -> Callable[[list, _RunEnv], Any]:
        """MM4's input: the heads' outputs stacked on a leading head
        axis — a plan step's whole output stack when the refs are its
        members in order."""
        slots = [self.slot_of.get(ref.key) if ref.kind == "op" else None for ref in refs]
        step = slots[0][0] if slots[0] else None
        if step is not None and len(self.plan[step].ops) == len(refs) and slots == [
            (step, j) for j in range(len(refs))
        ]:
            if self.rank and self.per_member[step]:
                return lambda stacks, env: np.stack(stacks[step], axis=1)
            return lambda stacks, env: stacks[step]
        values = [self._ref(ref) for ref in refs]
        return lambda stacks, env: np.stack([v(stacks, env, None) for v in values])


class _PlanValues(Mapping):
    """Every op output of one run, keyed by op id, read from the plan
    steps' output stacks on access (a member of a step that ran member
    by member is stacked over the batch then)."""

    def __init__(self, bound: _BoundPlan, stacks: list) -> None:
        self._bound = bound
        self._stacks = stacks

    def __getitem__(self, op_id: int) -> Any:
        return self._bound.read(self._stacks, *self._bound.slot_of[op_id])

    def __iter__(self) -> Iterator[int]:
        return iter(self._bound.slot_of)

    def __len__(self) -> int:
        return len(self._bound.slot_of)


def _head_slice(arr: np.ndarray, heads: tuple[int, ...] | None) -> np.ndarray:
    """The members' slices of a per-head parameter stack, in member
    order (a view for a contiguous head range); a parameter of ops
    without a ``head`` gets a head axis of length 1."""
    if heads is None:
        return arr[None]
    if heads == tuple(range(heads[0], heads[0] + len(heads))):
        return arr[heads[0]:heads[0] + len(heads)]
    return arr[list(heads)]


def _lift(param: np.ndarray, batch_axes: int) -> np.ndarray:
    """Give a head-stacked parameter ``batch_axes`` unit axes after the
    head axis, so it broadcasts over an activation's batch and row axes."""
    return param.reshape(param.shape[:1] + (1,) * batch_axes + param.shape[1:])


__all__ = ["ProgramRun", "execute_program"]

"""The layer-stack lowering as it stood before layer templates, kept as
the test oracle.

:func:`reference_lower` builds every layer op by op: it calls
``_lower_encoder_layer`` / ``_lower_decoder_layer`` once per layer, as
the stack loops of ``repro.hw.program`` did before the lowering built
one template per distinct layer and stamped its copies.  The bodies
below are those loops and scope functions unchanged except for the
function wrappers.  The program it returns computes its spans with an
ASAP pass over every block.  ``tests/test_hw_program.py`` pins the
template lowering equal to it, field for field
(:func:`lowering_listing`, which the lowering goldens hash too).
"""

from __future__ import annotations

from repro.hw.memory import (
    decoder_ffn_weight_bytes,
    decoder_mha_weight_bytes,
    decoder_weight_bytes,
    encoder_weight_bytes,
)
from repro.hw.program import (
    _SCOPES,
    BlockIR,
    BlockProgram,
    LoweringSpec,
    ValueRef,
    _Builder,
    _bundle_load_cycles,
    _load_op,
    _lower_decoder_layer,
    _lower_encoder_layer,
    _opref,
)


def _lower_encoders(b, model, s, parallel_heads, x, mask) -> ValueRef:
    bpe = b.fabric.hardware.bytes_per_element
    enc_bytes = encoder_weight_bytes(model, bpe) if model.num_encoders else 0
    enc_load = _bundle_load_cycles(b.fabric, enc_bytes) if enc_bytes else 0
    prev_out: tuple[int, ...] = ()
    for i in range(model.num_encoders):
        label = f"enc{i + 1}"
        mark = b.mark()
        _load_op(b, label, enc_load, None)
        out = _lower_encoder_layer(
            b, label, x, ("encoders", i), s, model, parallel_heads, mask,
            prev_out,
        )
        b.close_block(label, mark, load_cycles=enc_load, load_bytes=enc_bytes)
        x = _opref(out)
        prev_out = (out,)
    return x


def _lower_decoders(
    b, model, t, s, parallel_heads, x, memory, self_mask, memory_mask,
    step=False,
) -> ValueRef:
    fabric = b.fabric
    bpe = fabric.hardware.bytes_per_element
    if not model.num_decoders:
        return x
    mha_bytes = decoder_mha_weight_bytes(model, bpe)
    ffn_bytes = decoder_ffn_weight_bytes(model, bpe)
    mha_load = _bundle_load_cycles(fabric, mha_bytes)
    ffn_load = _bundle_load_cycles(fabric, ffn_bytes)
    merged_load = _bundle_load_cycles(fabric, decoder_weight_bytes(model, bpe))
    prev_out: tuple[int, ...] = ()
    for i in range(model.num_decoders):
        group = f"dec{i + 1}"
        m_label, f_label = f"{group}m", f"{group}f"
        mark = b.mark()
        _load_op(b, m_label, mha_load, 0)
        m_end, out = _lower_decoder_layer(
            b, m_label, f_label, x, memory, ("decoders", i), t, s, model,
            parallel_heads, self_mask, memory_mask, prev_out,
            step_layer=i if step else None,
        )
        b.blocks.append(
            BlockIR(
                label=m_label,
                op_ids=tuple(range(mark, m_end)),
                load_cycles=mha_load,
                channel_hint=0,
                merge_group=group,
                merged_load_cycles=merged_load,
                load_bytes=mha_bytes,
            )
        )
        _load_op(b, f_label, ffn_load, 1)
        b.blocks.append(
            BlockIR(
                label=f_label,
                op_ids=tuple(range(m_end, b.mark())),
                load_cycles=ffn_load,
                channel_hint=1,
                overhead_override=0,
                merge_group=group,
                merged_load_cycles=merged_load,
                load_bytes=ffn_bytes,
            )
        )
        x = _opref(out)
        prev_out = (out,)
    return x


def _scope_full_pass(b, spec, t) -> dict:
    model, ph = spec.model, spec.parallel_heads
    x = b.ext("x", spec.s, model.d_model)
    memory = _lower_encoders(b, model, spec.s, ph, x, "enc_mask")
    out = _lower_decoders(
        b, model, t, spec.s, ph, b.ext("dec_in", t, model.d_model), memory,
        "dec_self_mask", "dec_memory_mask",
    )
    return {"encoder_output": memory, "decoder_output": out}


def _scope_encoder_stack(b, spec, t) -> dict:
    return {"output": _lower_encoders(
        b, spec.model, spec.s, spec.parallel_heads,
        b.ext("x", spec.s, spec.model.d_model), "enc_mask",
    )}


def _scope_decode_step(b, spec, t) -> dict:
    return {"output": _lower_decoders(
        b, spec.model, t, spec.s, spec.parallel_heads,
        b.ext("x", 1, spec.model.d_model), None,
        None, "memory_mask", step=True,
    )}


def _scope_encoder_layer(b, spec, t) -> dict:
    mark = b.mark()
    out = _lower_encoder_layer(
        b, "enc1", b.ext("x", spec.s, spec.model.d_model), (), spec.s,
        spec.model, spec.parallel_heads, "mask", (),
    )
    b.close_block("enc1", mark)
    return {"output": out}


def _scope_decoder_layer(b, spec, t) -> dict:
    m_end, out = _lower_decoder_layer(
        b, "dec1m", "dec1f", b.ext("x", t, spec.model.d_model),
        b.ext("memory", spec.s, spec.model.d_model), (), t, spec.s,
        spec.model, spec.parallel_heads, "self_mask", "memory_mask", (),
    )
    b.blocks.append(
        BlockIR("dec1m", tuple(range(m_end)), channel_hint=0, merge_group="dec1")
    )
    b.blocks.append(
        BlockIR("dec1f", tuple(range(m_end, b.mark())), channel_hint=1,
                overhead_override=0, merge_group="dec1")
    )
    return {"output": out}


_REFERENCE_SCOPES = {
    **_SCOPES,
    "full_pass": _scope_full_pass,
    "encoder_stack": _scope_encoder_stack,
    "decode_step": _scope_decode_step,
    "encoder_layer": _scope_encoder_layer,
    "decoder_layer": _scope_decoder_layer,
}


def reference_lower(spec: LoweringSpec) -> BlockProgram:
    """``lower(spec)`` op by op, uncached, with computed spans."""
    t = spec.s if spec.t is None else spec.t
    b = _Builder(spec.fabric)
    outputs = _REFERENCE_SCOPES[spec.scope](b, spec, t)
    return b.finish(
        outputs, kind=spec.scope, s=spec.s, t=t,
        parallel_heads=spec.parallel_heads, model=spec.model,
    )


def lowering_listing(program) -> str:
    """Every field of a lowered program, one line per record: ops (with
    their semantic, value refs, parameter paths and attributes in
    insertion order), blocks, outputs, meta, then the block and
    merge-group spans."""
    lines = []
    for op in program.ops:
        lines.append(repr((
            "op", op.op_id, op.kind.value, op.label, op.engines, op.cycles,
            op.deps, op.block, op.semantic,
            tuple((ref.kind, ref.key) for ref in op.inputs),
            tuple(ref.path for ref in op.params),
            tuple(op.attrs.items()),
        )))
    for blk in program.blocks:
        lines.append(repr((
            "block", blk.label, blk.op_ids, blk.load_cycles, blk.channel_hint,
            blk.overhead_override, blk.merge_group, blk.merged_load_cycles,
            blk.load_bytes,
        )))
    lines.append(repr((
        "outputs",
        tuple((name, ref.kind, ref.key) for name, ref in program.outputs.items()),
    )))
    lines.append(repr(("meta", tuple(program.meta.items()))))
    lines.append(repr(("block_spans", tuple(program.block_spans.items()))))
    lines.append(repr((
        "merge_group_spans", tuple(program.merge_group_spans.items())
    )))
    return "\n".join(lines) + "\n"

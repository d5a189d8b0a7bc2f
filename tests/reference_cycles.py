"""Closed-form cycle sums of the Fig 4.13 block schedule, kept as the
test oracle.

The lowered block program (:mod:`repro.hw.program`) is the one cycle
model of a block: every schedule, trace and executor reads a block's
compute cycles as its ASAP makespan (``BlockProgram.block_spans``).
These are the analytic estimators that once lived beside it in the
package, unchanged: the drift-lock tests pin every program's block
spans equal to them.

* Heads run in ``ceil(num_heads / parallel_heads)`` sequential waves.
* Within a head the three MM1s share one PSA group sequentially;
  ``B(K)`` overlaps ``MM1(Q)``; the scale + softmax of the attention
  scores overlap ``MM1(V)``.
* MM4/MM5/MM6 are spread across all eight PSAs of both SLRs.
* Add-Norm splits the residual add over both SLRs, then normalizes.
"""

from __future__ import annotations

from repro.hw.kernels import (
    Fabric,
    mm1_cycles,
    mm2_cycles,
    mm3_cycles,
    mm4_cycles,
    mm5_cycles,
    mm6_cycles,
)
from repro.hw.kv_cache import kv_stream_cycles
from repro.hw.systolic import ceil_div


def attention_head_cycles(
    fabric: Fabric,
    s_q: int,
    s_k: int,
    d_model: int,
    d_k: int,
    concurrent_psas: int = 1,
) -> int:
    """Latency of one attention head per the Fig 4.13 schedule."""
    units = fabric.units
    t_mm1_q = mm1_cycles(fabric, s_q, d_model, d_k, concurrent_psas)
    t_mm1_kv = mm1_cycles(fabric, s_k, d_model, d_k, concurrent_psas)
    sc_sm = units.scale_cycles(s_q, s_k) + units.softmax_cycles(s_q, s_k)
    return (
        t_mm1_kv  # MM1(K)
        + max(units.bias_cycles(s_k, d_k), t_mm1_q)  # B(K) || MM1(Q)
        + units.bias_cycles(s_q, d_k)  # B(Q)
        + mm2_cycles(fabric, s_q, s_k, d_k)
        + max(sc_sm, t_mm1_kv)  # Sc+Sm || MM1(V)
        + units.bias_cycles(s_k, d_k)  # B(V)
        + mm3_cycles(fabric, s_q, s_k, d_k)
    )


def mha_cycles(
    fabric: Fabric,
    s_q: int,
    s_k: int,
    num_heads: int,
    d_model: int,
    parallel_heads: int | None = None,
) -> int:
    """Latency of a full MHA block: head waves + MM4 + B_A."""
    total_psas = fabric.hardware.total_psas
    if parallel_heads is None:
        parallel_heads = min(num_heads, total_psas)
    if parallel_heads < 1 or parallel_heads > total_psas:
        raise ValueError(
            f"parallel_heads must be in [1, {total_psas}]; got {parallel_heads}"
        )
    concurrent_psas = max(total_psas // parallel_heads, 1)
    waves = ceil_div(num_heads, parallel_heads)
    d_k = d_model // num_heads
    head = attention_head_cycles(fabric, s_q, s_k, d_model, d_k, concurrent_psas)
    return (
        waves * head
        + mm4_cycles(fabric, s_q, num_heads, d_k, d_model)
        + fabric.units.bias_cycles(s_q, d_model)
    )


def ffn_cycles(fabric: Fabric, s: int, d_model: int, d_ff: int) -> int:
    """Latency of the FFN block (MM5 + bias/ReLU + MM6 + bias)."""
    units = fabric.units
    return (
        mm5_cycles(fabric, s, d_model, d_ff)
        + units.bias_cycles(s, d_ff)
        + units.relu_cycles(s, d_ff)
        + mm6_cycles(fabric, s, d_ff, d_model)
        + units.bias_cycles(s, d_model)
    )


def add_norm_cycles(fabric: Fabric, s: int, d_model: int) -> int:
    """Latency of the split-Add + Norm block."""
    add = fabric.units.bias_cycles(s, d_model // fabric.hardware.num_slrs)
    return add + fabric.units.add_norm_cycles(s, d_model)


def encoder_cycles(
    fabric: Fabric,
    s: int,
    num_heads: int,
    d_model: int,
    d_ff: int,
    parallel_heads: int | None = None,
) -> int:
    """Compute latency of one encoder layer."""
    return (
        mha_cycles(fabric, s, s, num_heads, d_model, parallel_heads)
        + add_norm_cycles(fabric, s, d_model)
        + ffn_cycles(fabric, s, d_model, d_ff)
        + add_norm_cycles(fabric, s, d_model)
    )


def decoder_cycles(
    fabric: Fabric,
    t: int,
    s: int,
    num_heads: int,
    d_model: int,
    d_ff: int,
    parallel_heads: int | None = None,
) -> tuple[int, int]:
    """Compute latency of one decoder layer as (mha_part, ffn_part).

    The split matches the Fig 4.11 load schedule: the M-MHA + cross MHA
    (with their Add-Norms) form the m-part; the FFN and its Add-Norm
    form the f-part.
    """
    mha_part = (
        mha_cycles(fabric, t, t, num_heads, d_model, parallel_heads)
        + add_norm_cycles(fabric, t, d_model)
        + mha_cycles(fabric, t, s, num_heads, d_model, parallel_heads)
        + add_norm_cycles(fabric, t, d_model)
    )
    ffn_part = ffn_cycles(fabric, t, d_model, d_ff) + add_norm_cycles(
        fabric, t, d_model
    )
    return mha_part, ffn_part


# ------------------------------------------------------ step variants
# Cycle estimators for one KV-cached decode step: a single query row
# (s_q = 1) attends over cached keys/values.  Self-attention projects
# and banks only the newest K/V row; cross-attention reuses the K/V
# projected once from the encoder memory and skips MM1(K)/MM1(V)
# entirely.  Streaming the cached rows out of their BRAM banks costs
# kv_stream_cycles per matrix (one 512-bit flit per cycle).
def attention_step_cycles(
    fabric: Fabric,
    t_keys: int,
    d_model: int,
    d_k: int,
    concurrent_psas: int = 1,
    project_kv: bool = True,
) -> int:
    """Latency of one attention head for a 1-row query over ``t_keys``
    cached keys (the Fig 4.13 schedule collapsed to s_q = 1)."""
    if t_keys <= 0:
        raise ValueError("t_keys must be positive")
    units = fabric.units
    t_mm1_q = mm1_cycles(fabric, 1, d_model, d_k, concurrent_psas)
    stream = kv_stream_cycles(t_keys, d_k)
    sc_sm = units.scale_cycles(1, t_keys) + units.softmax_cycles(1, t_keys)
    cycles = 0
    if project_kv:
        t_mm1_row = mm1_cycles(fabric, 1, d_model, d_k, concurrent_psas)
        cycles += t_mm1_row  # MM1(K row)
        cycles += max(units.bias_cycles(1, d_k), t_mm1_q)  # B(K) || MM1(Q)
    else:
        cycles += t_mm1_q  # MM1(Q) alone; K/V already banked
    cycles += units.bias_cycles(1, d_k)  # B(Q)
    cycles += stream + mm2_cycles(fabric, 1, t_keys, d_k)
    if project_kv:
        t_mm1_row = mm1_cycles(fabric, 1, d_model, d_k, concurrent_psas)
        cycles += max(sc_sm, t_mm1_row)  # Sc+Sm || MM1(V row)
        cycles += units.bias_cycles(1, d_k)  # B(V row)
    else:
        cycles += sc_sm
    cycles += stream + mm3_cycles(fabric, 1, t_keys, d_k)
    return cycles


def mha_step_cycles(
    fabric: Fabric,
    t_keys: int,
    num_heads: int,
    d_model: int,
    parallel_heads: int | None = None,
    project_kv: bool = True,
) -> int:
    """Latency of a full MHA block for one cached decode step."""
    total_psas = fabric.hardware.total_psas
    if parallel_heads is None:
        parallel_heads = min(num_heads, total_psas)
    if parallel_heads < 1 or parallel_heads > total_psas:
        raise ValueError(
            f"parallel_heads must be in [1, {total_psas}]; got {parallel_heads}"
        )
    concurrent_psas = max(total_psas // parallel_heads, 1)
    waves = ceil_div(num_heads, parallel_heads)
    d_k = d_model // num_heads
    head = attention_step_cycles(
        fabric, t_keys, d_model, d_k, concurrent_psas, project_kv
    )
    return (
        waves * head
        + mm4_cycles(fabric, 1, num_heads, d_k, d_model)
        + fabric.units.bias_cycles(1, d_model)
    )


def decoder_step_cycles(
    fabric: Fabric,
    t: int,
    s: int,
    num_heads: int,
    d_model: int,
    d_ff: int,
    parallel_heads: int | None = None,
) -> tuple[int, int]:
    """Compute latency of one decoder layer for the cached step at
    prefix length ``t`` over an ``s``-row memory, as (mha_part,
    ffn_part) — the same Fig 4.11 split as :func:`decoder_cycles`."""
    mha_part = (
        mha_step_cycles(fabric, t, num_heads, d_model, parallel_heads)
        + add_norm_cycles(fabric, 1, d_model)
        + mha_step_cycles(
            fabric, s, num_heads, d_model, parallel_heads, project_kv=False
        )
        + add_norm_cycles(fabric, 1, d_model)
    )
    ffn_part = ffn_cycles(fabric, 1, d_model, d_ff) + add_norm_cycles(
        fabric, 1, d_model
    )
    return mha_part, ffn_part

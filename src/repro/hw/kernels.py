"""Matrix-multiplication kernels MM1..MM6 (Section 4.4, Figs 4.3-4.7).

Every matmul of the Transformer is routed onto the eight PSAs using the
paper's stripe decompositions:

* **MM1** (s x 512)(512 x 64): Input1 column-striped / Input2 row-striped
  into eight 64-wide panels; eight partial products folded by an adder
  pipelined with the PSA (Fig 4.3).  Runs on *one* PSA (or ``c``
  concurrent PSAs in the design-space exploration of Table 5.3).
* **MM2/MM3** (s x 64)(64 x s), (s x s)(s x 64): small; padded up to the
  PSA tile and reusing a single PSA (Fig 4.4).
* **MM4** (s x 512)(512 x 512): head-striped over all eight PSAs across
  both SLRs (Fig 4.5).
* **MM5** (s x 512)(512 x 2048): inner dim split in two, output columns
  split across SLRs; all eight PSAs busy (Fig 4.6).
* **MM6** (s x 2048)(2048 x 512): inner dim split in four per SLR; SLR
  partials combined over the inter-SLR interconnect (Fig 4.7).

Each kernel has a functional product (``mmN_product``: fp32, hardware
accumulation order), which the program executor calls, and a cycle
formula (``mmN_cycles``), which the lowering prices each op with.  The
cycle formulas apply the fitted initiation-interval multipliers from
:class:`repro.config.CalibrationConfig` (attention class for MM1..MM4,
FFN class for MM5/MM6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Iterator

import numpy as np

from repro.config import CalibrationConfig, HardwareConfig
from repro.hw.adder import VectorAdder
from repro.hw.nonlinear import NonlinearUnits
from repro.hw.systolic import SystolicArray, ceil_div


@dataclass(frozen=True)
class Fabric:
    """The compute fabric shared by all kernels: PSAs, adders, units."""

    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)

    # Built once per fabric; equality and hashing use the fields only.
    @cached_property
    def psa(self) -> SystolicArray:
        return SystolicArray(self.hardware.psa_rows, self.hardware.psa_cols)

    @cached_property
    def adder(self) -> VectorAdder:
        return VectorAdder(width=self.hardware.adder_width)

    @cached_property
    def units(self) -> NonlinearUnits:
        return NonlinearUnits(lanes=self.hardware.psa_cols)

    # --------------------------------------------------------- timing
    def pass_cycles(self, l: int, m: int, n: int, ffn_class: bool = False) -> int:
        """One striped PSA pass with the fitted II multiplier applied."""
        ii = self.calibration.ffn_ii if ffn_class else self.calibration.attention_ii
        return int(round(self.psa.pass_cycles(l, m, n) * ii))

    @property
    def invocation_overhead(self) -> int:
        return self.calibration.invocation_overhead_cycles

    def isc_transfer_cycles(self, rows: int, cols: int) -> int:
        """Inter-SLR AXI-Stream transfer of a (rows x cols) fp32 panel.

        The stream moves one 512-bit flit (16 fp32 values) per cycle.
        """
        elements = rows * cols
        return ceil_div(elements, 16)


def matmul_dims(s: int, d_model: int = 512, d_k: int = 64, d_ff: int = 2048) -> dict[str, tuple[tuple[int, int], tuple[int, int], tuple[int, int]]]:
    """Table 4.2: (Input1, Input2, Output) shapes of MM1..MM6."""
    if s <= 0:
        raise ValueError("s must be positive")
    return {
        "MM1": ((s, d_model), (d_model, d_k), (s, d_k)),
        "MM2": ((s, d_k), (d_k, s), (s, s)),
        "MM3": ((s, s), (s, d_k), (s, d_k)),
        "MM4": ((s, d_model), (d_model, d_model), (s, d_model)),
        "MM5": ((s, d_model), (d_model, d_ff), (s, d_ff)),
        "MM6": ((s, d_ff), (d_ff, d_model), (s, d_model)),
    }


# --------------------------------------------------------------- cycles
# Pure cycle formulas, usable without data (the lowering prices every
# MATMUL op with these).
def mm1_cycles(
    fabric: Fabric, s: int, d_model: int, d_k: int, concurrent_psas: int = 1
) -> int:
    """Cycles of one MM1 invocation (Fig 4.3 stripe schedule)."""
    if concurrent_psas < 1:
        raise ValueError("concurrent_psas must be >= 1")
    stripe = fabric.hardware.psa_cols
    # A trailing partial stripe costs a full pass (the PSA streams the
    # same tile shape regardless), so round up.
    num_stripes = ceil_div(d_model, stripe)
    serial = ceil_div(num_stripes, concurrent_psas)
    return (
        serial * fabric.pass_cycles(s, stripe, d_k)
        + fabric.invocation_overhead
        + fabric.adder.accumulate_cycles(
            num_stripes, s, d_k, pipelined=fabric.hardware.pipelined_adders
        )
    )


def mm2_cycles(fabric: Fabric, s_q: int, s_k: int, d_k: int) -> int:
    """Cycles of MM2 = Q K^T with tile padding (Fig 4.4, top)."""
    padded_n = max(s_k, fabric.hardware.psa_cols)
    return fabric.pass_cycles(s_q, d_k, padded_n) + fabric.invocation_overhead


def mm3_cycles(fabric: Fabric, s_q: int, s_k: int, d_k: int) -> int:
    """Cycles of MM3 = Sm V with tile padding (Fig 4.4, bottom)."""
    padded_m = max(s_k, fabric.hardware.psa_cols)
    return fabric.pass_cycles(s_q, padded_m, d_k) + fabric.invocation_overhead


def mm4_cycles(fabric: Fabric, s: int, num_heads: int, d_k: int, d_out: int) -> int:
    """Cycles of the head-striped MM4 over all PSAs (Fig 4.5)."""
    waves = ceil_div(num_heads, fabric.hardware.total_psas)
    return (
        waves * fabric.pass_cycles(s, d_k, d_out)
        + fabric.invocation_overhead
        + fabric.adder.accumulate_cycles(
            num_heads, s, d_out, pipelined=fabric.hardware.pipelined_adders
        )
        + fabric.isc_transfer_cycles(s, d_out)
    )


def mm5_cycles(fabric: Fabric, s: int, d_model: int, d_ff: int) -> int:
    """Cycles of the SLR-split MM5 (Fig 4.6)."""
    num_products = 2 * 4
    waves = ceil_div(num_products, fabric.hardware.total_psas)
    mc = ceil_div(d_model, 2)
    nc = ceil_div(d_ff, 4)
    return (
        waves * fabric.pass_cycles(s, mc, nc, ffn_class=True)
        + fabric.invocation_overhead
        + fabric.adder.accumulate_cycles(
            2, s, nc, pipelined=fabric.hardware.pipelined_adders
        )
    )


def mm6_cycles(fabric: Fabric, s: int, d_ff: int, d_model: int) -> int:
    """Cycles of the SLR-split MM6 with the final ISC merge (Fig 4.7)."""
    num_products = 8
    waves = ceil_div(num_products, fabric.hardware.total_psas)
    mc = ceil_div(d_ff, 8)
    return (
        waves * fabric.pass_cycles(s, mc, d_model, ffn_class=True)
        + fabric.invocation_overhead
        + fabric.adder.accumulate_cycles(
            8, s, d_model, pipelined=fabric.hardware.pipelined_adders
        )
        + fabric.isc_transfer_cycles(s, d_model)
    )


# ------------------------------------------------------------ products
# The functional products of MM1..MM6, without cycle accounting (the
# program executor calls these directly).  Operands may carry leading
# axes that broadcast — a batch of sequences, a stack of heads.
# np.matmul makes one BLAS call per 2-D slice, with the same shape,
# pointer and strides as a 2-D call on that slice (so a 1-row slice
# keeps its gemv), and the partial products fold left in hardware
# order: stacking never changes a bit.
def _split_widths(total: int, parts: int) -> list[int]:
    """Chunk widths of ``np.array_split(range(total), parts)``."""
    q, r = divmod(total, parts)
    return [q + 1] * r + [q] * (parts - r)


def _stripe_widths(total: int, stripe: int) -> list[int]:
    """``stripe``-wide chunks of ``total``, the last one partial."""
    q, r = divmod(total, stripe)
    return [stripe] * q + ([r] if r else [])


def _runs(widths: list[int]) -> Iterator[tuple[int, int, int, int]]:
    """(start, stop, width, count) of each run of equal chunk widths."""
    start = 0
    for width, run in groupby(widths):
        count = len(list(run))
        yield start, start + width * count, width, count
        start += width * count


def _fold_chunks(x: np.ndarray, w: np.ndarray, widths: list[int]) -> np.ndarray:
    """Left fold, in chunk order, of ``x[..., c] @ w[..., c, :]`` over
    consecutive inner-dimension chunks ``c`` of the given widths.

    Each run of equal widths is one np.matmul over (chunk x leading
    axes) slices viewed in place.
    """
    partials: list[np.ndarray] = []
    for start, stop, width, count in _runs(widths):
        xs = x[..., start:stop].reshape(*x.shape[:-1], count, width)
        ws = w[..., start:stop, :].reshape(*w.shape[:-2], count, width, w.shape[-1])
        prod = np.matmul(xs.swapaxes(-2, -3), ws)
        partials.extend(prod[..., i, :, :] for i in range(count))
    return VectorAdder.accumulate(partials)


def mm1_product(fabric: Fabric, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """MM1's (..., s, d_model) @ (..., d_model, d_k) as the left fold of
    its 64-wide stripe products (a trailing partial stripe folds last)."""
    return _fold_chunks(x, w, _stripe_widths(x.shape[-1], fabric.hardware.psa_cols))


def mm2_product(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """MM2's scores Q @ K^T over any leading axes."""
    return np.matmul(q, np.swapaxes(k, -1, -2))


def mm3_product(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
    """MM3's context Sm @ V over any leading axes."""
    return np.matmul(attn, v)


def mm4_product(heads: np.ndarray, wo: np.ndarray) -> np.ndarray:
    """MM4 over head-stacked outputs ``(H, ..., s, d_k)``: head ``h``
    multiplies rows ``[h d_k, (h+1) d_k)`` of W_A, and the H partials
    fold left in head order."""
    num_heads, d_k = heads.shape[0], heads.shape[-1]
    panels = wo.reshape(num_heads, *(1,) * (heads.ndim - 3), d_k, wo.shape[-1])
    return VectorAdder.accumulate(list(np.matmul(heads, panels)))


def _split_inner_matmul(
    x: np.ndarray, w: np.ndarray, inner_split: int, col_split: int
) -> np.ndarray:
    """Shared MM5/MM6 product: split the inner dim ``inner_split`` ways
    and the output columns ``col_split`` ways (as ``np.array_split``
    would); each (chunk, column panel) pair maps to one PSA, and each
    panel folds its chunks left.  Equal-width panels share the chunk
    matmuls as one more leading axis."""
    m, n = w.shape
    inner = _split_widths(m, min(inner_split, m))
    panels: list[np.ndarray] = []
    for start, stop, width, count in _runs(_split_widths(n, min(col_split, n))):
        wp = w[:, start:stop].reshape(m, count, width).swapaxes(0, 1)
        fold = _fold_chunks(x[..., None, :, :], wp, inner)
        panels.extend(fold[..., i, :, :] for i in range(count))
    return np.concatenate(panels, axis=-1)


def mm5_product(x: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """MM5's product: two inner chunks x four column panels (Fig 4.6)."""
    return _split_inner_matmul(x, w1, inner_split=2, col_split=4)


def mm6_product(h: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """MM6's product: eight inner chunks, one column panel (Fig 4.7)."""
    return _split_inner_matmul(h, w2, inner_split=8, col_split=1)

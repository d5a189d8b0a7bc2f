"""The fabric's numeric datapath: the fp32 values its units produce.

The cycle side of every primitive and kernel — :class:`repro.hw.
systolic.SystolicArray`, :class:`repro.hw.adder.VectorAdder`,
:class:`repro.hw.nonlinear.NonlinearUnits` and the ``mmN_cycles``
formulas of :mod:`repro.hw.kernels` — imports no NumPy, so lowering,
scheduling and pricing never load it.  This module is the other half:

* the PSA product (:func:`psa_matmul`) and its cycle-stepped PE
  emulation (:func:`simulate_exact`, Algorithm 1 of the thesis);
* the vector adders' element-wise add and partial-product fold
  (:func:`vector_add`, :func:`accumulate`);
* the Sc, Sm, ReLU, bias and Add-Norm units;
* the MM1..MM6 stripe products and the weight panels the functional
  executor (:mod:`repro.hw.executor`) binds once per plan.
"""

from __future__ import annotations

from itertools import groupby
from math import prod
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.model.layernorm import layer_norm
from repro.model.masks import apply_mask
from repro.model.ops import MODEL_DTYPE, softmax

if TYPE_CHECKING:
    from repro.hw.kernels import Fabric
    from repro.hw.systolic import SystolicArray


# ---------------------------------------------------------------- PSA
def psa_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Functional PSA product in model precision (fp32 accumulate).

    The systolic array accumulates along ``k`` in order, which is
    exactly NumPy's contraction order for a single fp32 matmul, so
    the vectorized form is bit-identical to the exact emulation for
    the same dtype.
    """
    a = np.asarray(a, dtype=MODEL_DTYPE)
    b = np.asarray(b, dtype=MODEL_DTYPE)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("operands must be 2-D")
    if a.shape[1] != b.shape[0]:
        raise ValueError(
            f"inner dimensions differ: {a.shape} @ {b.shape}"
        )
    return a @ b


def simulate_exact(psa: SystolicArray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cycle-stepped emulation of the PE wavefront (slow; tests only).

    Implements the register-transfer behaviour of Algorithm 1: the
    ``a`` operands flow left-to-right across columns, the ``b``
    operands top-to-bottom across rows, and every PE performs one
    MAC per cycle into its ``c`` accumulator.  Output rows are
    produced ``psa.rows`` at a time; output columns ``psa.cols`` at a
    time.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("bad operand shapes for matmul")
    l, m = a.shape
    _, n = b.shape
    out = np.zeros((l, n), dtype=np.float64)
    for i0 in range(0, l, psa.rows):
        for j0 in range(0, n, psa.cols):
            rows = min(psa.rows, l - i0)
            cols = min(psa.cols, n - j0)
            _pass_exact(
                a[i0 : i0 + rows],
                b[:, j0 : j0 + cols],
                out[i0 : i0 + rows, j0 : j0 + cols],
            )
    return out


def _pass_exact(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """One wavefront pass over a (rows x m) x (m x cols) tile."""
    rows, m = a.shape
    _, cols = b.shape
    # PE (i, j) consumes a[i, k] and b[k, j] at cycle k + i + j (skewed
    # injection), accumulating into its own register.
    acc = np.zeros((rows, cols), dtype=np.float64)
    total_cycles = m + rows + cols  # streaming + fill/drain
    for cycle in range(total_cycles):
        for i in range(rows):
            for j in range(cols):
                k = cycle - i - j
                if 0 <= k < m:
                    acc[i, j] += a[i, k] * b[k, j]
    out[...] = acc


# ------------------------------------------------------ vector adders
def vector_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Functional element-wise add in model precision."""
    a = np.asarray(a, dtype=MODEL_DTYPE)
    b = np.asarray(b, dtype=MODEL_DTYPE)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def accumulate(partials: list[np.ndarray]) -> np.ndarray:
    """Left-fold a list of partial products (hardware add order)."""
    if not partials:
        raise ValueError("need at least one partial product")
    acc = np.asarray(partials[0], dtype=MODEL_DTYPE)
    for p in partials[1:]:
        acc = vector_add(acc, p)
    return acc


# ----------------------------------------------------- function units
def scale_scores(scores: np.ndarray, d_k: int) -> np.ndarray:
    """The Sc unit: divide attention scores by sqrt(d_k)."""
    if d_k <= 0:
        raise ValueError("d_k must be positive")
    return np.asarray(scores, dtype=MODEL_DTYPE) / np.sqrt(MODEL_DTYPE(d_k))


def softmax_unit(scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """The Sm unit: row-wise masked softmax in model precision (the
    mask applies in model precision, the softmax runs in float64)."""
    masked = apply_mask(np.asarray(scores, dtype=MODEL_DTYPE), mask)
    return softmax(masked, axis=-1).astype(MODEL_DTYPE)


def relu_unit(x: np.ndarray) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=MODEL_DTYPE), MODEL_DTYPE(0))


def bias_unit(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Broadcast bias add performed by the s x 64 vector adders."""
    x = np.asarray(x, dtype=MODEL_DTYPE)
    bias = np.asarray(bias, dtype=MODEL_DTYPE)
    if bias.shape != (x.shape[-1],):
        raise ValueError(
            f"bias must have shape ({x.shape[-1]},); got {bias.shape}"
        )
    return x + bias


def add_norm_unit(
    sublayer_out: np.ndarray,
    residual: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
) -> np.ndarray:
    """Residual add + layer norm, numerically matching the golden model."""
    a = np.asarray(sublayer_out, dtype=MODEL_DTYPE)
    r = np.asarray(residual, dtype=MODEL_DTYPE)
    if a.shape != r.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {r.shape}")
    return layer_norm(a + r, weight, bias).astype(MODEL_DTYPE)


# ------------------------------------------------------------ products
# The functional products of MM1..MM6, without cycle accounting (the
# program executor calls these directly; the cycle formulas are
# :mod:`repro.hw.kernels`).  Operands may carry leading
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


def _left_fold(partials: np.ndarray, axis: int) -> np.ndarray:
    """The partial products stacked on ``axis``, added in stack order
    (the hardware add order of :func:`accumulate`).

    NumPy reduces an axis that is not the innermost of its loop as a
    sequential left fold, but sums the innermost one pairwise.  In a
    C-ordered array the stacked axis is the innermost only when the
    axes after it hold one element; ``accumulate`` scans in order there.
    """
    partials = np.ascontiguousarray(partials, dtype=MODEL_DTYPE)
    if prod(partials.shape[axis % partials.ndim + 1:]) == 1:
        return np.take(np.add.accumulate(partials, axis=axis), -1, axis=axis)
    return np.add.reduce(partials, axis=axis)


def _chunk_panels(
    w: np.ndarray, widths: list[int]
) -> tuple[tuple[int, int, int, int, np.ndarray], ...]:
    """The weight side of a chunked fold: per run of equal chunk widths
    of the inner dimension, ``(start, stop, width, count)`` and the
    run's ``(..., count, width, n)`` panels, viewed in place in ``w``.
    The functional executor builds these once per bound plan."""
    return tuple(
        (
            start, stop, width, count,
            w[..., start:stop, :].reshape(*w.shape[:-2], count, width, w.shape[-1]),
        )
        for start, stop, width, count in _runs(widths)
    )


def _fold_panels(
    x: np.ndarray, panels: tuple[tuple[int, int, int, int, np.ndarray], ...]
) -> np.ndarray:
    """Left fold, in chunk order, of ``x[..., c] @ w[..., c, :]`` over
    the chunks ``c`` that ``panels`` (:func:`_chunk_panels`) cut.

    Each run of equal widths is one np.matmul over (chunk x leading
    axes) slices viewed in place; the runs' partials stack on one axis
    and fold in one reduction.
    """
    prods = [
        np.matmul(
            x[..., start:stop].reshape(*x.shape[:-1], count, width).swapaxes(-2, -3),
            ws,
        )
        for start, stop, width, count, ws in panels
    ]
    return _left_fold(
        np.concatenate(prods, axis=-3) if len(prods) > 1 else prods[0], axis=-3
    )


def mm1_panels(
    fabric: Fabric, w: np.ndarray
) -> tuple[tuple[int, int, int, int, np.ndarray], ...]:
    """MM1's 64-wide stripe panels of ``(..., d_model, d_k)`` weights
    (a trailing partial stripe folds last)."""
    return _chunk_panels(w, _stripe_widths(w.shape[-2], fabric.hardware.psa_cols))


def mm1_product(fabric: Fabric, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """MM1's (..., s, d_model) @ (..., d_model, d_k) as the left fold of
    its 64-wide stripe products (a trailing partial stripe folds last)."""
    return _fold_panels(x, mm1_panels(fabric, w))


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
    return mm4_fold(heads, mm4_panels(wo, num_heads, d_k, heads.ndim - 3))


def mm4_panels(wo: np.ndarray, num_heads: int, d_k: int, batch_rank: int) -> np.ndarray:
    """W_A cut into its ``num_heads`` row panels of ``d_k`` rows, a view
    shaped to broadcast over ``batch_rank`` leading batch axes."""
    return wo.reshape(num_heads, *(1,) * batch_rank, d_k, wo.shape[-1])


def mm4_fold(heads: np.ndarray, panels: np.ndarray) -> np.ndarray:
    """MM4 over :func:`mm4_panels`: one head-stacked matmul, folded
    left in head order."""
    return _left_fold(np.matmul(heads, panels), axis=0)


def split_panels(
    w: np.ndarray, inner_split: int, col_split: int
) -> tuple[tuple[int, tuple], ...]:
    """The weight side of the MM5/MM6 product: split the inner dim
    ``inner_split`` ways and the output columns ``col_split`` ways (as
    ``np.array_split`` would); each (chunk, column panel) pair maps to
    one PSA.  Per run of equal-width column panels: its panel count and
    the chunk panels (:func:`_chunk_panels`) its fold multiplies, which
    the panels share as one more leading axis.  All views of ``w``."""
    m, n = w.shape
    inner = _split_widths(m, min(inner_split, m))
    return tuple(
        (count, _chunk_panels(w[:, start:stop].reshape(m, count, width).swapaxes(0, 1), inner))
        for start, stop, width, count in _runs(_split_widths(n, min(col_split, n)))
    )


def split_product(x: np.ndarray, panels: tuple[tuple[int, tuple], ...]) -> np.ndarray:
    """The MM5/MM6 product over :func:`split_panels`: each column panel
    folds its inner chunks left, and the panels concatenate."""
    columns: list[np.ndarray] = []
    for count, chunks in panels:
        fold = _fold_panels(x[..., None, :, :], chunks)
        columns.extend(fold[..., i, :, :] for i in range(count))
    return np.concatenate(columns, axis=-1)


def mm5_product(x: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """MM5's product: two inner chunks x four column panels (Fig 4.6)."""
    return split_product(x, split_panels(w1, inner_split=2, col_split=4))


def mm6_product(h: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """MM6's product: eight inner chunks, one column panel (Fig 4.7)."""
    return split_product(h, split_panels(w2, inner_split=8, col_split=1))

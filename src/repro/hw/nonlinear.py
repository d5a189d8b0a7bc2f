"""Non-matmul function units: scale, softmax, ReLU, Add-Norm.

The paper schedules the scaling (Sc) and softmax (Sm) of the attention
scores in parallel with MM1(V) because ``t_Sc + t_Sm < t_MM1``
(Fig 4.13); ReLU rides on the MM5 output stream; the Add-Norm block is
executed as independent Add and Norm steps split over the two SLRs.
Each unit provides the functional result plus a cycle estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.layernorm import layer_norm
from repro.model.masks import apply_mask
from repro.model.ops import MODEL_DTYPE, softmax


@dataclass(frozen=True)
class NonlinearUnits:
    """Cycle parameters of the scalar/vector function units."""

    #: Lanes of the element-wise units (matches the PSA column width).
    lanes: int = 64
    #: Pipeline depth of the exponential approximation.
    exp_depth: int = 24
    #: Pipeline depth of divide / rsqrt.
    div_depth: int = 28

    def __post_init__(self) -> None:
        if self.lanes <= 0:
            raise ValueError("lanes must be positive")
        if self.exp_depth < 1 or self.div_depth < 1:
            raise ValueError("pipeline depths must be >= 1")

    def _stream_cycles(self, rows: int, cols: int, depth: int) -> int:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        chunks = rows * -(-cols // self.lanes)
        return chunks + depth

    def scale_cycles(self, rows: int, cols: int) -> int:
        """Multiply a (rows x cols) score matrix by 1/sqrt(d_k)."""
        return self._stream_cycles(rows, cols, self.div_depth)

    def softmax_cycles(self, rows: int, cols: int) -> int:
        """Row-wise softmax: max-scan, exp, sum-scan, divide (4 passes)."""
        return 4 * self._stream_cycles(rows, cols, self.exp_depth)

    def relu_cycles(self, rows: int, cols: int) -> int:
        return self._stream_cycles(rows, cols, 1)

    def bias_cycles(self, rows: int, cols: int) -> int:
        """Broadcast-add a (cols,) bias over a (rows x cols) matrix."""
        return self._stream_cycles(rows, cols, 1)

    def add_norm_cycles(self, rows: int, cols: int) -> int:
        """Residual add + layer norm (mean, var, normalize: 3 passes)."""
        return 4 * self._stream_cycles(rows, cols, self.div_depth)


# ------------------------------------------------------------ functional
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

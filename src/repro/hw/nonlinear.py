"""Non-matmul function units: scale, softmax, ReLU, Add-Norm.

The paper schedules the scaling (Sc) and softmax (Sm) of the attention
scores in parallel with MM1(V) because ``t_Sc + t_Sm < t_MM1``
(Fig 4.13); ReLU rides on the MM5 output stream; the Add-Norm block is
executed as independent Add and Norm steps split over the two SLRs.
This module holds each unit's cycle estimate; the functional results
are :mod:`repro.hw.datapath`'s.
"""

from __future__ import annotations

from dataclasses import dataclass


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

"""Partially unrolled systolic array (PSA) model — Section 4.4.

The accelerator's only compute primitive is a ``rows x cols`` (2 x 64 in
the paper) systolic array of MAC processing elements.  A full ``l x n``
array would produce an entire product matrix in Theta(m) time; the
*partially unrolled* variant computes ``rows`` product rows per pass,
trading parallelism for area (Algorithm 1 of the thesis).

This module is the array's cycle side: :meth:`SystolicArray.
pass_cycles` (calibration multipliers are applied one level up, in
:mod:`repro.hw.kernels`) and its resource counts.  Its functional side
is in :mod:`repro.hw.datapath`: :func:`~repro.hw.datapath.psa_matmul`,
the vectorized product the full-size simulator uses, and
:func:`~repro.hw.datapath.simulate_exact`, a literal cycle-stepped
emulation of the PE grid (wavefront dataflow) that the test suite
pins the vectorized model to.
"""

from __future__ import annotations

from dataclasses import dataclass


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative ints."""
    if b <= 0:
        raise ValueError("divisor must be positive")
    if a < 0:
        raise ValueError("dividend must be non-negative")
    return -(-a // b)


@dataclass(frozen=True)
class SystolicArray:
    """A ``rows x cols`` grid of multiply-accumulate PEs."""

    rows: int = 2
    cols: int = 64

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("rows and cols must be positive")

    # ----------------------------------------------------------- cycles
    def pass_cycles(self, l: int, m: int, n: int) -> int:
        """Structural cycles to compute an (l x m) @ (m x n) product.

        The array renders ``rows`` product rows and ``cols`` product
        columns per pass; each pass streams the ``m`` inner elements
        plus a (rows + cols) pipeline fill/drain.
        """
        if min(l, m, n) <= 0:
            raise ValueError("matrix dimensions must be positive")
        passes = ceil_div(l, self.rows) * ceil_div(n, self.cols)
        return passes * (m + self.rows + self.cols)

    # ------------------------------------------------------- resources
    @property
    def num_pes(self) -> int:
        """Multiply-accumulate processing elements in the grid."""
        return self.rows * self.cols

    def unroll_factor(self, full_rows: int) -> float:
        """Latency multiplier vs. a fully unrolled ``full_rows x cols``
        array (the paper quotes ~16x for 2 rows vs. a 32-row array)."""
        if full_rows <= 0:
            raise ValueError("full_rows must be positive")
        return ceil_div(full_rows, self.rows) / 1.0

"""Vector adders and the pipelined partial-product accumulator.

The design instantiates one ``s x 64`` vector adder per PSA (eight in
total).  They serve three duties (Section 4.6): bias addition inside
the linear layers, the residual Add of the Add-Norm blocks, and the
accumulation of the partial-product matrices produced by the striped
matmuls MM1/MM4/MM5/MM6.  Pipelining the accumulator with the PSA
reduces an 8-way accumulation from ``8 t_PSA + 7 t_ADD`` to
``8 t_PSA + t_ADD`` (Fig 4.3).  This module is the adders' cycle side;
the functional add and fold are :func:`repro.hw.datapath.vector_add`
and :func:`repro.hw.datapath.accumulate`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class VectorAdder:
    """A ``width``-lane floating-point vector adder."""

    width: int = 64
    #: Pipeline depth of one fp32 add (cycles before first result).
    pipeline_depth: int = 8

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")

    def add_cycles(self, rows: int, cols: int) -> int:
        """Cycles to add two (rows x cols) matrices element-wise.

        One row-chunk of ``width`` lanes per cycle, fully pipelined.
        """
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        chunks_per_row = -(-cols // self.width)
        return rows * chunks_per_row + self.pipeline_depth

    def accumulate_cycles(
        self, num_partials: int, rows: int, cols: int, pipelined: bool = True
    ) -> int:
        """Cycles to fold ``num_partials`` partial products.

        Pipelined behind the PSA that produces them, only the *last*
        addition is exposed — the Fig 4.3 optimization reducing
        ``8 t_PSA + 7 t_ADD`` to ``8 t_PSA + t_ADD``.  With
        ``pipelined=False`` every fold is exposed (the ablation
        baseline).
        """
        if num_partials < 1:
            raise ValueError("need at least one partial product")
        if num_partials == 1:
            return 0
        folds = 1 if pipelined else num_partials - 1
        return folds * self.add_cycles(rows, cols)

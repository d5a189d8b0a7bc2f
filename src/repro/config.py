"""Configuration objects shared across the library.

Three configuration layers mirror the paper's setup:

* :class:`ModelConfig` — the Transformer dimensions (ESPnet
  ``transformer_base``: 12 encoders, 6 decoders, d_model=512, 8 heads,
  d_ff=2048).
* :class:`HardwareConfig` — the accelerator fabric (Alveo U50: two SLRs,
  eight 2x64 partially-unrolled systolic arrays, 300 MHz, HBM channels).
* :class:`CalibrationConfig` — fitted timing constants that map the
  structural cycle model onto the paper's measured latencies (see
  DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the end-to-end ASR Transformer.

    Defaults reproduce the model deployed in the paper (Section 3.4).
    """

    d_model: int = 512
    num_heads: int = 8
    d_ff: int = 2048
    num_encoders: int = 12
    num_decoders: int = 6
    vocab_size: int = 31
    max_seq_len: int = 512
    #: Number of mel filterbank channels produced by the host frontend.
    feature_dim: int = 80

    def __post_init__(self) -> None:
        _require(self.d_model > 0, "d_model must be positive")
        _require(self.num_heads > 0, "num_heads must be positive")
        _require(
            self.d_model % self.num_heads == 0,
            f"d_model ({self.d_model}) must be divisible by "
            f"num_heads ({self.num_heads})",
        )
        _require(self.d_ff > 0, "d_ff must be positive")
        _require(self.num_encoders >= 0, "num_encoders must be >= 0")
        _require(self.num_decoders >= 0, "num_decoders must be >= 0")
        _require(self.vocab_size >= 2, "vocab_size must be >= 2")
        _require(self.max_seq_len > 0, "max_seq_len must be positive")
        _require(self.feature_dim > 0, "feature_dim must be positive")

    @property
    def d_k(self) -> int:
        """Per-head key/query/value dimension (d_model / h = 64)."""
        return self.d_model // self.num_heads

    def scaled(self, factor: int) -> "ModelConfig":
        """Return a proportionally smaller config (used for toy training)."""
        _require(factor >= 1, "factor must be >= 1")
        _require(self.d_model % factor == 0, "factor must divide d_model")
        return replace(
            self,
            d_model=self.d_model // factor,
            d_ff=self.d_ff // factor,
        )

    def with_depth(self, num_encoders: int, num_decoders: int) -> "ModelConfig":
        return replace(
            self, num_encoders=num_encoders, num_decoders=num_decoders
        )


#: Alveo U50 resource totals (Table 5.2 "Available Resources").
ALVEO_U50_RESOURCES: dict[str, int] = {
    "BRAM_18K": 2688,
    "DSP": 5952,
    "FF": 1743360,
    "LUT": 871680,
}


@dataclass(frozen=True)
class HardwareConfig:
    """Static description of the accelerator fabric.

    Defaults reproduce the design evaluated in the paper: eight 2x64
    partially-unrolled systolic arrays (PSAs) evenly split between the
    two Super Logic Regions of an Alveo U50, clocked at 300 MHz.
    """

    num_slrs: int = 2
    psas_per_slr: int = 4
    psa_rows: int = 2
    psa_cols: int = 64
    clock_mhz: float = 300.0
    #: HBM channels available to each SLR kernel for weight streaming.
    hbm_channels_per_slr: int = 2
    #: Effective sustained bandwidth of one HBM channel as seen by the
    #: M-AXI burst reader (GB/s).  Calibrated; the raw HBM2 channel peak
    #: is far higher but HLS burst inefficiency dominates.
    hbm_channel_gbps: float = 2.8232
    #: PCIe Gen3 x16 effective host->device bandwidth (GB/s).
    pcie_gbps: float = 12.0
    #: Bytes per weight element (fp32 single precision model).
    bytes_per_element: int = 4
    #: Width of the parallel vector adders (one s x 64 adder per PSA).
    adder_width: int = 64
    #: Pipeline the partial-product accumulators with the PSAs
    #: (Fig 4.3); False exposes every fold (ablation baseline).
    pipelined_adders: bool = True
    #: FPGA board power draw used by the energy model (W).
    board_power_w: float = 34.2
    resources: dict[str, int] = field(
        default_factory=lambda: dict(ALVEO_U50_RESOURCES)
    )

    def __post_init__(self) -> None:
        _require(self.num_slrs >= 1, "num_slrs must be >= 1")
        _require(self.psas_per_slr >= 1, "psas_per_slr must be >= 1")
        _require(self.psa_rows >= 1, "psa_rows must be >= 1")
        _require(self.psa_cols >= 1, "psa_cols must be >= 1")
        _require(self.clock_mhz > 0, "clock_mhz must be positive")
        _require(self.hbm_channels_per_slr >= 1, "need >= 1 HBM channel")
        _require(self.hbm_channel_gbps > 0, "hbm_channel_gbps must be > 0")
        _require(self.pcie_gbps > 0, "pcie_gbps must be > 0")
        _require(self.bytes_per_element in (1, 2, 4, 8), "unsupported precision")
        _require(self.adder_width >= 1, "adder_width must be >= 1")
        _require(self.board_power_w > 0, "board_power_w must be positive")
        # The generated frozen-dataclass hash chokes on the resources
        # dict; canonicalize it so configs stay usable as cache keys.
        # Consistent with the generated __eq__, which compares the dict
        # by value.  Hashed once: walking the fields on every lookup
        # costs more than the lookup.
        values = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, dict):
                value = tuple(sorted(value.items()))
            values.append(value)
        object.__setattr__(self, "_hash", hash(tuple(values)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # Rebuilt through ``__init__``, so the hash is recomputed: string
        # hashes differ between interpreters.
        return (HardwareConfig, tuple(getattr(self, f.name) for f in fields(self)))

    @property
    def total_psas(self) -> int:
        return self.num_slrs * self.psas_per_slr

    @property
    def cycle_ns(self) -> float:
        """Duration of one fabric clock cycle in nanoseconds."""
        return 1e3 / self.clock_mhz

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles * self.cycle_ns * 1e-6

    def ms_to_cycles(self, ms: float) -> float:
        return ms * 1e6 / self.cycle_ns


@dataclass(frozen=True)
class CalibrationConfig:
    """Fitted constants mapping the structural cycle model to hardware.

    A Vitis HLS design never achieves the textbook cycle count: the
    systolic arrays run at an effective initiation interval above one,
    BRAM ports are contended between the weight writer and the compute
    loops, and each kernel launch pays host/controller overhead.  These
    multipliers are fitted once against Table 5.1 of the paper by
    ``examples/fit_calibration.py`` and are then used unchanged for every
    other experiment.
    """

    #: Effective initiation-interval multiplier for the attention-side
    #: matmuls (MM1, MM2, MM3, MM4).
    attention_ii: float = 5.719
    #: Effective initiation-interval multiplier for the FFN matmuls
    #: (MM5, MM6), which stream much larger weight panels from BRAM.
    ffn_ii: float = 10.026
    #: Fixed cycles charged per PSA kernel invocation (HLS loop prologue,
    #: AXI handshakes, controller dispatch).
    invocation_overhead_cycles: int = 2037
    #: Fixed cycles of host/OpenCL orchestration per encoder/decoder block
    #: that cannot be overlapped with loads.
    block_overhead_cycles: int = 9578
    #: Multiplier >= 1 applied to raw HBM transfer time to model burst
    #: setup and address-generation gaps.
    load_efficiency: float = 1.18

    def __post_init__(self) -> None:
        _require(self.attention_ii >= 1.0, "attention_ii must be >= 1")
        _require(self.ffn_ii >= 1.0, "ffn_ii must be >= 1")
        _require(
            self.invocation_overhead_cycles >= 0,
            "invocation_overhead_cycles must be >= 0",
        )
        _require(
            self.block_overhead_cycles >= 0,
            "block_overhead_cycles must be >= 0",
        )
        _require(self.load_efficiency >= 1.0, "load_efficiency must be >= 1")


def default_model_config(**overrides: Any) -> ModelConfig:
    """The paper's model configuration, optionally overridden."""
    return replace(ModelConfig(), **overrides) if overrides else ModelConfig()


def default_hardware_config(**overrides: Any) -> HardwareConfig:
    """The paper's hardware configuration, optionally overridden."""
    return (
        replace(HardwareConfig(), **overrides) if overrides else HardwareConfig()
    )

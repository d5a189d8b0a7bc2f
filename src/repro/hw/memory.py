"""Memory-system models: HBM weight streaming, PCIe host transfers,
BRAM capacity accounting, and the data-free side of the decoder's
K/V cache banks (Sections 2.2.4, 4.1, 4.5, 5.1.6).

The host writes weights/inputs into HBM over PCIe Gen3 x16; each SLR
kernel then burst-reads weight panels from its HBM channels through
M-AXI.  Architecture A3 overlaps loads on two channels per kernel to
hide the communication latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import CalibrationConfig, HardwareConfig
from repro.hw.systolic import ceil_div

if TYPE_CHECKING:
    from repro.model.params import (
        AttentionParams,
        DecoderLayerParams,
        EncoderLayerParams,
        FeedForwardParams,
        LayerNormParams,
    )


@dataclass(frozen=True)
class HbmModel:
    """Sustained-bandwidth model of HBM weight streaming."""

    hardware: HardwareConfig
    calibration: CalibrationConfig

    def channel_bytes_per_cycle(self) -> float:
        """Effective bytes one HBM channel delivers per fabric cycle."""
        hw = self.hardware
        bytes_per_second = hw.hbm_channel_gbps * 1e9
        return bytes_per_second / (hw.clock_mhz * 1e6)

    def transfer_cycles(self, num_bytes: int, channels: int = 1) -> int:
        """Cycles to stream ``num_bytes`` over ``channels`` channels."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        if channels < 1:
            raise ValueError("channels must be >= 1")
        if num_bytes == 0:
            return 0
        raw = num_bytes / (channels * self.channel_bytes_per_cycle())
        return int(round(raw * self.calibration.load_efficiency))


@dataclass(frozen=True)
class PcieModel:
    """Host <-> device transfer model (PCIe Gen3 x16)."""

    hardware: HardwareConfig

    def transfer_seconds(self, num_bytes: int) -> float:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return num_bytes / (self.hardware.pcie_gbps * 1e9)

    def transfer_cycles(self, num_bytes: int) -> int:
        """Same transfer expressed in fabric cycles."""
        seconds = self.transfer_seconds(num_bytes)
        return int(round(seconds * self.hardware.clock_mhz * 1e6))


# -------------------------------------------------------------- weights
def attention_weight_elements(params: AttentionParams) -> int:
    """Float elements of one MHA block's weights (Q/K/V/A + biases)."""
    return params.num_elements


def ffn_weight_elements(params: FeedForwardParams) -> int:
    return params.num_elements


def layernorm_weight_elements(params: LayerNormParams) -> int:
    return params.num_elements


def encoder_load_bytes(layer: EncoderLayerParams, bytes_per_element: int = 4) -> int:
    """Bytes streamed from HBM for one encoder's weights."""
    return layer.num_elements * bytes_per_element


def decoder_mha_load_bytes(
    layer: DecoderLayerParams, bytes_per_element: int = 4
) -> int:
    """Bytes of the decoder's combined M-MHA + MHA weights (the
    ``LWi_m`` sub-load of Fig 4.11)."""
    elements = (
        layer.self_mha.num_elements
        + layer.norm1.num_elements
        + layer.cross_mha.num_elements
        + layer.norm2.num_elements
    )
    return elements * bytes_per_element


def decoder_ffn_load_bytes(
    layer: DecoderLayerParams, bytes_per_element: int = 4
) -> int:
    """Bytes of the decoder's FFN weights (the ``LWi_f`` sub-load)."""
    return (layer.ffn.num_elements + layer.norm3.num_elements) * bytes_per_element


def decoder_load_bytes(layer: DecoderLayerParams, bytes_per_element: int = 4) -> int:
    """Total bytes streamed for one decoder's weights."""
    return decoder_mha_load_bytes(layer, bytes_per_element) + decoder_ffn_load_bytes(
        layer, bytes_per_element
    )


# ---------------------------------------------------- analytic weights
# Byte counts derived from the model configuration alone, so latency
# sweeps never need instantiated weights.
def _attention_elements(cfg) -> int:
    h, d_model, d_k = cfg.num_heads, cfg.d_model, cfg.d_k
    return h * (3 * d_model * d_k + 3 * d_k) + d_model * d_model + d_model


def _ffn_elements(cfg) -> int:
    return 2 * cfg.d_model * cfg.d_ff + cfg.d_ff + cfg.d_model


def _norm_elements(cfg) -> int:
    return 2 * cfg.d_model


def encoder_weight_bytes(cfg, bytes_per_element: int = 4) -> int:
    """Bytes of one encoder layer's weights (MHA + 2 LN + FFN)."""
    return (
        _attention_elements(cfg) + 2 * _norm_elements(cfg) + _ffn_elements(cfg)
    ) * bytes_per_element


def encoder_mha_weight_bytes(cfg, bytes_per_element: int = 4) -> int:
    """Bytes of one encoder's MHA + Norm1 weights — the attention-side
    sub-bundle a load-staging pass can fetch ahead of the FFN panel
    (the encoder analogue of the decoder's ``LWi_m``)."""
    return (_attention_elements(cfg) + _norm_elements(cfg)) * bytes_per_element


def encoder_ffn_weight_bytes(cfg, bytes_per_element: int = 4) -> int:
    """Bytes of one encoder's FFN + Norm2 weights (the ``LWi_f``
    analogue); always ``encoder_weight_bytes - encoder_mha_weight_bytes``."""
    return (_ffn_elements(cfg) + _norm_elements(cfg)) * bytes_per_element


def decoder_mha_weight_bytes(cfg, bytes_per_element: int = 4) -> int:
    """Bytes of one decoder's M-MHA + cross-MHA weights (``LWi_m``)."""
    return (2 * _attention_elements(cfg) + 2 * _norm_elements(cfg)) * bytes_per_element


def decoder_ffn_weight_bytes(cfg, bytes_per_element: int = 4) -> int:
    """Bytes of one decoder's FFN weights (``LWi_f``)."""
    return (_ffn_elements(cfg) + _norm_elements(cfg)) * bytes_per_element


def decoder_weight_bytes(cfg, bytes_per_element: int = 4) -> int:
    return decoder_mha_weight_bytes(cfg, bytes_per_element) + decoder_ffn_weight_bytes(
        cfg, bytes_per_element
    )


@dataclass(frozen=True)
class BramModel:
    """BRAM_18K capacity accounting.

    One BRAM_18K block holds 18 Kib = 2.25 KiB.  The simulator checks
    that the double-buffered weight panels plus activation buffers fit
    the device; the paper's design streams weight *panels* (not whole
    encoder layers) so the working set stays modest.
    """

    hardware: HardwareConfig

    BYTES_PER_BRAM18K = 18 * 1024 // 8

    def blocks_for_bytes(self, num_bytes: int) -> int:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        return -(-num_bytes // self.BYTES_PER_BRAM18K)

    def capacity_bytes(self) -> int:
        return self.hardware.resources["BRAM_18K"] * self.BYTES_PER_BRAM18K

    def check_fits(self, num_bytes: int, what: str = "buffer") -> None:
        if num_bytes > self.capacity_bytes():
            raise ValueError(
                f"{what} needs {num_bytes} bytes but the device holds "
                f"only {self.capacity_bytes()} bytes of BRAM"
            )


# ------------------------------------------------------ K/V cache banks
# The data-free side of :mod:`repro.hw.kv_cache`: what streaming a bank
# costs and what the banks hold, for the lowering and the serving
# scheduler, which never build a live cache.
def kv_stream_cycles(t: int, d_k: int) -> int:
    """Cycles to stream ``t`` cached (d_k,) rows from a cache bank into
    the PSA: one 512-bit flit (16 fp32) per cycle."""
    if t < 0 or d_k <= 0:
        raise ValueError("t must be non-negative and d_k positive")
    if t == 0:
        return 0
    return ceil_div(t * d_k, 16)


def modeled_resident_bytes(config, s: int, t: int, bytes_per_element: int = 4) -> int:
    """Bytes a :class:`repro.hw.kv_cache.DecoderKVCache` holds at memory
    length ``s`` and prefix length ``t`` — the same arithmetic as its
    ``resident_bytes``, but data-free.

    Cross-attention K/V are fixed at ``(s, d_k)`` per head; the
    self-attention banks hold ``t`` rows.  The serving scheduler uses
    this as its cache-pressure admission signal without materializing
    caches (a test pins it against a live cache).
    """
    if s < 0 or t < 0:
        raise ValueError("s and t must be non-negative")
    d_k = config.d_model // config.num_heads
    per_layer = 2 * config.num_heads * d_k * (s + t) * bytes_per_element
    return config.num_decoders * per_layer

"""Fault injection: single-event upsets (SEUs) in the weight store.

FPGA deployments care about soft errors: a bit flip in an HBM-resident
or BRAM-staged weight silently corrupts every inference until the next
refresh.  This module flips chosen bits of the fp32 weight words and
measures the blast radius on the logits — exponent-field flips are
catastrophic, mantissa-tail flips vanish into the noise floor, which is
exactly the asymmetry scrubbing/ECC design trades on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.model.params import TransformerParams
from repro.model.transformer import Transformer


@dataclass(frozen=True)
class FaultSpec:
    """One injected bit flip."""

    #: Parameter path, e.g. "enc0.ffn.w1".
    target: str
    #: Flat element index within the target array.
    index: int
    #: Bit position within the fp32 word (0 = LSB .. 31 = sign).
    bit: int

    def __post_init__(self) -> None:
        if not 0 <= self.bit <= 31:
            raise ValueError("bit must be in [0, 31]")
        if self.index < 0:
            raise ValueError("index must be non-negative")


def _resolve(params: TransformerParams, path: str) -> np.ndarray:
    obj: object = params
    for part in path.split("."):
        if part.startswith("enc"):
            obj = params.encoders[int(part[3:])]
        elif part.startswith("dec"):
            obj = params.decoders[int(part[3:])]
        else:
            obj = getattr(obj, part)
    if not isinstance(obj, np.ndarray):
        raise ValueError(f"'{path}' does not name an array")
    return obj


def flip_bit(array: np.ndarray, index: int, bit: int) -> None:
    """Flip one bit of one fp32 element, in place."""
    if array.dtype != np.float32:
        raise ValueError("fault injection targets fp32 arrays")
    flat = array.reshape(-1)
    if not 0 <= index < flat.size:
        raise ValueError(f"index {index} out of range for size {flat.size}")
    word = flat[index : index + 1].view(np.uint32)
    word ^= np.uint32(1) << np.uint32(bit)


def inject_faults(
    params: TransformerParams, faults: list[FaultSpec]
) -> TransformerParams:
    """Deep-copy the parameters and apply the bit flips."""
    import copy

    corrupted = copy.deepcopy(params)
    for fault in faults:
        flip_bit(_resolve(corrupted, fault.target), fault.index, fault.bit)
    return corrupted


def _target_path(target: str) -> tuple:
    """Dotted fault target -> block-program ``ParamRef`` path, e.g.
    ``"enc0.ffn.w1"`` -> ``("encoders", 0, "ffn", "w1")``."""
    parts: list = []
    for part in target.split("."):
        if part.startswith("enc") and part[3:].isdigit():
            parts.extend(("encoders", int(part[3:])))
        elif part.startswith("dec") and part[3:].isdigit():
            parts.extend(("decoders", int(part[3:])))
        else:
            parts.append(part)
    return tuple(parts)


def program_fault_hook(faults: list[FaultSpec]):
    """Fault injection as a block-program transform.

    Returns a ``weight_hook`` for :func:`repro.hw.executor.
    execute_program`: every resolved parameter array whose path matches
    a fault target comes back with the requested bits flipped (on a
    copy — the clean parameters are never mutated).  The hook sees the
    whole array before any per-head slicing, so the flat element
    indices address the same layout :func:`inject_faults` targets.
    """
    by_path: dict[tuple, list[FaultSpec]] = {}
    for fault in faults:
        by_path.setdefault(_target_path(fault.target), []).append(fault)

    def hook(ref, array: np.ndarray) -> np.ndarray:
        hits = by_path.get(tuple(ref.path))
        if not hits:
            return array
        corrupted = np.array(array, copy=True)
        for fault in hits:
            flip_bit(corrupted, fault.index, fault.bit)
        return corrupted

    return hook


@dataclass(frozen=True)
class FaultImpact:
    """Logit divergence caused by one fault set."""

    faults: tuple[FaultSpec, ...]
    max_abs_logit_delta: float
    top1_flips: int
    produced_nonfinite: bool


def measure_impact(
    params: TransformerParams,
    faults: list[FaultSpec],
    s: int = 8,
    seed: int = 0,
) -> FaultImpact:
    """Compare clean vs faulted logits on a fixed random input."""
    cfg = params.config
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((s, cfg.d_model)).astype(np.float32)
    tokens = rng.integers(0, cfg.vocab_size, size=max(s // 2, 1))
    clean = Transformer(params).forward(feats, tokens)
    with np.errstate(invalid="ignore", over="ignore"):
        dirty = Transformer(inject_faults(params, faults)).forward(
            feats, tokens
        )
    finite = np.all(np.isfinite(dirty))
    delta = np.abs(
        dirty.astype(np.float64) - clean.astype(np.float64)
    )
    top1_flips = int(
        np.sum(np.argmax(dirty, axis=-1) != np.argmax(clean, axis=-1))
    )
    return FaultImpact(
        faults=tuple(faults),
        max_abs_logit_delta=float(delta.max()) if finite else float("inf"),
        top1_flips=top1_flips,
        produced_nonfinite=not finite,
    )


def random_fault(
    params: TransformerParams,
    rng: np.random.Generator,
    bit: int | None = None,
    target: str | None = None,
) -> FaultSpec:
    """Draw a random weight-bit fault."""
    if target is None:
        enc_or_dec = "enc" if (params.encoders and rng.random() < 0.5 or not params.decoders) else "dec"
        if enc_or_dec == "enc":
            layer = rng.integers(len(params.encoders))
            target = f"enc{layer}.ffn.w1"
        else:
            layer = rng.integers(len(params.decoders))
            target = f"dec{layer}.ffn.w1"
    array = _resolve(params, target)
    return FaultSpec(
        target=target,
        index=int(rng.integers(array.size)),
        bit=int(rng.integers(32)) if bit is None else bit,
    )

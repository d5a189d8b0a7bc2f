"""Per-layer K/V caches for autoregressive decode on the fabric.

The naive hardware decode loop re-runs the full padded decoder stack
for every emitted token — O(max_chars) passes at ``t = hw_seq_len``.
The cached path banks each decoder layer's self-attention keys/values
as they are produced and projects the cross-attention K/V *once* from
the (fixed) encoder memory, so step ``t`` only projects and attends
for the newest position (the incremental-state reuse of streaming
Transformer ASR and of FPGA attention accelerators that keep per-layer
projections resident).

The cache lives in on-chip BRAM banks next to the PSAs; feeding the
``t`` cached rows of one head into the array costs one 512-bit flit
(16 fp32 values) per cycle, which :func:`kv_stream_cycles` accounts.
All projections run through the :mod:`repro.hw.kernels` MM1 product so
the functional values match the full-prefix path row for row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hw.kernels import Fabric, mm1_cycles, mm1_product
from repro.hw.systolic import ceil_div
from repro.model.ops import MODEL_DTYPE
from repro.model.params import AttentionParams, TransformerParams
from repro.obs import metrics as obs_metrics


def kv_stream_cycles(t: int, d_k: int) -> int:
    """Cycles to stream ``t`` cached (d_k,) rows from a cache bank into
    the PSA: one 512-bit flit (16 fp32) per cycle."""
    if t < 0 or d_k <= 0:
        raise ValueError("t must be non-negative and d_k positive")
    if t == 0:
        return 0
    return ceil_div(t * d_k, 16)


def modeled_resident_bytes(config, s: int, t: int, bytes_per_element: int = 4) -> int:
    """Bytes a :class:`DecoderKVCache` holds at memory length ``s`` and
    prefix length ``t`` — the same arithmetic as
    :meth:`DecoderKVCache.resident_bytes`, but data-free.

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


@dataclass
class LayerKVCache:
    """Cached state of one decoder layer.

    Self-attention K/V grow one row per step; cross-attention K/V are
    projected once from the encoder memory and stay fixed.
    """

    #: Per-head (t, d_k) self-attention keys/values.
    self_k: list[np.ndarray] = field(default_factory=list)
    self_v: list[np.ndarray] = field(default_factory=list)
    #: Per-head (s, d_k) cross-attention keys/values.
    cross_k: list[np.ndarray] = field(default_factory=list)
    cross_v: list[np.ndarray] = field(default_factory=list)

    @staticmethod
    def _validate_append(bank: list[np.ndarray], head: int, row: np.ndarray, what: str) -> None:
        if not 0 <= head <= len(bank):
            raise ValueError(
                f"cannot append {what} row for head {head}: banks must be "
                f"appended in order and only {len(bank)} head bank(s) exist"
            )
        if row.ndim != 2 or row.shape[0] != 1:
            raise ValueError(
                f"{what} row must have shape (1, d_k); got {row.shape}"
            )
        if head < len(bank) and row.shape[1] != bank[head].shape[1]:
            raise ValueError(
                f"{what} row width {row.shape[1]} does not match head "
                f"{head}'s bank width {bank[head].shape[1]}"
            )

    def append_self_k(self, head: int, k_row: np.ndarray) -> None:
        """Bank this step's key row for one head (the program IR's
        ``cache_append_k`` op lands here)."""
        k_row = np.asarray(k_row)
        self._validate_append(self.self_k, head, k_row, "key")
        if head == len(self.self_k):
            self.self_k.append(k_row)
        else:
            self.self_k[head] = np.concatenate([self.self_k[head], k_row], axis=0)
        obs_metrics.registry().counter("repro.hw.kv_cache.appends").inc()

    def append_self_v(self, head: int, v_row: np.ndarray) -> None:
        """Bank this step's value row for one head."""
        v_row = np.asarray(v_row)
        self._validate_append(self.self_v, head, v_row, "value")
        if head == len(self.self_v):
            self.self_v.append(v_row)
        else:
            self.self_v[head] = np.concatenate([self.self_v[head], v_row], axis=0)
        obs_metrics.registry().counter("repro.hw.kv_cache.appends").inc()

    def append_self(self, head: int, k_row: np.ndarray, v_row: np.ndarray) -> None:
        """Bank this step's K/V row for one head."""
        self.append_self_k(head, k_row)
        self.append_self_v(head, v_row)

    def rewind(self, length: int) -> None:
        """Drop cached self-attention rows beyond ``length``."""
        self.self_k = [k[:length] for k in self.self_k]
        self.self_v = [v[:length] for v in self.self_v]


class _StackedBank:
    """Read view that presents one head's bank across a batch of
    member caches as a single stacked ``(B, t, d_k)`` array."""

    def __init__(self, members: list[LayerKVCache], which: str) -> None:
        self._members = members
        self._which = which

    def __len__(self) -> int:
        return min(len(getattr(m, self._which)) for m in self._members)

    def __getitem__(self, head: int) -> np.ndarray:
        return np.stack([getattr(m, self._which)[head] for m in self._members])


class BatchedLayerKVCache:
    """Batch adapter over one decoder layer's caches across sessions.

    The program executor is batch-agnostic: it reads
    ``caches[layer].self_k[head]`` and calls ``append_self_k(head, row)``
    without caring about leading dimensions.  This adapter makes a group
    of per-session :class:`LayerKVCache` objects look like one cache
    whose banks carry a leading batch axis — reads stack the members'
    ``(t, d_k)`` banks into ``(B, t, d_k)`` (every member must therefore
    sit at the same prefix length; ``np.stack`` enforces it), and
    appends split the executor's ``(B, 1, d_k)`` rows back out to the
    members, so the underlying per-session caches stay bit-identical to
    what individual :meth:`~repro.hw.controller.AcceleratorController.
    run_decoder_step` calls would have banked.
    """

    def __init__(self, members: list[LayerKVCache]) -> None:
        if not members:
            raise ValueError("need at least one member cache")
        self.members = list(members)

    @property
    def self_k(self) -> _StackedBank:
        return _StackedBank(self.members, "self_k")

    @property
    def self_v(self) -> _StackedBank:
        return _StackedBank(self.members, "self_v")

    @property
    def cross_k(self) -> _StackedBank:
        return _StackedBank(self.members, "cross_k")

    @property
    def cross_v(self) -> _StackedBank:
        return _StackedBank(self.members, "cross_v")

    def _split_rows(self, rows: np.ndarray, what: str) -> np.ndarray:
        rows = np.asarray(rows)
        if rows.ndim != 3 or rows.shape[0] != len(self.members) or rows.shape[1] != 1:
            raise ValueError(
                f"batched {what} rows must have shape ({len(self.members)}, 1, d_k); "
                f"got {rows.shape}"
            )
        return rows

    def append_self_k(self, head: int, k_rows: np.ndarray) -> None:
        for member, row in zip(self.members, self._split_rows(k_rows, "key")):
            member.append_self_k(head, row)

    def append_self_v(self, head: int, v_rows: np.ndarray) -> None:
        for member, row in zip(self.members, self._split_rows(v_rows, "value")):
            member.append_self_v(head, row)


def project_cross_kv(
    fabric: Fabric,
    memory: np.ndarray,
    params: AttentionParams,
    concurrent_psas: int = 1,
) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Project the cross-attention K/V of every head from the memory.

    Runs the same head-stacked MM1 + bias as the decoder's program
    executor — one MM1 call over all heads for K and one for V — so
    the cached values are identical to what a per-step recomputation
    would produce.  Returns (keys, values, cycles); the cycles are the
    one-time prefill cost of filling the cache: per head, two MM1
    passes and two bias adds.
    """
    memory = np.asarray(memory, dtype=MODEL_DTYPE)

    def project(w: np.ndarray, b: np.ndarray) -> np.ndarray:
        w, b = np.asarray(w, MODEL_DTYPE), np.asarray(b, MODEL_DTYPE)
        return mm1_product(fabric, memory, w) + b[:, None, :]

    keys, values = project(params.wk, params.bk), project(params.wv, params.bv)
    s, d_model = memory.shape
    d_k = keys.shape[-1]
    cycles = params.num_heads * 2 * (
        mm1_cycles(fabric, s, d_model, d_k, concurrent_psas)
        + fabric.units.bias_cycles(s, d_k)
    )
    return list(keys), list(values), cycles


class DecoderKVCache:
    """K/V caches of the whole decoder stack for one utterance.

    Built once per utterance from the (padded) encoder memory; the
    cross-attention projections happen at construction, the
    self-attention rows accumulate as :meth:`repro.hw.controller.
    AcceleratorController.run_decoder_step` feeds tokens.
    """

    def __init__(
        self,
        fabric: Fabric,
        params: TransformerParams,
        memory: np.ndarray,
        concurrent_psas: int = 1,
    ) -> None:
        memory = np.asarray(memory)
        d_model = params.config.d_model
        if memory.ndim != 2 or memory.shape[1] != d_model:
            raise ValueError(
                f"memory must be (s, {d_model}); got {memory.shape}"
            )
        self.memory_len = memory.shape[0]
        self.layers = [LayerKVCache() for _ in params.decoders]
        self.prefill_cycles = 0
        for layer, cache in zip(params.decoders, self.layers):
            cache.cross_k, cache.cross_v, cyc = project_cross_kv(
                fabric, memory, layer.cross_mha, concurrent_psas
            )
            self.prefill_cycles += cyc
        self._length = 0
        reg = obs_metrics.registry()
        if reg.enabled:
            reg.counter("repro.hw.kv_cache.prefills").inc()
            reg.gauge("repro.hw.kv_cache.resident_bytes").set(self.resident_bytes())

    @property
    def length(self) -> int:
        """Decoder positions banked so far."""
        return self._length

    def resident_bytes(self) -> int:
        """Bytes currently held in the BRAM cache banks (self + cross)."""
        total = 0
        for cache in self.layers:
            for bank in (cache.self_k, cache.self_v, cache.cross_k, cache.cross_v):
                total += sum(arr.nbytes for arr in bank)
        return total

    def advance(self) -> None:
        """Record that one position's K/V rows were banked everywhere."""
        self._length += 1
        reg = obs_metrics.registry()
        if reg.enabled:
            reg.gauge("repro.hw.kv_cache.resident_bytes").set(self.resident_bytes())

    def rewind(self, length: int) -> None:
        """Truncate all self-attention caches back to ``length``
        positions (beam search branching to a shorter shared prefix)."""
        if length < 0 or length > self._length:
            raise ValueError(
                f"cannot rewind to {length}; cache holds {self._length}"
            )
        if length == self._length:
            return
        for cache in self.layers:
            cache.rewind(length)
        self._length = length
        reg = obs_metrics.registry()
        if reg.enabled:
            reg.counter("repro.hw.kv_cache.rewinds").inc()
            reg.gauge("repro.hw.kv_cache.resident_bytes").set(self.resident_bytes())


def batch_layer_caches(caches: list[DecoderKVCache]) -> list[BatchedLayerKVCache]:
    """Zip whole-stack caches of a step group into per-layer adapters.

    Every member must sit at the same prefix length and memory length —
    a batched decode step runs one program for the whole group, so the
    group must be shape-homogeneous (the scheduler groups by ``t``).
    """
    if not caches:
        raise ValueError("need at least one cache to batch")
    first = caches[0]
    for cache in caches[1:]:
        if len(cache.layers) != len(first.layers):
            raise ValueError("caches span different decoder depths")
        if cache.length != first.length:
            raise ValueError(
                "all caches in a batched step must share the prefix length; "
                f"got {cache.length} vs {first.length}"
            )
        if cache.memory_len != first.memory_len:
            raise ValueError("caches span different memory lengths")
    return [
        BatchedLayerKVCache([cache.layers[i] for cache in caches])
        for i in range(len(first.layers))
    ]

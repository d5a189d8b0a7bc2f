"""Top-level controller (Fig 4.12): orchestrates the encoder and
decoder stacks on the fabric, schedules weight loads against computes,
and produces latency reports.

Two entry points:

* :class:`LatencyModel` — the data-free cycle model.  Given the model
  and hardware configurations it builds the per-block load/compute
  durations and runs the A1/A2/A3 schedulers (Tables 5.1/5.3,
  Fig 5.2).
* :class:`AcceleratorController` — the functional simulator.  It runs
  the actual fp32 dataflow through the same lowered block programs
  (so the same cycle numbers fall out) and returns outputs plus a
  :class:`LatencyReport`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.kernels import Fabric
from repro.hw.kv_cache import DecoderKVCache, batch_layer_caches
from repro.hw.memory import (
    HbmModel,
    PcieModel,
    decoder_ffn_weight_bytes,
    decoder_mha_weight_bytes,
    decoder_weight_bytes,
    encoder_weight_bytes,
)
from repro.hw.program import (
    BlockProgram,
    LoweringSpec,
    execute_program,
    lower,
    lower_decode_step,
    lower_full_pass,
    program_block_work,
)
from repro.hw.scheduler import Architecture, BlockWork, ScheduleResult, schedule
from repro.model.params import TransformerParams
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans


@dataclass(frozen=True)
class LatencyReport:
    """Latency of one end-to-end pass through the accelerator."""

    architecture: Architecture
    #: Fabric cycles spent in the scheduled load/compute chain.
    schedule_cycles: int
    #: Cycles to stream the (s x d_model) input from host to device.
    input_transfer_cycles: int
    #: Cycles to write the final (s x d_model) result back to the host.
    output_transfer_cycles: int
    clock_mhz: float
    schedule: ScheduleResult
    details: dict[str, float] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return (
            self.input_transfer_cycles
            + self.schedule_cycles
            + self.output_transfer_cycles
        )

    @property
    def latency_ms(self) -> float:
        return self.total_cycles / (self.clock_mhz * 1e3)

    @property
    def latency_s(self) -> float:
        return self.latency_ms / 1e3


class LatencyModel:
    """Data-free cycle model of the full accelerator."""

    def __init__(
        self,
        model: ModelConfig | None = None,
        hardware: HardwareConfig | None = None,
        calibration: CalibrationConfig | None = None,
        parallel_heads: int | None = None,
    ) -> None:
        self.model = model or ModelConfig()
        self.hardware = hardware or HardwareConfig()
        self.calibration = calibration or CalibrationConfig()
        self.fabric = Fabric(self.hardware, self.calibration)
        self.parallel_heads = parallel_heads
        self._hbm = HbmModel(self.hardware, self.calibration)
        self._pcie = PcieModel(self.hardware)

    # ----------------------------------------------------------- loads
    def _load_cycles(self, num_bytes: int) -> int:
        """Cycles to stream one weight bundle: each SLR kernel pulls its
        half from one HBM channel, so the two halves move in parallel."""
        return self._hbm.transfer_cycles(num_bytes, channels=self.hardware.num_slrs)

    def encoder_load_cycles(self) -> int:
        bpe = self.hardware.bytes_per_element
        return self._load_cycles(encoder_weight_bytes(self.model, bpe))

    def decoder_load_cycles(self) -> int:
        bpe = self.hardware.bytes_per_element
        return self._load_cycles(decoder_weight_bytes(self.model, bpe))

    def decoder_part_load_cycles(self) -> tuple[int, int]:
        bpe = self.hardware.bytes_per_element
        return (
            self._load_cycles(decoder_mha_weight_bytes(self.model, bpe)),
            self._load_cycles(decoder_ffn_weight_bytes(self.model, bpe)),
        )

    # --------------------------------------------------------- compute
    # Block compute cycles are the ASAP makespans of the (cached)
    # lowered programs: the same numbers every schedule and trace use.
    def encoder_compute_cycles(self, s: int) -> int:
        """Compute cycles of one encoder layer at sequence length s."""
        return self._layer_program("encoder_layer", s).block_spans["enc1"]

    def decoder_compute_cycles(self, s: int, t: int | None = None) -> tuple[int, int]:
        """(mha_part, ffn_part) cycles of one decoder layer: ``t`` query
        rows (default ``s``) over an ``s``-row memory (Fig 4.11 split)."""
        spans = self._layer_program("decoder_layer", s, t).block_spans
        return spans["dec1m"], spans["dec1f"]

    def decoder_step_compute_cycles(self, t: int, s: int) -> tuple[int, int]:
        """(mha_part, ffn_part) cycles of one decoder layer for the
        KV-cached step at prefix length ``t`` over an ``s``-row memory."""
        spans = self.decode_step_program(t, s).block_spans
        return spans["dec1m"], spans["dec1f"]

    def _layer_program(self, scope: str, s: int, t: int | None = None) -> BlockProgram:
        return lower(LoweringSpec(
            scope, self.model, self.fabric, s, t, self.parallel_heads
        ))

    def mha_ffn_load_compute(self, s: int) -> tuple[float, float]:
        """Load and compute time (ms) of one MHA + FFN block — the
        quantities plotted in Fig 5.2."""
        load = self.encoder_load_cycles()
        compute = self.encoder_compute_cycles(s)
        return (
            self.hardware.cycles_to_ms(load),
            self.hardware.cycles_to_ms(compute),
        )

    def crossover_sequence_length(self, max_s: int = 128) -> int:
        """Smallest s at which encoder compute exceeds its load (the
        paper observes s > 18).

        The load does not depend on s and the compute does not shrink
        as s grows, so "compute exceeds load" is monotone in s and a
        bisection finds the first s, lowering ~log2(max_s) layers
        instead of every one up to the crossover."""

        def crossed(s: int) -> bool:
            load, compute = self.mha_ffn_load_compute(s)
            return compute > load

        first = bisect.bisect_left(range(1, max_s + 1), True, key=crossed) + 1
        if first > max_s:
            raise ValueError(f"no crossover found up to s={max_s}")
        return first

    # -------------------------------------------------------- programs
    def full_pass_program(self, s: int, t: int | None = None) -> BlockProgram:
        """The lowered block program of one full encoder/decoder pass
        (cached; the same lowering feeds blocks, schedules and traces)."""
        return lower_full_pass(self.model, self.fabric, s, t, self.parallel_heads)

    def decode_step_program(self, t: int, s: int) -> BlockProgram:
        """The lowered block program of one KV-cached decode step."""
        return lower_decode_step(self.model, self.fabric, t, s, self.parallel_heads)

    # --------------------------------------------------------- blocks
    def build_blocks(
        self, s: int, architecture: Architecture | str, t: int | None = None
    ) -> list[BlockWork]:
        """Per-block load/compute work items for one architecture,
        derived from the block program.

        Encoders are single units.  Under A3 each decoder splits into
        its MHA part (HBM channel 0) and FFN part (channel 1), per
        Fig 4.11; under A1/A2 a decoder is one unit.
        """
        return program_block_work(self.full_pass_program(s, t), architecture)

    # ---------------------------------------------------------- report
    def io_transfer_cycles(self, s: int) -> tuple[int, int]:
        """(input, output) transfer cycles for the (s x d_model) fp32
        activations crossing PCIe + HBM."""
        bpe = self.hardware.bytes_per_element
        num_bytes = s * self.model.d_model * bpe
        pcie = self._pcie.transfer_cycles(num_bytes)
        hbm = self._hbm.transfer_cycles(num_bytes, channels=1)
        return pcie + hbm, pcie + hbm

    def latency_report(
        self, s: int, architecture: Architecture | str = Architecture.A3
    ) -> LatencyReport:
        """Predicted end-to-end accelerator latency at sequence length s."""
        if s <= 0:
            raise ValueError("s must be positive")
        arch = Architecture(architecture)
        program = self.full_pass_program(s)
        blocks = program_block_work(program, arch)
        result = schedule(arch, blocks, self.calibration.block_overhead_cycles)
        t_in, t_out = self.io_transfer_cycles(s)
        spans = program.block_spans
        return LatencyReport(
            architecture=arch,
            schedule_cycles=result.total_cycles,
            input_transfer_cycles=t_in,
            output_transfer_cycles=t_out,
            clock_mhz=self.hardware.clock_mhz,
            schedule=result,
            details={
                "encoder_load_cycles": self.encoder_load_cycles(),
                "encoder_compute_cycles": spans.get("enc1", 0),
                "decoder_load_cycles": self.decoder_load_cycles(),
                "decoder_compute_cycles": (
                    spans.get("dec1m", 0) + spans.get("dec1f", 0)
                ),
                "stall_cycles": result.stall_cycles,
            },
        )

    def latency_ms(
        self, s: int, architecture: Architecture | str = Architecture.A3
    ) -> float:
        return self.latency_report(s, architecture).latency_ms

    # ------------------------------------------------- autoregressive
    def build_decode_step_blocks(
        self,
        t: int,
        s: int,
        architecture: Architecture | str = Architecture.A3,
    ) -> list[BlockWork]:
        """Decoder-only block chain for one KV-cached decode step at
        prefix length ``t``.  The encoder ran at prefill; each step
        still streams every decoder's weights (the device buffers hold
        one block's panels at a time), but computes only a 1-row query.
        """
        if t <= 0 or s <= 0:
            raise ValueError("t and s must be positive")
        return program_block_work(self.decode_step_program(t, s), architecture)

    def decode_step_cycles(
        self,
        t: int,
        s: int,
        architecture: Architecture | str = Architecture.A3,
    ) -> int:
        """Scheduled cycles of one stand-alone KV-cached decode step
        (weight loads overlapped per the architecture, plus the 1-row
        host I/O)."""
        arch = Architecture(architecture)
        blocks = self.build_decode_step_blocks(t, s, arch)
        result = schedule(arch, blocks, self.calibration.block_overhead_cycles)
        t_in, t_out = self.io_transfer_cycles(1)
        return result.total_cycles + t_in + t_out

    def decode_iteration_cycles(
        self,
        prefix_lengths: Sequence[int],
        s: int,
        architecture: Architecture | str = Architecture.A3,
        share_weights: bool = True,
    ) -> int:
        """Scheduled cycles of one continuous-batching decode iteration.

        Each member of the batch advances one KV-cached step at its own
        prefix length.  With ``share_weights`` (the serving default) the
        decoder weight panels are streamed from HBM once per iteration
        and every member's 1-row query computes against the resident
        panels — the load amortizes across the batch, which is exactly
        the continuous-batching win.  Without it, each member re-streams
        every panel (the back-to-back chain of
        :meth:`autoregressive_report`).  Per-member host I/O (token in,
        log-probs out) is charged either way.
        """
        lengths = [int(t) for t in prefix_lengths]
        if not lengths:
            raise ValueError("prefix_lengths must be non-empty")
        if any(t <= 0 for t in lengths):
            raise ValueError("prefix lengths must be positive")
        arch = Architecture(architecture)
        chain: list[BlockWork] = []
        for i, t in enumerate(lengths):
            for b in self.build_decode_step_blocks(t, s, arch):
                load = b.load_cycles if (i == 0 or not share_weights) else 0
                chain.append(
                    BlockWork(
                        f"r{i}:{b.label}",
                        load,
                        b.compute_cycles,
                        channel_hint=b.channel_hint,
                        overhead_override=b.overhead_override,
                    )
                )
        result = schedule(arch, chain, self.calibration.block_overhead_cycles)
        t_in, t_out = self.io_transfer_cycles(1)
        return result.total_cycles + (t_in + t_out) * len(lengths)

    def per_member_cycle_shares(
        self,
        prefix_lengths: Sequence[int],
        s: int,
        architecture: Architecture | str = Architecture.A3,
        share_weights: bool = True,
    ) -> list[int]:
        """Exact per-member attribution of one decode iteration's
        cycles — the companion of :meth:`decode_iteration_cycles`.

        The scheduled iteration total charges the whole shared weight
        stream to member 0's blocks (an artifact of how the shared
        chain is built, not a statement of who owes what), so any
        per-request cost readout needs this split instead: each member
        is weighted by its stand-alone step cost
        (:meth:`decode_step_cycles` at its prefix length) and the total
        divides by largest-remainder integer apportionment
        (:func:`repro.obs.costs.largest_remainder_split`).  The shares
        sum *exactly* to ``decode_iteration_cycles(...)`` — no float
        drift — and with ``share_weights`` each member's share is
        strictly below its solo cost: the amortization win, per member.
        """
        # Local import: the hw layer stays importable without obs; the
        # split helper lives there because the serving ledger is its
        # main consumer.
        from repro.obs.costs import largest_remainder_split

        lengths = [int(t) for t in prefix_lengths]
        total = self.decode_iteration_cycles(
            lengths, s, architecture, share_weights=share_weights
        )
        arch = Architecture(architecture)
        weights = [self.decode_step_cycles(t, s, arch) for t in lengths]
        return largest_remainder_split(total, weights)

    def autoregressive_report(
        self,
        num_tokens: int,
        s: int,
        architecture: Architecture | str = Architecture.A3,
    ) -> LatencyReport:
        """Latency of decoding ``num_tokens`` positions step by step
        through the KV-cached decoder path.

        The steps run back to back, so the scheduler overlaps one
        step's tail loads with the next step's computes exactly as it
        does within a single pass.  ``details`` carries the full
        autoregressive account (per-step first/last, mean per token,
        total, steady-state tokens/s) so the report round-trips it.
        """
        if num_tokens <= 0:
            raise ValueError("num_tokens must be positive")
        if s <= 0:
            raise ValueError("s must be positive")
        arch = Architecture(architecture)
        chain: list[BlockWork] = []
        for step in range(1, num_tokens + 1):
            chain.extend(
                replace(b, label=f"t{step}:{b.label}")
                for b in self.build_decode_step_blocks(step, s, arch)
            )
        result = schedule(arch, chain, self.calibration.block_overhead_cycles)
        t_in, t_out = self.io_transfer_cycles(1)
        first = self.decode_step_cycles(1, s, arch)
        last = self.decode_step_cycles(num_tokens, s, arch)
        io_cycles = (t_in + t_out) * num_tokens
        total = result.total_cycles + io_cycles
        if num_tokens > 1:
            spacing = (total - first) / (num_tokens - 1)
        else:
            spacing = float(total)
        tokens_per_s = (self.hardware.clock_mhz * 1e6) / spacing
        return LatencyReport(
            architecture=arch,
            schedule_cycles=result.total_cycles,
            input_transfer_cycles=t_in * num_tokens,
            output_transfer_cycles=t_out * num_tokens,
            clock_mhz=self.hardware.clock_mhz,
            schedule=result,
            details={
                "decode_tokens": float(num_tokens),
                "decode_total_cycles": float(total),
                "decode_per_token_cycles": total / num_tokens,
                "decode_first_step_cycles": float(first),
                "decode_last_step_cycles": float(last),
                "decode_steady_tokens_per_s": tokens_per_s,
                "decode_stall_cycles": float(result.stall_cycles),
            },
        )

    # ------------------------------------------------- back-to-back
    def steady_state_throughput(
        self,
        s: int,
        architecture: Architecture | str = Architecture.A3,
        num_sequences: int = 6,
    ) -> float:
        """Sequences/second when inferences run back to back.

        The "LW+" bars in Figs 4.8-4.10 show the next sequence's first
        weight load prefetched during the tail of the current one; with
        the block chain simply repeated, the A2/A3 schedulers overlap
        across sequence boundaries exactly as within one, so the
        steady-state spacing is below the single-shot latency.
        """
        if num_sequences < 2:
            raise ValueError("need at least two sequences for steady state")
        arch = Architecture(architecture)
        one = self.build_blocks(s, arch)
        chain: list[BlockWork] = []
        for i in range(num_sequences):
            for b in one:
                chain.append(
                    BlockWork(
                        f"q{i}:{b.label}",
                        b.load_cycles,
                        b.compute_cycles,
                        channel_hint=b.channel_hint,
                        overhead_override=b.overhead_override,
                    )
                )
        result = schedule(arch, chain, self.calibration.block_overhead_cycles)
        single = schedule(arch, one, self.calibration.block_overhead_cycles)
        # Steady-state spacing: amortize the pipeline fill over the tail.
        spacing_cycles = (result.total_cycles - single.total_cycles) / (
            num_sequences - 1
        )
        t_in, t_out = self.io_transfer_cycles(s)
        spacing_cycles += t_in + t_out  # per-sequence host I/O
        seconds = spacing_cycles / (self.hardware.clock_mhz * 1e6)
        return 1.0 / seconds


@dataclass(frozen=True)
class ControllerRun:
    """Functional outputs plus the latency report of one pass."""

    encoder_output: np.ndarray
    decoder_output: np.ndarray
    report: LatencyReport
    #: Per-block compute cycles measured during the functional pass.
    block_compute_cycles: dict[str, int]


class AcceleratorController:
    """Functional simulator of the accelerator running a parameter set.

    Inputs must already be padded to the hardware sequence length and
    embedded to ``d_model`` (the :class:`repro.hw.accelerator` facade
    owns padding, masking and embedding).
    """

    def __init__(
        self,
        params: TransformerParams,
        hardware: HardwareConfig | None = None,
        calibration: CalibrationConfig | None = None,
        parallel_heads: int | None = None,
    ) -> None:
        self.params = params
        self.latency_model = LatencyModel(
            model=params.config,
            hardware=hardware,
            calibration=calibration,
            parallel_heads=parallel_heads,
        )
        self.fabric = self.latency_model.fabric
        self.parallel_heads = parallel_heads

    def run_encoder_stack(
        self, x: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, dict[str, int]]:
        """Execute all encoder layers; returns (output, cycles/block).

        ``x`` may be ``(s, d_model)`` or batched ``(B, s, d_model)`` —
        the lowering keys on the sequence length only, and the batched
        kernels run each MM stage as one stacked matmul over the
        members.
        """
        program = lower(LoweringSpec(
            "encoder_stack", self.params.config, self.fabric, x.shape[-2],
            parallel_heads=self.parallel_heads,
        ))
        run = execute_program(
            program, root=self.params, inputs={"x": x, "enc_mask": mask}
        )
        return run.outputs["output"], run.block_compute_cycles

    def build_kv_cache(self, memory: np.ndarray) -> DecoderKVCache:
        """Prefill the decoder K/V cache from the encoder memory: the
        cross-attention projections of every layer run once through the
        MM1 kernels and stay resident for the whole utterance."""
        with obs_spans.tracer().span("hw.kv_prefill"):
            return DecoderKVCache(self.fabric, self.params, memory)

    def run_decoder_step(
        self,
        x: np.ndarray,
        cache: DecoderKVCache,
        memory_mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict[str, int]]:
        """One KV-cached decode step through all decoder layers.

        ``x`` is the (d_model,) embedded token at the newest position;
        the per-layer self-attention caches are extended in place and
        ``cache.length`` advances by one.  Returns the (d_model,)
        decoder output row plus per-block compute cycles.
        """
        x = np.asarray(x)
        d_model = self.params.config.d_model
        if x.shape != (d_model,):
            raise ValueError(f"x must be ({d_model},); got {x.shape}")
        if len(cache.layers) != len(self.params.decoders):
            raise ValueError("cache does not match this parameter set")
        program = lower_decode_step(
            self.params.config,
            self.fabric,
            cache.length + 1,
            cache.memory_len,
            self.parallel_heads,
        )
        with obs_spans.tracer().span("hw.decode_step", t=cache.length + 1):
            run = execute_program(
                program,
                root=self.params,
                inputs={"x": x[None, :], "memory_mask": memory_mask},
                caches=cache.layers,
            )
            cache.advance()
        obs_metrics.registry().counter("repro.hw.decode.steps").inc()
        return run.outputs["output"][0], run.block_compute_cycles

    def run_decoder_step_batch(
        self,
        xs: np.ndarray,
        caches: list[DecoderKVCache],
        memory_mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict[str, int]]:
        """One KV-cached decode step for a whole group of sessions.

        ``xs`` is ``(B, d_model)`` — one embedded token per session —
        and ``caches`` the matching per-session caches, all at the same
        prefix length (:func:`repro.hw.kv_cache.batch_layer_caches`
        enforces this).  The *same* decode-step program as the scalar
        path executes once with a leading batch axis: every MM stage is
        one stacked matmul over the members (each keeps its own 1-row
        gemv), and cache appends fan back out so every session's cache
        ends up bit-identical to B scalar :meth:`run_decoder_step`
        calls.
        ``memory_mask``, if given, is ``(B, 1, S)`` (stacked per-session
        masks) or a broadcastable ``(1, S)``.  Returns the ``(B,
        d_model)`` output rows plus per-block compute cycles of the one
        batched program execution.
        """
        xs = np.asarray(xs)
        d_model = self.params.config.d_model
        if xs.ndim != 2 or xs.shape[1] != d_model:
            raise ValueError(f"xs must be (B, {d_model}); got {xs.shape}")
        if xs.shape[0] != len(caches):
            raise ValueError(
                f"got {xs.shape[0]} token rows for {len(caches)} caches"
            )
        for cache in caches:
            if len(cache.layers) != len(self.params.decoders):
                raise ValueError("cache does not match this parameter set")
        batched_layers = batch_layer_caches(caches)
        program = lower_decode_step(
            self.params.config,
            self.fabric,
            caches[0].length + 1,
            caches[0].memory_len,
            self.parallel_heads,
        )
        with obs_spans.tracer().span(
            "hw.decode_step_batch", t=caches[0].length + 1, batch=len(caches)
        ):
            run = execute_program(
                program,
                root=self.params,
                inputs={"x": xs[:, None, :], "memory_mask": memory_mask},
                caches=batched_layers,
            )
            for cache in caches:
                cache.advance()
        obs_metrics.registry().counter("repro.hw.decode.steps").inc(len(caches))
        return run.outputs["output"][:, 0, :], run.block_compute_cycles

    def run(
        self,
        enc_input: np.ndarray,
        dec_input: np.ndarray,
        enc_mask: np.ndarray | None = None,
        dec_self_mask: np.ndarray | None = None,
        dec_memory_mask: np.ndarray | None = None,
        architecture: Architecture | str = Architecture.A3,
    ) -> ControllerRun:
        """One full pass: encoder stack, decoder stack, latency report.

        The functional output is identical across architectures — only
        the load/compute schedule (and thus the report) differs.
        """
        enc_input = np.asarray(enc_input)
        dec_input = np.asarray(dec_input)
        d_model = self.params.config.d_model
        if enc_input.ndim not in (2, 3) or enc_input.shape[-1] != d_model:
            raise ValueError(
                f"encoder input must be (s, {d_model}) or (B, s, {d_model}); "
                f"got {enc_input.shape}"
            )
        if dec_input.ndim not in (2, 3) or dec_input.shape[-1] != d_model:
            raise ValueError(
                f"decoder input must be (t, {d_model}) or (B, t, {d_model}); "
                f"got {dec_input.shape}"
            )
        if enc_input.ndim != dec_input.ndim:
            raise ValueError(
                "encoder and decoder inputs must both be batched or both "
                f"unbatched; got {enc_input.shape} vs {dec_input.shape}"
            )
        program = self.latency_model.full_pass_program(
            enc_input.shape[-2], dec_input.shape[-2]
        )
        run = execute_program(
            program,
            root=self.params,
            inputs={
                "x": enc_input,
                "dec_in": dec_input,
                "enc_mask": enc_mask,
                "dec_self_mask": dec_self_mask,
                "dec_memory_mask": dec_memory_mask,
            },
        )
        report = self.latency_model.latency_report(
            enc_input.shape[-2], architecture
        )
        return ControllerRun(
            encoder_output=run.outputs["encoder_output"],
            decoder_output=run.outputs["decoder_output"],
            report=report,
            block_compute_cycles=run.block_compute_cycles,
        )

"""Top-level controller (Fig 4.12): orchestrates the encoder and
decoder stacks on the fabric, schedules weight loads against computes,
and produces latency reports.

Two entry points:

* :class:`LatencyModel` — the data-free cycle model.  Given the model
  and hardware configurations it builds the per-block load/compute
  durations and runs the A1/A2/A3 schedulers (Tables 5.1/5.3,
  Fig 5.2).  This module imports no NumPy.
* :class:`AcceleratorController` — the functional simulator.  It runs
  the actual fp32 dataflow through the same lowered block programs
  (so the same cycle numbers fall out) and returns outputs plus a
  :class:`LatencyReport`.  It lives in :mod:`repro.hw.
  fabric_controller` and resolves from here on first use.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro._lazy import lazy_names
from repro.config import CalibrationConfig, HardwareConfig, ModelConfig
from repro.hw.kernels import Fabric
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
    lower,
    lower_decode_step,
    lower_full_pass,
    program_block_work,
)
from repro.hw.scheduler import (
    Architecture,
    BlockWork,
    ScheduleResult,
    _as_int,
    schedule,
)

# The functional controller runs NumPy; it resolves from here on first
# use, so the cycle model's importers never load it.
_EXPORTS = {"repro.hw.fabric_controller": ("AcceleratorController", "ControllerRun")}
_, __getattr__, __dir__ = lazy_names(__name__, _EXPORTS)


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
        #: (t, s, arch) -> the stand-alone step's scheduled total and
        #: the sum of its units' compute plus dispatch overhead
        #: (:meth:`_step_costs`).  Per instance: a new model lowers
        #: through :func:`lower_decode_step` again (itself cached).
        self._step_memo: dict[tuple[int, int, Architecture], tuple[int, int]] = {}

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

    def _step_costs(self, t: int, s: int, arch: Architecture) -> tuple[int, int]:
        """(scheduled total, compute + overhead sum) of the stand-alone
        decode step at prefix length ``t``, memoized per (t, s, arch).
        ``t`` and ``s`` must already be plain ints (``_as_int``): a
        float or bool would hit an int's entry instead of raising."""
        key = (t, s, arch)
        costs = self._step_memo.get(key)
        if costs is None:
            blocks = self.build_decode_step_blocks(t, s, arch)
            overhead = self.calibration.block_overhead_cycles
            costs = self._step_memo[key] = (
                schedule(arch, blocks, overhead).total_cycles,
                sum(b.compute_cycles + b.overhead(overhead) for b in blocks),
            )
        return costs

    def decode_step_cycles(
        self,
        t: int,
        s: int,
        architecture: Architecture | str = Architecture.A3,
    ) -> int:
        """Scheduled cycles of one stand-alone KV-cached decode step
        (weight loads overlapped per the architecture, plus the 1-row
        host I/O)."""
        t, s = _as_int(t, "t"), _as_int(s, "s")
        t_in, t_out = self.io_transfer_cycles(1)
        return self._step_costs(t, s, Architecture(architecture))[0] + t_in + t_out

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
        log-probs out) is charged either way.  Prefix lengths are
        integers, as for :meth:`decode_step_cycles`: floats, bools and
        strings raise ``TypeError``.

        With shared weights the iteration's chain is member 0's step
        followed by every other member's units with zero loads, and
        each of those units starts the moment the compute engine frees
        (its load, of length 0, issues no later than that).  So the
        total is member 0's stand-alone step total plus the other
        members' compute and overhead sums: B memo reads, no schedule.
        """
        lengths = [_as_int(t, "prefix length") for t in prefix_lengths]
        if not lengths:
            raise ValueError("prefix_lengths must be non-empty")
        if any(t <= 0 for t in lengths):
            raise ValueError("prefix lengths must be positive")
        s = _as_int(s, "s")
        arch = Architecture(architecture)
        t_in, t_out = self.io_transfer_cycles(1)
        io = (t_in + t_out) * len(lengths)
        if share_weights:
            total = self._step_costs(lengths[0], s, arch)[0]
            for t in lengths[1:]:
                total += self._step_costs(t, s, arch)[1]
            return total + io
        chain: list[BlockWork] = []
        for i, t in enumerate(lengths):
            chain.extend(
                replace(b, label=f"r{i}:{b.label}")
                for b in self.build_decode_step_blocks(t, s, arch)
            )
        result = schedule(arch, chain, self.calibration.block_overhead_cycles)
        return result.total_cycles + io

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
        (:meth:`decode_step_cycles` at its prefix length, a memo read)
        and the total divides by largest-remainder integer apportionment
        (:func:`repro.obs.costs.largest_remainder_split`).  The shares
        sum *exactly* to ``decode_iteration_cycles(...)`` — no float
        drift — and with ``share_weights`` each member's share is
        strictly below its solo cost: the amortization win, per member.
        """
        # Local import: the hw layer stays importable without obs; the
        # split helper lives there because the serving ledger is its
        # main consumer.
        from repro.obs.costs import largest_remainder_split

        lengths = [_as_int(t, "prefix length") for t in prefix_lengths]
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

"""The functional controller (Fig 4.12): runs a parameter set's fp32
dataflow through the lowered block programs.

:class:`AcceleratorController` executes the same programs whose cycles
:class:`repro.hw.controller.LatencyModel` prices, so the same cycle
numbers fall out, and returns outputs plus a
:class:`~repro.hw.controller.LatencyReport`.  It is the NumPy half of
the controller: :mod:`repro.hw.controller` resolves both names from
here on first use and imports no NumPy itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CalibrationConfig, HardwareConfig
from repro.hw.controller import LatencyModel, LatencyReport
from repro.hw.executor import execute_program
from repro.hw.kv_cache import DecoderKVCache, batch_layer_caches
from repro.hw.program import (
    BlockProgram,
    LoweringSpec,
    lower,
    lower_decode_step,
)
from repro.hw.scheduler import Architecture
from repro.model.params import TransformerParams
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans


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
        # Each execution plan bound to ``params`` once, for every later
        # run (the params never change, so no binding outlives them).
        self._bindings: dict = {}

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
            program, root=self.params, inputs={"x": x, "enc_mask": mask},
            bindings=self._bindings,
        )
        return run.outputs["output"], run.block_compute_cycles

    def build_kv_cache(self, memory: np.ndarray) -> DecoderKVCache:
        """Prefill the decoder K/V cache from the encoder memory: the
        cross-attention projections of every layer run once through the
        MM1 kernels and stay resident for the whole utterance."""
        with obs_spans.tracer().span("hw.kv_prefill"):
            return DecoderKVCache(self.fabric, self.params, memory)

    def _step_program(self, cache: DecoderKVCache) -> BlockProgram:
        """The decode step that extends ``cache`` by one position: the
        step template re-timed at that prefix length, which runs the
        template's one execution plan (no per-step ops or plan)."""
        return lower_decode_step(
            self.params.config, self.fabric, cache.length + 1,
            cache.memory_len, self.parallel_heads,
        )

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
        program = self._step_program(cache)
        with obs_spans.tracer().span("hw.decode_step", t=cache.length + 1):
            run = execute_program(
                program,
                root=self.params,
                inputs={"x": x[None, :], "memory_mask": memory_mask},
                caches=cache.layers,
                bindings=self._bindings,
            )
            cache.advance()
        obs_metrics.registry().counter("repro.hw.decode.steps").inc()
        return run.outputs["output"][0], run.block_compute_cycles

    def run_decoder_step_batch(
        self,
        xs: np.ndarray,
        caches: list[DecoderKVCache],
        memory_mask: np.ndarray | None = None,
    ) -> tuple[np.ndarray, list[dict[str, int]]]:
        """One KV-cached decode step for a whole batch of sessions.

        ``xs`` is ``(B, d_model)`` — one embedded token per session —
        and ``caches`` the matching per-session caches, over one memory
        length but at any prefix lengths.  The decode-step plan the
        scalar path runs executes once with a leading batch axis: MM1,
        MM4, MM5, MM6, the biases and Add-Norm run once over the stacked
        members (each keeps its own 1-row gemv), and the cache appends,
        MM2, Sc+Sm and MM3 run member by member on each member's own
        banks.  Every session's output and cache end up bit-identical
        to B scalar :meth:`run_decoder_step` calls.
        ``memory_mask``, if given, is ``(B, 1, S)`` (stacked per-session
        masks) or a broadcastable ``(1, S)``.  Returns the ``(B,
        d_model)`` output rows plus each member's per-block compute
        cycles, from the step re-timed at its own prefix length.
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
        programs = [self._step_program(cache) for cache in caches]
        with obs_spans.tracer().span(
            "hw.decode_step_batch",
            t=max(cache.length for cache in caches) + 1,
            batch=len(caches),
        ):
            run = execute_program(
                programs[0],
                root=self.params,
                inputs={"x": xs[:, None, :], "memory_mask": memory_mask},
                caches=batched_layers,
                bindings=self._bindings,
            )
            for cache in caches:
                cache.advance()
        obs_metrics.registry().counter("repro.hw.decode.steps").inc(len(caches))
        cycles = [dict(program.block_spans) for program in programs]
        return run.outputs["output"][:, 0, :], cycles

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
            bindings=self._bindings,
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


__all__ = ["AcceleratorController", "ControllerRun"]

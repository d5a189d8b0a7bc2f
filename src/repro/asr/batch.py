"""Batch transcription with back-to-back accelerator accounting.

Transcribing a directory of utterances (the usual offline workload)
keeps the accelerator busy back to back: the next sequence's first
weight loads are prefetched during the current one's tail (the ``LW+``
bars of Figs 4.8-4.10), so batch latency amortizes below
``n x single_shot``.  :class:`BatchTranscriber` prefills every
utterance in one batched encoder pass, decodes each one, and accounts
the batch with the steady-state throughput model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.asr.pipeline import AsrPipeline, TranscriptionResult


@dataclass(frozen=True)
class BatchResult:
    """Transcripts plus the amortized latency account."""

    results: tuple[TranscriptionResult, ...]
    #: Naive total: every inference billed at single-shot latency.
    single_shot_ms: float
    #: Amortized total with back-to-back prefetch across sequences.
    pipelined_ms: float
    details: dict[str, float] = field(default_factory=dict)

    @property
    def texts(self) -> list[str]:
        return [r.text for r in self.results]

    @property
    def num_utterances(self) -> int:
        return len(self.results)

    @property
    def pipelining_gain(self) -> float:
        """single-shot / pipelined; >= 1."""
        if self.pipelined_ms <= 0:
            raise ValueError(
                f"pipelined_ms must be positive; got {self.pipelined_ms}"
            )
        return self.single_shot_ms / self.pipelined_ms

    @property
    def throughput_seq_per_s(self) -> float:
        if self.pipelined_ms <= 0:
            raise ValueError(
                f"pipelined_ms must be positive; got {self.pipelined_ms}"
            )
        return self.num_utterances / (self.pipelined_ms / 1e3)


class BatchTranscriber:
    """Transcribe many utterances with amortized accounting."""

    def __init__(self, pipeline: AsrPipeline) -> None:
        self.pipeline = pipeline

    def transcribe_batch(
        self,
        waveforms: list[np.ndarray],
        beam_size: int | None = None,
    ) -> BatchResult:
        """Transcribe ``waveforms``: all encoder prefills run as ONE
        batched (B, S, d_model) pass through the fabric before the
        per-utterance decodes.  The stacked MM kernels make one 2-D BLAS
        call per member, not one large GEMM, so the result is
        bit-identical to solo sessions.
        """
        if not waveforms:
            raise ValueError("batch must contain at least one waveform")
        # Each member's frontend time is its own measured host time.
        feats, host_ms = zip(*map(self.pipeline.preprocess, waveforms))
        sessions = self.pipeline.accelerator.decode_sessions_batch(list(feats))
        results = tuple(
            self.pipeline.transcribe(
                w, beam_size=beam_size, features=f, measured_host_ms=ms,
                session=sess,
            )
            for w, f, ms, sess in zip(waveforms, feats, host_ms, sessions)
        )
        accel = self.pipeline.accelerator
        lm = accel.latency_model
        s = accel.hw_seq_len
        arch = accel.architecture
        # Every utterance runs the same padded hw_seq_len pass, so the
        # per-result report *is* the single-shot latency — reuse it
        # instead of recomputing, so the two accountings cannot drift.
        single_ms = results[0].accelerator_ms
        n = len(waveforms)
        if n == 1:
            pipelined_ms = single_ms
        else:
            spacing_s = 1.0 / lm.steady_state_throughput(
                s, arch, num_sequences=max(n, 2)
            )
            # First inference pays the full pipe fill; the rest the
            # steady-state spacing.
            pipelined_ms = single_ms + (n - 1) * spacing_s * 1e3
        return BatchResult(
            results=results,
            single_shot_ms=sum(r.accelerator_ms for r in results),
            pipelined_ms=pipelined_ms,
        )

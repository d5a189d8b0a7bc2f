"""The end-to-end ASR pipeline (Fig 5.1 / Section 5.1.6).

Stages, exactly as in the paper's E2E flow:

0. *Data preparation* — PCM decode and validation (host).
1. *Feature generation* — 80-dim log-mel fbank (host).
2. *Subsampling* — Conv2D + pooling front block to ``d_model`` (host).
3. *Decoding* — the Transformer, offloaded to the (simulated) FPGA
   accelerator, followed by greedy/beam character decoding.

Section 5.1.6 reports the combined host-side latency as 36.3 ms and an
overall E2E latency of 120.45 ms at s=32 (11.88 sequences/s through the
accelerator alone); :class:`HostTimingModel` reproduces that budget
while the pipeline also records the *actual* wall-clock host time on
this machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.config import ModelConfig
from repro.decoding.beam import beam_search
from repro.decoding.greedy import greedy_decode
from repro.decoding.vocab import CharVocabulary
from repro.frontend.features import FrontendConfig, LogMelFrontend
from repro.frontend.subsampling import Conv2dSubsampling
from repro.hw.accelerator import TransformerAccelerator
from repro.hw.controller import LatencyReport
from repro.model.ops import MODEL_DTYPE
from repro.model.params import TransformerParams
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans


@dataclass(frozen=True)
class HostTimingModel:
    """Calibrated host-side latency (paper: 36.3 ms at s=32).

    The budget splits between data preparation and feature generation
    proportionally to audio duration, with a fixed floor for the
    process/pipeline overheads the paper's Kaldi-style scripts carry.
    """

    #: Fixed host overhead per utterance (script startup, scp plumbing).
    fixed_ms: float = 21.0
    #: Variable cost per second of audio (fbank + conv subsampling).
    per_audio_second_ms: float = 11.25

    def __post_init__(self) -> None:
        if self.fixed_ms < 0 or self.per_audio_second_ms < 0:
            raise ValueError("timing components must be non-negative")

    def host_ms(self, audio_seconds: float) -> float:
        if audio_seconds < 0:
            raise ValueError("audio_seconds must be non-negative")
        return self.fixed_ms + self.per_audio_second_ms * audio_seconds


class HostPreprocessor:
    """Stages 0-2: waveform -> (s, d_model) encoder input."""

    def __init__(
        self,
        model_config: ModelConfig | None = None,
        frontend_config: FrontendConfig | None = None,
        subsampler: Conv2dSubsampling | None = None,
        seed: int = 0,
    ) -> None:
        self.model_config = model_config or ModelConfig()
        self.frontend = LogMelFrontend(frontend_config)
        self.subsampler = subsampler or Conv2dSubsampling(
            self.model_config.feature_dim,
            self.model_config.d_model,
            rng=np.random.default_rng(seed),
        )
        if self.subsampler.feature_dim != self.model_config.feature_dim:
            raise ValueError("subsampler feature_dim mismatch")
        if self.subsampler.d_model != self.model_config.d_model:
            raise ValueError("subsampler d_model mismatch")

    def __call__(self, waveform: np.ndarray) -> np.ndarray:
        """Extract the (s, d_model) encoder-input sequence."""
        feats = self.frontend(np.asarray(waveform, dtype=np.float64))
        if feats.shape[0] < self.subsampler.min_input_frames():
            raise ValueError(
                f"utterance too short: {feats.shape[0]} frames, need "
                f">= {self.subsampler.min_input_frames()}"
            )
        return self.subsampler(feats).astype(MODEL_DTYPE)

    def sequence_length(self, num_samples: int) -> int:
        """Hardware sequence length produced by an utterance."""
        frames = self.frontend.num_output_frames(num_samples)
        return self.subsampler.output_time_dim(frames)


@dataclass(frozen=True)
class TranscriptionResult:
    """Everything one transcription run produced."""

    text: str
    #: ESPnet-style rendering with '_' separators (Fig 5.1).
    espnet_text: str
    tokens: np.ndarray
    sequence_length: int
    #: Measured wall-clock host preprocessing time on this machine.
    measured_host_ms: float
    #: Calibrated host time per the paper's budget (36.3 ms at s=32).
    modeled_host_ms: float
    accelerator_report: LatencyReport
    #: Modeled latency of the KV-cached autoregressive decode (one
    #: entry per emitted position); None only if decode was not modeled.
    decode_report: LatencyReport | None = None
    details: dict[str, float] = field(default_factory=dict)

    @property
    def accelerator_ms(self) -> float:
        """Single-shot (teacher-forced) accelerator pass at the padded
        hardware length — the prefill cost in a serving flow."""
        return self.accelerator_report.latency_ms

    @property
    def decode_total_ms(self) -> float:
        """Modeled token-by-token decode latency over all positions."""
        if self.decode_report is None:
            return 0.0
        return self.decode_report.latency_ms

    @property
    def decode_per_token_ms(self) -> float:
        """Mean modeled decode latency per emitted position."""
        if self.decode_report is None:
            return 0.0
        tokens = self.decode_report.details.get("decode_tokens", 1.0)
        return self.decode_total_ms / max(tokens, 1.0)

    @property
    def e2e_ms(self) -> float:
        """Modeled end-to-end latency: host preprocessing + accelerator
        prefill pass + autoregressive decode steps."""
        return self.modeled_host_ms + self.accelerator_ms + self.decode_total_ms

    @property
    def throughput_seq_per_s(self) -> float:
        """Accelerator-side throughput (Section 5.1.6: 11.88 seq/s)."""
        return 1e3 / self.accelerator_ms


class AsrPipeline:
    """Waveform in, text out, with a full latency account.

    Decoding runs the KV-cached hardware path: encoder prefill plus
    one-time cross-attention K/V projection, then each token steps a
    1-row query through the simulated fabric.  Greedy and beam search
    are both supported (branching rewinds the cache to the common
    stem).

    The modeled latency is a single-shot padded accelerator pass
    (prefill) in ``accelerator_report`` plus the KV-cached
    autoregressive account in ``decode_report``.
    """

    def __init__(
        self,
        params: TransformerParams,
        vocab: CharVocabulary | None = None,
        hw_seq_len: int = 32,
        architecture: str = "A3",
        preprocessor: HostPreprocessor | None = None,
        host_timing: HostTimingModel | None = None,
        max_output_chars: int | None = None,
    ) -> None:
        self.vocab = vocab or CharVocabulary()
        if len(self.vocab) != params.config.vocab_size:
            raise ValueError(
                f"vocabulary size {len(self.vocab)} does not match model "
                f"vocab_size {params.config.vocab_size}"
            )
        self.accelerator = TransformerAccelerator(
            params, hw_seq_len=hw_seq_len, architecture=architecture
        )
        self.preprocessor = preprocessor or HostPreprocessor(params.config)
        self.host_timing = host_timing or HostTimingModel()
        if max_output_chars is None:
            max_output_chars = hw_seq_len - 1
        if max_output_chars <= 0:
            raise ValueError(
                f"max_output_chars must be positive; got {max_output_chars}"
            )
        self.max_output_chars = max_output_chars

    def render_schedule_gantt(self, width: int = 100) -> str:
        """ASCII Gantt of the accelerator pass this pipeline models
        (trace-executor timeline of the lowered block program, with the
        per-channel HBM lanes of Fig 4.11)."""
        return self.accelerator.render_gantt(width=width)

    def transcribe(
        self,
        waveform: np.ndarray,
        beam_size: int | None = None,
        *,
        features: np.ndarray | None = None,
        measured_host_ms: float = 0.0,
        session=None,
    ) -> TranscriptionResult:
        """Run the full E2E flow on one utterance.

        ``features`` and ``session`` let a batch driver inject
        precomputed frontend features (from :meth:`preprocess`, with
        the ``measured_host_ms`` it took) and an already-prefilled
        :class:`repro.hw.accelerator.HwDecodeSession` (from a batched
        encoder prefill); both default to per-utterance computation.
        """
        with obs_spans.tracer().span("asr.transcribe") as span:
            result = self._transcribe(
                waveform, beam_size, features, measured_host_ms, session
            )
            span.set(
                sequence_length=result.sequence_length,
                tokens=int(result.tokens.size),
            )
        self._record_metrics(result)
        return result

    def preprocess(self, waveform: np.ndarray) -> tuple[np.ndarray, float]:
        """The frontend features of ``waveform`` and the wall-clock
        milliseconds the frontend took to compute them."""
        start = time.perf_counter()
        with obs_spans.tracer().span("asr.preprocess"):
            features = self.preprocessor(np.asarray(waveform, dtype=np.float64))
        return features, (time.perf_counter() - start) * 1e3

    def _transcribe(
        self,
        waveform: np.ndarray,
        beam_size: int | None,
        features: np.ndarray | None,
        measured_host_ms: float,
        session,
    ) -> TranscriptionResult:
        waveform = np.asarray(waveform, dtype=np.float64)
        if features is None:
            features, measured_host_ms = self.preprocess(waveform)
        else:
            features = np.asarray(features)

        s = features.shape[0]
        if s > self.accelerator.hw_seq_len:
            raise ValueError(
                f"utterance produces sequence length {s} but the hardware "
                f"was synthesized for {self.accelerator.hw_seq_len}; use a "
                f"shorter utterance or a larger hw_seq_len"
            )
        if beam_size is not None and beam_size <= 0:
            raise ValueError(f"beam_size must be positive; got {beam_size}")
        if session is None:
            session = self.accelerator.decode_session(features)
        step = session.step_fn()
        with obs_spans.tracer().span("asr.decode"):
            if beam_size is not None:
                hyps = beam_search(
                    step,
                    self.vocab.sos_id,
                    self.vocab.eos_id,
                    max_len=self.max_output_chars,
                    beam_size=beam_size,
                )
                tokens = np.asarray(hyps[0].tokens[1:], dtype=np.int64)
            else:
                tokens = greedy_decode(
                    step,
                    self.vocab.sos_id,
                    self.vocab.eos_id,
                    max_len=self.max_output_chars,
                )
        text = self.vocab.decode(tokens)
        # The synthesized hardware always processes its fixed sequence
        # length; shorter inputs are padded (Section 5.1.5), so the
        # prefill latency is that of the full hw_seq_len pass.
        report = self.accelerator.latency_report(self.accelerator.hw_seq_len)
        # Modeled autoregressive decode: one KV-cached step per decoded
        # position (the emitted tokens plus the step that produced the
        # stop decision, capped by the output budget).
        decode_steps = min(tokens.size + 1, self.max_output_chars)
        decode_report = self.accelerator.autoregressive_report(decode_steps)
        audio_seconds = waveform.size / self.preprocessor.frontend.config.sample_rate
        return TranscriptionResult(
            text=text,
            espnet_text=self.vocab.decode_espnet_style(tokens),
            tokens=tokens,
            sequence_length=s,
            measured_host_ms=measured_host_ms,
            modeled_host_ms=self.host_timing.host_ms(audio_seconds),
            accelerator_report=report,
            decode_report=decode_report,
            details={
                "audio_seconds": audio_seconds,
                "decode_steps": float(decode_steps),
            },
        )

    def _record_metrics(self, result: TranscriptionResult) -> None:
        """Publish the per-utterance latency account to the metrics
        registry (no-op unless a telemetry session is active)."""
        reg = obs_metrics.registry()
        if not reg.enabled:
            return
        reg.counter("repro.asr.utterances").inc()
        reg.counter("repro.asr.tokens").inc(int(result.tokens.size))
        reg.counter("repro.asr.decode_steps").inc(
            result.details.get("decode_steps", 0.0)
        )
        reg.histogram("repro.e2e_ms").observe(result.e2e_ms)
        reg.gauge("repro.asr.host_ms").set(result.modeled_host_ms)
        reg.gauge("repro.asr.host_measured_ms").set(result.measured_host_ms)
        reg.gauge("repro.asr.accel_ms").set(result.accelerator_ms)
        reg.gauge("repro.asr.decode_ms").set(result.decode_total_ms)
        reg.gauge("repro.asr.throughput_seq_per_s").set(
            result.throughput_seq_per_s
        )
        audio_seconds = result.details.get("audio_seconds", 0.0)
        e2e_s = result.e2e_ms / 1e3
        if audio_seconds > 0:
            reg.gauge("repro.asr.rtf").set(e2e_s / audio_seconds)
        if e2e_s > 0:
            reg.gauge("repro.asr.frames_per_s").set(
                result.sequence_length / e2e_s
            )

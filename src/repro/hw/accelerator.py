"""Public facade of the accelerator: padding, masking, embedding, and
the host-visible run/transcribe API (the role of the OpenCL host code
in Section 2.2.7).

The synthesized hardware handles a *fixed* sequence length ``s``;
shorter inputs are zero-padded up to ``s`` and masked (Section 5.1.5).
The facade owns that padding, the look-ahead/padding masks, the decoder
token embedding and the final output projection + softmax, then hands
(s x d_model) matrices to the :class:`AcceleratorController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import CalibrationConfig, HardwareConfig
from repro.hw.controller import (
    AcceleratorController,
    ControllerRun,
    LatencyModel,
    LatencyReport,
)
from repro.hw.scheduler import Architecture
from repro.model.masks import causal_mask, combine_masks
from repro.model.ops import MODEL_DTYPE, linear, log_softmax
from repro.model.params import TransformerParams
from repro.obs import spans as obs_spans


@dataclass(frozen=True)
class AcceleratorOutput:
    """Result of one accelerated forward pass."""

    logits: np.ndarray
    memory: np.ndarray
    report: LatencyReport


class TransformerAccelerator:
    """Host-side view of the FPGA accelerator.

    Parameters
    ----------
    params:
        Trained (or randomly initialized) Transformer weights.
    hw_seq_len:
        The fixed sequence length the hardware was "synthesized" for
        (the paper evaluates 4, 8, 16 and 32).  Inputs longer than this
        are rejected; shorter inputs are padded and masked.
    architecture:
        Default load/compute overlap architecture (A1, A2 or A3).
    parallel_heads:
        Attention heads processed concurrently (Table 5.3); default all.
    """

    def __init__(
        self,
        params: TransformerParams,
        hw_seq_len: int = 32,
        architecture: Architecture | str = Architecture.A3,
        hardware: HardwareConfig | None = None,
        calibration: CalibrationConfig | None = None,
        parallel_heads: int | None = None,
    ) -> None:
        if hw_seq_len <= 0:
            raise ValueError("hw_seq_len must be positive")
        self.params = params
        self.hw_seq_len = hw_seq_len
        self.architecture = Architecture(architecture)
        self.controller = AcceleratorController(
            params,
            hardware=hardware,
            calibration=calibration,
            parallel_heads=parallel_heads,
        )

    @property
    def config(self):
        return self.params.config

    @property
    def latency_model(self) -> LatencyModel:
        return self.controller.latency_model

    # -------------------------------------------------------- plumbing
    def _pad_rows(self, x: np.ndarray) -> np.ndarray:
        """Zero-pad an (n, d_model) matrix to (hw_seq_len, d_model)."""
        x = np.asarray(x, dtype=MODEL_DTYPE)
        if x.ndim != 2 or x.shape[1] != self.config.d_model:
            raise ValueError(
                f"input must be (n, {self.config.d_model}); got {x.shape}"
            )
        n = x.shape[0]
        if n > self.hw_seq_len:
            raise ValueError(
                f"sequence length {n} exceeds the hardware length "
                f"{self.hw_seq_len}"
            )
        if n == self.hw_seq_len:
            return x
        padded = np.zeros((self.hw_seq_len, x.shape[1]), dtype=MODEL_DTYPE)
        padded[:n] = x
        return padded

    def _key_mask(self, valid: int) -> np.ndarray:
        """(1, S) broadcastable key-padding mask."""
        return (np.arange(self.hw_seq_len) < valid)[None, :]

    def embed_tokens(self, tokens: np.ndarray) -> np.ndarray:
        """Decoder-input embedding lookup, scaled by sqrt(d_model)."""
        t = np.asarray(tokens, dtype=np.int64)
        if t.ndim != 1:
            raise ValueError("tokens must be a 1-D index array")
        if t.size == 0:
            raise ValueError("tokens must be non-empty")
        if t.min() < 0 or t.max() >= self.config.vocab_size:
            raise ValueError("token index out of vocabulary range")
        emb = self.params.embedding[t] * np.sqrt(
            MODEL_DTYPE(self.config.d_model)
        )
        return emb.astype(MODEL_DTYPE)

    def output_logits(self, decoder_out: np.ndarray) -> np.ndarray:
        """Final fully-connected projection to vocabulary logits."""
        return linear(decoder_out, self.params.output_w, self.params.output_b)

    # ------------------------------------------------------------- run
    def forward(
        self,
        features: np.ndarray,
        tokens: np.ndarray,
        architecture: Architecture | str | None = None,
    ) -> AcceleratorOutput:
        """Teacher-forced pass on the accelerator.

        ``features`` is the (n, d_model) encoder input (n <= hw_seq_len)
        and ``tokens`` the decoder prefix.  Returns vocabulary logits
        for each real decoder position, the un-padded encoder memory and
        the latency report.
        """
        arch = Architecture(architecture) if architecture else self.architecture
        s_valid = np.asarray(features).shape[0]
        dec_embed = self.embed_tokens(tokens)
        t_valid = dec_embed.shape[0]

        enc_in = self._pad_rows(features)
        dec_in = self._pad_rows(dec_embed)
        enc_mask = self._key_mask(s_valid)
        dec_self_mask = combine_masks(
            causal_mask(self.hw_seq_len), self._key_mask(t_valid)
        )
        with obs_spans.tracer().span("hw.forward", s=s_valid, t=t_valid):
            run: ControllerRun = self.controller.run(
                enc_in,
                dec_in,
                enc_mask=enc_mask,
                dec_self_mask=dec_self_mask,
                dec_memory_mask=self._key_mask(s_valid),
                architecture=arch,
            )
        logits = self.output_logits(run.decoder_output[:t_valid])
        return AcceleratorOutput(
            logits=logits,
            memory=run.encoder_output[:s_valid],
            report=run.report,
        )

    def log_probs(self, features: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Log posterior over the vocabulary at each decoder position."""
        return log_softmax(self.forward(features, tokens).logits, axis=-1)

    def step_fn(self, features: np.ndarray):
        """Build a decoding step function (see :mod:`repro.decoding`):
        the encoder memory is computed once, then each step runs the
        KV-cached decoder path — a 1-row query through the fabric."""
        return self.decode_session(features).step_fn()

    def decode_session(self, features: np.ndarray) -> "HwDecodeSession":
        """Open a KV-cached decode session for one utterance: encoder
        prefill plus cross-attention K/V projection, then cheap
        per-token steps."""
        return HwDecodeSession(self, features)

    def decode_sessions_batch(
        self, features_list: Sequence[np.ndarray]
    ) -> list["HwDecodeSession"]:
        """Open decode sessions for several utterances at once.

        The encoder prefill runs as ONE batched (B, S, d_model) pass —
        MM1-MM6 execute as stacked matmuls over the shared weights —
        and each session is then constructed from its slice of the
        batched memory.  Bit-identical to B independent
        :meth:`decode_session` calls: the stacked kernels run each
        member's own 2-D BLAS call.
        """
        if not features_list:
            raise ValueError("need at least one utterance to batch")
        feats = [np.asarray(f, dtype=MODEL_DTYPE) for f in features_list]
        enc_in = np.stack([self._pad_rows(f) for f in feats])
        enc_mask = np.stack([self._key_mask(f.shape[0]) for f in feats])
        with obs_spans.tracer().span(
            "hw.encoder_prefill_batch", batch=len(feats)
        ):
            memory, _ = self.controller.run_encoder_stack(enc_in, mask=enc_mask)
        return [
            HwDecodeSession(self, f, memory=memory[i])
            for i, f in enumerate(feats)
        ]

    def autoregressive_report(
        self,
        num_tokens: int,
        architecture: Architecture | str | None = None,
    ) -> LatencyReport:
        """Modeled latency of KV-cached decode of ``num_tokens`` steps
        (cross-attention spans the padded ``hw_seq_len`` memory)."""
        arch = Architecture(architecture) if architecture else self.architecture
        return self.latency_model.autoregressive_report(
            num_tokens, self.hw_seq_len, arch
        )

    def latency_report(
        self, s: int | None = None, architecture: Architecture | str | None = None
    ) -> LatencyReport:
        """Predicted latency at sequence length ``s`` (default: hw len)."""
        arch = Architecture(architecture) if architecture else self.architecture
        return self.latency_model.latency_report(s or self.hw_seq_len, arch)

    def program(self, s: int | None = None, t: int | None = None):
        """The lowered block program behind this accelerator's numbers
        (the same lowering drives :meth:`forward`, the latency reports
        and the Gantt traces)."""
        return self.latency_model.full_pass_program(s or self.hw_seq_len, t)

    def render_gantt(
        self,
        s: int | None = None,
        architecture: Architecture | str | None = None,
        width: int = 100,
    ) -> str:
        """ASCII Gantt of the full pass under ``architecture``, with
        HBM channel lanes (renders the trace executor's timeline)."""
        from repro.hw.visualize import render_program_gantt

        arch = Architecture(architecture) if architecture else self.architecture
        return render_program_gantt(self.program(s), arch.value, width=width)


class HwDecodeSession:
    """KV-cached autoregressive decode state for one utterance.

    Construction runs the encoder prefill and projects every decoder
    layer's cross-attention K/V from the padded memory; each
    :meth:`step` then feeds one token through the cached decoder path
    (a 1-row query per layer instead of a padded ``hw_seq_len`` pass).

    The :meth:`step_fn` adapter accepts arbitrary prefixes: a prefix
    extending the cached tokens feeds only the new suffix; a diverging
    prefix rewinds the caches to the common stem and replays from
    there, so beam-search branching stays functionally exact (at the
    cost of the replayed steps, which :attr:`steps_executed` counts).
    """

    def __init__(
        self,
        accel: TransformerAccelerator,
        features: np.ndarray,
        *,
        memory: np.ndarray | None = None,
    ) -> None:
        self.accel = accel
        features = np.asarray(features, dtype=MODEL_DTYPE)
        s_valid = features.shape[0]
        if memory is None:
            enc_in = accel._pad_rows(features)
            enc_mask = accel._key_mask(s_valid)
            with obs_spans.tracer().span("hw.encoder_prefill", s=s_valid):
                memory, _ = accel.controller.run_encoder_stack(
                    enc_in, mask=enc_mask
                )
        else:
            # Precomputed padded memory from a batched prefill
            # (:meth:`TransformerAccelerator.decode_sessions_batch`).
            memory = np.asarray(memory, dtype=MODEL_DTYPE)
            if memory.shape != (accel.hw_seq_len, accel.config.d_model):
                raise ValueError(
                    f"memory must be ({accel.hw_seq_len}, "
                    f"{accel.config.d_model}); got {memory.shape}"
                )
        self.memory = memory[:s_valid]
        self.memory_mask = accel._key_mask(s_valid)
        self.cache = accel.controller.build_kv_cache(memory)
        self._tokens: list[int] = []
        #: Fabric compute cycles of every executed step, in order.
        self.step_compute_cycles: list[int] = []
        self.steps_executed = 0

    @property
    def tokens(self) -> list[int]:
        """The prefix currently held by the caches."""
        return list(self._tokens)

    @property
    def prefill_cycles(self) -> int:
        """One-time cycles spent projecting the cross-attention K/V."""
        return self.cache.prefill_cycles

    def _check_capacity(self) -> None:
        if len(self._tokens) + 1 > self.accel.hw_seq_len:
            raise ValueError(
                f"decoder prefix would exceed the hardware length "
                f"{self.accel.hw_seq_len}"
            )

    def _absorb_step(
        self, token: int, out: np.ndarray, compute_cycles: int
    ) -> np.ndarray:
        """Bookkeeping shared by the scalar and batched step paths:
        record the token and cycles, project to log-probs."""
        self._tokens.append(int(token))
        self.step_compute_cycles.append(compute_cycles)
        self.steps_executed += 1
        logits = self.accel.output_logits(out)
        return log_softmax(logits, axis=-1)

    def step(self, token: int) -> np.ndarray:
        """Feed one token; returns log-probs over the next position."""
        self._check_capacity()
        embed = self.accel.embed_tokens(np.array([token]))[0]
        out, cycles = self.accel.controller.run_decoder_step(
            embed, self.cache, memory_mask=self.memory_mask
        )
        return self._absorb_step(token, out, sum(cycles.values()))

    def rewind(self, length: int) -> None:
        """Truncate the cached prefix back to ``length`` tokens."""
        self.cache.rewind(length)
        self._tokens = self._tokens[:length]

    def resident_bytes(self) -> int:
        """Bytes this session's K/V caches hold in the BRAM banks —
        the serving scheduler's cache-pressure admission signal."""
        return self.cache.resident_bytes()

    def preempt(self) -> list[int]:
        """Evict the self-attention state (cache pressure): rewind the
        caches to zero and return the token prefix needed to replay.
        Feeding the returned prefix back through :meth:`step_fn` (or
        :func:`step_batch`) reproduces the evicted state exactly."""
        prefix = self.tokens
        self.rewind(0)
        return prefix

    def step_fn(self):
        """Adapter for :mod:`repro.decoding`: prefix -> next log-probs."""

        def step(tokens: np.ndarray) -> np.ndarray:
            tokens = np.asarray(tokens, dtype=np.int64)
            if tokens.ndim != 1 or tokens.size == 0:
                raise ValueError("tokens must be a non-empty 1-D prefix")
            common = 0
            for common, (have, want) in enumerate(
                zip(self._tokens, tokens.tolist()), start=1
            ):
                if have != want:
                    common -= 1
                    break
            if common < len(self._tokens):
                self.rewind(common)
            out: np.ndarray | None = None
            for token in tokens[common:]:
                out = self.step(int(token))
            if out is None:
                # Prefix already cached in full: replay its last token
                # so the caller still gets the next-position log-probs.
                self.rewind(len(self._tokens) - 1)
                out = self.step(int(tokens[-1]))
            return out

        return step


def step_sessions(
    sessions: Sequence["HwDecodeSession"],
    tokens: Sequence[int],
) -> list[np.ndarray]:
    """Advance every session one KV-cached step, batching where legal.

    Sessions at the same prefix length share one decode-step program,
    so each same-length group executes as a single batched program run
    (:meth:`repro.hw.controller.AcceleratorController.
    run_decoder_step_batch`); singleton groups take the scalar path.
    Outputs, cache contents and per-session cycle bookkeeping are
    bit-identical to per-session :meth:`HwDecodeSession.step` calls —
    only the wall clock changes.  Raises ``ValueError`` naming the index
    of a session passed twice or of one opened on another accelerator.
    """
    if len(sessions) != len(tokens):
        raise ValueError("one token per session required")
    first_index: dict[int, int] = {}
    for i, session in enumerate(sessions):
        if id(session) in first_index:
            raise ValueError(
                f"session {i} is session {first_index[id(session)]} again; "
                "a session steps at most once per batch"
            )
        first_index[id(session)] = i
        if session.accel is not sessions[0].accel:
            raise ValueError(
                f"all sessions must share one accelerator; session {i} "
                "belongs to another"
            )
    outputs: list[np.ndarray | None] = [None] * len(sessions)
    groups: dict[int, list[int]] = {}
    for i, session in enumerate(sessions):
        session._check_capacity()
        groups.setdefault(len(session._tokens), []).append(i)
    for idxs in groups.values():
        if len(idxs) == 1:
            i = idxs[0]
            outputs[i] = sessions[i].step(int(tokens[i]))
            continue
        members = [sessions[i] for i in idxs]
        accel = members[0].accel
        embeds = np.stack(
            [accel.embed_tokens(np.array([int(tokens[i])]))[0] for i in idxs]
        )
        masks = np.stack([m.memory_mask for m in members])
        outs, cycles = accel.controller.run_decoder_step_batch(
            embeds, [m.cache for m in members], memory_mask=masks
        )
        # The batched program is the same lowering as the scalar step's,
        # so each member records the same per-step compute cycles.
        per_member = sum(cycles.values())
        for j, i in enumerate(idxs):
            outputs[i] = members[j]._absorb_step(
                int(tokens[i]), outs[j], per_member
            )
    return outputs  # type: ignore[return-value]


def step_batch(
    sessions: Sequence["HwDecodeSession"],
    tokens: Sequence[int],
    share_weights: bool = True,
) -> tuple[list[np.ndarray], int]:
    """One continuous-batching decode iteration over open sessions.

    Every session advances one KV-cached step at its own prefix length
    (the iteration-level scheduling of Orca-style serving): session
    ``i`` consumes ``tokens[i]`` and the functional outputs are exactly
    the per-session :meth:`HwDecodeSession.step` results — same-length
    sessions run through the batched executor (:func:`step_sessions`),
    which is bit-identical to the scalar loop.  The returned cycle
    count is the *batched* iteration cost from
    :meth:`repro.hw.controller.LatencyModel.decode_iteration_cycles` —
    with ``share_weights``, the decoder panels stream from HBM once for
    the whole batch instead of once per member.
    """
    if not sessions:
        raise ValueError("batch must contain at least one session")
    if len(sessions) != len(tokens):
        raise ValueError("one token per session required")
    outputs = step_sessions(sessions, tokens)
    accel = sessions[0].accel
    # Each executed step ran the t = (new prefix length) program, the
    # same length run_decoder_step lowered for it.
    cycles = accel.latency_model.decode_iteration_cycles(
        [len(s.tokens) for s in sessions],
        accel.hw_seq_len,
        accel.architecture,
        share_weights=share_weights,
    )
    return outputs, cycles

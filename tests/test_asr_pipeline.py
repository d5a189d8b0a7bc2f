"""Tests for the end-to-end ASR pipeline."""

import numpy as np
import pytest

from repro.asr.dataset import LibriSpeechLikeDataset
from repro.asr.pipeline import AsrPipeline, HostPreprocessor, HostTimingModel
from repro.config import ModelConfig
from repro.decoding.beam import beam_search
from repro.decoding.greedy import greedy_decode
from repro.decoding.vocab import CharVocabulary
from repro.model import Transformer
from repro.model.incremental import IncrementalDecoder
from repro.model.ops import log_softmax
from repro.model.params import init_transformer_params


@pytest.fixture(scope="module")
def pipeline(small_params):
    return AsrPipeline(small_params, hw_seq_len=32)


@pytest.fixture(scope="module")
def utterance():
    return LibriSpeechLikeDataset(seed=3).generate(1, min_words=2, max_words=2)[0]


class TestHostTimingModel:
    def test_paper_budget_at_s32(self):
        """Section 5.1.6: host preprocessing is ~36.3 ms for an s=32
        utterance (~1.36 s of audio)."""
        timing = HostTimingModel()
        assert timing.host_ms(1.36) == pytest.approx(36.3, rel=0.02)

    def test_monotone_in_duration(self):
        timing = HostTimingModel()
        assert timing.host_ms(2.0) > timing.host_ms(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostTimingModel(fixed_ms=-1)
        with pytest.raises(ValueError):
            HostTimingModel().host_ms(-1)


class TestHostPreprocessor:
    def test_produces_model_dim_features(self, utterance):
        prep = HostPreprocessor(ModelConfig())
        feats = prep(utterance.waveform)
        assert feats.ndim == 2
        assert feats.shape[1] == 512

    def test_sequence_length_prediction(self, utterance):
        prep = HostPreprocessor(ModelConfig())
        feats = prep(utterance.waveform)
        assert feats.shape[0] == prep.sequence_length(utterance.waveform.size)

    def test_rejects_too_short(self):
        prep = HostPreprocessor(ModelConfig())
        with pytest.raises(ValueError):
            prep(np.zeros(1000))


class TestPipeline:
    def test_transcribe_returns_result(self, pipeline, utterance):
        result = pipeline.transcribe(utterance.waveform)
        assert isinstance(result.text, str)
        assert result.sequence_length <= 32
        assert result.measured_host_ms > 0
        assert result.accelerator_ms > 0
        assert result.e2e_ms == pytest.approx(
            result.modeled_host_ms
            + result.accelerator_ms
            + result.decode_total_ms
        )
        assert result.throughput_seq_per_s == pytest.approx(
            1e3 / result.accelerator_ms
        )

    def test_decode_latency_modeled(self, pipeline, utterance):
        """The result exposes per-token and total autoregressive decode
        latency, round-tripped through the report's details."""
        result = pipeline.transcribe(utterance.waveform)
        report = result.decode_report
        assert report is not None
        assert result.decode_total_ms > 0
        assert result.decode_per_token_ms > 0
        steps = report.details["decode_tokens"]
        assert steps == result.details["decode_steps"]
        assert steps == min(result.tokens.size + 1, pipeline.max_output_chars)
        assert report.details["decode_total_cycles"] == report.total_cycles
        assert result.decode_per_token_ms * steps == pytest.approx(
            result.decode_total_ms
        )

    def test_espnet_style_text(self, pipeline, utterance):
        result = pipeline.transcribe(utterance.waveform)
        assert " " not in result.espnet_text
        assert result.espnet_text == result.text.upper().replace(" ", "_")

    def test_beam_transcription_runs(self, pipeline, utterance):
        result = pipeline.transcribe(utterance.waveform, beam_size=2)
        assert isinstance(result.text, str)

    def test_rejects_overlong_utterance(self, small_params):
        tight = AsrPipeline(small_params, hw_seq_len=4)
        long_utt = LibriSpeechLikeDataset(seed=0).generate(
            1, min_words=5, max_words=5
        )[0]
        with pytest.raises(ValueError):
            tight.transcribe(long_utt.waveform)

    def test_vocab_size_mismatch_rejected(self):
        params = init_transformer_params(
            ModelConfig(num_encoders=1, num_decoders=1, vocab_size=10), seed=0
        )
        with pytest.raises(ValueError):
            AsrPipeline(params, vocab=CharVocabulary())

    def test_zero_beam_size_rejected(self, pipeline, utterance):
        """beam_size=0 must raise, not silently fall through to greedy."""
        with pytest.raises(ValueError, match="beam_size"):
            pipeline.transcribe(utterance.waveform, beam_size=0)

    def test_negative_beam_size_rejected(self, pipeline, utterance):
        with pytest.raises(ValueError, match="beam_size"):
            pipeline.transcribe(utterance.waveform, beam_size=-2)

    def test_zero_max_output_chars_rejected(self, small_params):
        """max_output_chars=0 must raise, not silently become
        hw_seq_len - 1."""
        with pytest.raises(ValueError, match="max_output_chars"):
            AsrPipeline(small_params, hw_seq_len=32, max_output_chars=0)

    def test_negative_max_output_chars_rejected(self, small_params):
        with pytest.raises(ValueError, match="max_output_chars"):
            AsrPipeline(small_params, hw_seq_len=32, max_output_chars=-1)

    def test_default_max_output_chars(self, small_params):
        assert AsrPipeline(small_params, hw_seq_len=32).max_output_chars == 31


def _golden_memory(params, pipeline, waveform):
    return Transformer(params).encode(pipeline.preprocessor(waveform))


def _golden_full_prefix_step(params, memory):
    """Stateless golden step: the whole prefix through Transformer.decode."""
    model = Transformer(params)

    def step(tokens):
        hidden = model.decode(tokens, memory)
        return log_softmax(model.output_logits(hidden[-1]), axis=-1)

    return step


class TestDecodeEngines:
    """The pipeline's KV-cached fabric decode against the golden model."""

    def test_incremental_matches_hw_engine_transcript(
        self, pipeline, small_params, utterance
    ):
        memory = _golden_memory(small_params, pipeline, utterance.waveform)
        golden = greedy_decode(
            IncrementalDecoder(small_params, memory).step_fn(),
            pipeline.vocab.sos_id, pipeline.vocab.eos_id,
            max_len=pipeline.max_output_chars,
        )
        result = pipeline.transcribe(utterance.waveform)
        np.testing.assert_array_equal(result.tokens, golden)

    def test_legacy_full_prefix_matches_cached(
        self, pipeline, small_params, utterance
    ):
        """The golden full-prefix decode (every step re-runs the whole
        decoder stack) and the KV-cached fabric steps are the same
        computation at different cost."""
        memory = _golden_memory(small_params, pipeline, utterance.waveform)
        golden = greedy_decode(
            _golden_full_prefix_step(small_params, memory),
            pipeline.vocab.sos_id, pipeline.vocab.eos_id,
            max_len=pipeline.max_output_chars,
        )
        result = pipeline.transcribe(utterance.waveform)
        np.testing.assert_array_equal(result.tokens, golden)

    def test_beam_search_on_cached_engine(
        self, pipeline, small_params, utterance
    ):
        """Beam search drives the KV-cached session via rewinds; it
        must agree with beam search over the stateless golden step."""
        memory = _golden_memory(small_params, pipeline, utterance.waveform)
        hyps = beam_search(
            _golden_full_prefix_step(small_params, memory),
            pipeline.vocab.sos_id, pipeline.vocab.eos_id,
            max_len=pipeline.max_output_chars, beam_size=2,
        )
        result = pipeline.transcribe(utterance.waveform, beam_size=2)
        np.testing.assert_array_equal(result.tokens, hyps[0].tokens[1:])

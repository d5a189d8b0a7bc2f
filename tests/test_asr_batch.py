"""Tests for batch transcription with amortized accounting."""

import pytest

from repro.asr.batch import BatchTranscriber
from repro.asr.dataset import LibriSpeechLikeDataset
from repro.asr.pipeline import AsrPipeline


@pytest.fixture(scope="module")
def transcriber(small_params):
    return BatchTranscriber(AsrPipeline(small_params, hw_seq_len=32))


@pytest.fixture(scope="module")
def batch_waveforms():
    utts = LibriSpeechLikeDataset(seed=9).generate(3, min_words=2, max_words=2)
    return [u.waveform for u in utts]


class TestBatchTranscriber:
    def test_all_utterances_transcribed(self, transcriber, batch_waveforms):
        result = transcriber.transcribe_batch(batch_waveforms)
        assert result.num_utterances == 3
        assert len(result.texts) == 3

    def test_pipelining_never_hurts(self, transcriber, batch_waveforms):
        result = transcriber.transcribe_batch(batch_waveforms)
        assert result.pipelined_ms <= result.single_shot_ms + 1e-9
        assert result.pipelining_gain >= 1.0

    def test_single_utterance_no_gain(self, transcriber, batch_waveforms):
        result = transcriber.transcribe_batch(batch_waveforms[:1])
        assert result.pipelining_gain == pytest.approx(1.0)

    def test_matches_individual_transcripts(
        self, transcriber, batch_waveforms
    ):
        batch = transcriber.transcribe_batch(batch_waveforms)
        singles = [
            transcriber.pipeline.transcribe(w).text for w in batch_waveforms
        ]
        assert batch.texts == singles

    def test_throughput_positive(self, transcriber, batch_waveforms):
        result = transcriber.transcribe_batch(batch_waveforms)
        assert result.throughput_seq_per_s > 0

    def test_empty_batch_rejected(self, transcriber):
        with pytest.raises(ValueError):
            transcriber.transcribe_batch([])

    def test_nonpositive_pipelined_ms_raises_clearly(self):
        """Regression: a zero/negative pipelined time used to surface as
        a ZeroDivisionError (or a misleading "empty batch" message) from
        the throughput property; both accessors must name the actual
        invariant instead."""
        from repro.asr.batch import BatchResult

        broken = BatchResult(results=(), single_shot_ms=1.0, pipelined_ms=0.0)
        with pytest.raises(ValueError, match="pipelined_ms must be positive"):
            broken.throughput_seq_per_s
        with pytest.raises(ValueError, match="pipelined_ms must be positive"):
            broken.pipelining_gain

    def test_single_shot_reuses_per_result_reports(
        self, transcriber, batch_waveforms
    ):
        """The naive accounting must be exactly the sum of the per-result
        accelerator latencies — it used to recompute the report and
        could drift from what each TranscriptionResult carries."""
        result = transcriber.transcribe_batch(batch_waveforms)
        assert result.single_shot_ms == pytest.approx(
            sum(r.accelerator_ms for r in result.results), abs=0.0
        )

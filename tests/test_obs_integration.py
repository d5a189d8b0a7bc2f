"""Telemetry wired through the simulator stack: deterministic op/byte
accounting, functional-vs-trace agreement, KV-cache and beam counters,
and the guarantee that disabled telemetry changes nothing."""

import numpy as np
import pytest

from repro import obs
from repro.config import ModelConfig
from repro.hw.accelerator import TransformerAccelerator
from repro.hw.controller import LatencyModel
from repro.hw.executor import execute_program
from repro.hw.program import (
    lower,
    program_hbm_bytes,
    program_load_bytes,
    program_op_counts,
    trace_program,
)
from repro.model.params import init_transformer_params

SOS, EOS = 1, 2


@pytest.fixture(scope="module")
def params():
    cfg = ModelConfig(
        d_model=64,
        num_heads=2,
        d_ff=128,
        num_encoders=1,
        num_decoders=2,
        vocab_size=31,
    )
    return init_transformer_params(cfg, seed=11)


@pytest.fixture(scope="module")
def accel(params):
    return TransformerAccelerator(params, hw_seq_len=8)


def _features(accel) -> np.ndarray:
    rng = np.random.default_rng(5)
    d = accel.config.d_model
    return (0.5 * rng.standard_normal((accel.hw_seq_len, d))).astype(np.float32)


def _run_full_pass(accel, params):
    program = accel.program()
    s = accel.hw_seq_len
    rng = np.random.default_rng(0)
    inputs = {
        "x": rng.standard_normal((s, params.config.d_model)).astype(np.float32),
        "dec_in": rng.standard_normal((s, params.config.d_model)).astype(
            np.float32
        ),
        "enc_mask": None,
        "dec_self_mask": None,
        "dec_memory_mask": None,
    }
    execute_program(program, root=params, inputs=inputs)
    return program


class TestExecutorAccounting:
    def test_op_and_byte_counters_deterministic(self, accel, params):
        def one_run() -> dict:
            with obs.telemetry() as session:
                _run_full_pass(accel, params)
            return {
                k: v
                for k, v in session.metrics.as_dict().items()
                if k.startswith("repro.hw.program.ops")
                or k == "repro.hw.hbm.bytes_streamed"
            }

        first, second = one_run(), one_run()
        assert first == second
        assert any(v > 0 for v in first.values())

    def test_functional_and_trace_agree_on_ops(self, accel, params):
        """The functional executor's op counters and the trace probe's
        op gauges come from the same lowering and must agree exactly."""
        with obs.telemetry() as session:
            program = _run_full_pass(accel, params)
            obs.record_program_metrics(program)
        metrics = session.metrics.as_dict()
        kinds = program_op_counts(program)
        assert kinds  # load + matmul + vector at minimum
        for kind, count in kinds.items():
            assert metrics[f"repro.hw.program.ops{{kind={kind}}}"] == count
            assert metrics[f"repro.hw.program.trace_ops{{kind={kind}}}"] == count

    def test_trace_event_count_matches_op_account(self, accel):
        """Every non-zero-cycle compute/stream op appears on each of
        its engines in the trace executor's timeline; weight movement
        shows up as the scheduled HBM loads plus the host dispatch
        overheads — nothing else."""
        from repro.hw.program import OpKind

        program = accel.program()
        timeline = trace_program(program, "A3")
        op_events = sum(
            len(op.engines)
            for op in program.ops
            if op.cycles > 0 and op.kind is not OpKind.LOAD
        )
        other = sum(
            1 for e in timeline.events if e.kind in ("load", "overhead")
        )
        assert op_events > 0
        assert len(timeline.events) == op_events + other

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3"])
    def test_hbm_channel_bytes_total_to_load_bytes(self, params, arch):
        lm = LatencyModel(model=params.config)
        program = lm.full_pass_program(16)
        per_channel = program_hbm_bytes(program, arch)
        assert sum(per_channel.values()) == program_load_bytes(program)
        assert program_load_bytes(program) > 0
        if arch == "A3":
            # Fig 4.11: decoder MHA on channel 0, FFN on channel 1.
            assert set(per_channel) == {0, 1}

    def test_bytes_streamed_counter_matches_program(self, accel, params):
        with obs.telemetry() as session:
            program = _run_full_pass(accel, params)
        assert session.metrics.value(
            "repro.hw.hbm.bytes_streamed"
        ) == program_load_bytes(program)

    def test_lowering_cache_metrics_present(self, accel, params):
        with obs.telemetry() as session:
            _run_full_pass(accel, params)
        metrics = session.metrics.as_dict()
        info = lower.cache_info()
        assert metrics["repro.hw.program.lower.cache_hits"] == info.hits
        assert metrics["repro.hw.program.lower.cache_misses"] == info.misses


class TestProbeMetrics:
    def test_engine_and_schedule_gauges(self, accel):
        with obs.telemetry() as session:
            timeline = obs.record_program_metrics(accel.program())
        assert timeline is not None
        metrics = session.metrics.as_dict()
        engine_keys = [
            k for k in metrics if k.startswith("repro.hw.engine.busy_cycles")
        ]
        assert any("engine=hbm0" in k for k in engine_keys)
        assert any(".psa" in k for k in engine_keys)
        assert 0 < metrics["repro.hw.psa.occupancy"] <= 1
        assert metrics["repro.hw.schedule.total_cycles"] > 0

    def test_probe_disabled_returns_none(self, accel):
        assert obs.record_program_metrics(accel.program()) is None

    def test_schedule_gauges_come_from_the_traced_pass(self, accel):
        # The probe schedules the program exactly once: the schedule
        # gauges must agree with an independent schedule_program() call
        # and with the traced makespan.
        from repro.hw.program import schedule_program

        program = accel.program()
        overhead = program.fabric.calibration.block_overhead_cycles
        with obs.telemetry() as session:
            timeline = obs.record_program_metrics(program)
        sched = schedule_program(program, "A3", block_overhead=overhead)
        metrics = session.metrics.as_dict()
        assert metrics["repro.hw.schedule.total_cycles"] == sched.total_cycles
        assert metrics["repro.hw.schedule.stall_cycles"] == sched.stall_cycles
        assert timeline.makespan == sched.total_cycles


class TestKvCacheCounters:
    def test_prefill_append_rewind_account(self, accel, params):
        cfg = params.config
        with obs.telemetry() as session:
            sess = accel.decode_session(_features(accel))
            step = sess.step_fn()
            step(np.array([SOS, 4, 9], dtype=np.int64))
            resident_full = session.metrics.value(
                "repro.hw.kv_cache.resident_bytes"
            )
            sess.rewind(1)
        m = session.metrics.as_dict()
        assert m["repro.hw.kv_cache.prefills"] == 1
        # 3 steps x num_decoders layers x num_heads heads x (K + V)
        assert m["repro.hw.kv_cache.appends"] == (
            3 * cfg.num_decoders * cfg.num_heads * 2
        )
        assert m["repro.hw.kv_cache.rewinds"] == 1
        assert m["repro.hw.decode.steps"] == 3
        assert 0 < m["repro.hw.kv_cache.resident_bytes"] < resident_full


class TestBeamCounters:
    def test_expansions_and_early_stop(self):
        from repro.decoding.beam import beam_search

        def step_fn(tokens):
            # eos strongly preferred: finishes fast and triggers the
            # early-stop bound once the beam fills with finished hyps.
            lp = np.full(8, -10.0)
            lp[EOS] = -0.1
            lp[3] = -1.0
            return lp

        with obs.telemetry() as session:
            beam_search(step_fn, SOS, EOS, max_len=6, beam_size=2,
                        length_penalty=1.0)
        m = session.metrics.as_dict()
        assert m["repro.decoding.beam.hypotheses_expanded"] >= 1
        assert m["repro.decoding.beam.finished"] >= 2
        assert m["repro.decoding.beam.early_stops"] == 1


class TestDisabledTelemetryUnchanged:
    def test_latency_model_numbers_identical(self):
        lm = LatencyModel()
        baseline = lm.latency_ms(32, "A3")
        with obs.telemetry():
            instrumented = LatencyModel().latency_ms(32, "A3")
        assert instrumented == baseline
        assert lm.latency_ms(32, "A3") == baseline

    def test_functional_outputs_identical(self, accel, params):
        program = accel.program()
        s = accel.hw_seq_len
        rng = np.random.default_rng(1)
        inputs = {
            "x": rng.standard_normal((s, params.config.d_model)).astype(
                np.float32
            ),
            "dec_in": rng.standard_normal((s, params.config.d_model)).astype(
                np.float32
            ),
            "enc_mask": None,
            "dec_self_mask": None,
            "dec_memory_mask": None,
        }
        plain = execute_program(program, root=params, inputs=inputs)
        with obs.telemetry():
            traced = execute_program(program, root=params, inputs=inputs)
        for name, arr in plain.outputs.items():
            np.testing.assert_array_equal(arr, traced.outputs[name])

    def test_no_registry_writes_when_disabled(self, accel):
        assert not obs.enabled()
        reg = obs.registry()
        trace_program(accel.program(), "A3")  # exercises the hw layer
        assert reg.collect() == []

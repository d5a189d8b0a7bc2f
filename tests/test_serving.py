"""Tests for the multi-tenant serving simulator.

Covers the arrival models (deterministic seeding), the
continuous-batching scheduler (join/leave at step boundaries,
cache-pressure admission, priority preemption with functional rewind
equivalence), the hardware batching hooks, and the load-sweep
analysis."""

import numpy as np
import pytest

import repro.obs as obs
from repro.hw.accelerator import TransformerAccelerator, step_batch
from repro.hw.controller import LatencyModel
from repro.hw.kv_cache import modeled_resident_bytes
from repro.obs.vtrace import VTraceRecorder
from repro.serving import (
    BurstyArrivals,
    ContinuousBatchingScheduler,
    DiurnalArrivals,
    FunctionalExecutor,
    LoadPoint,
    ModeledExecutor,
    PoissonArrivals,
    RequestState,
    ServingConfig,
    UtteranceRequest,
    diff_sweeps,
    find_saturation,
    make_arrival_model,
    render_sweep,
    render_sweep_delta,
    simulate,
    sweep_offered_load,
    synthesize_requests,
)


@pytest.fixture(scope="module")
def executor():
    """One shared modeled executor so iteration-cost caches warm once."""
    return ModeledExecutor(ServingConfig(s=32, max_batch=4))


def _decode_step_ends(vt, clock_hz):
    """Per request id, the virtual end times (s) of the decode
    iterations it ran in, from the ``decode_iter`` events."""
    ends = {}
    for event in vt.events:
        if event.kind == "decode_iter":
            end_s = (event.cycle + event.attrs["cycles"]) / clock_hz
            for rid in event.attrs["request_ids"]:
                ends.setdefault(rid, []).append(end_s)
    return ends


def _cfg(**kw):
    defaults = dict(s=32, max_batch=4, slo_ms=1e9)
    defaults.update(kw)
    return ServingConfig(**defaults)


class TestArrivalModels:
    @pytest.mark.parametrize("model_cls", [
        PoissonArrivals,
        BurstyArrivals,
        DiurnalArrivals,
    ])
    def test_deterministic_and_monotone(self, model_cls):
        a = model_cls(2.0, seed=3).times(50)
        b = model_cls(2.0, seed=3).times(50)
        assert a == b
        assert all(t2 > t1 for t1, t2 in zip(a, a[1:]))
        assert a[0] > 0
        assert model_cls(2.0, seed=4).times(50) != a

    def test_poisson_rate_roughly_matches(self):
        times = PoissonArrivals(4.0, seed=0).times(400)
        realized = len(times) / times[-1]
        assert realized == pytest.approx(4.0, rel=0.3)

    def test_bursty_mean_rate_roughly_matches(self):
        times = BurstyArrivals(4.0, seed=0).times(800)
        realized = len(times) / times[-1]
        assert realized == pytest.approx(4.0, rel=0.4)

    def test_bursty_is_burstier_than_poisson(self):
        """Squared coefficient of variation of gaps: MMPP > Poisson."""
        def cv2(times):
            gaps = np.diff([0.0] + times)
            return float(np.var(gaps) / np.mean(gaps) ** 2)

        assert cv2(BurstyArrivals(4.0, seed=1).times(800)) > cv2(
            PoissonArrivals(4.0, seed=1).times(800)
        )

    def test_diurnal_rate_at(self):
        model = DiurnalArrivals(2.0, amplitude=0.5, period_s=10.0)
        assert model.rate_at(2.5) == pytest.approx(3.0)
        assert model.rate_at(7.5) == pytest.approx(1.0)

    def test_factory(self):
        assert isinstance(make_arrival_model("poisson", 1.0), PoissonArrivals)
        assert isinstance(make_arrival_model("bursty", 1.0), BurstyArrivals)
        assert isinstance(make_arrival_model("diurnal", 1.0), DiurnalArrivals)
        with pytest.raises(ValueError, match="unknown arrival model"):
            make_arrival_model("uniform", 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)
        with pytest.raises(ValueError):
            BurstyArrivals(1.0, burst_factor=0.5)
        with pytest.raises(ValueError):
            BurstyArrivals(1.0, burst_fraction=1.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(1.0, amplitude=1.0)
        with pytest.raises(ValueError):
            PoissonArrivals(1.0).times(-1)


class TestSynthesizeRequests:
    def test_deterministic_and_bounded(self):
        arrival = PoissonArrivals(2.0, seed=5)
        a = synthesize_requests(arrival, 20, seed=5)
        b = synthesize_requests(arrival, 20, seed=5)
        assert a == b
        assert [r.request_id for r in a] == list(range(20))
        assert all(4 <= r.decode_tokens <= 16 for r in a)
        assert all(r.priority in (0, 1) for r in a)
        assert any(r.priority == 1 for r in a)

    def test_default_tenant_is_zero(self):
        arrival = PoissonArrivals(2.0, seed=5)
        reqs = synthesize_requests(arrival, 10, seed=5)
        assert all(r.tenant == 0 for r in reqs)
        assert UtteranceRequest(0, 0.0, 4).tenant == 0

    def test_tenant_mix_deterministic_and_spread(self):
        arrival = PoissonArrivals(2.0, seed=5)
        a = synthesize_requests(arrival, 30, seed=5, tenant_classes=3)
        b = synthesize_requests(arrival, 30, seed=5, tenant_classes=3)
        assert a == b
        tenants = {r.tenant for r in a}
        assert tenants <= {0, 1, 2}
        assert len(tenants) > 1

    def test_tenant_weights_skew_the_mix(self):
        arrival = PoissonArrivals(2.0, seed=5)
        reqs = synthesize_requests(
            arrival, 40, seed=5, tenant_classes=2, tenant_weights=[9.0, 1.0]
        )
        heavy = sum(1 for r in reqs if r.tenant == 0)
        assert heavy > len(reqs) // 2

    def test_tenant_draws_do_not_perturb_existing_streams(self):
        """The tenant mix comes from a separate RNG stream: token and
        priority draws are bit-identical with and without tenants, so
        every pre-existing pinned cycle count is safe."""
        arrival = PoissonArrivals(2.0, seed=5)
        plain = synthesize_requests(arrival, 20, seed=5)
        mixed = synthesize_requests(arrival, 20, seed=5, tenant_classes=4)
        for p, m in zip(plain, mixed):
            assert p.decode_tokens == m.decode_tokens
            assert p.priority == m.priority
            assert p.arrival_s == m.arrival_s

    def test_validation(self):
        arrival = PoissonArrivals(1.0)
        with pytest.raises(ValueError):
            synthesize_requests(arrival, 0)
        with pytest.raises(ValueError):
            synthesize_requests(arrival, 2, min_tokens=8, max_tokens=4)
        with pytest.raises(ValueError):
            synthesize_requests(arrival, 2, tenant_classes=0)
        with pytest.raises(ValueError):
            synthesize_requests(arrival, 2, tenant_classes=2,
                                tenant_weights=[1.0])
        with pytest.raises(ValueError):
            UtteranceRequest(0, -1.0, 4)
        with pytest.raises(ValueError):
            UtteranceRequest(0, 0.0, 0)
        with pytest.raises(ValueError):
            UtteranceRequest(0, 0.0, 4, tenant=-1)


class TestSchedulerBasics:
    def test_all_requests_complete(self, executor):
        reqs = synthesize_requests(PoissonArrivals(2.0, seed=7), 10, seed=7)
        vt = VTraceRecorder()
        result = simulate(reqs, _cfg(), executor, vtrace=vt)
        assert len(result.completed) == 10
        steps = _decode_step_ends(vt, executor.clock_hz)
        completed = {e.request_id for e in vt.events if e.kind == "complete"}
        for record in result.records:
            assert record.state is RequestState.COMPLETED
            assert record.decoded_tokens == record.request.decode_tokens
            assert record.finished_s > record.request.arrival_s
            assert record.e2e_ms > 0
            rid = record.request.request_id
            assert rid in completed
            assert len(steps[rid]) >= record.request.decode_tokens

    def test_deterministic_across_runs(self, executor):
        reqs = synthesize_requests(PoissonArrivals(3.0, seed=2), 8, seed=2)
        a = simulate(reqs, _cfg(), executor)
        b = simulate(reqs, _cfg(), executor)
        assert a.device_end_cycles == b.device_end_cycles
        assert [r.finished_s for r in a.records] == [
            r.finished_s for r in b.records
        ]

    def test_continuous_batch_join_at_step_boundary(self, executor):
        """A request arriving mid-decode joins the in-flight batch."""
        ex = executor
        clock = ex.clock_hz
        prefill_s = ex.prefill_cycles(None) / clock
        step_s = ex.iteration_cycles([1]) / clock
        # r1 arrives while r0 is several decode steps in.
        reqs = [
            UtteranceRequest(0, 0.0, 12),
            UtteranceRequest(1, prefill_s + 3 * step_s, 6),
        ]
        vt = VTraceRecorder()
        result = simulate(reqs, _cfg(), ex, vtrace=vt)
        assert result.peak_batch == 2
        r0, r1 = result.records
        # r0 keeps decoding while r1 is served: its steps bracket r1's.
        r0_steps = _decode_step_ends(vt, clock)[0]
        assert r0_steps[0] < r1.prefill_done_s < r0.finished_s
        # Shared iterations: fewer than solo step sums.
        assert result.decode_iterations < 12 + 6

    def test_batching_beats_serial(self, executor):
        """max_batch=1 serializes decode; batching finishes sooner."""
        reqs = [
            UtteranceRequest(0, 0.0, 8),
            UtteranceRequest(1, 0.0, 8),
            UtteranceRequest(2, 0.0, 8),
        ]
        batched = simulate(reqs, _cfg(max_batch=4), executor)
        serial = simulate(reqs, _cfg(max_batch=1))
        assert batched.device_end_cycles < serial.device_end_cycles
        assert batched.peak_batch == 3
        assert serial.peak_batch == 1

    def test_idle_gap_attributed(self, executor):
        """A long quiet gap between arrivals shows up as idle cycles."""
        reqs = [
            UtteranceRequest(0, 0.0, 4),
            UtteranceRequest(1, 5.0, 4),
        ]
        result = simulate(reqs, _cfg(), executor)
        assert result.idle_cycles_total > 0
        assert result.idle_cycles_total < result.device_end_cycles

    def test_quantiles(self, executor):
        reqs = synthesize_requests(PoissonArrivals(2.0, seed=9), 10, seed=9)
        result = simulate(reqs, _cfg(), executor)
        p50 = result.latency_quantile(0.5)
        p99 = result.latency_quantile(0.99)
        assert 0 < p50 <= p99
        with pytest.raises(ValueError):
            result.latency_quantile(1.5)

    def test_validation(self, executor):
        with pytest.raises(ValueError, match="at least one request"):
            simulate([], _cfg(), executor)
        tiny = modeled_resident_bytes(executor.lm.model, 32, 0) // 2
        with pytest.raises(ValueError, match="cannot hold even one"):
            simulate(
                [UtteranceRequest(0, 0.0, 4)],
                _cfg(kv_budget_bytes=tiny),
                ModeledExecutor(_cfg(kv_budget_bytes=tiny)),
            )
        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(slo_ms=0.0)
        with pytest.raises(ValueError):
            ServingConfig(architecture="A9")


class TestCachePressureAdmission:
    def test_budget_limits_concurrency(self, executor):
        """A budget sized for one worst-case cache serializes admission
        even though batch slots are free."""
        budget = modeled_resident_bytes(executor.lm.model, 32, 16)
        cfg = _cfg(kv_budget_bytes=budget)
        ex = ModeledExecutor(cfg, executor.lm)
        reqs = [
            UtteranceRequest(0, 0.0, 10),
            UtteranceRequest(1, 0.0, 10),
        ]
        result = simulate(reqs, cfg, ex)
        assert result.peak_batch == 1
        assert result.preemptions == 0  # equal priority: no eviction
        assert len(result.completed) == 2
        r1 = result.records[1]
        assert r1.queue_ms > 0  # waited for r0's cache to drain
        assert result.peak_kv_bytes <= budget

    def test_generous_budget_runs_concurrently(self, executor):
        reqs = [
            UtteranceRequest(0, 0.0, 10),
            UtteranceRequest(1, 0.0, 10),
        ]
        result = simulate(reqs, _cfg(), executor)
        assert result.peak_batch == 2

    def test_decode_iter_events_carry_batch_membership(self, executor):
        """Event schema v2: every decode_iter event names its batch
        members and their tenants, in batch order — what the cost
        ledger apportions by."""
        from repro.obs.vtrace import VTraceRecorder

        reqs = [
            UtteranceRequest(0, 0.0, 6, tenant=1),
            UtteranceRequest(1, 0.0, 6, tenant=0),
        ]
        vt = VTraceRecorder()
        simulate(reqs, _cfg(), executor, vtrace=vt)
        iters = [e for e in vt.events if e.kind == "decode_iter"]
        assert iters
        for ev in iters:
            rids = ev.attrs["request_ids"]
            tenants = ev.attrs["tenants"]
            assert len(rids) == len(tenants) == ev.attrs["batch"]
            assert len(rids) == len(ev.attrs["prefix_lengths"])
            assert set(rids) <= {0, 1}
            assert tenants == [1 if r == 0 else 0 for r in rids]
        # per-request lifecycle events carry the tenant label too
        completes = [e for e in vt.events if e.kind == "complete"]
        assert {(e.request_id, e.tenant) for e in completes} == {
            (0, 1), (1, 0)
        }

    def test_kv_gauge_tracks_modeled_bytes(self, executor):
        reqs = [UtteranceRequest(0, 0.0, 6)]
        with obs.telemetry() as tel:
            result = simulate(reqs, _cfg(), executor)
            gauge_names = tel.metrics.names()
        assert "repro.serving.kv_resident_bytes" in gauge_names
        assert result.peak_kv_bytes == modeled_resident_bytes(
            executor.lm.model, 32, 5
        )  # peak observed after the 5th of 6 steps (last step completes)


class TestPreemption:
    def _pressure_setup(self, executor, preemption=True):
        """One low-priority request in flight, budget for one cache,
        then a high-priority arrival forces the decision."""
        budget = modeled_resident_bytes(executor.lm.model, 32, 16)
        cfg = _cfg(kv_budget_bytes=budget, preemption=preemption)
        ex = ModeledExecutor(cfg, executor.lm)
        clock = ex.clock_hz
        mid_decode_s = (
            ex.prefill_cycles(None) + 3 * ex.iteration_cycles([1])
        ) / clock * 1.01
        reqs = [
            UtteranceRequest(0, 0.0, 12, priority=1),
            UtteranceRequest(1, mid_decode_s, 6, priority=0),
        ]
        return cfg, ex, reqs

    def test_high_priority_preempts_low(self, executor):
        cfg, ex, reqs = self._pressure_setup(executor)
        result = simulate(reqs, cfg, ex)
        low, high = result.records
        assert result.preemptions == 1
        assert low.preemptions == 1
        assert low.replayed_steps > 0
        assert result.replayed_steps == low.replayed_steps
        # The high-priority request jumps the line and finishes first.
        assert high.finished_s < low.finished_s
        # Both still complete in full.
        assert len(result.completed) == 2
        assert low.decoded_tokens == 12

    def test_preemption_disabled_waits_instead(self, executor):
        cfg, ex, reqs = self._pressure_setup(executor, preemption=False)
        result = simulate(reqs, cfg, ex)
        low, high = result.records
        assert result.preemptions == 0
        # Without eviction the high-priority request queues behind.
        assert high.finished_s > low.finished_s
        assert len(result.completed) == 2

    def test_preemption_costs_replay_cycles(self, executor):
        """The preempted run does strictly more device work."""
        cfg, ex, reqs = self._pressure_setup(executor)
        with_preempt = simulate(reqs, cfg, ex)
        cfg_off, ex_off, _ = self._pressure_setup(executor, preemption=False)
        without = simulate(reqs, cfg_off, ex_off)
        assert with_preempt.replay_cycles_total > 0
        assert (
            with_preempt.prefill_cycles_total + with_preempt.decode_cycles_total
            > without.prefill_cycles_total + without.decode_cycles_total
        )


class TestFunctionalEquivalence:
    """Preemption/rewind must be functionally invisible: the emitted
    token sequences match an unpreempted greedy decode exactly."""

    def test_preempted_tokens_identical_to_solo(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=16)
        config = small_params.config
        rng = np.random.default_rng(3)
        feats = {
            i: rng.normal(size=(10, config.d_model)).astype(np.float32)
            for i in range(2)
        }
        budget = modeled_resident_bytes(config, 16, 8)
        scfg = ServingConfig(
            s=16, max_batch=4, kv_budget_bytes=budget, slo_ms=1e9
        )
        lm = accel.latency_model
        prefill_s = lm.latency_report(16).total_cycles / (
            lm.hardware.clock_mhz * 1e6
        )
        reqs = [
            UtteranceRequest(0, 0.0, 8, priority=1),
            UtteranceRequest(1, prefill_s * 2.0, 6, priority=0),
        ]
        ex = FunctionalExecutor(
            scfg, accel, lambda r: feats[r.request_id], start_token=1
        )
        result = ContinuousBatchingScheduler(scfg, ex).run(reqs)
        assert result.preemptions >= 1
        assert result.replayed_steps > 0
        for rid, n in [(0, 8), (1, 6)]:
            session = accel.decode_session(feats[rid])
            feed, reference = 1, []
            for _ in range(n):
                out = session.step(int(feed))
                feed = int(np.argmax(out))
                reference.append(feed)
            assert ex.emitted[rid] == reference


class TestHwBatchingHooks:
    def test_weight_sharing_amortizes_loads(self):
        lm = LatencyModel()
        lengths = [3, 4, 5, 6]
        shared = lm.decode_iteration_cycles(lengths, 32, share_weights=True)
        unshared = lm.decode_iteration_cycles(lengths, 32, share_weights=False)
        solo = sum(lm.decode_iteration_cycles([t], 32) for t in lengths)
        assert shared < unshared
        assert unshared <= solo  # chained members still pipeline a bit
        # The batch win is substantial, not marginal.
        assert shared < 0.6 * solo

    def test_single_member_matches_solo(self):
        lm = LatencyModel()
        assert lm.decode_iteration_cycles([5], 32) == lm.decode_iteration_cycles(
            [5], 32, share_weights=False
        )

    def test_validation(self):
        lm = LatencyModel()
        with pytest.raises(ValueError):
            lm.decode_iteration_cycles([], 32)
        with pytest.raises(ValueError):
            lm.decode_iteration_cycles([0], 32)

    def test_step_batch_matches_individual_steps(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        config = small_params.config
        rng = np.random.default_rng(11)
        feats = [
            rng.normal(size=(6, config.d_model)).astype(np.float32)
            for _ in range(2)
        ]
        batch = [accel.decode_session(f) for f in feats]
        ref = [accel.decode_session(f) for f in feats]
        outs, cycles = step_batch(batch, [1, 2])
        expected = [s.step(t) for s, t in zip(ref, [1, 2])]
        for got, want in zip(outs, expected):
            np.testing.assert_array_equal(got, want)
        assert cycles == accel.latency_model.decode_iteration_cycles(
            [1, 1], accel.hw_seq_len, accel.architecture
        )

    def test_step_batch_validation(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        other = TransformerAccelerator(small_params, hw_seq_len=8)
        config = small_params.config
        feats = np.zeros((4, config.d_model), dtype=np.float32)
        session = accel.decode_session(feats)
        with pytest.raises(ValueError, match="at least one session"):
            step_batch([], [])
        with pytest.raises(ValueError, match="one token per session"):
            step_batch([session], [1, 2])
        with pytest.raises(ValueError, match="share one accelerator"):
            step_batch([session, other.decode_session(feats)], [1, 2])

    def test_session_preempt_and_replay(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        config = small_params.config
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, config.d_model)).astype(np.float32)
        session = accel.decode_session(feats)
        outs = [session.step(t) for t in (1, 2, 3)]
        prefix = session.preempt()
        assert prefix == [1, 2, 3]
        assert session.tokens == []
        assert session.resident_bytes() == modeled_resident_bytes(
            config, session.cache.memory_len, 0
        )
        replayed = [session.step(t) for t in prefix]
        for got, want in zip(replayed, outs):
            np.testing.assert_array_equal(got, want)

    def test_modeled_resident_bytes_pins_live_cache(self, small_params):
        accel = TransformerAccelerator(small_params, hw_seq_len=8)
        config = small_params.config
        feats = np.zeros((5, config.d_model), dtype=np.float32)
        session = accel.decode_session(feats)
        for step, token in enumerate((1, 2, 3), start=1):
            session.step(token)
            assert session.resident_bytes() == modeled_resident_bytes(
                config, session.cache.memory_len, step
            )


class TestSweepAnalysis:
    @pytest.fixture(scope="class")
    def sweep(self, executor):
        return sweep_offered_load(
            [0.5, 2.0, 8.0],
            num_requests=10,
            config=_cfg(slo_ms=1500.0),
            seed=11,
            executor=executor,
        )

    def test_three_load_points(self, sweep):
        assert [p.offered_rps for p in sweep.points] == [0.5, 2.0, 8.0]
        for p in sweep.points:
            assert p.completed == 10
            assert 0 < p.p50_ms <= p.p95_ms <= p.p99_ms

    def test_latency_grows_with_load(self, sweep):
        assert sweep.points[-1].p95_ms > sweep.points[0].p95_ms

    def test_attribution_fields(self, sweep):
        att = sweep.attribution
        assert set(att) >= {
            "saturated", "bottleneck", "prefill_frac", "decode_frac",
            "idle_frac", "psa_dominant_cause", "stall_program",
        }
        assert att["psa_dominant_cause"] in (
            "load_starved", "dependency", "channel_contention",
            "overhead", "none",
        )
        total = att["prefill_frac"] + att["decode_frac"] + att["idle_frac"]
        assert total == pytest.approx(1.0, abs=0.02)

    def test_render(self, sweep):
        text = render_sweep(sweep)
        assert "p95 ms" in text
        assert "stall taxonomy" in text

    def test_find_saturation(self, sweep):
        def fake(offered, goodput):
            return LoadPoint(
                offered_rps=offered, completed=1, throughput_rps=goodput,
                goodput_rps=goodput, p50_ms=1, p95_ms=1, p99_ms=1,
                queue_p95_ms=0, preemptions=0, replayed_steps=0,
                peak_kv_bytes=0, peak_queue_depth=0, peak_batch=1,
                device_cycles=1, prefill_frac=0.5, decode_frac=0.5,
                idle_frac=0.0,
            )

        points = [fake(1.0, 1.0), fake(4.0, 3.2), fake(8.0, 3.5)]
        knee = find_saturation(points)
        assert knee is not None and knee.offered_rps == 4.0
        assert find_saturation([fake(1.0, 1.0)]) is None
        with pytest.raises(ValueError):
            find_saturation(points, goodput_ratio=0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            sweep_offered_load([])
        with pytest.raises(ValueError, match="sorted ascending"):
            sweep_offered_load([2.0, 1.0])


class TestSweepDelta:
    """Serving-side differential profile: two sweeps over the same
    offered-load ladder, diffed point-for-point."""

    @pytest.fixture(scope="class")
    def base_sweep(self, executor):
        return sweep_offered_load(
            [0.5, 2.0, 8.0], num_requests=8,
            config=_cfg(slo_ms=1500.0), seed=11, executor=executor,
        )

    @pytest.fixture(scope="class")
    def cand_sweep(self):
        return sweep_offered_load(
            [0.5, 2.0, 8.0], num_requests=8,
            config=_cfg(slo_ms=1500.0, max_batch=2), seed=11,
        )

    def test_self_diff_is_zero_everywhere(self, base_sweep):
        delta = diff_sweeps(base_sweep, base_sweep)
        assert not delta.knee_moved
        for p in delta.points:
            assert all(v == 0 for k, v in p.items() if k != "offered_rps")

    def test_point_deltas_are_exact_differences(self, base_sweep, cand_sweep):
        delta = diff_sweeps(base_sweep, cand_sweep)
        assert [p["offered_rps"] for p in delta.points] == [0.5, 2.0, 8.0]
        for p, a, b in zip(delta.points, base_sweep.points, cand_sweep.points):
            assert p["d_device_cycles"] == b.device_cycles - a.device_cycles
            assert p["d_p95_ms"] == b.p95_ms - a.p95_ms
            assert p["d_goodput_rps"] == b.goodput_rps - a.goodput_rps

    def test_knee_comes_from_find_saturation(self, base_sweep, cand_sweep):
        delta = diff_sweeps(base_sweep, cand_sweep)
        base_knee = find_saturation(base_sweep.points)
        assert delta.base_saturation_rps == (
            base_knee.offered_rps if base_knee else None
        )
        assert delta.knee_moved == (
            delta.base_saturation_rps != delta.cand_saturation_rps
        )

    def test_mismatched_ladders_raise(self, base_sweep):
        other = sweep_offered_load(
            [0.5, 2.0, 4.0], num_requests=4, config=_cfg(slo_ms=1500.0),
            seed=11,
        )
        with pytest.raises(ValueError, match="different offered-load"):
            diff_sweeps(base_sweep, other)

    def test_render_and_as_dict(self, base_sweep, cand_sweep):
        delta = diff_sweeps(base_sweep, cand_sweep)
        text = render_sweep_delta(delta)
        assert "serving diff:" in text
        assert "saturation knee:" in text
        assert "bottleneck:" in text
        payload = delta.as_dict()
        assert set(payload) == {
            "base", "cand", "points", "saturation_rps", "bottleneck",
        }


class TestVtraceInstrumentation:
    """The tracing hooks must be free when disabled: a run with the
    null recorder/sampler is bit-identical to an instrumented one."""

    def _requests(self):
        return synthesize_requests(
            make_arrival_model("poisson", 8.0, seed=11), 12, seed=11
        )

    def test_disabled_run_is_bit_identical_to_traced_run(self, executor):
        from repro.obs.vtrace import VSampler, VTraceRecorder

        plain = ContinuousBatchingScheduler(_cfg(), executor).run(
            self._requests()
        )
        traced = ContinuousBatchingScheduler(
            _cfg(), executor,
            vtrace=VTraceRecorder(), sampler=VSampler(cadence_cycles=50_000),
        ).run(self._requests())
        assert plain.device_end_cycles == traced.device_end_cycles
        assert plain.preemptions == traced.preemptions
        assert [r.e2e_ms for r in plain.completed] == [
            r.e2e_ms for r in traced.completed
        ]

    def test_default_hooks_record_nothing(self, executor):
        from repro.obs.vtrace import NULL_SAMPLER, NULL_VTRACE

        sched = ContinuousBatchingScheduler(_cfg(), executor)
        assert sched.vtrace is NULL_VTRACE
        assert sched.sampler is NULL_SAMPLER
        sched.run(self._requests())
        assert NULL_VTRACE.events == []
        assert NULL_SAMPLER.series() == {}

    def test_traced_run_covers_lifecycle(self, executor):
        from repro.obs.vtrace import VTraceRecorder

        vt = VTraceRecorder()
        result = ContinuousBatchingScheduler(
            _cfg(), executor, vtrace=vt
        ).run(self._requests())
        counts = vt.counts()
        assert counts["arrive"] == 12
        assert counts["complete"] == len(result.completed) == 12
        # preempted victims re-enter the queue and are admitted again
        assert counts["admit"] == counts["queue_wait"]
        assert counts["admit"] == 12 + counts.get("preempt", 0)
        assert counts["prefill_start"] == counts["prefill_end"]
        assert counts["prefill_start"] == result.prefills
        assert counts["decode_iter"] == result.decode_iterations
        # every event is causally ordered per request: arrive first
        from repro.obs.vtrace import request_phases

        for rid, phases in request_phases(vt.events).items():
            assert phases[0][0] == "queued"
            for (_, _, end), (_, start, _) in zip(phases, phases[1:]):
                assert start == end

"""Tests for the serving cost ledger: the exact-integer conservation
invariant across architectures and offered loads (preemption/replay
included), per-tenant rollups, capacity extrapolation, the metric
family, and the dashboard."""

import pytest

import repro.obs as obs
from repro.hw.controller import LatencyModel
from repro.hw.kv_cache import modeled_resident_bytes
from repro.obs.vtrace import VTraceRecorder
from repro.serving import (
    ModeledExecutor,
    PoissonArrivals,
    ServingConfig,
    UtteranceRequest,
    build_cost_ledger,
    estimate_capacity,
    record_cost_metrics,
    render_cost_dashboard,
    simulate,
    synthesize_requests,
)


@pytest.fixture(scope="module")
def lm():
    """One latency model so program/step caches warm once."""
    return LatencyModel()


def _run(lm, arch="A3", load_rps=4.0, num_requests=8, tenant_classes=2,
         seed=3, **cfg_kw):
    """Simulate a run with the vtrace recorder installed and build its
    ledger; returns (result, events, ledger)."""
    reqs = synthesize_requests(
        PoissonArrivals(load_rps, seed=seed), num_requests, seed=seed,
        tenant_classes=tenant_classes,
    )
    defaults = dict(s=32, max_batch=4, architecture=arch, slo_ms=1e9)
    defaults.update(cfg_kw)
    cfg = ServingConfig(**defaults)
    ex = ModeledExecutor(cfg, lm)
    vt = VTraceRecorder()
    result = simulate(reqs, cfg, ex, vtrace=vt)
    ledger = build_cost_ledger(result, vt.events, lm)
    return result, vt.events, ledger


class TestConservation:
    """The acceptance criterion: sum(attributed) + unattributed ==
    makespan, in exact integer arithmetic, across architectures and
    offered loads."""

    @pytest.mark.parametrize("arch", ["A1", "A2", "A3"])
    @pytest.mark.parametrize("load_rps", [2.0, 8.0])
    def test_exact_across_arch_and_load(self, lm, arch, load_rps):
        result, _, ledger = _run(lm, arch=arch, load_rps=load_rps)
        assert (
            ledger.attributed_cycles + ledger.unattributed_cycles
            == ledger.makespan_cycles
        )
        assert ledger.makespan_cycles == result.device_end_cycles
        totals = ledger.totals()
        # cross-check the split against the scheduler's own account
        assert totals["prefill_cycles"] == result.prefill_cycles_total
        assert totals["decode_cycles"] == result.decode_cycles_total
        assert ledger.unattributed_cycles == result.idle_cycles_total

    def test_exact_under_preemption_and_replay(self, lm):
        """Conservation must survive the messy path: eviction, rewind,
        re-prefill and replayed decode iterations."""
        budget = modeled_resident_bytes(lm.model, 32, 16)
        cfg = ServingConfig(
            s=32, max_batch=4, kv_budget_bytes=budget, preemption=True,
            slo_ms=1e9,
        )
        ex = ModeledExecutor(cfg, lm)
        clock = ex.clock_hz
        mid_decode_s = (
            ex.prefill_cycles(None) + 3 * ex.iteration_cycles([1])
        ) / clock * 1.01
        reqs = [
            UtteranceRequest(0, 0.0, 12, priority=1, tenant=0),
            UtteranceRequest(1, mid_decode_s, 6, priority=0, tenant=1),
        ]
        vt = VTraceRecorder()
        result = simulate(reqs, cfg, ex, vtrace=vt)
        assert result.preemptions == 1  # the scenario actually preempted
        ledger = build_cost_ledger(result, vt.events, lm)
        assert (
            ledger.attributed_cycles + ledger.unattributed_cycles
            == ledger.makespan_cycles
        )
        victim = ledger.request(0)
        assert victim.preemptions == 1
        assert victim.replay_cycles > 0
        # replay is a subset of the victim's attributed work
        assert victim.replay_cycles < victim.attributed_cycles
        # and the run-level replay account matches the scheduler's
        assert (
            ledger.totals()["replay_cycles"] >= result.replay_cycles_total
        )

    def test_unshared_weights_also_conserve(self, lm):
        _, _, ledger = _run(lm, share_weights=False)
        assert (
            ledger.attributed_cycles + ledger.unattributed_cycles
            == ledger.makespan_cycles
        )


class TestTenantRollup:
    def test_tenant_totals_sum_to_global(self, lm):
        _, _, ledger = _run(lm, tenant_classes=3, num_requests=12)
        tenants = ledger.per_tenant()
        assert len(tenants) > 1  # the mix actually spread
        totals = ledger.totals()
        assert sum(tc.attributed_cycles for tc in tenants) == (
            totals["attributed_cycles"]
        )
        assert sum(tc.hbm_load_bytes for tc in tenants) == (
            totals["hbm_load_bytes"]
        )
        assert sum(tc.kv_byte_cycles for tc in tenants) == (
            totals["kv_byte_cycles"]
        )
        assert sum(tc.requests for tc in tenants) == len(ledger.requests)

    def test_tenants_carried_from_requests(self, lm):
        _, _, ledger = _run(lm, tenant_classes=2)
        assert {rc.tenant for rc in ledger.requests} <= {0, 1}

    def test_residency_and_bytes_are_positive(self, lm):
        _, _, ledger = _run(lm)
        completed = [rc for rc in ledger.requests if rc.completed]
        assert completed
        for rc in completed:
            assert rc.hbm_load_bytes > 0
            assert rc.kv_byte_cycles > 0


class TestCapacityEstimate:
    def test_arithmetic(self, lm):
        _, _, ledger = _run(lm)
        cap = estimate_capacity(ledger, target_rps=100.0, utilization_cap=0.5)
        completed = sum(1 for rc in ledger.requests if rc.completed)
        assert cap.cycles_per_request == pytest.approx(
            ledger.attributed_cycles / completed
        )
        assert cap.utterances_per_s_per_card == pytest.approx(
            ledger.clock_hz / cap.cycles_per_request
        )
        # headroom can only ever add cards
        assert cap.cards_needed >= cap.cards_at_full_utilization >= 1

    def test_validation(self, lm):
        _, _, ledger = _run(lm)
        with pytest.raises(ValueError):
            estimate_capacity(ledger, target_rps=0.0)
        with pytest.raises(ValueError):
            estimate_capacity(ledger, target_rps=1.0, utilization_cap=1.5)
        # a ledger with no completions cannot extrapolate
        for rc in ledger.requests:
            rc.completed = False
        with pytest.raises(ValueError, match="completed"):
            estimate_capacity(ledger, target_rps=1.0)


class TestErrorPaths:
    def test_empty_event_stream_rejected(self, lm):
        result, events, _ = _run(lm)
        with pytest.raises(ValueError, match="event stream"):
            build_cost_ledger(result, [], lm)

    def test_schema_v1_decode_iter_rejected(self, lm):
        result, events, _ = _run(lm)
        stripped = []
        for ev in events:
            if ev.kind == "decode_iter":
                attrs = {
                    k: v for k, v in ev.attrs.items()
                    if k not in ("request_ids", "tenants")
                }
                ev = type(ev)(ev.cycle, ev.kind, ev.request_id,
                              ev.tenant, attrs)
            stripped.append(ev)
        with pytest.raises(ValueError, match="request_ids"):
            build_cost_ledger(result, stripped, lm)


    @pytest.mark.parametrize(
        "kind,attr",
        [
            ("queue_wait", "wait_cycles"),
            ("prefill_start", "cycles"),
            ("decode_iter", "cycles"),
            ("decode_iter", "prefix_lengths"),
            ("complete", "e2e_ms"),
        ],
    )
    def test_missing_attr_names_event_and_attr(self, lm, kind, attr):
        result, events, _ = _run(lm)
        pos = next(i for i, ev in enumerate(events) if ev.kind == kind)
        ev = events[pos]
        attrs = {k: v for k, v in ev.attrs.items() if k != attr}
        events[pos] = type(ev)(ev.cycle, ev.kind, ev.request_id, ev.tenant,
                               attrs)
        with pytest.raises(
            ValueError, match=rf"event {pos} \({kind}\) lacks the '{attr}'"
        ):
            build_cost_ledger(result, events, lm)

    def test_unknown_request_names_event(self, lm):
        """Events of another run name requests this result lacks."""
        result, _, _ = _run(lm, num_requests=4)
        _, other, _ = _run(lm, num_requests=8)
        pos = next(
            i for i, ev in enumerate(other)
            if ev.request_id is not None and ev.request_id >= 4
        )
        with pytest.raises(
            ValueError,
            match=rf"event {pos} \({other[pos].kind}\) names request "
            rf"{other[pos].request_id}",
        ):
            build_cost_ledger(result, other, lm)


class TestMetricsAndDashboard:
    def test_cost_metric_family_recorded(self, lm):
        _, _, ledger = _run(lm)
        with obs.telemetry() as tel:
            record_cost_metrics(ledger)
            names = tel.metrics.names()
        assert "repro.serving.cost.attributed_cycles" in names
        assert "repro.serving.cost.unattributed_cycles" in names
        assert "repro.serving.cost.jain_index" in names

    def test_null_cost_identity(self, lm):
        """With telemetry disabled, recording costs is a no-op and the
        ledger itself is untouched — instrumentation never perturbs
        the account."""
        _, _, ledger = _run(lm)
        before = ledger.as_dict()
        assert not obs.metrics.enabled()
        record_cost_metrics(ledger)  # no registry installed
        assert ledger.as_dict() == before

    def test_ledger_independent_of_telemetry(self, lm):
        """The cycle account is identical whether or not a metrics
        registry is active during the run."""
        _, _, plain = _run(lm)
        with obs.telemetry():
            _, _, instrumented = _run(lm)
        assert plain.totals() == instrumented.totals()

    def test_dashboard_renders_tenants_and_capacity(self, lm):
        _, _, ledger = _run(lm, tenant_classes=2, num_requests=10)
        cap = estimate_capacity(ledger, target_rps=50.0)
        text = render_cost_dashboard(ledger, cap, by_tenant=True)
        assert "cost attribution (exact integer conservation)" in text
        assert "jain fairness index" in text
        assert "capacity extrapolation" in text
        assert "cards @" in text

    def test_dashboard_single_tenant_hides_table(self, lm):
        _, _, ledger = _run(lm, tenant_classes=1)
        text = render_cost_dashboard(ledger)
        assert "jain fairness index" not in text
        assert "attributed" in text

"""The one fold over the serving event log, held to the old readers.

Generated :class:`~repro.serving.ModeledExecutor` runs (arrival shape,
load, batch width, K/V budget down to one request, tenants, seeds)
check that the cost ledger and request phases read from
:func:`repro.obs.vtrace.serving_log` equal the oracle of
``tests/reference_vtrace.py``, that every completed request's phases
tile its lifetime, that the log's device passes add up to the
scheduler's own totals, and that the event log is deterministic.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hw.controller import LatencyModel
from repro.hw.kv_cache import modeled_resident_bytes
from repro.obs.vtrace import (
    VTraceRecorder,
    request_phases,
    serving_log,
    vtrace_jsonl_lines,
)
from repro.serving import (
    ModeledExecutor,
    ServingConfig,
    build_cost_ledger,
    make_arrival_model,
    simulate,
    synthesize_requests,
)
from tests.reference_vtrace import reference_cost_ledger, reference_phases

LM = LatencyModel()

runs = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "arrival": st.sampled_from(["poisson", "bursty", "diurnal"]),
    "load_rps": st.sampled_from([2.0, 8.0, 32.0]),
    "num_requests": st.integers(4, 16),
    "max_batch": st.integers(1, 8),
    "tenants": st.integers(1, 3),
    # The budget holds this many caches of ``budget_tokens`` rows;
    # requests needing more than one such cache are rejected.
    "budget_slots": st.none() | st.integers(1, 4),
    "budget_tokens": st.integers(4, 16),
})


#: A pinned run with two preemptions and five replayed steps.
PINNED_RUN = {"seed": 2, "arrival": "poisson", "load_rps": 8.0,
              "num_requests": 16, "max_batch": 2, "tenants": 2,
              "budget_slots": 2, "budget_tokens": 16}


def serving_inputs(params):
    """(requests, config) of one generated run."""
    requests = synthesize_requests(
        make_arrival_model(params["arrival"], params["load_rps"],
                           seed=params["seed"]),
        params["num_requests"], seed=params["seed"],
        tenant_classes=params["tenants"],
    )
    budget = None
    if params["budget_slots"] is not None:
        budget = params["budget_slots"] * modeled_resident_bytes(
            LM.model, 32, params["budget_tokens"]
        )
    cfg = ServingConfig(s=32, max_batch=params["max_batch"], slo_ms=500.0,
                        kv_budget_bytes=budget, reject_oversized=True)
    return requests, cfg


def _simulate(params):
    requests, cfg = serving_inputs(params)
    vt = VTraceRecorder()
    result = simulate(requests, cfg, ModeledExecutor(cfg, LM), vtrace=vt)
    return result, vt.events


@given(runs)
@example(PINNED_RUN)
@settings(max_examples=40, deadline=None)
def test_serving_log_readers_match_oracle(params):
    result, events = _simulate(params)
    log = serving_log(events)

    assert (
        build_cost_ledger(result, events, LM).as_dict()
        == reference_cost_ledger(result, events, LM).as_dict()
    )
    assert request_phases(events) == reference_phases(events)

    # Each completed request's phases tile [arrive, complete].
    for record in result.records:
        req = log.requests[record.request.request_id]
        if req.complete_cycle is None:
            continue
        arrive = math.ceil(record.request.arrival_s * result.clock_hz)
        edges = [arrive] + [
            edge for _, start, end in req.phases for edge in (start, end)
        ] + [req.complete_cycle]
        assert edges[::2] == edges[1::2]
        assert all(start <= end for _, start, end in req.phases)

    # The device passes account for every busy cycle.
    prefill = sum(p.cycles for p in log.passes if p.kind == "prefill")
    decode = sum(p.cycles for p in log.passes if p.kind == "decode")
    replay = sum(
        p.cycles for p in log.passes if p.kind == "decode" and p.replays
    )
    assert prefill == result.prefill_cycles_total
    assert decode == result.decode_cycles_total
    assert replay == result.replay_cycles_total
    assert prefill + decode + result.idle_cycles_total == (
        result.device_end_cycles
    )

    _, again = _simulate(params)
    assert vtrace_jsonl_lines(again) == vtrace_jsonl_lines(events)

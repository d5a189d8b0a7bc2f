"""The scheduler's phase handlers, held to the loop they replaced.

``tests/reference_scheduler.py`` keeps ``ContinuousBatchingScheduler.run``
as one loop that re-sums the batch's K/V bytes every turn.  On the
generated runs of ``tests/test_serving_log.py`` (and its pinned
preemption run), with preemption on and off, both loops must produce
the same records and result fields, the same vtrace JSONL, the same
sampler samples, the same sequence of executor calls and, under
``obs.telemetry()``, the same metric registry and ``serving.request``
spans.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs.vtrace import VSampler, VTraceRecorder, vtrace_jsonl_lines
from repro.serving import (
    ContinuousBatchingScheduler,
    ModeledExecutor,
    make_arrival_model,
    synthesize_requests,
)
from tests.reference_scheduler import reference_run
from tests.test_serving_log import LM, PINNED_RUN, runs, serving_inputs


class RecordingExecutor(ModeledExecutor):
    """A modeled executor that logs every call the scheduler makes to
    it, apart from ``resident_bytes`` (the handlers ask it less often,
    by design).  The functional executor's sessions depend on exactly
    this sequence."""

    def __init__(self, config):
        super().__init__(config, LM)
        self.calls: list[tuple] = []
        self.resident_calls = 0

    def prefill_cycles(self, record):
        self.calls.append(("prefill_cycles", record.request.request_id))
        return super().prefill_cycles(record)

    def iteration_cycles(self, prefix_lengths):
        self.calls.append(("iteration_cycles", tuple(prefix_lengths)))
        return super().iteration_cycles(prefix_lengths)

    def resident_bytes(self, t):
        self.resident_calls += 1
        return super().resident_bytes(t)

    def open_session(self, record):
        self.calls.append(("open_session", record.request.request_id))

    def step_many(self, items):
        self.calls.append(("step_many", tuple(
            (record.request.request_id, replay) for record, replay in items
        )))

    def preempt(self, record):
        self.calls.append(("preempt", record.request.request_id))


def _observe(loop, requests, config):
    """Everything one run of ``loop`` lets a caller see."""
    executor = RecordingExecutor(config)
    vt, sampler = VTraceRecorder(), VSampler(cadence_cycles=1)
    sched = ContinuousBatchingScheduler(config, executor, vt, sampler)
    with obs.telemetry() as session:
        result = loop(sched, requests)
    fields = {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result) if f.name != "records"
    }
    return {
        "fields": fields,
        "records": [dataclasses.asdict(r) for r in result.records],
        "jsonl": vtrace_jsonl_lines(vt.events),
        "samples": {n: s.samples for n, s in sampler.series().items()},
        "calls": executor.calls,
        "metrics": session.metrics.as_dict(),
        "spans": [
            (s.name, s.start_us, s.duration_us, s.attrs)
            for s in session.spans.records if s.name == "serving.request"
        ],
    }


@given(runs, st.booleans())
@example(PINNED_RUN, True)
@settings(max_examples=40, deadline=None)
def test_handlers_match_reference_loop(params, preemption):
    requests, config = serving_inputs(params)
    config = dataclasses.replace(config, preemption=preemption)
    got = _observe(ContinuousBatchingScheduler.run, requests, config)
    want = _observe(reference_run, requests, config)
    for key in want:
        assert got[key] == want[key], key


def test_pinned_run_preempts_and_replays():
    """The pinned example exercises the eviction and replay handlers."""
    requests, config = serving_inputs(PINNED_RUN)
    seen = _observe(ContinuousBatchingScheduler.run, requests, config)
    assert seen["fields"]["preemptions"] > 0
    assert seen["fields"]["replayed_steps"] > 0
    assert any(call[0] == "preempt" for call in seen["calls"])


def test_resident_bytes_calls_grow_with_requests_not_iterations():
    """Resident and reserved bytes are running totals: the executor is
    asked once per request and twice for the per-row slope, however
    many decode iterations the run takes."""
    config = dataclasses.replace(serving_inputs(PINNED_RUN)[1], kv_budget_bytes=None)
    for n, tokens in ((4, 8), (4, 64), (12, 64)):
        requests = [
            dataclasses.replace(r, decode_tokens=tokens)
            for r in synthesize_requests(
                make_arrival_model("poisson", 8.0, seed=5), n, seed=5
            )
        ]
        executor = RecordingExecutor(config)
        sched = ContinuousBatchingScheduler(config, executor)
        executor.resident_calls = 0
        result = sched.run(requests)
        assert result.decode_iterations >= tokens
        assert executor.resident_calls == n + 2

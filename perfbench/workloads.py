"""The four workloads, each driven only through public ``repro`` calls.

A workload builds its program objects in :meth:`setup` (timed as set-up,
first cold call included), then hands the worker *rounds* of
:class:`Root` objects.  A root is one call of the workload's timed entry
point; the worker times it, and the root carries the untimed
preparation before it and the output check after it.  Every input comes
from the run seed through :func:`derive`, and is generated when a round
is built, before any of its roots is timed.

``repro`` is imported inside :meth:`setup`, never at module import, so
the import cost lands in the measured set-up time.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from typing import Any, Callable

#: Table 5.1 of the paper: latency (ms) per sequence length and
#: architecture, as pinned by ``benchmarks/test_table_5_1_architectures.py``.
PAPER_TABLE_5_1: dict[int, dict[str, float]] = {
    4: {"A1": 65.87, "A2": 53.45, "A3": 33.92},
    8: {"A1": 75.57, "A2": 54.5, "A3": 39.9},
    16: {"A1": 98.14, "A2": 56.27, "A3": 52.59},
    32: {"A1": 122.8, "A2": 84.15, "A3": 84.15},
}

SLO_MS = 1500.0
#: The model weights are part of the system under test, not an input, so
#: they do not follow the run seed.  Randomly initialised weights of some
#: seeds emit end-of-sentence at once (seed 207 does), which would make
#: the work per utterance depend on the seed; seed 0 decodes 31 tokens.
WEIGHTS_SEED = 0
#: Checked against the golden model: every n-th utterance or request.
CHECK_EVERY = 4


@dataclass(frozen=True)
class Sizes:
    """How big each workload's inputs are.  :data:`FULL` is the
    benchmark; :data:`TINY` runs the same code in seconds for the
    self-test."""

    #: ``ModelConfig`` overrides; empty means the paper's model.
    model: tuple[tuple[str, int], ...] = ()
    ladder_requests: int = 80
    functional_requests: int = 8
    functional_rate_rps: float = 8.0


FULL = Sizes()
TINY = Sizes(
    model=(
        ("d_model", 64), ("num_heads", 2), ("d_ff", 128),
        ("num_encoders", 1), ("num_decoders", 1),
    ),
    ladder_requests=8,
    functional_requests=6,
    # The small model serves a request in milliseconds of device time.
    functional_rate_rps=500.0,
)


@dataclass
class Root:
    """One call of a workload's timed entry point."""

    #: Name of the root span.
    kind: str
    #: Id shared by every span under this root (utterance, design
    #: point or request trace).
    trace: str
    call: Callable[[], Any]
    #: Operations the output check covers; all fail if ``call`` raises.
    attempted: int
    #: Work units completed, from the call's result (for ``ops_per_s``).
    ops: Callable[[Any], int]
    #: Failed operations among ``attempted``, from the call's result.
    check: Callable[[Any], int]
    #: Untimed preparation run before every execution of ``call``.
    prepare: Callable[[], None] | None = None
    #: In a traced run, also execute this root untraced and with
    #: telemetry on, on identical input, to measure both overheads.
    compare: bool = False


def derive(*parts: object) -> int:
    """A 31-bit seed from the run seed and a position in the run."""
    return random.Random(repr(parts)).getrandbits(31)


def model_config(sizes: Sizes):
    from repro.config import ModelConfig

    return ModelConfig(**dict(sizes.model))


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile (the rule ``ServingResult`` uses)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ------------------------------------------------------------- asr_greedy
class AsrGreedy:
    """Closed loop, one client: warm ``AsrPipeline.transcribe`` calls on
    2-3-word synthetic utterances, s = 32, A3, greedy decode.  (Some
    one-word utterances are shorter than the subsampler accepts.)"""

    name = "asr_greedy"
    #: The modeled metrics come from each process's first utterances.
    summary_rounds = 4

    def setup(self, seed: int, child: int, sizes: Sizes) -> dict:
        from repro.asr.dataset import LibriSpeechLikeDataset
        from repro.asr.pipeline import AsrPipeline
        from repro.model.params import init_transformer_params

        params = init_transformer_params(model_config(sizes), seed=WEIGHTS_SEED)
        pipeline = AsrPipeline(params, hw_seq_len=32, architecture="A3")
        warm = LibriSpeechLikeDataset(seed=derive(seed, child, "warm")).generate(
            1, min_words=2, max_words=3
        )[0]
        pipeline.transcribe(warm.waveform)
        return {"seed": seed, "child": child, "params": params,
                "pipeline": pipeline, "chunks": {}}

    def _utterance(self, state: dict, k: int):
        from repro.asr.dataset import LibriSpeechLikeDataset

        chunk, pos = divmod(k, 8)
        if chunk not in state["chunks"]:
            state["chunks"] = {chunk: LibriSpeechLikeDataset(
                seed=derive(state["seed"], state["child"], chunk)
            ).generate(8, min_words=2, max_words=3)}
        return state["chunks"][chunk][pos]

    def round(self, state: dict, k: int) -> list[Root]:
        utt = self._utterance(state, k)
        pipeline = state["pipeline"]
        checked = k % CHECK_EVERY == 0
        return [Root(
            kind="transcribe",
            trace=f"utt{state['child']}-{k}",
            call=lambda: pipeline.transcribe(utt.waveform),
            attempted=1,
            ops=lambda result: 1,
            check=lambda result: (
                golden_mismatch(state["params"], pipeline, utt.waveform, result.tokens)
                if checked else 0
            ),
            compare=k == 0,
        )]

    def summarize(self, done: list[tuple[Root, Any]], state: dict) -> dict:
        return {
            "e2e_ms": [r.e2e_ms for _, r in done],
            "prefill_stall_cycles": [
                r.accelerator_report.schedule.stall_cycles for _, r in done
            ],
            "decode_cycles_per_token": [
                r.decode_report.details["decode_per_token_cycles"] for _, r in done
            ],
        }


def golden_mismatch(params, pipeline, waveform, tokens) -> int:
    """1 if ``tokens`` differ from a greedy decode by the golden model
    (``Transformer.encode`` + ``IncrementalDecoder``), else 0."""
    import numpy as np

    from repro.decoding.greedy import greedy_decode
    from repro.model import Transformer
    from repro.model.incremental import IncrementalDecoder

    memory = Transformer(params).encode(pipeline.preprocessor(waveform))
    golden = greedy_decode(
        IncrementalDecoder(params, memory).step_fn(),
        pipeline.vocab.sos_id,
        pipeline.vocab.eos_id,
        max_len=pipeline.max_output_chars,
    )
    return int(not np.array_equal(golden, np.asarray(tokens)))


# -------------------------------------------------------------- dse_sweep
class DseSweep:
    """Cold design-space exploration: ``LatencyModel.latency_report`` for
    A1/A2/A3 at eight sequence lengths, then one ``synthesize_a4``
    search.  Every root starts with every lowering cache empty."""

    name = "dse_sweep"
    summary_rounds = 1
    S_VALUES = (4, 8, 12, 16, 20, 24, 28, 32)
    ARCHS = ("A1", "A2", "A3")
    #: A4 search length per process: s = 8 is load-bound (below the
    #: s = 19 crossover), s = 32 compute-bound.
    A4_S = (32, 8, 32)

    def setup(self, seed: int, child: int, sizes: Sizes) -> dict:
        from repro.hw import dse, passes, program
        from repro.hw.controller import LatencyModel

        model = model_config(sizes)
        LatencyModel(model).latency_report(32, "A3")
        # The cached lowerings, by the names the program registers them
        # under, plus the A4 search's own cache.
        caches = [
            getattr(program, name, None) or getattr(passes, name)
            for name in program.lowering_cache_info()
        ] + [dse.synthesize_a4]
        return {"seed": seed, "child": child, "model": model, "caches": caches,
                "cold_start_entries": 0}

    def _clear(self, state: dict) -> None:
        from repro.hw.program import lowering_cache_info

        for fn in state["caches"]:
            fn.cache_clear()
        state["cold_start_entries"] += sum(
            info.hits + info.currsize for info in lowering_cache_info().values()
        )

    def round(self, state: dict, k: int) -> list[Root]:
        from repro.hw import dse
        from repro.hw.controller import LatencyModel

        model = state["model"]
        order = list(self.S_VALUES)
        random.Random(derive(state["seed"], state["child"], k)).shuffle(order)

        def points(s: int) -> dict:
            lm = LatencyModel(model)
            return {arch: lm.latency_report(s, arch) for arch in self.ARCHS}

        roots = [
            Root(
                kind="design_points",
                trace=f"s{s}",
                call=lambda s=s: points(s),
                attempted=len(self.ARCHS),
                ops=lambda reports: len(reports),
                check=lambda reports: sum(r.total_cycles <= 0 for r in reports.values()),
                prepare=lambda: self._clear(state),
                compare=k == 0,
            )
            for s in order
        ]
        a4_s = self.A4_S[state["child"] % len(self.A4_S)]
        roots.append(Root(
            kind="a4_search",
            trace=f"a4_s{a4_s}",
            call=lambda: dse.synthesize_a4(model=model, s=a4_s),
            attempted=1,
            # The untransformed baseline plus every candidate pipeline.
            ops=lambda result: result.candidates_tried + 1,
            check=a4_failed,
            prepare=lambda: self._clear(state),
        ))
        return roots

    def summarize(self, done: list[tuple[Root, Any]], state: dict) -> dict:
        latency = {}
        a4 = None
        for root, result in done:
            if root.kind == "design_points":
                for arch, report in result.items():
                    latency[f"{arch}@{root.trace[1:]}"] = report.latency_ms
            else:
                a4 = {
                    "s": result.s,
                    "a3_cycles": result.baseline_cycles,
                    "a4_cycles": result.optimized_cycles,
                    "load_starved_a3": result.psa_stalls_before.get("load_starved", 0),
                    "load_starved_a4": result.psa_stalls_after.get("load_starved", 0),
                }
        return {"latency_ms": latency, "a4": a4}


def a4_failed(result) -> int:
    """1 unless the A4 schedule is strictly faster than A3."""
    return int(not result.optimized_cycles < result.baseline_cycles)


# ------------------------------------------------------------- serving
def serving_failed(result) -> int:
    """Requests that were rejected or did not complete."""
    return len(result.records) - len(result.completed)


def serving_summary(result) -> dict:
    """The virtual-time account of one scheduler run."""
    by_arrival = sorted(result.completed, key=lambda r: r.request.arrival_s)
    return {
        "e2e_ms": [r.e2e_ms for r in result.completed],
        "queue_ms": [r.queue_ms for r in by_arrival],
        "decode_iterations": result.decode_iterations,
        "preemptions": result.preemptions,
        "replayed_steps": result.replayed_steps,
        "decoded_steps": sum(r.request.decode_tokens for r in result.completed),
        "peak_batch": result.peak_batch,
        "idle_cycles": result.idle_cycles_total,
        "device_end_cycles": result.device_end_cycles,
        "peak_kv_bytes": result.peak_kv_bytes,
        "kv_budget_bytes": int(result.details["kv_budget_bytes"]),
    }


class ServeModeled:
    """Open loop in virtual time: the same ladder of offered loads in
    every round, through the default ``ModeledExecutor``."""

    name = "serve_modeled"
    summary_rounds = 1
    LADDER = tuple(("poisson", float(r)) for r in range(1, 9)) + (("bursty", 4.0),)

    def setup(self, seed: int, child: int, sizes: Sizes) -> dict:
        from repro.serving import (
            ContinuousBatchingScheduler, ServingConfig,
            make_arrival_model, synthesize_requests,
        )

        config = ServingConfig(s=32, architecture="A3", max_batch=4, slo_ms=SLO_MS)
        warm = synthesize_requests(
            make_arrival_model("poisson", 4.0, seed=seed), 8, seed=seed
        )
        ContinuousBatchingScheduler(config).run(warm)
        return {"seed": seed, "child": child, "config": config,
                "requests": sizes.ladder_requests, "rungs": {}}

    def round(self, state: dict, k: int) -> list[Root]:
        from repro.serving import (
            ContinuousBatchingScheduler, make_arrival_model, synthesize_requests,
        )

        roots = []
        for i, (kind, rate) in enumerate(self.LADDER):
            rs = derive(state["seed"], state["child"], k, i)
            requests = synthesize_requests(
                make_arrival_model(kind, rate, seed=rs), state["requests"], seed=rs
            )
            sched: list = []
            trace = f"{kind}{rate:g}-{state['child']}-{k}"
            state["rungs"][trace] = (kind, rate)
            roots.append(Root(
                kind="scheduler_run",
                trace=trace,
                call=lambda sched=sched, requests=requests: sched[-1].run(requests),
                attempted=len(requests),
                ops=lambda result: len(result.records),
                check=serving_failed,
                prepare=lambda sched=sched: sched.append(
                    ContinuousBatchingScheduler(state["config"])
                ),
                compare=k == 0 and i == 0,
            ))
        return roots

    def summarize(self, done: list[tuple[Root, Any]], state: dict) -> dict:
        runs = []
        for root, result in done:
            kind, rate = state["rungs"][root.trace]
            runs.append({"kind": kind, "rate": rate, **serving_summary(result)})
        return {"runs": runs}


class ServeFunctional:
    """Open loop in virtual time through ``FunctionalExecutor``: the real
    fabric decodes every request, in batched steps, under a K/V budget
    tight enough to preempt and replay."""

    name = "serve_functional"
    summary_rounds = 1

    def setup(self, seed: int, child: int, sizes: Sizes) -> dict:
        from repro.hw.accelerator import TransformerAccelerator
        from repro.hw.kv_cache import modeled_resident_bytes
        from repro.model.params import init_transformer_params
        from repro.serving import (
            ContinuousBatchingScheduler, FunctionalExecutor, ServingConfig,
            UtteranceRequest,
        )

        params = init_transformer_params(model_config(sizes), seed=WEIGHTS_SEED)
        accel = TransformerAccelerator(params, hw_seq_len=32, architecture="A3")
        full_cache = modeled_resident_bytes(params.config, 32, 32)
        config = ServingConfig(
            s=32, architecture="A3", max_batch=4, slo_ms=SLO_MS,
            kv_budget_bytes=int(0.4 * 4 * full_cache),
        )
        state = {"seed": seed, "child": child, "params": params,
                 "accel": accel, "config": config,
                 "requests": sizes.functional_requests,
                 "rate": sizes.functional_rate_rps}
        feats = self._features(state, derive(seed, child, "warm"), [0])
        ContinuousBatchingScheduler(
            config, FunctionalExecutor(config, accel, lambda r: feats[r.request_id])
        ).run([UtteranceRequest(0, 0.0, 4)])
        return state

    def _features(self, state: dict, rs: int, ids) -> dict:
        import numpy as np

        rng = np.random.default_rng(rs)
        d_model = state["params"].config.d_model
        return {
            i: rng.standard_normal((int(rng.integers(8, 33)), d_model)).astype(np.float32)
            for i in ids
        }

    def round(self, state: dict, k: int) -> list[Root]:
        from repro.serving import (
            ContinuousBatchingScheduler, FunctionalExecutor,
            make_arrival_model, synthesize_requests,
        )

        rs = derive(state["seed"], state["child"], k)
        requests = synthesize_requests(
            make_arrival_model("poisson", state["rate"], seed=rs),
            state["requests"], seed=rs,
        )
        feats = self._features(state, rs, [r.request_id for r in requests])
        config, accel = state["config"], state["accel"]
        sched: list = []

        def prepare() -> None:
            executor = FunctionalExecutor(config, accel, lambda r: feats[r.request_id])
            sched.append(ContinuousBatchingScheduler(config, executor))

        def call():
            result = sched[-1].run(requests)
            return result, sched[-1].executor.emitted

        return [Root(
            kind="scheduler_run",
            trace=f"fserve-{state['child']}-{k}",
            call=call,
            attempted=len(requests),
            ops=lambda out: sum(len(tokens) for tokens in out[1].values()),
            check=lambda out: functional_failed(accel, feats, *out),
            prepare=prepare,
            compare=k == 0,
        )]

    def summarize(self, done: list[tuple[Root, Any]], state: dict) -> dict:
        return {"runs": [serving_summary(out[0]) for _, out in done]}


def functional_failed(accel, feats, result, emitted) -> int:
    """Requests rejected, incomplete, or whose tokens differ from the
    same request decoded alone without preemption.  The solo decode
    runs for every preempted request and every n-th other one."""
    import numpy as np

    failed = serving_failed(result)
    for record in result.completed:
        rid = record.request.request_id
        if rid % CHECK_EVERY and not record.preemptions:
            continue
        session = accel.decode_session(feats[rid])
        token, solo = 1, []  # FunctionalExecutor's default start token
        for _ in range(record.request.decode_tokens):
            token = int(np.argmax(session.step(token)))
            solo.append(token)
        failed += int(solo != list(emitted.get(rid, ())))
    return failed


WORKLOADS = {
    w.name: w for w in (AsrGreedy(), DseSweep(), ServeModeled(), ServeFunctional())
}


# ------------------------------------------------------- modeled metrics
def _backlog_grows(queue_ms: list[float]) -> bool:
    """The mean queue wait of the last quarter of arrivals exceeds 1.5x
    the first quarter's plus 100 ms."""
    n = max(len(queue_ms) // 4, 1)
    first = statistics.fmean(queue_ms[:n])
    last = statistics.fmean(queue_ms[-n:])
    return last > 1.5 * first + 100.0


def _serving_metrics(runs: list[dict]) -> dict[str, float]:
    decoded = sum(r["decoded_steps"] for r in runs)
    replayed = sum(r["replayed_steps"] for r in runs)
    iterations = sum(r["decode_iterations"] for r in runs)
    end = sum(r["device_end_cycles"] for r in runs)
    return {
        "serving.decode_iterations": iterations / len(runs),
        "serving.preemptions": sum(r["preemptions"] for r in runs) / len(runs),
        "serving.replay_ratio": replayed / (decoded + replayed),
        "serving.batch_mean": (decoded + replayed) / iterations,
        "serving.peak_batch": max(r["peak_batch"] for r in runs),
        "serving.queue_model_ms_p50": quantile(
            [q for r in runs for q in r["queue_ms"]], 0.5
        ),
        "serving.device_busy_ratio": 1 - sum(r["idle_cycles"] for r in runs) / end,
        "serving.kv_peak_ratio": max(
            r["peak_kv_bytes"] / r["kv_budget_bytes"] for r in runs
        ),
    }


def _ladder_metrics(runs: list[dict]) -> dict[str, float]:
    """p95 at 2 and 4 rps, and the highest Poisson rate whose pooled p95
    meets the SLO without a growing backlog in any process's run."""
    by_rate: dict[float, list[dict]] = {}
    for r in runs:
        if r["kind"] == "poisson":
            by_rate.setdefault(r["rate"], []).append(r)

    def p95(rate: float) -> float:
        return quantile([e for r in by_rate[rate] for e in r["e2e_ms"]], 0.95)

    sustained = [
        rate for rate, rs in by_rate.items()
        if p95(rate) <= SLO_MS and not any(_backlog_grows(r["queue_ms"]) for r in rs)
    ]
    return {
        "serving.p95_model_ms_r2": p95(2.0),
        "serving.p95_model_ms_r4": p95(4.0),
        "serving.max_rps": max(sustained, default=0.0),
    }


def _dse_metrics(summaries: list[dict]) -> dict[str, float]:
    latency = summaries[0]["latency_ms"]
    errors = [
        abs(latency[f"{arch}@{s}"] - paper) / paper * 100
        for s, row in PAPER_TABLE_5_1.items()
        for arch, paper in row.items()
    ]
    a4 = next(s["a4"] for s in summaries if s["a4"] and s["a4"]["s"] == 32)
    return {
        "device.table51_max_err_pct": max(errors),
        "device.a4_cycles_s32": a4["a4_cycles"],
        "device.psa_load_starved_cycles.a3_s32": a4["load_starved_a3"],
        "device.psa_load_starved_cycles.a4_s32": a4["load_starved_a4"],
    }


def _asr_metrics(summaries: list[dict]) -> dict[str, float]:
    def pooled(key: str) -> list[float]:
        return [v for s in summaries for v in s[key]]

    return {
        "device.e2e_model_ms_p50": quantile(pooled("e2e_ms"), 0.5),
        "device.prefill_stall_cycles.a3_s32": quantile(pooled("prefill_stall_cycles"), 0.5),
        "device.decode_cycles_per_token": quantile(pooled("decode_cycles_per_token"), 0.5),
    }


#: Metrics of the modeled device and of virtual serving time.  They are
#: exact functions of the seed, so two runs of one seed must agree on
#: them exactly; a workload that does not model one reports 0.
MODELED_METRICS: tuple[str, ...] = (
    "device.e2e_model_ms_p50",
    "device.prefill_stall_cycles.a3_s32",
    "device.decode_cycles_per_token",
    "device.table51_max_err_pct",
    "device.a4_cycles_s32",
    "device.psa_load_starved_cycles.a3_s32",
    "device.psa_load_starved_cycles.a4_s32",
    "serving.decode_iterations",
    "serving.preemptions",
    "serving.replay_ratio",
    "serving.batch_mean",
    "serving.peak_batch",
    "serving.queue_model_ms_p50",
    "serving.device_busy_ratio",
    "serving.kv_peak_ratio",
    "serving.p95_model_ms_r2",
    "serving.p95_model_ms_r4",
    "serving.max_rps",
)


def modeled_metrics(workload: str, summaries: list[dict]) -> dict[str, float]:
    """The modeled metrics of one run, from every process's summary."""
    values = dict.fromkeys(MODELED_METRICS, 0.0)
    if workload == "asr_greedy":
        values.update(_asr_metrics(summaries))
    elif workload == "dse_sweep":
        values.update(_dse_metrics(summaries))
    else:
        runs = [r for s in summaries for r in s["runs"]]
        values.update(_serving_metrics(runs))
        if workload == "serve_modeled":
            values.update(_ladder_metrics(runs))
    return {k: float(v) for k, v in values.items()}

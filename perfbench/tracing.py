"""Spans around the calls into each layer, recorded from outside.

The traced run wraps a fixed table of public ``repro`` callables
(:data:`BOUNDARIES`).  A wrapped call records one span: its name, the
layer it belongs to, integer ``perf_counter_ns`` start and end, its own
id, the id of the span that was open when it started, and the id of the
utterance, request trace or design point the enclosing root serves.
Spans stay in memory and are written out when the workload ends.

Functions are patched in every ``repro`` module namespace that binds
them, because ``from x import y`` copies the binding; methods are
patched once, on their class.  Nothing is patched until
:meth:`SpanRecorder.install`, and :meth:`SpanRecorder.uninstall` puts
every original back, so an untraced run executes the unmodified
program.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator

#: Layer -> the public callables whose calls are its spans, as
#: ``module:qualname``.  The table is the benchmark's definition of a
#: layer boundary; ``tests/test_perfbench.py`` checks every entry fires.
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "frontend": ("repro.asr.pipeline:HostPreprocessor.__call__",),
    "decoding": ("repro.decoding.greedy:greedy_decode",),
    "hw.accelerator.prefill": (
        "repro.hw.accelerator:TransformerAccelerator.decode_session",
    ),
    "hw.accelerator.step": ("repro.hw.accelerator:HwDecodeSession.step",),
    "hw.accelerator.batch_step": ("repro.hw.accelerator:step_sessions",),
    "hw.accelerator.preempt": ("repro.hw.accelerator:HwDecodeSession.preempt",),
    "hw.accelerator.rewind": ("repro.hw.accelerator:HwDecodeSession.rewind",),
    "hw.controller.encoder": (
        "repro.hw.controller:AcceleratorController.run_encoder_stack",
    ),
    "hw.controller.decoder_step": (
        "repro.hw.controller:AcceleratorController.run_decoder_step",
    ),
    "hw.controller.decoder_step_batch": (
        "repro.hw.controller:AcceleratorController.run_decoder_step_batch",
    ),
    "hw.controller.report": (
        "repro.hw.controller:LatencyModel.latency_report",
        "repro.hw.controller:LatencyModel.autoregressive_report",
    ),
    "hw.controller.iteration": (
        "repro.hw.controller:LatencyModel.decode_iteration_cycles",
    ),
    "hw.program.lower": (
        "repro.hw.program:lower_full_pass",
        "repro.hw.program:lower_decode_step",
    ),
    "hw.program.schedule": ("repro.hw.program:schedule_program",),
    # ``apply_program`` delegates to ``apply``; wrapping ``apply`` also
    # covers the winning pipeline's final application in synthesize_a4.
    "hw.passes.apply": ("repro.hw.passes:PassPipeline.apply",),
    "hw.dse.a4": ("repro.hw.dse:synthesize_a4",),
    "serving.scheduler": (
        "repro.serving.scheduler:ContinuousBatchingScheduler.run",
    ),
    "serving.pricing": (
        "repro.serving.scheduler:ModeledExecutor.iteration_cycles",
    ),
}

LAYERS: tuple[str, ...] = tuple(BOUNDARIES)


@dataclass(frozen=True)
class Span:
    """One timed call.  ``parent`` is ``None`` only for a root."""

    id: int
    parent: int | None
    name: str
    layer: str
    start_ns: int
    end_ns: int
    trace: str

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Owns the wrappers, the open-span stack and the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._trace = ""
        self._patches: list[tuple[object, str, object, object]] | None = None
        #: Lowering-cache [hits, misses] accumulated over traced roots.
        self.cache = [0, 0]

    # ------------------------------------------------------------ spans
    def _open(self) -> tuple[int, int | None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def _close(self, span_id, parent, name, layer, start_ns, end_ns) -> None:
        self._stack.pop()
        self.spans.append(
            Span(span_id, parent, name, layer, start_ns, end_ns, self._trace)
        )

    @contextmanager
    def root(self, name: str, trace: str) -> Iterator[list[Span]]:
        """Time one call of a workload's entry point as a root span.

        Yields a list that holds the finished root span on exit.
        """
        if self._stack:
            raise RuntimeError("a root span is already open")
        self._trace = trace
        out: list[Span] = []
        span_id, parent = self._open()
        start = time.perf_counter_ns()
        try:
            yield out
        finally:
            end = time.perf_counter_ns()
            self._close(span_id, parent, name, "root", start, end)
            out.append(self.spans[-1])

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A module imported while the patches were live keeps the
            # wrapper after uninstall; outside a root it records nothing.
            if not self._stack:
                return fn(*args, **kwargs)
            span_id, parent = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._close(span_id, parent, name, layer, start, end)

        return wrapper

    # ---------------------------------------------------------- patching
    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding."""
        plan = []
        for layer, targets in BOUNDARIES.items():
            for target in targets:
                module_name, qualname = target.split(":")
                module = importlib.import_module(module_name)
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    plan.append(
                        (owner, attr, original, self._wrap(original, qualname, layer))
                    )
                    continue
                original = getattr(module, qualname)
                wrapper = self._wrap(original, qualname, layer)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "repro" and not name.startswith("repro."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            plan.append((mod, attr, original, wrapper))
        return plan

    def install(self) -> None:
        if self._patches is None:
            self._patches = self._plan()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches or ():
            setattr(owner, attr, original)

    def bindings(self) -> list[str]:
        """Every patched ``owner.attribute``, for inspection and tests."""
        if self._patches is None:
            self._patches = self._plan()
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, _, _ in self._patches
        ]


# ------------------------------------------------------------ arithmetic
def _covered_ns(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    covered = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return {
        span.id: span.duration_ns
        - _covered_ns(
            span.start_ns,
            span.end_ns,
            ((c.start_ns, c.end_ns) for c in children.get(span.id, ())),
        )
        for span in spans
    }


def check_conservation(spans: list[Span], selfs: dict[int, int]) -> None:
    """Every root's self time plus its children's durations must equal
    its duration exactly; raises ``ValueError`` otherwise (children that
    overlap or leak outside their parent break the identity)."""
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] = child_ns.get(span.parent, 0) + span.duration_ns
    for span in spans:
        if span.parent is None and selfs[span.id] + child_ns.get(span.id, 0) != span.duration_ns:
            raise ValueError(
                f"root {span.name} ({span.trace}): self {selfs[span.id]} + "
                f"children {child_ns.get(span.id, 0)} != {span.duration_ns} ns"
            )


def layer_totals(spans: list[Span]) -> dict:
    """Per-layer self time and call counts over roots, plus root totals.

    The self times of all layers plus the roots' own self time add up to
    the roots' total duration, in integer nanoseconds.
    """
    selfs = self_times(spans)
    check_conservation(spans, selfs)
    layers = {layer: {"self_ns": 0, "calls": 0} for layer in LAYERS}
    root_ns = root_self_ns = roots = 0
    for span in spans:
        if span.parent is None:
            roots += 1
            root_ns += span.duration_ns
            root_self_ns += selfs[span.id]
        else:
            layers[span.layer]["self_ns"] += selfs[span.id]
            layers[span.layer]["calls"] += 1
    return {
        "layers": layers,
        "roots": roots,
        "root_ns": root_ns,
        "root_self_ns": root_self_ns,
    }


# ---------------------------------------------------------------- export
def spans_jsonl(spans_by_child: list[list[dict]]) -> str:
    """One JSON object per span, tagged with the process that made it."""
    return "".join(
        json.dumps({"child": child, **span}) + "\n"
        for child, spans in enumerate(spans_by_child)
        for span in spans
    )


def chrome_trace(spans_by_child: list[list[dict]]) -> dict:
    """Chrome/Perfetto trace: one process lane per child process."""
    events = []
    for child, spans in enumerate(spans_by_child):
        t0 = min((s["start_ns"] for s in spans), default=0)
        for s in spans:
            events.append({
                "name": s["name"],
                "cat": s["layer"],
                "ph": "X",
                "ts": (s["start_ns"] - t0) / 1e3,
                "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
                "pid": child,
                "tid": 0,
                "args": {"id": s["id"], "parent": s["parent"], "trace": s["trace"]},
            })
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def span_dicts(spans: list[Span]) -> list[dict]:
    return [asdict(s) for s in spans]

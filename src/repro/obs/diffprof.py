"""Differential profiling: conservation-checked cycle-delta attribution.

The repo already explains *why a cycle is idle* (the PR-5 stall
taxonomy of :mod:`repro.hw.introspect`) and *who paid for it* (the
cost ledger of :mod:`repro.obs.costs`).  This module explains **why
run B differs from run A** — the question every optimization argument
(A3 vs A4, prefetch depth k vs k+1, w8a8 vs fp16) ultimately reduces
to.

Two concepts:

* :class:`RunProfile` — a frozen, exact-integer capture of one program
  execution: the makespan, every engine lane's busy / per-(cause,
  block) stall / drain account, per-unit load+compute work, and
  per-HBM-channel streamed bytes.  It is the device profile
  :func:`repro.hw.introspect.classify_stalls` builds from the block
  schedule without a trace; :func:`profile_run` labels it, and
  ``as_dict``/``from_dict`` round-trip it through JSON so a profile
  written by one process can be diffed by another
  (:func:`load_profile` rejects a malformed file with a ``ValueError``
  naming the file and the field).
* :class:`DeltaWaterfall` — the hierarchical delta between two
  profiles, built by :func:`diff_profiles`.  Every lane's leaves
  satisfy the *same* conservation identity the stall classifier
  guarantees per run, transported to the delta domain::

      Δbusy + Σ Δstall(cause, block) + Δno_work == Δmakespan   (per lane)

  plus ``Σ Δblock_work == Δtotal_work`` and ``Σ Δchannel_bytes ==
  Δload_bytes`` on the work/byte facets.  All quantities are exact
  integers; ``diff(a, a)`` is identically zero and
  ``diff(a, b) == -diff(b, a)`` (:meth:`DeltaWaterfall.negated`).

:func:`delta_counter_tracks` renders the same comparison as Perfetto
counter tracks (candidate-minus-base utilization per engine on a
shared bucket grid), and :func:`diff_tenant_costs` applies the delta
treatment to two PR-9 cost ledgers with its own conservation check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

__all__ = [
    "PROFILE_SCHEMA",
    "STALL_CAUSES",
    "LaneProfile",
    "RunProfile",
    "profile_run",
    "load_profile",
    "DeltaLeaf",
    "LaneDelta",
    "DeltaWaterfall",
    "diff_profiles",
    "delta_counter_tracks",
    "diff_tenant_costs",
    "render_waterfall",
]

#: Bumped whenever the serialized profile layout changes incompatibly.
PROFILE_SCHEMA = "repro.diffprof/1"

#: The fixed stall taxonomy of :mod:`repro.hw.introspect`, in
#: reporting order: the wait causes, then the drain tail.
STALL_CAUSES = (
    "load_starved",
    "dependency",
    "channel_contention",
    "overhead",
    "no_work",
)

#: Pseudo-causes bracketing the wait taxonomy in a lane's account.
BUSY = "busy"
NO_WORK = "no_work"


def _as_int(value: object, what: str) -> int:
    """Exact integer coercion: the cycle model is integer arithmetic,
    so any fractional quantity reaching the delta engine is a bug."""
    try:
        f = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(f"{what} is not a number: {value!r}") from None
    i = int(round(f))
    if f != i:
        raise ValueError(f"{what} is not an exact integer: {f!r}")
    return i


def _object(value: object, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} is not an object")
    return value


def _field(entry: Mapping, key: str, what: str) -> object:
    if key not in entry:
        raise ValueError(f"{what} is missing '{key}'")
    return entry[key]


# ------------------------------------------------------------ run profile
@dataclass(frozen=True)
class LaneProfile:
    """One engine lane's exactly-conserved cycle account."""

    busy: int
    #: cause -> block (unit label) -> idle cycles.  Only wait causes;
    #: the drain tail lives in ``no_work``.
    stalls: Mapping[str, Mapping[str, int]]
    no_work: int

    @property
    def stall_total(self) -> int:
        return sum([sum(blocks.values()) for blocks in self.stalls.values()])

    def stall_cycles(self, cause: str) -> int:
        """Idle cycles of one wait cause, summed over its blocks."""
        return sum(self.stalls.get(cause, {}).values())

    def conservation_error(self, makespan: int) -> int:
        return self.busy + self.stall_total + self.no_work - makespan


@dataclass(frozen=True)
class RunProfile:
    """Exact-integer capture of one program execution: the device
    profile every stall view reads."""

    label: str
    architecture: str
    makespan: int
    lanes: Mapping[str, LaneProfile]
    #: unit label -> {"load": cycles, "compute": cycles}.
    block_work: Mapping[str, Mapping[str, int]]
    #: HBM channel (as str, JSON-stable) -> streamed weight bytes.
    channel_bytes: Mapping[str, int]
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def load_bytes(self) -> int:
        return sum(self.channel_bytes.values())

    @property
    def work_cycles(self) -> int:
        return sum(
            w.get("load", 0) + w.get("compute", 0)
            for w in self.block_work.values()
        )

    def totals(self, engine_filter: str = "") -> dict[str, float]:
        """Cycles per cause, ``no_work`` included, summed over the lanes
        whose name contains ``engine_filter`` (every lane when empty)."""
        out = dict.fromkeys(STALL_CAUSES, 0)
        for name, lane in self.lanes.items():
            if engine_filter in name:
                for cause, blocks in lane.stalls.items():
                    out[cause] += sum(blocks.values())
                out[NO_WORK] += lane.no_work
        return {cause: float(cycles) for cause, cycles in out.items()}

    def dominant_cause(self, engine_filter: str = ".psa") -> str | None:
        """The wait cause eating the most cycles over matching lanes
        (None when they never wait)."""
        totals = self.totals(engine_filter)
        best = max(STALL_CAUSES[:-1], key=totals.__getitem__)
        return best if totals[best] > 0 else None

    def verify_conservation(self) -> None:
        """Raise unless every lane's account sums to the makespan."""
        broken = {
            name: err
            for name, lane in self.lanes.items()
            if (err := lane.conservation_error(self.makespan)) != 0
        }
        if broken:
            raise ValueError(
                f"run profile '{self.label}' is not conservative: {broken} "
                f"(makespan {self.makespan})"
            )

    def as_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "label": self.label,
            "architecture": self.architecture,
            "makespan_cycles": self.makespan,
            "lanes": {
                name: {
                    "busy": lane.busy,
                    "stalls": {
                        cause: dict(blocks)
                        for cause, blocks in sorted(lane.stalls.items())
                    },
                    "no_work": lane.no_work,
                }
                for name, lane in sorted(self.lanes.items())
            },
            "block_work": {
                label: dict(w) for label, w in sorted(self.block_work.items())
            },
            "channel_bytes": dict(sorted(self.channel_bytes.items())),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, payload: object) -> "RunProfile":
        """The profile :meth:`as_dict` wrote; raises ``ValueError``
        naming the field when ``payload`` is not shaped like one."""
        payload = _object(payload, "the profile")
        schema = payload.get("schema")
        if schema != PROFILE_SCHEMA:
            raise ValueError(
                f"profile schema mismatch: got '{schema}', "
                f"this reader speaks '{PROFILE_SCHEMA}'"
            )
        lanes = {}
        for name, entry in _object(_field(payload, "lanes", "the profile"),
                                   "lanes").items():
            entry = _object(entry, f"lane '{name}'")
            stalls = _object(entry.get("stalls", {}), f"{name}.stalls")
            lanes[str(name)] = LaneProfile(
                busy=_as_int(_field(entry, "busy", f"lane '{name}'"),
                             f"{name}.busy"),
                stalls={
                    str(cause): {
                        str(block): _as_int(cyc, f"{name}.{cause}.{block}")
                        for block, cyc in _object(
                            blocks, f"{name}.stalls.{cause}"
                        ).items()
                    }
                    for cause, blocks in stalls.items()
                },
                no_work=_as_int(_field(entry, "no_work", f"lane '{name}'"),
                                f"{name}.no_work"),
            )
        profile = cls(
            label=str(payload.get("label", "")),
            architecture=str(payload.get("architecture", "")),
            makespan=_as_int(
                _field(payload, "makespan_cycles", "the profile"), "makespan"
            ),
            lanes=lanes,
            block_work={
                str(label): {k: _as_int(v, f"block_work.{label}.{k}")
                             for k, v in _object(w, f"block_work.{label}").items()}
                for label, w in _object(
                    payload.get("block_work", {}), "block_work"
                ).items()
            },
            channel_bytes={
                str(ch): _as_int(v, f"channel_bytes.{ch}")
                for ch, v in _object(
                    payload.get("channel_bytes", {}), "channel_bytes"
                ).items()
            },
            meta=dict(_object(payload.get("meta", {}), "meta")),
        )
        profile.verify_conservation()
        return profile


def profile_run(
    program,
    architecture: str = "A3",
    block_overhead: int | None = None,
    label: str = "",
) -> RunProfile:
    """The device profile of one program execution
    (:func:`repro.hw.introspect.classify_stalls`, built once per
    program, architecture and overhead), labelled ``label`` — the
    architecture when empty."""
    from repro.hw.introspect import classify_stalls

    profile = classify_stalls(program, architecture, block_overhead)
    return replace(profile, label=label) if label else profile


def load_profile(path) -> RunProfile:
    """Read a profile written as JSON (a ``runprofile.json`` artifact
    of ``repro-asr profile``, or any :meth:`RunProfile.as_dict` dump).
    Directories are resolved to the ``runprofile.json`` inside them.
    A file that is not such a dump raises ``ValueError`` naming it."""
    import json
    import pathlib

    p = pathlib.Path(path)
    if p.is_dir():
        p = p / "runprofile.json"
    if not p.exists():
        raise FileNotFoundError(f"no run profile at {p}")
    try:
        return RunProfile.from_dict(json.loads(p.read_text()))
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"run profile {p}: {exc}") from None


# -------------------------------------------------------- delta waterfall
@dataclass(frozen=True)
class DeltaLeaf:
    """One attributed delta: cycles that moved on (engine, cause, block)."""

    engine: str
    cause: str  # "busy", a wait cause, or "no_work"
    block: str  # unit label ("" for busy / no_work)
    delta: int


@dataclass(frozen=True)
class LaneDelta:
    """One engine lane's delta account (cand − base)."""

    busy: int
    stalls: Mapping[str, Mapping[str, int]]
    no_work: int

    @property
    def stall_total(self) -> int:
        return sum(c for blocks in self.stalls.values() for c in blocks.values())

    @property
    def total(self) -> int:
        """The lane's leaf sum — must equal the makespan delta."""
        return self.busy + self.stall_total + self.no_work


def _diff_nested(
    a: Mapping[str, Mapping[str, int]], b: Mapping[str, Mapping[str, int]]
) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {}
    for cause in sorted(set(a) | set(b)):
        blocks_a, blocks_b = a.get(cause, {}), b.get(cause, {})
        deltas = {
            block: blocks_b.get(block, 0) - blocks_a.get(block, 0)
            for block in sorted(set(blocks_a) | set(blocks_b))
        }
        deltas = {k: v for k, v in deltas.items() if v != 0}
        if deltas:
            out[cause] = deltas
    return out


@dataclass
class DeltaWaterfall:
    """The hierarchical, exactly-conserved delta between two profiles."""

    base_label: str
    cand_label: str
    base_makespan: int
    cand_makespan: int
    lanes: Mapping[str, LaneDelta]
    #: unit label -> {"load": Δcycles, "compute": Δcycles}, non-zero only.
    block_work: Mapping[str, Mapping[str, int]]
    #: HBM channel -> Δbytes, non-zero only.
    channel_bytes: Mapping[str, int]
    base_load_bytes: int = 0
    cand_load_bytes: int = 0
    base_work_cycles: int = 0
    cand_work_cycles: int = 0

    @property
    def makespan_delta(self) -> int:
        return self.cand_makespan - self.base_makespan

    @property
    def is_zero(self) -> bool:
        return (
            self.makespan_delta == 0
            and all(
                lane.busy == 0 and lane.no_work == 0 and not lane.stalls
                for lane in self.lanes.values()
            )
            and not self.block_work
            and not self.channel_bytes
        )

    def verify_conservation(self) -> None:
        """Raise unless every lane's leaves sum exactly to the makespan
        delta, the block-work leaves to the total-work delta, and the
        channel-byte leaves to the load-bytes delta."""
        broken = {
            name: lane.total - self.makespan_delta
            for name, lane in self.lanes.items()
            if lane.total != self.makespan_delta
        }
        if broken:
            raise ValueError(
                f"delta waterfall is not conservative "
                f"(Δmakespan {self.makespan_delta}): lane residuals {broken}"
            )
        work_leaves = sum(
            w.get("load", 0) + w.get("compute", 0)
            for w in self.block_work.values()
        )
        work_delta = self.cand_work_cycles - self.base_work_cycles
        if work_leaves != work_delta:
            raise ValueError(
                f"block-work leaves sum to {work_leaves}, "
                f"expected Δwork {work_delta}"
            )
        byte_leaves = sum(self.channel_bytes.values())
        byte_delta = self.cand_load_bytes - self.base_load_bytes
        if byte_leaves != byte_delta:
            raise ValueError(
                f"channel-byte leaves sum to {byte_leaves}, "
                f"expected Δload_bytes {byte_delta}"
            )

    def leaves(self, engine_filter: str = "") -> list[DeltaLeaf]:
        """Every non-zero (engine, cause, block) leaf, largest |Δ| first."""
        out: list[DeltaLeaf] = []
        for engine, lane in self.lanes.items():
            if engine_filter and engine_filter not in engine:
                continue
            if lane.busy:
                out.append(DeltaLeaf(engine, BUSY, "", lane.busy))
            for cause, blocks in lane.stalls.items():
                for block, delta in blocks.items():
                    out.append(DeltaLeaf(engine, cause, block, delta))
            if lane.no_work:
                out.append(DeltaLeaf(engine, NO_WORK, "", lane.no_work))
        out.sort(key=lambda leaf: (-abs(leaf.delta), leaf.engine, leaf.cause,
                                   leaf.block))
        return out

    def top_leaves(self, n: int = 5, engine_filter: str = "") -> list[DeltaLeaf]:
        return self.leaves(engine_filter)[:n]

    def cause_totals(self, engine_filter: str = "") -> dict[str, int]:
        """Δcycles per cause (busy, wait causes, no_work) summed over
        matching lanes — the aggregate waterfall bars."""
        out: dict[str, int] = {}
        for engine, lane in self.lanes.items():
            if engine_filter and engine_filter not in engine:
                continue
            out[BUSY] = out.get(BUSY, 0) + lane.busy
            for cause, blocks in lane.stalls.items():
                out[cause] = out.get(cause, 0) + sum(blocks.values())
            out[NO_WORK] = out.get(NO_WORK, 0) + lane.no_work
        return {k: v for k, v in out.items() if v != 0}

    def dominant_cause(self, engine_filter: str = ".psa") -> tuple[str, int] | None:
        """The cause moving the most cycles over matching lanes, as
        ``(cause, Δcycles)``; ``None`` when nothing moved."""
        totals = self.cause_totals(engine_filter)
        if not totals:
            return None
        cause = max(totals, key=lambda c: (abs(totals[c]), c))
        return cause, totals[cause]

    def negated(self) -> "DeltaWaterfall":
        """The exact inverse — ``diff(a, b).negated() == diff(b, a)``."""
        return DeltaWaterfall(
            base_label=self.cand_label,
            cand_label=self.base_label,
            base_makespan=self.cand_makespan,
            cand_makespan=self.base_makespan,
            lanes={
                name: LaneDelta(
                    busy=-lane.busy,
                    stalls={
                        cause: {b: -d for b, d in blocks.items()}
                        for cause, blocks in lane.stalls.items()
                    },
                    no_work=-lane.no_work,
                )
                for name, lane in self.lanes.items()
            },
            block_work={
                label: {k: -v for k, v in w.items()}
                for label, w in self.block_work.items()
            },
            channel_bytes={ch: -v for ch, v in self.channel_bytes.items()},
            base_load_bytes=self.cand_load_bytes,
            cand_load_bytes=self.base_load_bytes,
            base_work_cycles=self.cand_work_cycles,
            cand_work_cycles=self.base_work_cycles,
        )

    def as_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "base": {"label": self.base_label,
                     "makespan_cycles": self.base_makespan,
                     "load_bytes": self.base_load_bytes,
                     "work_cycles": self.base_work_cycles},
            "cand": {"label": self.cand_label,
                     "makespan_cycles": self.cand_makespan,
                     "load_bytes": self.cand_load_bytes,
                     "work_cycles": self.cand_work_cycles},
            "makespan_delta": self.makespan_delta,
            "cause_totals": self.cause_totals(),
            "psa_cause_totals": self.cause_totals(".psa"),
            "lanes": {
                name: {
                    "busy": lane.busy,
                    "stalls": {c: dict(b) for c, b in sorted(lane.stalls.items())},
                    "no_work": lane.no_work,
                }
                for name, lane in sorted(self.lanes.items())
            },
            "block_work": {
                label: dict(w) for label, w in sorted(self.block_work.items())
            },
            "channel_bytes": dict(sorted(self.channel_bytes.items())),
            "top_leaves": [
                {"engine": leaf.engine, "cause": leaf.cause,
                 "block": leaf.block, "delta": leaf.delta}
                for leaf in self.top_leaves(10)
            ],
        }


def diff_profiles(base: RunProfile, cand: RunProfile) -> DeltaWaterfall:
    """Build the conservation-checked delta waterfall ``cand − base``.

    An engine lane present in only one run is treated as fully idle
    (``no_work`` for that run's whole makespan) in the other — the
    account an observer of the missing lane would have recorded — so
    the per-lane conservation identity survives cross-architecture
    diffs (A1 has no ``hbm1`` lane; A3 does).
    """
    base.verify_conservation()
    cand.verify_conservation()

    lanes: dict[str, LaneDelta] = {}
    absent_base = LaneProfile(busy=0, stalls={}, no_work=base.makespan)
    absent_cand = LaneProfile(busy=0, stalls={}, no_work=cand.makespan)
    for name in sorted(set(base.lanes) | set(cand.lanes)):
        a = base.lanes.get(name, absent_base)
        b = cand.lanes.get(name, absent_cand)
        lanes[name] = LaneDelta(
            busy=b.busy - a.busy,
            stalls=_diff_nested(a.stalls, b.stalls),
            no_work=b.no_work - a.no_work,
        )

    block_work: dict[str, dict[str, int]] = {}
    for label in sorted(set(base.block_work) | set(cand.block_work)):
        a_w = base.block_work.get(label, {})
        b_w = cand.block_work.get(label, {})
        deltas = {
            k: b_w.get(k, 0) - a_w.get(k, 0)
            for k in sorted(set(a_w) | set(b_w))
        }
        deltas = {k: v for k, v in deltas.items() if v != 0}
        if deltas:
            block_work[label] = deltas

    channel_bytes = {
        ch: delta
        for ch in sorted(set(base.channel_bytes) | set(cand.channel_bytes))
        if (delta := cand.channel_bytes.get(ch, 0)
            - base.channel_bytes.get(ch, 0)) != 0
    }

    waterfall = DeltaWaterfall(
        base_label=base.label,
        cand_label=cand.label,
        base_makespan=base.makespan,
        cand_makespan=cand.makespan,
        lanes=lanes,
        block_work=block_work,
        channel_bytes=channel_bytes,
        base_load_bytes=base.load_bytes,
        cand_load_bytes=cand.load_bytes,
        base_work_cycles=base.work_cycles,
        cand_work_cycles=cand.work_cycles,
    )
    waterfall.verify_conservation()
    return waterfall


# ------------------------------------------------------- perfetto deltas
def delta_counter_tracks(
    base_timeline,
    cand_timeline,
    bucket_cycles: float | None = None,
) -> dict[str, list[tuple[float, float]]]:
    """Candidate-minus-base utilization as Perfetto counter tracks.

    Both timelines are bucketed on the *same* grid (the longer
    makespan, so the shorter run reads as idle past its end) and
    subtracted sample-for-sample.  Track names mirror the PR-5
    convention: ``delta:bandwidth:hbm*`` for HBM channels,
    ``delta:utilization:*`` for compute lanes.  Feed the result to
    :func:`repro.obs.export.chrome_trace` as ``counters``.
    """
    from repro.hw.introspect import utilization_counters

    span = max(base_timeline.makespan, cand_timeline.makespan)
    if span <= 0:
        return {}
    if bucket_cycles is None:
        bucket_cycles = max(span / 64.0, 1.0)
    engines = sorted(
        set(base_timeline.engines()) | set(cand_timeline.engines())
    )
    base = utilization_counters(
        base_timeline, bucket_cycles, engines=engines, span=span
    )
    cand = utilization_counters(
        cand_timeline, bucket_cycles, engines=engines, span=span
    )
    tracks: dict[str, list[tuple[float, float]]] = {}
    for engine in engines:
        prefix = "bandwidth" if engine.startswith("hbm") else "utilization"
        tracks[f"delta:{prefix}:{engine}"] = [
            (t, u_cand - u_base)
            for (t, u_base), (_, u_cand) in zip(base[engine], cand[engine])
        ]
    return tracks


# ------------------------------------------------------ cost-ledger diff
def diff_tenant_costs(base_ledger, cand_ledger) -> dict:
    """Per-tenant cost deltas between two PR-9 :class:`repro.obs.costs.
    CostLedger` runs, with the ledger conservation identity transported
    to the delta domain: tenant Δattributed cycles sum exactly to the
    run-level Δattributed, and Δattributed + Δunattributed equals the
    Δmakespan."""
    base_totals = base_ledger.totals()
    cand_totals = cand_ledger.totals()
    totals = {
        key: cand_totals[key] - base_totals[key]
        for key in sorted(set(base_totals) & set(cand_totals))
    }
    tenants: dict[int, dict[str, int]] = {}
    base_by = {tc.tenant: tc for tc in base_ledger.per_tenant()}
    cand_by = {tc.tenant: tc for tc in cand_ledger.per_tenant()}
    for tenant in sorted(set(base_by) | set(cand_by)):
        a, b = base_by.get(tenant), cand_by.get(tenant)
        tenants[tenant] = {
            "attributed_cycles": (b.attributed_cycles if b else 0)
            - (a.attributed_cycles if a else 0),
            "hbm_load_bytes": (b.hbm_load_bytes if b else 0)
            - (a.hbm_load_bytes if a else 0),
            "requests": (b.requests if b else 0) - (a.requests if a else 0),
            "good": (b.good if b else 0) - (a.good if a else 0),
        }
    tenant_sum = sum(t["attributed_cycles"] for t in tenants.values())
    if tenant_sum != totals["attributed_cycles"]:
        raise ValueError(
            f"tenant cycle deltas sum to {tenant_sum}, expected "
            f"Δattributed {totals['attributed_cycles']}"
        )
    if (totals["attributed_cycles"] + totals["unattributed_cycles"]
            != totals["makespan_cycles"]):
        raise ValueError("Δattributed + Δunattributed != Δmakespan")
    return {"totals": totals, "tenants": tenants}


# -------------------------------------------------------------- rendering
def _fmt(delta: int) -> str:
    return f"{delta:+,}"


def render_waterfall(waterfall: DeltaWaterfall, top: int = 8) -> str:
    """Text waterfall: the makespan delta, the aggregate per-cause
    bars, the top (engine, cause, block) leaves, and the work/byte
    facets."""
    from repro.analysis.report import format_table

    base_ms, cand_ms = waterfall.base_makespan, waterfall.cand_makespan
    rel = (waterfall.makespan_delta / base_ms) if base_ms else 0.0
    lines = [
        f"differential profile: {waterfall.base_label} -> "
        f"{waterfall.cand_label}",
        f"makespan: {base_ms:,} -> {cand_ms:,} cycles  "
        f"(Δ {_fmt(waterfall.makespan_delta)}, {rel:+.2%})",
        "conservation: every lane's leaves sum exactly to "
        f"{_fmt(waterfall.makespan_delta)}",
        "",
    ]
    if waterfall.is_zero:
        lines.append("no differences: the runs are cycle-identical")
        return "\n".join(lines)

    totals = waterfall.cause_totals()
    lane_count = len(waterfall.lanes)
    lines.append(f"Δcycles by cause (summed over {lane_count} lanes):")
    rows = [[cause, _fmt(delta)] for cause, delta in
            sorted(totals.items(), key=lambda kv: -abs(kv[1]))]
    lines.append(format_table(["cause", "Δcycles"], rows))
    psa = waterfall.dominant_cause(".psa")
    if psa is not None:
        lines.append(
            f"PSA lanes dominated by: {psa[0]} ({_fmt(psa[1])} cycles)"
        )
    lines.append("")

    leaves = waterfall.top_leaves(top)
    if leaves:
        lines.append(f"top {len(leaves)} leaves (engine, cause, block):")
        rows = [
            [leaf.engine, leaf.cause, leaf.block or "-", _fmt(leaf.delta)]
            for leaf in leaves
        ]
        lines.append(format_table(["engine", "cause", "block", "Δcycles"], rows))
        lines.append("")

    if waterfall.block_work:
        moved = sorted(
            waterfall.block_work.items(),
            key=lambda kv: -abs(sum(kv[1].values())),
        )[:top]
        lines.append("Δwork per unit (load / compute cycles):")
        rows = [
            [label, _fmt(w.get("load", 0)), _fmt(w.get("compute", 0))]
            for label, w in moved
        ]
        lines.append(format_table(["unit", "Δload", "Δcompute"], rows))
        lines.append("")
    if waterfall.channel_bytes:
        lines.append("Δstreamed bytes per HBM channel:")
        rows = [[f"hbm{ch}", _fmt(delta)]
                for ch, delta in sorted(waterfall.channel_bytes.items())]
        lines.append(format_table(["channel", "Δbytes"], rows))
    return "\n".join(lines).rstrip()

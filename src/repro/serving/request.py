"""Request and session lifecycle of the serving simulator.

A request is one utterance to transcribe: it arrives at a virtual
time, waits in the admission queue, runs its prefill (encoder pass +
cross-attention K/V projection, the padded single-shot accelerator
pass the pipeline already accounts as ``accelerator_ms``), then joins
the in-flight decode batch and advances one KV-cached step per
iteration until its token budget is decoded.  Under cache pressure a
low-priority request can be *preempted*: its K/V state is evicted
(rewind to zero) and, once readmitted, the evicted steps replay before
new tokens decode — functionally exact, paid for in replayed cycles.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.serving.arrival import ArrivalModel

__all__ = [
    "RequestState",
    "UtteranceRequest",
    "RequestRecord",
    "synthesize_requests",
]


class RequestState(enum.Enum):
    QUEUED = "queued"
    PREFILLING = "prefilling"
    DECODING = "decoding"
    PREEMPTED = "preempted"
    COMPLETED = "completed"
    #: Admission control refused the request outright (its worst-case
    #: cache can never fit the K/V budget; see
    #: ``ServingConfig.reject_oversized``).
    REJECTED = "rejected"


@dataclass(frozen=True, slots=True)
class UtteranceRequest:
    """One utterance entering the service."""

    request_id: int
    #: Virtual arrival time, seconds from simulation start.
    arrival_s: float
    #: Decode steps this utterance needs (its transcript length).
    decode_tokens: int
    #: Lower is more important; preemption evicts the highest value.
    priority: int = 0
    #: Owning tenant for cost attribution and fairness accounting
    #: (:mod:`repro.serving.accounting`).  Purely an accounting label:
    #: scheduling never looks at it, so tenanted and untenanted runs
    #: are cycle-identical.
    tenant: int = 0

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")
        if self.decode_tokens <= 0:
            raise ValueError("decode_tokens must be positive")
        if self.tenant < 0:
            raise ValueError("tenant must be non-negative")


@dataclass(slots=True)
class RequestRecord:
    """Everything that happened to one request, in virtual seconds."""

    request: UtteranceRequest
    state: RequestState = RequestState.QUEUED
    admitted_s: float | None = None
    prefill_done_s: float | None = None
    finished_s: float | None = None
    decoded_tokens: int = 0
    preemptions: int = 0
    replayed_steps: int = 0
    #: Per-iteration virtual end times of this request's decode steps.
    step_end_s: list[float] = field(default_factory=list)

    @property
    def queue_ms(self) -> float:
        """Arrival -> admission (first admission, virtual ms)."""
        if self.admitted_s is None:
            raise ValueError(f"request {self.request.request_id} never admitted")
        return (self.admitted_s - self.request.arrival_s) * 1e3

    @property
    def e2e_ms(self) -> float:
        """Arrival -> last decode step (virtual ms)."""
        if self.finished_s is None:
            raise ValueError(f"request {self.request.request_id} never finished")
        return (self.finished_s - self.request.arrival_s) * 1e3

    @property
    def service_ms(self) -> float:
        """Admission -> completion (virtual ms)."""
        if self.admitted_s is None or self.finished_s is None:
            raise ValueError(f"request {self.request.request_id} incomplete")
        return (self.finished_s - self.admitted_s) * 1e3


def synthesize_requests(
    arrival: ArrivalModel,
    num_requests: int,
    min_tokens: int = 4,
    max_tokens: int = 16,
    priority_classes: int = 2,
    seed: int = 0,
    tenant_classes: int = 1,
    tenant_weights: Sequence[float] | None = None,
) -> list[UtteranceRequest]:
    """A deterministic request trace: arrival times from the arrival
    model, token budgets and priorities from a separate seeded stream
    (``random.Random`` for cross-platform bit-stability).

    ``tenant_classes`` > 1 assigns each request a tenant id drawn from
    its *own* seeded stream, optionally weighted by ``tenant_weights``
    (a skewed mix makes the fairness readouts interesting).  The
    tenant stream is independent of the token/priority stream, so the
    default single-tenant trace is byte-identical to what earlier
    revisions produced — tenanting never moves a pinned cycle count.
    """
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    if not 0 < min_tokens <= max_tokens:
        raise ValueError("need 0 < min_tokens <= max_tokens")
    if priority_classes < 1:
        raise ValueError("priority_classes must be >= 1")
    if tenant_classes < 1:
        raise ValueError("tenant_classes must be >= 1")
    if tenant_weights is not None:
        if len(tenant_weights) != tenant_classes:
            raise ValueError("tenant_weights must have one entry per class")
        if any(w < 0 for w in tenant_weights) or sum(tenant_weights) <= 0:
            raise ValueError("tenant_weights must be non-negative, sum > 0")
    rng = random.Random(seed ^ 0x5EEDED)
    trng = random.Random(seed ^ 0x7E7A47)
    times = arrival.times(num_requests)
    if tenant_classes == 1:
        tenants = [0] * num_requests
    else:
        tenants = trng.choices(
            range(tenant_classes), weights=tenant_weights, k=num_requests
        )
    return [
        UtteranceRequest(
            request_id=i,
            arrival_s=t,
            decode_tokens=rng.randint(min_tokens, max_tokens),
            priority=rng.randrange(priority_classes),
            tenant=tenants[i],
        )
        for i, t in enumerate(times)
    ]

"""Dynamic micro-batching for the inference request path.

Single-user recommendation requests are tiny — one sample, a handful of
ids per feature — while every kernel in this repo (arena gather, GEMM)
only approaches its bandwidth/compute ceiling at batch width. The
batcher closes that gap: requests queue briefly and are coalesced into
one forward pass, trading a bounded amount of waiting for a large
throughput win (the classic dynamic-batching policy of inference
servers; cf. MP-Rec's observation that recommendation inference is
dominated by batching policy and lookup bandwidth).

The policy has three knobs:

* ``max_batch_size`` — dispatch immediately once this many requests
  wait (the arena-kernel-sized batch);
* ``max_wait_s`` — never hold the *oldest* waiting request longer than
  this while the server is free (tail-latency bound);
* ``max_queue_depth`` — admission control: arrivals beyond this many
  waiting requests are shed at the door instead of building an
  unbounded queue (load shedding under overload). Shed requests are
  first-class citizens of the stats, never silently dropped.

Everything runs in *virtual time*: requests carry arrival timestamps,
service times come from a caller-supplied model (the perf-model-backed
:class:`repro.serving.server.ServingPerfModel` in production), and the
planner is one deterministic discrete-event loop (:func:`_plan_lanes`,
behind both :class:`MicroBatcher` and :class:`MultiTenantBatcher`) —
the same arrival trace always yields the same schedule, which is what
makes the SLO benchmarks reproducible and the hypothesis fuzz
meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence

from ..data.datagen import MiniBatch

__all__ = ["ADMISSION_KINDS", "BatchingPolicy", "InferenceRequest",
           "ScheduledBatch", "BatchPlan", "predicted_completion",
           "MicroBatcher", "MultiTenantBatcher"]


ADMISSION_KINDS = ("depth", "predicted")


@dataclass(frozen=True)
class BatchingPolicy:
    """Dispatch and admission knobs of the micro-batcher.

    ``admission`` picks the shedding rule: ``"depth"`` (the default)
    sheds arrivals once ``max_queue_depth`` requests wait; ``"predicted"``
    additionally sheds an arrival when its perf-model-predicted
    completion — existing queue served FIFO at full batch width starting
    from ``max(server_free, arrival)`` — would land past
    ``arrival + deadline_s``. Predicted admission sheds exactly the
    requests that were going to miss anyway, so goodput stays pinned at
    capacity under overload instead of collapsing into queueing.
    """

    max_batch_size: int = 64
    max_wait_s: float = 2e-3
    max_queue_depth: int = 1024
    admission: str = "depth"
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.admission not in ADMISSION_KINDS:
            raise ValueError(f"admission must be one of {ADMISSION_KINDS}, "
                             f"got {self.admission!r}")
        if self.admission == "predicted":
            if self.deadline_s is None or self.deadline_s <= 0:
                raise ValueError("predicted admission needs a positive "
                                 "deadline_s")


@dataclass(frozen=True)
class InferenceRequest:
    """One user request: a (usually single-sample) batch plus arrival time.

    ``user_id`` tags the originating user when the trace comes from a
    Zipf user population (fleet traffic); ``None`` for anonymous
    flat-Poisson traces. ``tenant`` names the model the request targets
    on a multi-tenant fleet (``None`` on single-model paths).
    """

    request_id: int
    arrival_s: float
    batch: MiniBatch
    user_id: Optional[int] = None
    tenant: Optional[str] = None

    @property
    def num_samples(self) -> int:
        return self.batch.batch_size

    @cached_property
    def nnz(self) -> int:
        """Embedding rows the request touches (the perf model's input),
        counted on first use: a request is priced on every admission
        check, dispatch and routing estimate that includes it."""
        return self.batch.nnz


@dataclass
class ScheduledBatch:
    """One dispatched batch in the virtual-time schedule.

    ``trigger`` records why it was cut: ``"full"`` (max_batch_size
    reached), ``"deadline"`` (oldest request hit max_wait) or
    ``"drain"`` (no further arrivals, queue flushed).
    """

    requests: List[InferenceRequest]
    dispatch_s: float
    completion_s: float
    trigger: str

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    @property
    def num_samples(self) -> int:
        return sum(r.num_samples for r in self.requests)

    @property
    def service_s(self) -> float:
        return self.completion_s - self.dispatch_s


@dataclass
class BatchPlan:
    """The complete deterministic schedule for one arrival trace."""

    batches: List[ScheduledBatch] = field(default_factory=list)
    shed: List[InferenceRequest] = field(default_factory=list)

    @property
    def num_offered(self) -> int:
        return self.num_completed + self.num_shed

    @property
    def num_completed(self) -> int:
        return sum(b.num_requests for b in self.batches)

    @property
    def num_shed(self) -> int:
        return len(self.shed)

    @property
    def makespan_s(self) -> float:
        """First arrival to last completion (0 for an empty plan)."""
        if not self.batches:
            return 0.0
        first = min(r.arrival_s for b in self.batches for r in b.requests)
        return self.batches[-1].completion_s - first

    def latencies_s(self) -> List[float]:
        """Per-completed-request latency, in request-id order."""
        out = []
        for b in self.batches:
            out.extend((r.request_id, b.completion_s - r.arrival_s)
                       for r in b.requests)
        return [lat for _, lat in sorted(out)]


def predicted_completion(policy: BatchingPolicy,
                         queue: List[InferenceRequest],
                         r: InferenceRequest, server_free: float,
                         service_time: Callable[
                             [List[InferenceRequest]], float]) -> float:
    """Earliest possible completion of ``r`` given its own ``queue``.

    Assumes work-conserving FIFO dispatch at full batch width starting
    at ``max(server_free, r.arrival)`` — an optimistic (lower) bound,
    since real dispatches may also wait on the max-wait trigger (and,
    on a shared timeline, on other tenants, whose queues a tenant cannot
    see). Shedding only when even this bound misses the deadline means
    predicted admission never sheds a request the scheduler could still
    have saved.
    """
    t = max(server_free, r.arrival_s)
    prospective = queue + [r]
    width = policy.max_batch_size
    for start in range(0, len(prospective), width):
        t += float(service_time(prospective[start:start + width]))
    return t


def _plan_lanes(requests: Sequence[InferenceRequest],
                lane_of: Callable[[InferenceRequest], int],
                policies: Sequence[BatchingPolicy],
                services: Sequence[Callable[[List[InferenceRequest]], float]]
                ) -> List[BatchPlan]:
    """The one discrete-event loop: per-lane queues and admission over a
    single server timeline.

    Lane ``k`` queues the requests ``lane_of`` sends to it, under
    ``policies[k]``, priced by ``services[k]``. The loop alternates
    between two event kinds — "next arrival" and "next dispatch" —
    always taking the earlier one, so arrivals during a long-running
    batch correctly queue (or shed) while the server is busy. Every
    non-empty lane computes its trigger: the earlier of (a) the arrival
    of its ``max_batch_size``-th waiting request and (b)
    ``oldest.arrival + max_wait_s``. The lane with the earliest trigger
    (ties go to the lower lane) cuts the next batch at
    ``max(server_free, trigger)``. Rule (b) bounds batch-formation
    waiting; a request can still wait longer while the server is busy
    with earlier batches (that time is queueing, not batching, delay —
    the fuzz suite asserts exactly this split). Admission looks at the
    arriving request's own lane only.
    """
    pending = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    seen = set()
    for r in pending:
        if r.request_id in seen:
            raise ValueError(f"duplicate request id {r.request_id}")
        seen.add(r.request_id)
    plans = [BatchPlan() for _ in policies]
    queues: List[List[InferenceRequest]] = [[] for _ in policies]
    server_free = 0.0
    i = 0
    n = len(pending)
    while i < n or any(queues):
        next_arrival = pending[i].arrival_s if i < n else float("inf")
        chosen = -1
        chosen_trigger_s = float("inf")
        chosen_trigger = ""
        for lane, queue in enumerate(queues):
            if not queue:
                continue
            pol = policies[lane]
            if len(queue) >= pol.max_batch_size:
                trigger_s = queue[pol.max_batch_size - 1].arrival_s
                trigger = "full"
            else:
                trigger_s = queue[0].arrival_s + pol.max_wait_s
                trigger = "deadline" if i < n else "drain"
            if chosen < 0 or trigger_s < chosen_trigger_s:
                chosen, chosen_trigger_s = lane, trigger_s
                chosen_trigger = trigger
        if chosen >= 0:
            dispatch = max(server_free, chosen_trigger_s)
            if dispatch <= next_arrival:
                width = policies[chosen].max_batch_size
                queue = queues[chosen]
                batch = queue[:width]
                del queue[:width]
                svc = float(services[chosen](batch))
                if svc < 0:
                    raise ValueError("service_time must be >= 0")
                plans[chosen].batches.append(ScheduledBatch(
                    requests=batch, dispatch_s=dispatch,
                    completion_s=dispatch + svc, trigger=chosen_trigger))
                server_free = dispatch + svc
                continue
        # admit (or shed) the next arrival into its own lane's queue
        r = pending[i]
        i += 1
        lane = lane_of(r)
        pol = policies[lane]
        queue = queues[lane]
        if len(queue) >= pol.max_queue_depth:
            plans[lane].shed.append(r)
        elif pol.admission == "predicted" and \
                predicted_completion(pol, queue, r, server_free,
                                     services[lane]) \
                > r.arrival_s + pol.deadline_s:
            plans[lane].shed.append(r)
        else:
            queue.append(r)
    return plans


class MicroBatcher:
    """Deterministic dynamic batcher for one model: the one-tenant entry
    to the shared event loop (:func:`_plan_lanes`).

    :meth:`plan` replays an arrival trace against a service-time model
    and returns the full :class:`BatchPlan`. Every request lands in the
    single queue whatever its ``tenant`` tag says — a partitioned
    multi-tenant fleet hands tenant-tagged requests to single-model
    replicas.
    """

    def __init__(self, policy: Optional[BatchingPolicy] = None) -> None:
        self.policy = policy if policy is not None else BatchingPolicy()

    def plan(self, requests: Sequence[InferenceRequest],
             service_time: Callable[[List[InferenceRequest]], float]
             ) -> BatchPlan:
        """Schedule ``requests`` (any order; sorted internally by arrival,
        ties broken by request id) through the dispatch rule."""
        return _plan_lanes(requests, lambda r: 0, [self.policy],
                           [service_time])[0]


class MultiTenantBatcher:
    """Per-tenant queues and admission over one shared server timeline.

    Each tenant brings its own :class:`BatchingPolicy` (batch width, wait
    bound, admission rule); batches never mix tenants because each tenant
    targets a different :class:`~repro.serving.export.ServableModel`. The
    shared part is the *server*: one device timeline serves every
    tenant's dispatches, so a long batch from a heavy tenant delays
    whoever triggers next — exactly the head-of-line blocking a naive
    shared fleet exhibits, and what planner-partitioned replica subsets
    avoid (:mod:`repro.fleet.tenancy`).

    Tenants are the lanes of :func:`_plan_lanes` in name order, so the
    tenant with the *earliest trigger* (ties broken by name) cuts the
    next batch. Admission is evaluated against the arriving request's
    own tenant queue only — a tenant cannot observe (or be shed because
    of) another tenant's backlog, though its *latency* still pays for
    the shared timeline.
    """

    def __init__(self, policies: Dict[str, BatchingPolicy]) -> None:
        if not policies:
            raise ValueError("need at least one tenant policy")
        self.policies = dict(policies)

    def plan(self, requests: Sequence[InferenceRequest],
             service_time: Callable[[str, List[InferenceRequest]], float]
             ) -> Dict[str, BatchPlan]:
        """Schedule a mixed-tenant arrival trace; ``service_time`` takes
        ``(tenant, batch)`` so each tenant's model prices its own
        dispatches. Returns one :class:`BatchPlan` per tenant."""
        names = sorted(self.policies)
        lanes = {name: lane for lane, name in enumerate(names)}
        for r in requests:
            if r.tenant not in lanes:
                raise ValueError(
                    f"request {r.request_id} targets unknown tenant "
                    f"{r.tenant!r} (have {names})")
        plans = _plan_lanes(
            requests, lambda r: lanes[r.tenant],
            [self.policies[name] for name in names],
            [partial(service_time, name) for name in names])
        return {name: plans[lanes[name]] for name in self.policies}

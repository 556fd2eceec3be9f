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

A trace is stored as columns (:class:`RequestTrace`): one array per
request attribute plus a :class:`MiniBatch` store holding the requests'
samples, the way the ingestion path moves a batch as one jagged buffer
plus lengths. The batcher, the executor and the router work on
positions into it; :class:`InferenceRequest` is the per-request view of
one position. Results are columns too: a plan holds index arrays into
the trace, a :class:`~repro.serving.server.ServeResult` one array per
field.

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

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import check
from ..check import service_seconds
from ..data.datagen import MiniBatch, concat_ranges

__all__ = ["ADMISSION_KINDS", "BatchingPolicy", "InferenceRequest",
           "RequestTrace", "ScheduledBatch", "BatchPlan",
           "predicted_completion", "MicroBatcher", "MultiTenantBatcher"]


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
        check.count("max_batch_size", self.max_batch_size)
        check.nonnegative("max_wait_s", self.max_wait_s)
        check.count("max_queue_depth", self.max_queue_depth)
        if self.admission not in ADMISSION_KINDS:
            raise ValueError(f"admission must be one of {ADMISSION_KINDS}, "
                             f"got {self.admission!r}")
        if self.deadline_s is not None:
            check.positive("deadline_s", self.deadline_s)
        elif self.admission == "predicted":
            raise ValueError("predicted admission needs a deadline_s")


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
        counted on first use."""
        return self.batch.nnz


#: a trace's per-request columns
_COLUMNS = ("request_id", "arrival_s", "num_samples", "nnz", "user_id",
            "tenant", "part", "start")


class _StoreRows(MiniBatch):
    """Rows ``[start, stop)`` of a trace's store as a :class:`MiniBatch`
    whose arrays are each copied out on first use. Its size and id count
    come from the trace's columns, so pricing or routing a request view
    never slices it."""

    def __init__(self, store: MiniBatch, start: int, stop: int,
                 nnz: int) -> None:
        self._store = store
        self._rows = slice(start, stop)
        self._nnz = nnz

    @cached_property
    def dense(self) -> np.ndarray:
        return self._store.dense[self._rows].copy()

    @property
    def keys(self) -> Tuple[str, ...]:
        return self._store.keys

    @cached_property
    def lengths(self) -> np.ndarray:
        return self._store.lengths[:, self._rows].copy()

    @cached_property
    def ids(self) -> np.ndarray:
        return self._store._row_ids(self._rows.start, self._rows.stop)

    @cached_property
    def labels(self) -> np.ndarray:
        return self._store.labels[self._rows].copy()

    @property
    def batch_size(self) -> int:
        return self._rows.stop - self._rows.start

    @property
    def nnz(self) -> int:
        return self._nnz


class RequestTrace:
    """An arrival trace stored as columns, in arrival order.

    One entry per request in each of the arrays ``request_id``,
    ``arrival_s``, ``num_samples``, ``nnz`` (embedding ids, the perf
    model's input), ``user_id`` (-1 for an anonymous request) and
    ``tenant`` (an object array of names or ``None``). Request ``i``'s
    samples are rows ``[start[i], start[i] + num_samples[i])`` of the
    :class:`MiniBatch` ``stores[part[i]]``: one store for a generated
    trace (the bulk draw, where requests of one recurring user share
    rows), one per feature set for a :meth:`merge` of several models'
    traces.

    Inputs are checked once, here: ids unique, arrivals finite, every
    request at least one sample inside its store. The rows are then put
    in ``(arrival_s, request_id)`` order, which every consumer reads.
    ``len(trace)``, ``trace[i]`` (an :class:`InferenceRequest` view,
    made once per position and kept) and ``trace[index]`` (a sub-trace
    over the same stores for a slice, an index array or a mask, with
    increasing positions so the order holds) are the sequence interface.
    """

    __slots__ = _COLUMNS + ("stores", "_views")

    def __init__(self, request_id, arrival_s, stores: Sequence[MiniBatch],
                 start, num_samples, nnz, user_id=None, tenant=None,
                 part=None) -> None:
        self.request_id = np.asarray(request_id, dtype=np.int64)
        n = len(self.request_id)
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.stores = tuple(stores)
        self.start = np.asarray(start, dtype=np.int64)
        self.num_samples = np.asarray(num_samples, dtype=np.int64)
        self.nnz = np.asarray(nnz, dtype=np.int64)
        self.user_id = np.full(n, -1, dtype=np.int64) if user_id is None \
            else np.asarray(user_id, dtype=np.int64)
        self.part = np.zeros(n, dtype=np.int64) if part is None \
            else np.asarray(part, dtype=np.int64)
        self.tenant = np.empty(n, dtype=object)
        if tenant is not None:
            self.tenant[:] = list(tenant)
        self._views = np.empty(n, dtype=object)
        columns = (self.request_id, self.arrival_s, self.start,
                   self.num_samples, self.nnz, self.user_id, self.part)
        if any(c.ndim != 1 or len(c) != n for c in columns):
            raise ValueError("every trace column needs one entry per "
                             "request")
        if not np.isfinite(self.arrival_s).all():
            raise ValueError("arrival_s must be finite")
        if not n:
            return
        if self.num_samples.min() < 1 or self.nnz.min() < 0:
            raise ValueError("every request needs at least one sample "
                             "and a non-negative nnz")
        if self.part.min() < 0 or self.part.max() >= len(self.stores):
            raise ValueError(f"part outside the {len(self.stores)} stores")
        rows = np.array([s.batch_size for s in self.stores])[self.part]
        if self.start.min() < 0 \
                or (self.start + self.num_samples > rows).any():
            raise ValueError("request rows outside [0, rows) of the store")
        ids, counts = np.unique(self.request_id, return_counts=True)
        if len(ids) != n:
            raise ValueError(f"duplicate request id {ids[counts > 1][0]}")
        order = np.lexsort((self.request_id, self.arrival_s))
        if (np.diff(order) != 1).any():
            for name in _COLUMNS:
                setattr(self, name, getattr(self, name)[order])

    @classmethod
    def merge(cls, traces: Sequence["RequestTrace"],
              tenants: Optional[Sequence[Optional[str]]] = None
              ) -> "RequestTrace":
        """Every request of ``traces`` in one trace, the one way to
        combine traces. ``tenants[j]``, if given, tags each request of
        ``traces[j]``; otherwise the requests keep their tags.

        The merged trace keeps one store per feature set (the ordered
        sparse ``keys`` and the dense width): a store that is the only one of its set is
        used uncopied, one that several inputs share is kept once, and
        distinct stores of one set are coalesced by one
        :meth:`MiniBatch.concat`."""
        traces = list(traces)
        if tenants is not None and len(tenants) != len(traces):
            raise ValueError(f"{len(tenants)} tenants for {len(traces)} "
                             "traces")
        groups: Dict[tuple, Dict[int, MiniBatch]] = {}
        for store in (s for trace in traces for s in trace.stores):
            groups.setdefault((store.keys, store.dense.shape[1:]),
                              {})[id(store)] = store
        stores, placed = [], {}   # id(store) -> (part, first row)
        for k, members in enumerate(groups.values()):
            rows = np.cumsum([0] + [m.batch_size for m in members.values()])
            placed.update((key, (k, int(r))) for key, r in zip(members, rows))
            stores.append(MiniBatch.concat(list(members.values()))
                          if len(members) > 1
                          else next(iter(members.values())))
        column = {name: np.concatenate([getattr(t, name) for t in traces]
                                       or [[]]) for name in _COLUMNS}
        if tenants is not None:
            column["tenant"] = np.repeat(np.array(tenants, dtype=object),
                                         [len(t) for t in traces])
        where = np.array([placed[id(t.stores[k])] for t in traces
                          for k in t.part.tolist()]).reshape(-1, 2)
        column["part"] = where[:, 0]
        column["start"] = where[:, 1] + column["start"]
        return cls(stores=stores, **column)

    def __len__(self) -> int:
        return len(self.request_id)

    def __getitem__(self, key) -> Union[InferenceRequest, "RequestTrace"]:
        if isinstance(key, (int, np.integer)):
            view = self._views[key]
            if view is None:
                view = self._views[key] = self._view(int(key))
            return view
        index = np.arange(len(self))[key]
        if (np.diff(index) <= 0).any():
            raise ValueError("sub-trace positions must be increasing")
        sub = object.__new__(RequestTrace)
        for name in _COLUMNS + ("_views",):
            setattr(sub, name, getattr(self, name)[index])
        sub.stores = self.stores
        return sub

    def _view(self, i: int) -> InferenceRequest:
        start = int(self.start[i])
        user = int(self.user_id[i])
        return InferenceRequest(
            request_id=int(self.request_id[i]),
            arrival_s=float(self.arrival_s[i]),
            batch=_StoreRows(self.stores[self.part[i]], start,
                             start + int(self.num_samples[i]),
                             int(self.nnz[i])),
            user_id=None if user < 0 else user, tenant=self.tenant[i])

    def tenant_index(self, names: Sequence[Optional[str]]) -> np.ndarray:
        """Each request's tenant as a position in ``names``; a request
        whose tenant is not there is a ``ValueError``."""
        lanes = {name: k for k, name in enumerate(names)}
        for rid, tenant in zip(self.request_id.tolist(), self.tenant):
            if tenant not in lanes:
                raise ValueError(f"request {rid} targets unknown tenant "
                                 f"{tenant!r} (have {list(names)})")
        return np.array([lanes[t] for t in self.tenant], dtype=np.int64)

    def batch(self, index: np.ndarray) -> MiniBatch:
        """The samples of the requests at ``index``, in that order (any
        order, as dispatches gather them), taken out of their store by
        one :meth:`MiniBatch.take`."""
        part = self.part[index]
        if (part != part[0]).any():
            raise ValueError("requests of different feature sets cannot "
                             "share a batch")
        return self.stores[part[0]].take(
            concat_ranges(self.start[index], self.num_samples[index]))


@dataclass(eq=False)
class ScheduledBatch:
    """One dispatched batch in the virtual-time schedule.

    It serves the requests at positions ``index`` of ``trace``, in
    dispatch order. ``trigger`` records why it was cut: ``"full"``
    (max_batch_size reached), ``"deadline"`` (oldest request hit
    max_wait) or ``"drain"`` (no further arrivals, queue flushed).
    """

    trace: RequestTrace
    index: np.ndarray
    dispatch_s: float
    completion_s: float
    trigger: str

    @property
    def requests(self) -> List[InferenceRequest]:
        return [self.trace[i] for i in self.index.tolist()]

    @property
    def num_requests(self) -> int:
        return len(self.index)

    @cached_property
    def num_samples(self) -> int:
        return int(self.trace.num_samples[self.index].sum())


@dataclass(eq=False)
class BatchPlan:
    """The complete deterministic schedule for one arrival trace.

    The shed requests are the positions ``shed_index`` of ``trace``, in
    shed order."""

    trace: RequestTrace
    batches: List[ScheduledBatch]
    shed_index: np.ndarray

    def completed_index(self) -> np.ndarray:
        """Positions of the completed requests, in dispatch order."""
        return np.concatenate([b.index for b in self.batches]) \
            if self.batches else np.zeros(0, dtype=np.int64)


ServiceTime = Callable[[int, int], float]


def predicted_completion(policy: BatchingPolicy, samples: List[int],
                         nnz: List[int], head: int, start_s: float,
                         service_time: ServiceTime) -> float:
    """Earliest possible completion of the last request of a lane queue.

    ``samples``/``nnz`` are running sums over the lane's admitted
    requests plus the arriving one (entry ``k`` covers the first ``k``),
    and the queue is everything from ``head`` on, so each
    ``max_batch_size``-wide chunk is priced from two differences.
    Assumes work-conserving FIFO dispatch at full batch width starting
    at ``start_s = max(server_free, arrival)`` — an optimistic (lower)
    bound, since real dispatches may also wait on the max-wait trigger
    (and, on a shared timeline, on other tenants, whose queues a tenant
    cannot see). Shedding only when even this bound misses the deadline
    means predicted admission never sheds a request the scheduler could
    still have saved.
    """
    t = start_s
    end = len(samples) - 1
    for lo in range(head, end, policy.max_batch_size):
        hi = min(lo + policy.max_batch_size, end)
        t += service_seconds(service_time(samples[hi] - samples[lo],
                                          nnz[hi] - nnz[lo]))
    return t


class _Lane:
    """One lane of :func:`_plan_lanes`: the trace positions it admitted,
    running sums of their samples and nnz, the queue
    (``admitted[head:]``), its dispatches as ``(lo, hi, dispatch_s,
    completion_s, trigger)`` over ``admitted``, and its sheds."""

    __slots__ = ("policy", "service", "admitted", "samples", "nnz", "head",
                 "dispatches", "shed")

    def __init__(self, policy: BatchingPolicy,
                 service: ServiceTime) -> None:
        self.policy = policy
        self.service = service
        self.admitted: List[int] = []
        self.samples = [0]
        self.nnz = [0]
        self.head = 0
        self.dispatches: List[tuple] = []
        self.shed: List[int] = []

    def plan(self, trace: RequestTrace) -> BatchPlan:
        index = np.asarray(self.admitted, dtype=np.int64)
        return BatchPlan(trace, [ScheduledBatch(trace, index[lo:hi], *rest)
                                 for lo, hi, *rest in self.dispatches],
                         np.asarray(self.shed, dtype=np.int64))


def _plan_lanes(trace: RequestTrace, lanes: np.ndarray,
                policies: Sequence[BatchingPolicy],
                services: Sequence[ServiceTime]) -> List[BatchPlan]:
    """The one discrete-event loop: per-lane queues and admission over a
    single server timeline.

    Lane ``k`` queues the requests whose entry in ``lanes`` is ``k``,
    under ``policies[k]``, priced by ``services[k](batch_size, nnz)``.
    The loop takes requests in trace (that is, arrival) order. It
    alternates between two event kinds — "next arrival" and "next
    dispatch" — always taking the earlier one, so arrivals during a
    long-running batch correctly queue (or shed) while the server is
    busy. Every non-empty lane computes its trigger: the earlier of (a)
    the arrival of its ``max_batch_size``-th waiting request and (b)
    ``oldest.arrival + max_wait_s``. The lane with the earliest trigger
    (ties go to the lower lane) cuts the next batch at
    ``max(server_free, trigger)``. Rule (b) bounds batch-formation
    waiting; a request can still wait longer while the server is busy
    with earlier batches (that time is queueing, not batching, delay —
    the fuzz suite asserts exactly this split). Admission looks at the
    arriving request's own lane only.
    """
    arrival = trace.arrival_s.tolist()
    samples = trace.num_samples.tolist()
    nnz = trace.nnz.tolist()
    lane_of = lanes.tolist()
    state = [_Lane(p, s) for p, s in zip(policies, services)]
    server_free = 0.0
    i = 0
    n = len(arrival)
    while True:
        next_arrival = arrival[i] if i < n else float("inf")
        chosen: Optional[_Lane] = None
        chosen_trigger_s = float("inf")
        chosen_trigger = ""
        for lane in state:
            waiting = len(lane.admitted) - lane.head
            if not waiting:
                continue
            pol = lane.policy
            if waiting >= pol.max_batch_size:
                trigger_s = arrival[
                    lane.admitted[lane.head + pol.max_batch_size - 1]]
                trigger = "full"
            else:
                trigger_s = arrival[lane.admitted[lane.head]] \
                    + pol.max_wait_s
                trigger = "deadline" if i < n else "drain"
            if chosen is None or trigger_s < chosen_trigger_s:
                chosen, chosen_trigger_s = lane, trigger_s
                chosen_trigger = trigger
        if chosen is None and i == n:
            break
        if chosen is not None:
            dispatch = max(server_free, chosen_trigger_s)
            if dispatch <= next_arrival:
                lo = chosen.head
                hi = min(lo + chosen.policy.max_batch_size,
                         len(chosen.admitted))
                svc = service_seconds(chosen.service(
                    chosen.samples[hi] - chosen.samples[lo],
                    chosen.nnz[hi] - chosen.nnz[lo]))
                chosen.head = hi
                chosen.dispatches.append(
                    (lo, hi, dispatch, dispatch + svc, chosen_trigger))
                server_free = dispatch + svc
                continue
        # admit (or shed) the next arrival into its own lane's queue
        k = i
        i += 1
        lane = state[lane_of[k]]
        pol = lane.policy
        if len(lane.admitted) - lane.head >= pol.max_queue_depth:
            lane.shed.append(k)
            continue
        lane.samples.append(lane.samples[-1] + samples[k])
        lane.nnz.append(lane.nnz[-1] + nnz[k])
        if pol.admission == "predicted" and predicted_completion(
                pol, lane.samples, lane.nnz, lane.head,
                max(server_free, arrival[k]), lane.service) \
                > arrival[k] + pol.deadline_s:
            lane.samples.pop()
            lane.nnz.pop()
            lane.shed.append(k)
        else:
            lane.admitted.append(k)
    return [lane.plan(trace) for lane in state]


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

    def plan(self, trace: RequestTrace,
             service_time: ServiceTime) -> BatchPlan:
        """Schedule the :class:`RequestTrace` ``trace`` through the
        dispatch rule; ``service_time(batch_size, nnz)`` prices one
        dispatch."""
        return _plan_lanes(trace, np.zeros(len(trace), dtype=np.int64),
                           [self.policy], [service_time])[0]


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

    def plan(self, trace: RequestTrace,
             service_time: Callable[[str, int, int], float]
             ) -> Dict[str, BatchPlan]:
        """Schedule a mixed-tenant :class:`RequestTrace`;
        ``service_time`` takes ``(tenant, batch_size, nnz)`` so each
        tenant's model prices its own dispatches. Returns one
        :class:`BatchPlan` per tenant."""
        names = sorted(self.policies)
        plans = _plan_lanes(
            trace, trace.tenant_index(names),
            [self.policies[name] for name in names],
            [partial(service_time, name) for name in names])
        return {name: plans[names.index(name)] for name in self.policies}

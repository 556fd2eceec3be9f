"""The SLO-aware inference server: batching + real forwards + modeled time.

The server composes the three serving pieces: an immutable
:class:`repro.serving.export.ServableModel`, the dynamic
:class:`repro.serving.batcher.MicroBatcher`, and a
:class:`ServingPerfModel` that prices every dispatched batch with the
*same* operator models training uses — GEMM rooflines for the MLPs
(:mod:`repro.perf.gemm`), the embedding bandwidth curve
(:mod:`repro.perf.embedding_bw`) degraded by the shared
:class:`repro.perf.PlatformSpec` memory hierarchy when the model
overflows HBM, and the host-transfer model for request upload. Batching
trade-offs therefore come out *measured against the platform model*,
not asserted: the benchmark can show exactly where amortized launch
overhead stops paying for added queueing delay.

Every request is served for real — each scheduled batch runs an actual
numpy forward over the coalesced samples — while latency accounting
runs in virtual time, so results are deterministic and machine
independent.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from .. import check, lowp
from ..data.formats import host_transfer_time
from ..embedding import lengths_to_offsets
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..perf.devices import DeviceSpec, V100
from ..perf.embedding_bw import embedding_achieved_bw
from ..perf.gemm import mlp_time
from ..perf.platform import ZIONEX_PLATFORM, PlatformSpec
from .batcher import (BatchingPolicy, BatchPlan, MicroBatcher, RequestTrace,
                      ScheduledBatch)
from .export import ServableModel

__all__ = ["ServingPerfModel", "ServeResult", "execute_plan",
           "InferenceServer"]

_EMB_LOOKUP_PRECISION = {"fp32": "fp32", "fp16": "fp16", "bf16": "fp16",
                         "int8": "fp16",  # bandwidth class of row reads
                         # plan-mixed artifacts: most bytes sit in the
                         # compressed representations, price as fp16
                         "mixed": "fp16"}

# Samples one embedding pass covers in execute_plan: enough dispatches to
# amortise the per-table cost of a lookup, few enough that the window's
# coalesced ids and pooled rows stay a few MB.
_WINDOW_SAMPLES = 512


def _column(dtype):
    """An empty result column, the default of a :class:`ServeResult`."""
    return field(default_factory=partial(np.zeros, 0, dtype))


@dataclass(frozen=True)
class ServingPerfModel:
    """Per-batch service-time model for one serving node.

    ``nodes`` sizes the HBM pool the frozen model must fit: when the
    model's storage overflows ``nodes * hbm_per_node``, lookups slow
    down by the platform's hierarchy bandwidth fraction — the same
    arithmetic :mod:`repro.perf.online` applies to training clusters.
    ``overhead_s`` is the fixed per-dispatch cost (request decode,
    framework, result scatter) that batching amortizes.
    """

    device: DeviceSpec = V100
    platform: PlatformSpec = ZIONEX_PLATFORM
    nodes: int = 1
    cache_hit_boost: float = 0.5
    mlp_precision: str = "fp32"
    overhead_s: float = 50e-6
    # per-model pricing terms, keyed on model identity (see _prices)
    _models: Dict[int, "_ModelPrices"] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check.count("nodes", self.nodes)
        check.fraction("cache_hit_boost", self.cache_hit_boost, one=False)
        check.nonnegative("overhead_s", self.overhead_s)

    def bw_fraction(self, model: ServableModel) -> float:
        """Effective lookup bandwidth fraction for this model placement."""
        hbm_fraction = self.platform.hbm_fraction(
            model.embedding_storage_bytes(), self.nodes)
        return self.platform.hierarchy_bw_fraction(
            hbm_fraction, self.cache_hit_boost)

    def _prices(self, model: ServableModel) -> "_ModelPrices":
        """The pricing terms ``model`` fixes under this perf model, derived
        on first use. An entry holds its model weakly and is dropped when
        the model dies, so a later model that reuses the ``id`` never
        reads a stale entry."""
        prices = self._models.get(id(model))
        if prices is None or prices.model() is not model:
            prices = _ModelPrices(self, model, self._models)
            self._models[id(model)] = prices
        return prices

    def service_time(self, model: ServableModel, batch_size: int,
                     nnz: int) -> float:
        """Seconds to serve one coalesced batch of ``batch_size`` samples
        touching ``nnz`` embedding rows.

        The sum is ``h2d + bottom + lookup + inter + top + overhead``,
        left to right. Everything but ``lookup`` depends on the model and
        the batch size alone, so it is derived once per ``(model,
        batch_size)`` (:class:`_ModelPrices`); ``h2d + bottom`` is kept
        as that very sum, which leaves every price bitwise unchanged.
        ``lookup`` is :func:`~repro.perf.embedding_bw.embedding_lookup_time`
        over the model's constant bandwidth, ``(nnz * dim * bytes) / bw +
        launch``, then ``/ bw_fraction``; the two arguments are checked
        once, here.
        """
        check.count("batch_size", batch_size)
        check.count("nnz", nnz, 0)
        prices = self._prices(model)
        terms = prices.by_batch.get(batch_size)
        if terms is None:
            terms = prices.by_batch[batch_size] = prices.batch_terms(
                batch_size)
        head, inter, top = terms
        lookup = nnz * prices.avg_dim * prices.lookup_bytes \
            / prices.lookup_bw + self.device.kernel_launch_overhead
        lookup /= prices.bw_fraction
        return head + lookup + inter + top + self.overhead_s

    def capacity_qps(self, model: ServableModel, batch_size: int,
                     nnz_per_sample: float) -> float:
        """Saturated throughput at a fixed dispatch width — the ceiling
        the load generator's goodput converges to."""
        svc = self.service_time(model, batch_size,
                                int(round(nnz_per_sample * batch_size)))
        return batch_size / svc


class _ModelPrices:
    """What one ``(perf, model)`` pair fixes in
    :meth:`ServingPerfModel.service_time`: the per-model constants, and
    ``by_batch``, the terms that depend on batch size alone,
    ``batch_size -> (h2d + bottom, inter, top)``.

    ``model`` is a weak reference; ``models`` (the perf model's table,
    keyed on ``id(model)``) loses this entry when the model dies.
    """

    def __init__(self, perf: ServingPerfModel, model: ServableModel,
                 models: Dict[int, "_ModelPrices"]) -> None:
        self.model = weakref.ref(
            model, lambda _, key=id(model): models.pop(key, None))
        cfg = model.config
        self.device = perf.device
        self.mlp_precision = perf.mlp_precision
        self.bottom_sizes = (cfg.dense_dim,) + cfg.bottom_mlp
        self.top_sizes = (cfg.interaction_dim,) + cfg.top_mlp + (1,)
        # host upload: 2 jagged tensors + dense + lengths, combined format
        total_l = sum(t.avg_pooling for t in cfg.tables)
        self.h2d_sample_bytes = total_l * 8 + cfg.dense_dim * 4
        self.avg_dim = max(1, int(np.mean([t.embedding_dim
                                           for t in cfg.tables])))
        lookup_precision = _EMB_LOOKUP_PRECISION[model.precision]
        # the lookup's terms of embedding_lookup_time, derived once
        self.lookup_bytes = lowp.bytes_per_element(lookup_precision)
        self.lookup_bw = embedding_achieved_bw(self.device, self.avg_dim,
                                               lookup_precision)
        self.bw_fraction = perf.bw_fraction(model)
        # interaction: memory-bound pairwise dots (same as training fwd)
        f = len(cfg.tables) + 1
        self.inter_sample_bytes = f * self.avg_dim * 4 * 2 + f * f * 4
        self.by_batch: Dict[int, Tuple[float, float, float]] = {}

    def batch_terms(self, batch_size: int) -> Tuple[float, float, float]:
        h2d = host_transfer_time(4, batch_size * self.h2d_sample_bytes,
                                 pinned=True)
        bottom = mlp_time(batch_size, self.bottom_sizes, self.device,
                          self.mlp_precision)
        top = mlp_time(batch_size, self.top_sizes, self.device,
                       self.mlp_precision)
        inter = batch_size * self.inter_sample_bytes \
            / self.device.hbm_achievable_bw \
            + self.device.kernel_launch_overhead
        return h2d + bottom, inter, top


@dataclass(eq=False)
class ServeResult:
    """Everything one serve run produced: one column per field of the
    completed requests in request-id order, the sorted ``shed_ids`` and
    each completed request's ``responses``. ``version`` is the answering
    model's: 0 for a fixed model, else the :class:`ModelSlot` version
    bound at dispatch time."""

    COLUMNS: ClassVar[Tuple[str, ...]] = (
        "request_id", "arrival_s", "dispatch_s", "completion_s",
        "batch_samples", "version")

    request_id: np.ndarray = _column(np.int64)
    arrival_s: np.ndarray = _column(np.float64)
    dispatch_s: np.ndarray = _column(np.float64)
    completion_s: np.ndarray = _column(np.float64)
    batch_samples: np.ndarray = _column(np.int64)
    version: np.ndarray = _column(np.int64)
    shed_ids: np.ndarray = _column(np.int64)
    responses: Dict[int, np.ndarray] = field(default_factory=dict)
    plan: Optional[BatchPlan] = None

    @property
    def num_completed(self) -> int:
        return len(self.request_id)

    @property
    def num_shed(self) -> int:
        return len(self.shed_ids)

    def latencies_s(self) -> np.ndarray:
        return self.completion_s - self.arrival_s

    def requests_per_version(self) -> Dict[int, int]:
        """Completed-request count by answering model version."""
        versions, counts = np.unique(self.version, return_counts=True)
        return dict(zip(versions.tolist(), counts.tolist()))


def _windows(plan: BatchPlan, model: ServableModel, slot):
    """Split ``plan.batches`` into runs of consecutive dispatches answered
    by one snapshot, each holding at most ``_WINDOW_SAMPLES`` samples (a
    larger dispatch runs alone). Yields ``(model, version, batches)``."""
    window: List[ScheduledBatch] = []
    samples = 0
    current = (model, 0)
    for scheduled in plan.batches:
        answer = (model, 0)
        if slot is not None:
            snapshot = slot.snapshot_at(scheduled.dispatch_s)
            answer = (snapshot.model, snapshot.version)
        if window and (answer[0] is not current[0]
                       or answer[1] != current[1]
                       or samples + scheduled.num_samples > _WINDOW_SAMPLES):
            yield current + (window,)
            window, samples = [], 0
        current = answer
        window.append(scheduled)
        samples += scheduled.num_samples
    if window:
        yield current + (window,)


def execute_plan(plan: BatchPlan, model: ServableModel, tracer, scope,
                 span_attrs: Dict[str, object], slot=None) -> ServeResult:
    """Run every batch of ``plan`` for real and record the results.

    Dispatches run in windows (:func:`_windows`): consecutive batches
    answered by one model (with ``slot``, by the snapshot active at their
    dispatch times), up to a sample budget that bounds the window's
    working set. Per window, the requests' rows are gathered out of the
    trace's store in one :meth:`RequestTrace.batch`, one
    :meth:`ServableModel.embed` pools every table for all its dispatches
    and one :meth:`ServableModel.predict_window` runs the dense half
    once per row count; per scheduled batch, per-request probability
    rows are scattered back. The probabilities are bitwise those of one
    ``predict`` per coalesced batch. The result's columns and the
    latencies are written from the plan's columns once every batch ran.
    Obs wiring: a ``serving.batch`` span per batch; a window's first
    batch span also holds the window's gather and forward, as one
    ``serving.forward`` span. All are stamped with ``span_attrs``. Under
    ``scope``: the ``requests``/
    ``completed``/``shed``/``batches``/``samples`` counters plus
    ``batch_size`` and ``latency_s`` histograms.
    """
    trace = plan.trace
    responses: Dict[int, np.ndarray] = {}
    batch_hist = scope.histogram("batch_size")
    latency_hist = scope.histogram("latency_s")
    samples_ctr = scope.counter("samples")
    versions: List[int] = []
    for batch_model, version, window in _windows(plan, model, slot):
        bounds = lengths_to_offsets([s.num_samples for s in window])
        for i, scheduled in enumerate(window):
            samples = scheduled.num_samples
            with tracer.span("serving.batch", cat="serving",
                             requests=scheduled.num_requests,
                             trigger=scheduled.trigger,
                             dispatch_s=scheduled.dispatch_s,
                             model_version=version, **span_attrs):
                if i == 0:  # the first dispatch runs its window's forward
                    index = np.concatenate([s.index for s in window])
                    with tracer.span(
                            "serving.forward", cat="serving",
                            dispatches=len(window), requests=len(index),
                            samples=int(bounds[-1]), **span_attrs):
                        probs = batch_model.predict_window(batch_model.embed(
                            trace.batch(index), bounds))
                rows = lengths_to_offsets(
                    trace.num_samples[scheduled.index]).tolist()
                for rid, lo, hi in zip(
                        trace.request_id[scheduled.index].tolist(), rows,
                        rows[1:]):
                    responses[rid] = probs[i][lo:hi]
            versions.append(version)
            samples_ctr.inc(samples)
            batch_hist.record(samples)
    index = plan.completed_index()
    counts = [b.num_requests for b in plan.batches]
    completion = np.repeat([b.completion_s for b in plan.batches], counts)
    arrival = trace.arrival_s[index]
    latency_hist.record_many((completion - arrival).tolist())
    columns = (trace.request_id[index], arrival,
               np.repeat([b.dispatch_s for b in plan.batches], counts),
               completion,
               np.repeat(np.array([b.num_samples for b in plan.batches],
                                  dtype=np.int64), counts),
               np.repeat(np.array(versions, dtype=np.int64), counts))
    order = np.argsort(columns[0])
    result = ServeResult(
        *(c[order] for c in columns),
        shed_ids=np.sort(trace.request_id[plan.shed_index]),
        responses=responses, plan=plan)
    scope.counter("batches").inc(len(plan.batches))
    scope.counter("completed").inc(result.num_completed)
    scope.counter("shed").inc(result.num_shed)
    scope.counter("requests").inc(result.num_completed + result.num_shed)
    return result


class InferenceServer:
    """Serves frozen models through the micro-batcher, under obs spans.

    ``serve`` replays an arrival trace: the batcher plans the schedule
    in virtual time with :class:`ServingPerfModel` service times, then
    :func:`execute_plan` runs every scheduled batch for real.
    """

    def __init__(self, model: ServableModel,
                 policy: Optional[BatchingPolicy] = None,
                 perf: Optional[ServingPerfModel] = None,
                 tracer=None,
                 metrics: Optional[MetricRegistry] = None,
                 name: str = "") -> None:
        self.model = model
        self.policy = policy if policy is not None else BatchingPolicy()
        self.perf = perf if perf is not None else ServingPerfModel()
        self.batcher = MicroBatcher(self.policy)
        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        # a named server (fleet replica) scopes its metrics under the
        # name and stamps it on every span, so a shared registry/tracer
        # keeps per-replica series apart; unnamed servers are unchanged
        self.name = name
        self._scope = self.metrics.scope(f"{name}.serving" if name
                                         else "serving")
        self._span_attrs = {"replica": name} if name else {}

    def serve(self, trace: RequestTrace, slot=None) -> ServeResult:
        """Serve a full :class:`RequestTrace` into a :class:`ServeResult`.

        With ``slot`` (a :class:`repro.online.ModelSlot`), every
        dispatched batch is answered by ``slot.snapshot_at(dispatch_s)``
        — the snapshot active at its dispatch time — and the ``version``
        column holds that snapshot's version. The *schedule* is still
        priced once against ``self.model``: hot-swapped snapshots are
        config-identical by the slot's publish contract, so the
        service-time model is version-invariant and a swap never
        re-prices (or delays, or drops) an in-flight request. The plan
        with swaps is therefore bitwise-identical to the fixed-model
        plan; only the answering weights differ.
        """
        plan = self.batcher.plan(
            trace, partial(self.perf.service_time, self.model))
        return execute_plan(plan, self.model, self.tracer, self._scope,
                            self._span_attrs, slot=slot)

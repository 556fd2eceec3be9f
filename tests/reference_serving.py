"""Reference serving paths the product is tested against, never imported
by it.

Each function here is the straightforward form a serving fast path
replaced; ``test_serving_fast_paths.py`` holds the product to bitwise
equality with it:

* ``service_time_reference`` re-derives every term of
  :meth:`ServingPerfModel.service_time` from ``model.config`` on each
  call. The product hoists the per-model constants and memoises the
  batch-size-only terms.
* ``concat_reference`` coalesces batches feature by feature in the dict
  layout of ``reference_batch.py``, one ``np.diff`` per batch per
  feature. The product joins the lengths matrices and gathers the ids
  once.
* ``forward_reference``/``predict_reference`` run the embedding half of
  one coalesced dispatch table by table: one ``dedup_forward`` (a gather
  of each unique row, then a broadcast) per hot table, one cache read
  per cold table and one contraction per TT table. The product pools a
  whole window of dispatches at once (``ServableModel.embed``).
* ``cold_reads_reference`` advances the cold tables' counters as the
  window pass does, one cache read per window over the ids each
  dispatch reads, dispatch after dispatch. A ``freq_aware`` cache admits
  once per read, so its counters follow the window, not the dispatch.
* ``dense_half_reference``/``predict_window_reference`` run the dense
  half of a window one dispatch at a time, on that dispatch's rows. The
  product runs it once per row count on ``(k, m, .)`` stacks
  (``ServableModel.predict_window``).
* The list path of serving: ``plan_reference`` schedules a list of
  ``InferenceRequest`` objects, re-summing each dispatch's samples and
  ids (``price_requests``) and re-slicing the queue for every predicted
  admission (``predicted_completion_reference``); ``serve_reference``
  runs that plan window by window through one ``MiniBatch.concat`` of
  the window's request batches and records one ``ReferenceOutcome`` per
  served request; ``route_reference`` assigns request lists. The product
  stores a trace as columns (``RequestTrace``), prices from running sums,
  gathers a window from the trace's store, routes index arrays and
  returns its results as columns (``ServeResult``), which
  ``assert_same_columns`` holds to the records bit for bit
  (``test_serving_trace.py``).
* ``trace_of_reference`` builds a trace straight from hand-built
  requests, one ``MiniBatch.concat`` per feature set. The product joins
  traces with ``RequestTrace.merge``.
* ``freeze_reference`` exports through a whole local model: a trainer
  becomes a ``DLRM`` (``reference_trainer.to_local_model``), each table
  is rounded into a new array, an arena table is built as an
  ``EmbeddingTable`` over that array and then copied into the arena,
  and a cold table's backing store gets a frozen copy. The product
  reads each table from its source once and writes it straight into
  its tier's storage (``freeze``); ``test_serving_export_stream.py``
  holds the two artifacts equal bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from repro import lowp, nn
from repro.core import NeoTrainer
from repro.data import MiniBatch
from repro.data.formats import host_transfer_time
from repro.embedding import EmbeddingTable, FusedEmbeddingCollection
from repro.embedding.dedup import dedup_cache_read
from repro.models import DLRM
from repro.nn import functional as F
from repro.perf.embedding_bw import embedding_lookup_time
from repro.perf.gemm import mlp_time
from repro.serving import FreezeConfig, RequestTrace, ServableModel
from repro.serving.export import (_ColdTable, _freeze_array, _packing,
                                  _planned, _TTServingTable)
from repro.serving.loadgen import ROUTER_STREAM
from repro.serving.server import _EMB_LOOKUP_PRECISION

from .reference_batch import concat_features, from_features, to_features
from .reference_kernels import segment_sum_reference
from .reference_trainer import to_local_model


def service_time_reference(perf, model, batch_size: int, nnz: int) -> float:
    """Seconds to serve one coalesced batch, every term from scratch."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if nnz < 0:
        raise ValueError("nnz must be >= 0")
    cfg = model.config
    # host upload: 2 jagged tensors + dense + lengths, combined format
    total_l = sum(t.avg_pooling for t in cfg.tables)
    h2d_bytes = batch_size * (total_l * 8 + cfg.dense_dim * 4)
    h2d = host_transfer_time(4, h2d_bytes, pinned=True)
    bottom = mlp_time(batch_size, (cfg.dense_dim,) + cfg.bottom_mlp,
                      perf.device, perf.mlp_precision)
    top = mlp_time(batch_size,
                   (cfg.interaction_dim,) + cfg.top_mlp + (1,),
                   perf.device, perf.mlp_precision)
    avg_dim = max(1, int(np.mean([t.embedding_dim for t in cfg.tables])))
    lookup_precision = _EMB_LOOKUP_PRECISION[model.precision]
    lookup = embedding_lookup_time(nnz, avg_dim, perf.device,
                                   lookup_precision)
    lookup /= perf.bw_fraction(model)
    # interaction: memory-bound pairwise dots (same as training fwd)
    f = len(cfg.tables) + 1
    inter_bytes = batch_size * (f * avg_dim * 4 * 2 + f * f * 4)
    inter = inter_bytes / perf.device.hbm_achievable_bw \
        + perf.device.kernel_launch_overhead
    return h2d + bottom + lookup + inter + top + perf.overhead_s


def freeze_reference(source, config: Optional[FreezeConfig] = None,
                     step: Optional[int] = None, frequency_stats=None,
                     plan=None) -> ServableModel:
    """``freeze`` through a whole local model, every table copied on its
    way: the source's tables (a trainer's gathered into a new ``DLRM``),
    each rounded into a new array, then an ``EmbeddingTable`` copy and the
    arena's packing copy (arena tables) or the backing store's frozen
    array (cold tables)."""
    cfg = config if config is not None else FreezeConfig()
    if step is None:
        step = int(getattr(source, "steps", 0))
    model = to_local_model(source) if isinstance(source, NeoTrainer) \
        else source
    if not isinstance(model, DLRM):
        raise TypeError(
            f"freeze() needs a NeoTrainer or DLRM, got {type(source)!r}")
    dlrm_config = model.config
    tables = dlrm_config.tables
    placement = _packing(tables, cfg, frequency_stats) if plan is None \
        else _planned(tables, plan)
    bottom = nn.MLP((dlrm_config.dense_dim,) + dlrm_config.bottom_mlp,
                    final_activation="relu", name="bottom")
    top = nn.MLP((dlrm_config.interaction_dim,) + dlrm_config.top_mlp + (1,),
                 name="top")
    projections: Dict[str, nn.Linear] = {}
    if dlrm_config.project_features:
        for t in tables:
            projections[t.name] = nn.Linear(
                t.embedding_dim, dlrm_config.embedding_dim,
                name=f"proj.{t.name}")
    dst_params = bottom.parameters()
    for t in tables:
        if t.name in projections:
            dst_params.extend(projections[t.name].parameters())
    dst_params += top.parameters()
    for dst, src in zip(dst_params, model.dense_parameters()):
        dst.data = _freeze_array(src.data.copy())
    hot: List[EmbeddingTable] = []
    cold: Dict[str, _ColdTable] = {}
    tt_tables: Dict[str, _TTServingTable] = {}
    errors: Dict[str, float] = {}
    table_bytes: Dict[str, int] = {}
    for t in tables:
        weight = model.embeddings.table(t.name).weight
        precision, tier = placement[t.name]
        if tier == "tt":
            ranks = plan.assignments[t.name].tt_ranks or (8, 8)
            tt_tables[t.name] = tt = _TTServingTable(
                t.name, weight, t.pooling_mode, ranks)
            errors[t.name] = tt.max_error(weight)
            table_bytes[t.name] = tt.storage_bytes
            continue
        stored = lowp.roundtrip(weight, precision)
        errors[t.name] = float(np.max(np.abs(weight - stored))) \
            if weight.size else 0.0
        table_bytes[t.name] = lowp.table_bytes(
            t.num_embeddings, t.embedding_dim, precision)
        if tier == "arena":
            hot.append(EmbeddingTable(t, weight=stored))
            continue
        cold[t.name] = _ColdTable(t.name, _freeze_array(stored.copy()),
                                  t.pooling_mode, cfg.cache_kind,
                                  cfg.cache_fraction)
        if frequency_stats is not None:
            cold[t.name].warm(frequency_stats.histogram(
                t.name, t.num_embeddings))
    hot_collection = None
    if hot:
        def pack(i: int, view: np.ndarray) -> None:
            view[...] = hot[i].weight
        hot_collection = FusedEmbeddingCollection(
            [t.config for t in hot], pack)
        for group in hot_collection.arena.groups:
            group.storage.flags.writeable = False
            for view in group.views:
                view.flags.writeable = False
    return ServableModel(
        config=dlrm_config,
        precision=cfg.precision if plan is None else "mixed",
        bottom=bottom, top=top,
        interaction=dlrm_config.make_interaction(), projections=projections,
        hot_tables=hot_collection, cold_tables=cold,
        quantization_error=errors, source_step=step, tt_tables=tt_tables,
        representation={} if plan is None else {
            t.name: plan.assignments[t.name].kind for t in tables},
        table_storage_bytes=table_bytes)


def concat_reference(batches: Sequence[MiniBatch]) -> MiniBatch:
    """Coalesce batches with one ``np.diff`` per batch per feature."""
    return from_features(
        np.concatenate([b.dense for b in batches], axis=0),
        concat_features([to_features(b) for b in batches]),
        np.concatenate([b.labels for b in batches]))


def dedup_forward(table: EmbeddingTable, indices: np.ndarray,
                  offsets: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pooled lookup reading each unique row once.

    Returns ``(pooled, unique_rows_read)``. Also primes the table's saved
    backward state exactly as :meth:`EmbeddingTable.forward` would, so
    ``table.backward`` works unchanged afterwards.
    """
    indices = np.asarray(indices, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    table._validate(indices, offsets)
    batch = len(offsets) - 1
    lengths = np.diff(offsets)
    bag_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)
    if len(indices):
        unique, inverse = np.unique(indices, return_inverse=True)
        rows = table.weight[unique]          # one read per unique row
        out = segment_sum_reference(rows[inverse], offsets)
        unique_count = len(unique)
    else:
        out = np.zeros((batch, table.config.embedding_dim), dtype=np.float32)
        unique_count = 0
    if table.config.pooling_mode == "mean":
        out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    table._saved = (indices, bag_ids, lengths)
    return out, unique_count


def _cold_forward_reference(table, indices, offsets) -> np.ndarray:
    """One cold table's lookup of one dispatch through its cache."""
    indices = np.asarray(indices, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    num_rows = table.backing.num_rows
    if len(indices) and (indices.min() < 0 or indices.max() >= num_rows):
        raise IndexError(
            f"indices out of range for table {table.name} with "
            f"H={num_rows}")
    if not len(indices):
        rows = np.zeros((0, table.backing.row_dim), dtype=np.float32)
    else:
        unique_rows, inverse = dedup_cache_read(
            table.cache, indices, table.backing)
        rows = unique_rows[inverse]
        table.rows_requested += len(indices)
        table.rows_read += len(unique_rows)
    out = segment_sum_reference(rows, offsets)
    if table.pooling_mode == "mean":
        lengths = np.diff(offsets)
        out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    return out


def _tt_forward_reference(tt_table, indices, offsets) -> np.ndarray:
    offsets = np.asarray(offsets, dtype=np.int64)
    out = tt_table.table.forward(np.asarray(indices, dtype=np.int64),
                                 offsets)
    if tt_table.pooling_mode == "mean":
        lengths = np.diff(offsets)
        out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    return out


def pooled_reference(model, batch: MiniBatch) -> Dict[str, np.ndarray]:
    """Every table's pooled rows for one coalesced dispatch, table by
    table, with the model's dedup and cache counters advanced as the
    per-dispatch path advanced them."""
    pooled: Dict[str, np.ndarray] = {}
    features = to_features(batch)
    for name in model.hot_table_names:
        indices, offsets = features[name]
        pooled[name], unique_count = dedup_forward(
            model.hot_tables.table(name), indices, offsets)
        model.dedup_rows_requested += len(indices)
        model.dedup_rows_read += unique_count
    for name, table in model.cold_tables.items():
        pooled[name] = _cold_forward_reference(table, *features[name])
    for name, tt_table in model.tt_tables.items():
        pooled[name] = _tt_forward_reference(tt_table, *features[name])
    return pooled


def cold_reads_reference(model, window: Sequence[Sequence[MiniBatch]]
                         ) -> None:
    """Advance every cold table's counters as one cache read per window
    does: in one call, the table reads the ids each dispatch of
    ``window`` reads alone (its distinct ids), dispatch after dispatch."""
    for table in model.cold_tables.values():
        parts = [to_features(MiniBatch.concat(d))[table.name][0]
                 for d in window]
        reads = np.concatenate([np.unique(p) for p in parts])
        if len(reads):
            table.cache.read(reads, table.backing)
        table.rows_requested += sum(len(p) for p in parts)
        table.rows_read += len(reads)


def forward_reference(model, batch: MiniBatch) -> np.ndarray:
    """Logits of one coalesced dispatch, embedding half included."""
    dense_out = model.bottom.forward(batch.dense)
    pooled = pooled_reference(model, batch)
    features = [dense_out]
    for t in model.config.tables:
        value = pooled[t.name]
        if t.name in model.projections:
            value = model.projections[t.name].forward(value)
        features.append(value)
    interacted = model.interaction.forward_list(features)
    return model.top.forward(interacted)[:, 0]


def predict_reference(model, batch: MiniBatch) -> np.ndarray:
    return F.sigmoid(forward_reference(model, batch))


def dense_half_reference(model, window, i: int) -> np.ndarray:
    """Logits of dispatch ``i`` of an embedded window, over its rows
    alone."""
    lo, hi = int(window.bounds[i]), int(window.bounds[i + 1])
    features = [model.bottom.forward(window.dense[lo:hi])]
    for t in model.config.tables:
        value = window.pooled[t.name][lo:hi]
        if t.name in model.projections:
            value = model.projections[t.name].forward(value)
        features.append(value)
    interacted = model.interaction.forward_list(features)
    return model.top.forward(interacted)[:, 0]


def predict_window_reference(model, window) -> List[np.ndarray]:
    """Click probabilities of every dispatch of an embedded window, the
    dense half run once per dispatch."""
    return [F.sigmoid(dense_half_reference(model, window, i))
            for i in range(len(window.bounds) - 1)]


# ----------------------------------------------------------------------
# the list path of serving
# ----------------------------------------------------------------------
def trace_of_reference(requests) -> RequestTrace:
    """The trace of hand-built requests. Requests with one feature set
    share a store, their batches coalesced by one
    :meth:`MiniBatch.concat`."""
    requests = list(requests)
    parts: Dict[tuple, List[int]] = {}
    for i, r in enumerate(requests):
        parts.setdefault((r.batch.keys, r.batch.dense.shape[1:]),
                         []).append(i)
    part = np.zeros(len(requests), dtype=np.int64)
    start = np.zeros(len(requests), dtype=np.int64)
    num_samples = np.array([r.num_samples for r in requests],
                           dtype=np.int64)
    for k, members in enumerate(parts.values()):
        part[members] = k
        sizes = num_samples[members]
        start[members] = np.cumsum(sizes) - sizes
    return RequestTrace(
        request_id=[r.request_id for r in requests],
        arrival_s=[r.arrival_s for r in requests],
        stores=[MiniBatch.concat([requests[i].batch for i in members])
                for members in parts.values()],
        start=start, num_samples=num_samples,
        nnz=[r.nnz for r in requests],
        user_id=[-1 if r.user_id is None else r.user_id
                 for r in requests],
        tenant=[r.tenant for r in requests], part=part)


def price_requests(perf, model, requests) -> float:
    """Service time of ``requests`` coalesced into one dispatch."""
    return perf.service_time(model, sum(r.num_samples for r in requests),
                             sum(r.nnz for r in requests))


def predicted_completion_reference(policy, queue, r, server_free: float,
                                   service_time) -> float:
    """FIFO completion of ``r`` behind ``queue`` at full batch width, one
    ``service_time(request_list)`` call per chunk."""
    t = max(server_free, r.arrival_s)
    prospective = queue + [r]
    width = policy.max_batch_size
    for start in range(0, len(prospective), width):
        t += float(service_time(prospective[start:start + width]))
    return t


@dataclass
class ReferenceBatch:
    requests: list
    dispatch_s: float
    completion_s: float
    trigger: str

    @property
    def num_samples(self) -> int:
        return sum(r.num_samples for r in self.requests)


@dataclass
class ReferencePlan:
    batches: List[ReferenceBatch] = field(default_factory=list)
    shed: list = field(default_factory=list)


def plan_lanes_reference(requests, lane_of: Callable, policies,
                         services) -> List[ReferencePlan]:
    """The discrete-event loop over request lists; ``services[k]`` takes
    the dispatched request list."""
    pending = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    plans = [ReferencePlan() for _ in policies]
    queues: List[list] = [[] for _ in policies]
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
                plans[chosen].batches.append(ReferenceBatch(
                    batch, dispatch, dispatch + svc, chosen_trigger))
                server_free = dispatch + svc
                continue
        r = pending[i]
        i += 1
        lane = lane_of(r)
        pol = policies[lane]
        queue = queues[lane]
        if len(queue) >= pol.max_queue_depth:
            plans[lane].shed.append(r)
        elif pol.admission == "predicted" and \
                predicted_completion_reference(pol, queue, r, server_free,
                                               services[lane]) \
                > r.arrival_s + pol.deadline_s:
            plans[lane].shed.append(r)
        else:
            queue.append(r)
    return plans


class ReferenceOutcome(NamedTuple):
    """One served request, as the per-request loop records it."""

    request_id: int
    arrival_s: float
    dispatch_s: float
    completion_s: float
    batch_samples: int
    version: int


def assert_same_columns(result, outcomes: Sequence[ReferenceOutcome],
                        shed_ids: Sequence[int]) -> None:
    """``result``'s columns equal the records ``outcomes`` (request-id
    order) field by field, bit for bit and in dtype, and its shed ids
    equal ``shed_ids``."""
    for k, name in enumerate(ReferenceOutcome._fields):
        column = getattr(result, name)
        assert column.dtype == (np.float64 if name.endswith("_s")
                                else np.int64), name
        expected = np.array([o[k] for o in outcomes], dtype=column.dtype)
        assert column.tobytes() == expected.tobytes(), name
    assert result.shed_ids.dtype == np.int64
    assert result.shed_ids.tolist() == list(shed_ids)


def serve_reference(model, plan: ReferencePlan, slot=None,
                    window_samples: int = 512) -> Tuple[dict, list, list]:
    """Run ``plan`` window by window, one ``MiniBatch.concat`` per window
    (inside ``predict_many``). Returns ``(responses, outcomes,
    shed_ids)``, outcomes in request-id order."""
    windows, window, samples, current = [], [], 0, (model, 0)
    for b in plan.batches:
        answer = (model, 0)
        if slot is not None:
            snapshot = slot.snapshot_at(b.dispatch_s)
            answer = (snapshot.model, snapshot.version)
        if window and (answer[0] is not current[0]
                       or answer[1] != current[1]
                       or samples + b.num_samples > window_samples):
            windows.append(current + (window,))
            window, samples = [], 0
        current = answer
        window.append(b)
        samples += b.num_samples
    if window:
        windows.append(current + (window,))
    responses, outcomes = {}, []
    for batch_model, version, window in windows:
        probs = batch_model.predict_many(
            [[r.batch for r in b.requests] for b in window])
        for b, p in zip(window, probs):
            row = 0
            for r in b.requests:
                responses[r.request_id] = p[row:row + r.num_samples]
                row += r.num_samples
                outcomes.append(ReferenceOutcome(
                    r.request_id, r.arrival_s, b.dispatch_s,
                    b.completion_s, b.num_samples, version))
    outcomes.sort(key=lambda o: o.request_id)
    return responses, outcomes, sorted(r.request_id for r in plan.shed)


def route_reference(requests, est_service, kind: str, seed: int = 0,
                    active: Optional[Sequence[int]] = None):
    """``(assignments, replica, busy_until)`` of the router over a
    request list; ``replica[i]`` is the replica of the ``i``-th request
    in arrival order."""
    num_replicas = len(est_service)
    active = list(range(num_replicas)) if active is None else list(active)
    pending = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    assignments = [[] for _ in range(num_replicas)]
    replica = []
    busy_until = [0.0] * num_replicas
    n_active = len(active)
    if kind == "power_of_two" and n_active > 1:
        rng = np.random.default_rng((seed, ROUTER_STREAM))
        first = rng.integers(0, n_active, size=len(pending))
        second = (first + 1
                  + rng.integers(0, n_active - 1, size=len(pending))) \
            % n_active
    for i, r in enumerate(pending):
        t = r.arrival_s
        if kind == "round_robin" or n_active == 1:
            chosen = active[i % n_active]
        elif kind == "least_loaded":
            chosen = min(active,
                         key=lambda a: (max(busy_until[a] - t, 0.0), a))
        else:
            a, b = active[int(first[i])], active[int(second[i])]
            chosen = b if max(busy_until[b] - t, 0.0) \
                < max(busy_until[a] - t, 0.0) else a
        assignments[chosen].append(r)
        replica.append(chosen)
        busy_until[chosen] = max(busy_until[chosen], t) \
            + float(est_service[chosen](r))
    return assignments, replica, busy_until

"""Neo: synchronous hybrid-parallel DLRM training (paper Sections 3, 4).

The trainer runs ``W`` simulated ranks in lock-step inside one process:

* **data parallelism** for the MLPs — every rank holds a replica, local
  backward gradients are AllReduced and averaged (PyTorch-DDP semantics);
* **model parallelism** for the embedding tables — each table is placed by
  a :class:`repro.sharding.ShardingPlan` and its forward/backward follows
  the Fig. 8 communication pattern of its scheme:

  =============  =======================  =========================
  scheme         forward comms            backward comms
  =============  =======================  =========================
  table-wise     index AlltoAll + pooled  pooled-gradient AlltoAll
                 AlltoAll
  row-wise /     bucketized index         pooled-gradient AllGather
  table-row-wise AlltoAll + ReduceScatter
  column-wise    replicated index         sliced-gradient AlltoAll
                 AlltoAll + pooled
                 AlltoAll
  data-parallel  none (local lookup)      gradient AllReduce
  =============  =======================  =========================

* **exact sparse optimizers** update the embedding shards, so results are
  independent of how the batch was split across ranks.

All collectives move real data through :class:`SimProcessGroup`, which also
accumulates wire bytes and modeled latency. The trainer's numerics are
validated against the single-process :class:`repro.models.DLRM` reference.

**Rank-stacked simulation**: every dense parameter is stored once, by
rank 0's modules, which DDP keeps identical on every rank. Those modules
drive all ranks at once: activations are stacked ``(R, B, ...)`` arrays,
and each layer is one ``np.matmul`` that broadcasts the one weight over
the rank axis (bitwise the per-rank GEMM). The backward writes each
rank's weight and bias gradients straight into the parameter's
``(R, *shape)`` slot of persistent ``(R, bucket_elements)`` AllReduce
buckets (:attr:`NeoTrainer.grad_buckets`), which the
:class:`SimProcessGroup` stacked AllReduce reads in place. The sum comes
back as one read-only vector, and the one dense optimizer
(``trainer.dense_opt``) steps the one storage: its step is the only
write. ``trainer.ranks[r].dense_parameters()`` for ``r >= 1`` are
read-only views of rank 0's storage, so checkpointing, ``freeze()``
export and replica-sync checks read any rank without copies.

This is the only execution path. Wire-byte accounting, modeled latency,
spans and every per-rank quantity are bitwise identical to a per-rank
loop over independent replicas with one optimizer each; that loop lives
in ``tests/reference_trainer.py`` as the oracle the test suite fuzzes
this trainer against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..comms import (AlltoAllKind, ClusterTopology, QuantizedCommsConfig,
                     SimProcessGroup)
from ..comms.bucketing import GradientBucketer
from ..data.datagen import MiniBatch
from ..data.kernels import bucketize_sparse
from ..embedding import (EmbeddingTable, EmbeddingTableConfig,
                         QuantizedEmbeddingTable, SparseGradient,
                         SparseOptimizer)
from ..embedding.kernels import rank_bags
from ..embedding.table import lengths_to_offsets
from ..models.dlrm import DLRM, DLRMConfig
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..sharding import Shard, ShardingPlan, ShardingScheme

__all__ = ["NeoTrainer"]


@dataclass
class _RankState:
    """One rank's dense (data-parallel) replica.

    In :class:`NeoTrainer` rank 0's modules own the storage and run
    every rank's stacked activations; rank ``r >= 1``'s are clones whose
    parameters are read-only views of rank 0's."""

    bottom: nn.Module
    top: nn.Module
    projections: Dict[str, nn.Module]
    table_order: Tuple[str, ...]

    def dense_parameters(self) -> List[nn.Parameter]:
        """Same ordering as :meth:`repro.models.DLRM.dense_parameters`."""
        params = self.bottom.parameters()
        for name in self.table_order:
            if name in self.projections:
                params.extend(self.projections[name].parameters())
        return params + self.top.parameters()


def _read_only_replica(state: _RankState) -> _RankState:
    """A clone of ``state``'s modules whose every parameter is a
    read-only view of ``state``'s storage."""
    memo = {}
    for p in state.dense_parameters():
        view = p.data.view()
        view.flags.writeable = False
        memo[id(p.data)] = view
    return copy.deepcopy(state, memo)


# the payload of every exchange slot that carries nothing: one shared
# read-only array per kind (the collectives pass zero-size payloads
# through uncopied)
_EMPTY_IDS = np.zeros(0, dtype=np.int64)
_EMPTY_IDS.setflags(write=False)


# one AlltoAll's inputs: payload[src][dst]
_Payload = List[List[np.ndarray]]


@lru_cache(maxsize=None)
def _empty_rows(dim: int) -> np.ndarray:
    empty = np.zeros((0, dim), dtype=np.float32)
    empty.setflags(write=False)
    return empty


@dataclass(frozen=True)
class _RowWiseTable:
    """One row-wise table's place in the combined id space: its ids are
    offset by ``base`` and its shards (in row order) own buckets
    ``first_bucket ..`` of the concatenated boundaries."""

    name: str
    shards: Tuple[Shard, ...]
    base: int
    first_bucket: int


class NeoTrainer:
    """Synchronous distributed DLRM trainer over simulated ranks."""

    def __init__(self, config: DLRMConfig, plan: ShardingPlan,
                 topology: ClusterTopology,
                 dense_optimizer: Callable[[Sequence[nn.Parameter]],
                                           nn.Optimizer],
                 sparse_optimizer: SparseOptimizer,
                 comms_config: Optional[QuantizedCommsConfig] = None,
                 seed: int = 0, trace=None,
                 metrics: Optional[MetricRegistry] = None,
                 process_group_factory: Optional[
                     Callable[..., SimProcessGroup]] = None,
                 representation_plan=None) -> None:
        if plan.world_size != topology.world_size:
            raise ValueError(
                f"plan world size {plan.world_size} != topology world size "
                f"{topology.world_size}")
        missing = {t.name for t in config.tables} - set(plan.tables)
        if missing:
            raise ValueError(f"plan missing tables {sorted(missing)}")
        for t in config.tables:
            scheme = plan.scheme_of(t.name)
            if scheme in (ShardingScheme.ROW_WISE,
                          ShardingScheme.TABLE_ROW_WISE):
                if t.pooling_mode != "sum":
                    raise ValueError(
                        f"row-wise sharding requires sum pooling "
                        f"(table {t.name} uses {t.pooling_mode})")
                # the row-wise exchange keys payloads and partial sums by
                # owner rank, so a second shard on one rank would
                # overwrite the first
                owners = [s.rank for s in plan.tables[t.name].shards]
                shared = sorted({r for r in owners if owners.count(r) > 1})
                if shared:
                    raise ValueError(
                        f"row-wise table {t.name} places more than one "
                        f"shard on rank {shared[0]}")
        self.config = config
        self.plan = plan
        # optional repro.planner.RepresentationPlan (duck-typed: anything
        # with training_precision(name)): tables planned for fp16/bf16/
        # int8 serving train on quantized shard storage so the trained
        # weights already live with the round-trip numerics the export
        # will freeze; full/tt/cold-planned tables train fp32
        self.representation_plan = representation_plan
        if representation_plan is not None:
            missing_repr = [t.name for t in config.tables
                            if t.name not in representation_plan.assignments]
            if missing_repr:
                raise ValueError(
                    f"representation plan has no assignment for tables "
                    f"{missing_repr}")
        # observability: off by default (no-op tracer); `trace` accepts a
        # Tracer, True (wall clock) or a clock name ("wall"/"logical")
        self.tracer = as_tracer(trace)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        # the factory hook lets callers substitute a wrapped group — e.g.
        # repro.resilience.FaultyProcessGroup for fault-injection runs —
        # without the trainer knowing anything about faults
        make_pg = process_group_factory if process_group_factory is not None \
            else SimProcessGroup
        self.pg = make_pg(topology, comms_config,
                          registry=self.metrics, tracer=self.tracer)
        self.world_size = plan.world_size
        self.sparse_opt = sparse_optimizer
        self.steps = 0

        # Golden initialization: rank 0 adopts a reference model's dense
        # modules, so the distributed start state is identical to the
        # single-process DLRM's; every other rank views their storage
        golden = DLRM(config, seed=seed)
        rank0 = _RankState(bottom=golden.bottom, top=golden.top,
                           projections=golden.projections,
                           table_order=tuple(t.name for t in config.tables))
        self.ranks: List[_RankState] = [rank0] + [
            _read_only_replica(rank0) for _ in range(1, self.world_size)]
        self._interaction = golden.interaction
        self._loss_fn = golden.loss_fn
        # the one dense optimizer steps the one storage; its slot state
        # has per-rank shape, which is what checkpoints store
        self.dense_opt: nn.Optimizer = dense_optimizer(
            rank0.dense_parameters())
        # every rank's gradients live in persistent (R, bucket_elements)
        # buffers, one per DDP bucket; _grad_slots[i] is parameter i's
        # (R, *shape) view, which the backward writes and the AllReduce
        # reads in place
        self._bucketer = GradientBucketer(rank0.dense_parameters())
        self.grad_buckets: List[np.ndarray] = [
            np.empty((self.world_size, bucket.num_elements), np.float32)
            for bucket in self._bucketer.buckets]
        self._grad_slots = self._bucketer.views(self.grad_buckets)

        # Shard the embedding weights according to the plan.
        self._build_shards(config, plan, golden)
        self._build_exchange(config, plan)

    @classmethod
    def from_planner(cls, config: DLRMConfig, topology: ClusterTopology,
                     dense_optimizer, sparse_optimizer,
                     comms_config: Optional[QuantizedCommsConfig] = None,
                     seed: int = 0,
                     planner_config=None,
                     device_memory_bytes: Optional[float] = None,
                     trace=None,
                     metrics: Optional[MetricRegistry] = None,
                     process_group_factory: Optional[
                         Callable[..., SimProcessGroup]] = None,
                     representation_plan=None) -> "NeoTrainer":
        """Build a trainer with an automatically planned, memory-validated
        sharding plan — the one-call production entry point.

        ``representation_plan`` is an optional
        :class:`repro.planner.RepresentationPlan`: tables the plan stores
        at fp16/bf16/int8 train on quantized shards (write-back through
        the storage precision after every sparse step)."""
        from ..sharding import EmbeddingShardingPlanner, PlannerConfig
        from ..sharding.memory_validation import validate_plan_memory
        if planner_config is None:
            planner_config = PlannerConfig(
                world_size=topology.world_size,
                ranks_per_node=min(topology.gpus_per_node,
                                   topology.world_size))
        planner = EmbeddingShardingPlanner(planner_config)
        plan = planner.plan(list(config.tables))
        if device_memory_bytes is not None:
            validate_plan_memory(plan, device_memory_bytes)
        return cls(config, plan, topology, dense_optimizer,
                   sparse_optimizer, comms_config=comms_config, seed=seed,
                   trace=trace, metrics=metrics,
                   process_group_factory=process_group_factory,
                   representation_plan=representation_plan)

    def _build_shards(self, config: DLRMConfig, plan: ShardingPlan,
                      golden: DLRM) -> None:
        self._shard_tables: Dict[Shard, EmbeddingTable] = {}
        # per-shard metric counters, created once so the hot path only
        # pays a cached-attribute increment
        emb_metrics = self.metrics.scope("embedding")
        self._lookup_counters: Dict[Shard, object] = {}
        self._update_counters: Dict[Shard, object] = {}
        for t in config.tables:
            weight = golden.embeddings.table(t.name).weight
            train_precision = "fp32"
            if self.representation_plan is not None:
                train_precision = \
                    self.representation_plan.training_precision(t.name)
            for shard in plan.tables[t.name].shards:
                r0, r1 = shard.row_range
                c0, c1 = shard.col_range
                shard_cfg = EmbeddingTableConfig(
                    name=f"{t.name}@{shard.rank}:{r0}-{r1}:{c0}-{c1}",
                    num_embeddings=r1 - r0, embedding_dim=c1 - c0,
                    avg_pooling=t.avg_pooling, pooling_mode=t.pooling_mode,
                    precision=train_precision)
                if train_precision == "fp32":
                    self._shard_tables[shard] = EmbeddingTable(
                        shard_cfg, weight=weight[r0:r1, c0:c1])
                else:
                    self._shard_tables[shard] = QuantizedEmbeddingTable(
                        shard_cfg, weight=weight[r0:r1, c0:c1])
                self._lookup_counters[shard] = emb_metrics.counter(
                    "lookup_rows", table=t.name)
                self._update_counters[shard] = emb_metrics.counter(
                    "update_rows", table=t.name)
        self._launch_counter = emb_metrics.counter("kernel_launches")

    def _build_exchange(self, config: DLRMConfig, plan: ShardingPlan) -> None:
        """Lay out the per-step index pass (paper Section 4.4).

        Every table that exchanges ids ships its bag lengths, which one
        ``np.diff`` derives for all of them. The row-wise tables share
        one id space, table after table, whose concatenated shard
        boundaries let one ``bucketize_sparse`` call split every id of
        every row-wise table and source rank by owner.
        """
        self._exchanged = tuple(
            t.name for t in config.tables
            if plan.scheme_of(t.name) != ShardingScheme.DATA_PARALLEL)
        self._row_wise: List[_RowWiseTable] = []
        boundaries = [0]
        for t in config.tables:
            if plan.scheme_of(t.name) not in (ShardingScheme.ROW_WISE,
                                              ShardingScheme.TABLE_ROW_WISE):
                continue
            shards = tuple(sorted(plan.tables[t.name].shards,
                                  key=lambda s: s.row_range))
            cuts = [s.row_range[0] for s in shards] \
                + [shards[-1].row_range[1]]
            if cuts[0] != 0 or cuts[-1] != t.num_embeddings or any(
                    s.row_range[1] != cut
                    for s, cut in zip(shards, cuts[1:])):
                raise ValueError(
                    f"row-wise table {t.name}: shards must tile rows "
                    f"[0, {t.num_embeddings}) without gaps, got "
                    f"{[s.row_range for s in shards]}")
            base = boundaries[-1]
            self._row_wise.append(_RowWiseTable(
                t.name, shards, base, len(boundaries) - 1))
            boundaries.extend(base + cut for cut in cuts[1:])
        self._row_boundaries = np.asarray(boundaries, dtype=np.int64)

    # ------------------------------------------------------------------
    # instrumented shard access
    # ------------------------------------------------------------------
    def _shard_forward(self, shard: Shard, ids: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
        """Pooled lookup on one shard, under an ``embedding_lookup`` span."""
        with self.tracer.span("trainer.embedding_lookup", cat="embedding",
                              table=shard.table, rank=shard.rank,
                              rows=int(len(ids))):
            out = self._shard_tables[shard].forward(ids, offsets)
        self._lookup_counters[shard].inc(int(len(ids)))
        self._launch_counter.inc(1)  # one gather+segment-reduce dispatch
        return out

    def _shard_update(self, shard: Shard, d_global: np.ndarray,
                      bag_ranks: Optional[np.ndarray] = None) -> None:
        """Shard backward + exact sparse update, under an
        ``embedding_update`` span. ``bag_ranks`` is ``rank_bags(d_global)``
        when several shards share ``d_global`` (row-wise tables)."""
        with self.tracer.span("trainer.embedding_update", cat="embedding",
                              table=shard.table, rank=shard.rank):
            table = self._shard_tables[shard]
            grad = table.backward(d_global)
            grad.bag_ranks = bag_ranks
            self.sparse_opt.step(table, grad)
            self._sync_shard_storage(table)
        self._update_counters[shard].inc(int(len(grad.rows)))
        self._launch_counter.inc(1)  # one merge+apply dispatch

    def _apply_sparse(self, shard: Shard, sparse: SparseGradient) -> None:
        with self.tracer.span("trainer.embedding_update", cat="embedding",
                              table=shard.table, rank=shard.rank):
            table = self._shard_tables[shard]
            self.sparse_opt.step(table, sparse)
            self._sync_shard_storage(table)
        self._update_counters[shard].inc(int(len(sparse.rows)))

    @staticmethod
    def _sync_shard_storage(table: EmbeddingTable) -> None:
        """Re-round a quantized shard's storage after an optimizer step
        (no-op for fp32 shards) — the write-back half of training on
        low-precision tables."""
        if isinstance(table, QuantizedEmbeddingTable):
            table.sync_storage()

    # ------------------------------------------------------------------
    # the index pass: every table's exchange payloads, prepared at once
    # ------------------------------------------------------------------
    def _bag_lengths(self, inputs: Dict[str, List[Tuple[np.ndarray,
                                                         np.ndarray]]],
                     local_batch: int) -> Dict[str, List[np.ndarray]]:
        """Bag lengths of every exchanged table on every source rank
        (the combined format's lengths tensor): one ``np.diff`` over all
        offsets, each table's per-rank lengths a row of the result."""
        names = self._exchanged
        if not names:
            return {}
        w = self.world_size
        offsets = [inputs[name][src][1] for name in names
                   for src in range(w)]
        if any(len(o) != local_batch + 1 for o in offsets):
            raise ValueError(
                f"every table's offsets must hold local batch + 1 = "
                f"{local_batch + 1} entries")
        lengths = np.diff(np.stack(offsets), axis=1).astype(np.int64,
                                                            copy=False)
        return {name: [lengths[i * w + src] for src in range(w)]
                for i, name in enumerate(names)}

    def _row_wise_payloads(self, inputs: Dict[str, List[Tuple[np.ndarray,
                                                               np.ndarray]]],
                           lengths: Dict[str, List[np.ndarray]]
                           ) -> Dict[str, Tuple[Tuple[Shard, ...],
                                                _Payload, _Payload]]:
        """Every row-wise table's shards (in row order) and its ids and
        lengths index-AlltoAll payloads (``[src][dst]``), from one
        ``bucketize_sparse`` call.

        The ids of all row-wise tables and source ranks, table-major,
        are offset by their table's base into the combined id space and
        split by the concatenated shard boundaries. Bucket ``k`` then
        holds shard ``k``'s ids (rebased to the shard) in source-rank
        order, so each source's slice is cut by its bags' lengths. An id
        outside its own table would land in a neighbour's bucket; the
        per-table count check turns that into the ``IndexError`` a
        per-table bucketize raises.
        """
        if not self._row_wise:
            return {}
        w = self.world_size
        ids = [inputs[rt.name][src][0] for rt in self._row_wise
               for src in range(w)]
        counts = np.fromiter(map(len, ids), np.int64, len(ids))
        ids = np.concatenate(ids).astype(np.int64, copy=False)
        ids += np.repeat(np.repeat([rt.base for rt in self._row_wise], w),
                         counts)
        buckets = bucketize_sparse(
            ids, np.concatenate([lengths[rt.name][src]
                                 for rt in self._row_wise
                                 for src in range(w)]),
            self._row_boundaries)
        batch = len(lengths[self._row_wise[0].name][0])
        payloads = {}
        for i, rt in enumerate(self._row_wise):
            payload_ids = [[_EMPTY_IDS] * w for _ in range(w)]
            payload_lengths = [[_EMPTY_IDS] * w for _ in range(w)]
            found = 0
            for k, shard in enumerate(rt.shards, start=rt.first_bucket):
                local, bucket_lengths = buckets[k]
                per_src = bucket_lengths[i * w * batch:(i + 1) * w * batch]
                ends = np.cumsum(per_src.reshape(w, batch).sum(axis=1))
                start = 0
                for src, end in enumerate(ends.tolist()):
                    payload_ids[src][shard.rank] = local[start:end]
                    payload_lengths[src][shard.rank] = \
                        per_src[src * batch:(src + 1) * batch]
                    start = end
                found += start
            if found != int(counts[i * w:(i + 1) * w].sum()):
                raise IndexError(
                    f"row-wise table {rt.name}: ids outside [0, "
                    f"{rt.shards[-1].row_range[1]})")
            payloads[rt.name] = (rt.shards, payload_ids,
                                 payload_lengths)
        return payloads

    # ------------------------------------------------------------------
    # embedding forward/backward, per scheme
    # ------------------------------------------------------------------
    @staticmethod
    def _global_jagged(ids: Sequence[np.ndarray],
                       lengths: Sequence[np.ndarray]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Concatenate per-source-rank ids and lengths into one global
        jagged batch, source-rank-major (matching batch concatenation)."""
        return np.concatenate(ids), lengths_to_offsets(np.concatenate(lengths))

    def _pooled_scatter(self, shard: Shard, pooled: np.ndarray,
                        local_batch: int) -> List[np.ndarray]:
        """Pooled AlltoAll: the owner of ``shard`` sends each rank its
        sub-batch of ``pooled``; returns what every rank received."""
        w = self.world_size
        owner = shard.rank
        idle = _empty_rows(pooled.shape[1])
        payload = [[pooled[dst * local_batch:(dst + 1) * local_batch]
                    if src == owner else idle for dst in range(w)]
                   for src in range(w)]
        delivered = self.pg.all_to_all(payload, kind=AlltoAllKind.FORWARD)
        return [delivered[r][owner] for r in range(w)]

    def _replicated_index(self, owners: Sequence[int],
                          inputs: List[Tuple[np.ndarray, np.ndarray]],
                          lengths: List[np.ndarray]):
        """Index AlltoAll of whole local batches: every rank ships its
        ids, then its lengths, to each owner rank."""
        w = self.world_size
        ids = [[inputs[src][0] if dst in owners else _EMPTY_IDS
                for dst in range(w)] for src in range(w)]
        arrived = self.pg.all_to_all(ids, kind=AlltoAllKind.INDEX)
        bags = [[lengths[src] if dst in owners else _EMPTY_IDS
                 for dst in range(w)] for src in range(w)]
        return arrived, self.pg.all_to_all(bags, kind=AlltoAllKind.INDEX)

    def _sliced_gradient(self, shard: Shard, scaled: np.ndarray) -> None:
        """Backward AlltoAll of each rank's (already ``/ W``) gradient
        slice to the owner of ``shard``, then the owner's update."""
        w = self.world_size
        idle = _empty_rows(scaled.shape[2])
        payload = [[scaled[src] if dst == shard.rank else idle
                    for dst in range(w)] for src in range(w)]
        arrived = self.pg.all_to_all(payload, kind=AlltoAllKind.BACKWARD)
        d_global = np.concatenate(arrived[shard.rank], axis=0)
        self._shard_update(shard, d_global.astype(np.float32, copy=False))

    def _forward_table_wise(self, shard: Shard,
                            inputs: List[Tuple[np.ndarray, np.ndarray]],
                            lengths: List[np.ndarray],
                            local_batch: int) -> List[np.ndarray]:
        arrived, arrived_lengths = self._replicated_index(
            (shard.rank,), inputs, lengths)
        pooled = self._shard_forward(shard, *self._global_jagged(
            arrived[shard.rank], arrived_lengths[shard.rank]))
        return self._pooled_scatter(shard, pooled, local_batch)

    def _backward_table_wise(self, shard: Shard,
                             d_pooled: np.ndarray) -> None:
        self._sliced_gradient(shard, d_pooled / self.world_size)

    def _forward_column_wise(self, shards: List[Shard],
                             inputs: List[Tuple[np.ndarray, np.ndarray]],
                             lengths: List[np.ndarray],
                             local_batch: int) -> List[np.ndarray]:
        # replicated index AlltoAll: each rank ships ids to every owner
        arrived, arrived_lengths = self._replicated_index(
            {s.rank for s in shards}, inputs, lengths)
        # each owner pools its column slice for the global batch
        pooled = {shard: self._shard_forward(shard, *self._global_jagged(
            arrived[shard.rank], arrived_lengths[shard.rank]))
            for shard in shards}
        # pooled AlltoAll per shard (two shards may share an owner rank),
        # then concatenate slices by column order
        ordered = sorted(shards, key=lambda s: s.col_range)
        delivered = [self._pooled_scatter(s, pooled[s], local_batch)
                     for s in ordered]
        return [np.concatenate([d[r] for d in delivered], axis=1)
                for r in range(self.world_size)]

    def _backward_column_wise(self, shards: List[Shard],
                              d_pooled: np.ndarray) -> None:
        scaled = d_pooled / self.world_size
        for shard in sorted(shards, key=lambda s: s.col_range):
            c0, c1 = shard.col_range
            self._sliced_gradient(shard, scaled[:, :, c0:c1])

    def _forward_row_wise(self, table: EmbeddingTableConfig,
                          shards: Sequence[Shard],
                          payload_ids: _Payload, payload_lengths: _Payload,
                          local_batch: int) -> List[np.ndarray]:
        w = self.world_size
        # bucket k of every rank's ids goes to the owner of shard k
        arrived_ids = self.pg.all_to_all(payload_ids, kind=AlltoAllKind.INDEX)
        arrived_lengths = self.pg.all_to_all(payload_lengths,
                                             kind=AlltoAllKind.INDEX)
        # owners compute partial pooled sums for the global batch
        partials: List[Optional[np.ndarray]] = [None] * w
        for shard in shards:
            partials[shard.rank] = self._shard_forward(
                shard, *self._global_jagged(arrived_ids[shard.rank],
                                            arrived_lengths[shard.rank]))
        if len(shards) < w:  # ranks without a shard contribute zeros
            zeros = np.zeros((local_batch * w, table.embedding_dim),
                             dtype=np.float32)
            partials = [zeros if p is None else p for p in partials]
        # ReduceScatter: sum partials, deliver each rank its sub-batch
        chunked = [[p[r * local_batch:(r + 1) * local_batch]
                    for r in range(w)] for p in partials]
        return self.pg.reduce_scatter(chunked)

    def _backward_row_wise(self, shards: Sequence[Shard],
                           d_pooled: np.ndarray) -> None:
        # one (W, B, D) array through the AllGather; the gathered stack
        # reshapes to the source-rank-major (W*B, D) global gradient
        w = self.world_size
        gathered = self.pg.all_gather(d_pooled / w).stacked
        d_global = gathered.reshape(
            gathered.shape[0] * gathered.shape[1], -1).astype(np.float32)
        # every shard merges against the same (sum-pooled) bag gradient,
        # so its bag ranks are computed once per table
        bag_ranks = rank_bags(d_global)
        for shard in shards:
            self._shard_update(shard, d_global, bag_ranks)

    def _forward_data_parallel(self, shards: List[Shard],
                               inputs: List[Tuple[np.ndarray, np.ndarray]]
                               ) -> List[np.ndarray]:
        by_rank = {s.rank: s for s in shards}
        return [self._shard_forward(by_rank[r], *inputs[r])
                for r in range(self.world_size)]

    def _backward_data_parallel(self, shards: List[Shard],
                                d_pooled: np.ndarray) -> None:
        w = self.world_size
        by_rank = {s.rank: s for s in shards}
        grads = [self._shard_tables[by_rank[r]].backward(d_pooled[r])
                 for r in range(w)]
        summed = self.pg.all_reduce([g.to_dense() for g in grads])
        # every replica steps every row any rank touched, as the
        # single-process step does: a touched row whose averaged
        # gradient is exactly zero still advances Adam/LAMB state
        rows = np.unique(np.concatenate([g.rows for g in grads]))
        for r in range(w):
            sparse = SparseGradient(
                rows=rows, values=np.take(summed[r], rows, axis=0) / w,
                num_embeddings=summed[r].shape[0])
            self._apply_sparse(by_rank[r], sparse)

    # ------------------------------------------------------------------
    # shared per-phase helpers: each is used by train_step AND
    # eval_forward, and each advances all ranks with one batched kernel
    # over the stacked (R, ...) activations
    # ------------------------------------------------------------------
    def _check_batches(self, local_batches: List[MiniBatch]) -> int:
        if len(local_batches) != self.world_size:
            raise ValueError(
                f"need {self.world_size} local batches, "
                f"got {len(local_batches)}")
        sizes = {b.batch_size for b in local_batches}
        if len(sizes) != 1:
            raise ValueError(f"local batches must be equal size, got {sizes}")
        return sizes.pop()

    def _bottom_forward(self, local_batches: List[MiniBatch]) -> np.ndarray:
        """Bottom MLP over all ranks: (R, B, D)."""
        dense_in = np.stack([b.dense for b in local_batches], axis=0)
        return self.ranks[0].bottom.forward(dense_in)

    def _table_forward(self, t: EmbeddingTableConfig, table_plan,
                       inputs: List[Tuple[np.ndarray, np.ndarray]],
                       lengths: Optional[List[np.ndarray]],
                       row_wise: Optional[tuple],
                       local_batch: int) -> List[np.ndarray]:
        """Scheme dispatch for one table's forward (Fig. 8 patterns)."""
        scheme = table_plan.scheme
        if scheme == ShardingScheme.TABLE_WISE:
            return self._forward_table_wise(
                table_plan.shards[0], inputs, lengths, local_batch)
        if scheme == ShardingScheme.COLUMN_WISE:
            return self._forward_column_wise(
                table_plan.shards, inputs, lengths, local_batch)
        if scheme in (ShardingScheme.ROW_WISE,
                      ShardingScheme.TABLE_ROW_WISE):
            return self._forward_row_wise(t, *row_wise, local_batch)
        return self._forward_data_parallel(table_plan.shards, inputs)

    def _embedding_forward(self, local_batches: List[MiniBatch],
                           local_batch: int, spans: bool
                           ) -> Dict[str, List[np.ndarray]]:
        """All tables' pooled lookups; ``spans`` wraps each table in a
        ``trainer.table_fwd`` span (train path) or not (eval path).

        The index pass runs first, once for all tables: bag lengths for
        every exchanged table, and the row-wise payloads from one
        bucketize. Then each table runs its collectives and shard
        lookups in table order."""
        inputs = {t.name: [b.sparse[t.name] for b in local_batches]
                  for t in self.config.tables}
        lengths = self._bag_lengths(inputs, local_batch)
        row_wise = self._row_wise_payloads(inputs, lengths)
        pooled: Dict[str, List[np.ndarray]] = {}
        for t in self.config.tables:
            table_plan = self.plan.tables[t.name]
            args = (t, table_plan, inputs[t.name], lengths.get(t.name),
                    row_wise.get(t.name), local_batch)
            if spans:
                with self.tracer.span("trainer.table_fwd", cat="trainer",
                                      table=t.name,
                                      scheme=table_plan.scheme.value):
                    pooled[t.name] = self._table_forward(*args)
            else:
                pooled[t.name] = self._table_forward(*args)
        return pooled

    def _interaction_forward(self, dense_out: np.ndarray,
                             pooled: Dict[str, List[np.ndarray]]
                             ) -> np.ndarray:
        """Projections + interaction: (R, B, I)."""
        projections = self.ranks[0].projections
        features = [dense_out]
        for t in self.config.tables:
            value = np.stack(pooled[t.name], axis=0)
            if t.name in projections:
                value = projections[t.name].forward(value)
            features.append(value)
        return self._interaction.forward_list(features)

    def _top_forward(self, interacted: np.ndarray) -> np.ndarray:
        """Top MLP logits: (R, B)."""
        return self.ranks[0].top.forward(interacted)[..., 0]

    def _loss_forward(self, logits: np.ndarray,
                      local_batches: List[MiniBatch]) -> np.ndarray:
        """Per-rank mean BCE losses: (R,)."""
        labels = np.stack([b.labels for b in local_batches], axis=0)
        return self._loss_fn.forward(logits, labels)

    def _dense_backward(self) -> Dict[str, np.ndarray]:
        """Loss -> top -> interaction -> bottom backward; returns each
        table's (R, B, D) pooled-embedding gradient. Every parameter's
        per-rank gradients land in its slot of the AllReduce buckets."""
        state = self.ranks[0]
        for p, slot in zip(state.dense_parameters(), self._grad_slots):
            p.zero_grad()
            p.grad_slot = slot
        d_logits = self._loss_fn.backward()[..., None]
        d_inter = state.top.backward(d_logits)
        d_features = self._interaction.backward_list(d_inter)
        state.bottom.backward(d_features[0])
        d_pooled: Dict[str, np.ndarray] = {}
        for i, t in enumerate(self.config.tables):
            grad = d_features[1 + i]
            if t.name in state.projections:
                grad = state.projections[t.name].backward(grad)
            d_pooled[t.name] = grad
        return d_pooled

    def _table_backward(self, table_plan, d_pooled: np.ndarray) -> None:
        """Scheme dispatch for one table's backward on its (R, B, D)
        pooled gradient."""
        scheme = table_plan.scheme
        if scheme in (ShardingScheme.ROW_WISE,
                      ShardingScheme.TABLE_ROW_WISE):
            self._backward_row_wise(table_plan.shards, d_pooled)
        elif scheme == ShardingScheme.TABLE_WISE:
            self._backward_table_wise(table_plan.shards[0], d_pooled)
        elif scheme == ShardingScheme.COLUMN_WISE:
            self._backward_column_wise(table_plan.shards, d_pooled)
        else:
            self._backward_data_parallel(table_plan.shards, d_pooled)

    def _dense_allreduce(self) -> List[np.ndarray]:
        """Bucketed DDP gradient sync over the buckets the backward
        wrote; returns the reduced flat buckets. AllReduce hands every
        rank the same sum, so row 0 of the read-only ``(R, elems)``
        result stands for all of them."""
        return [self.pg.all_reduce(flat).stacked[0]
                for flat in self.grad_buckets]

    def _optimizer_step(self, reduced: List[np.ndarray]
                        ) -> List[nn.Parameter]:
        """Average the reduced buckets and step. Returns the parameters,
        whose ``.grad`` is the averaged gradient (for read-only
        instrumentation)."""
        w = self.world_size
        params = self.ranks[0].dense_parameters()
        for p, g in zip(params,
                        self._bucketer.views([flat / w for flat in reduced])):
            p.grad = g
        self.dense_opt.step()
        return params

    # ------------------------------------------------------------------
    # the training step
    # ------------------------------------------------------------------
    def train_step(self, local_batches: List[MiniBatch]) -> float:
        """One synchronous iteration over per-rank sub-batches.

        Returns the global mean loss. All ranks advance together; the
        update is mathematically the single-process update on the
        concatenated global batch.

        When tracing is enabled (``trace=`` at construction) each phase
        runs under a span (``trainer.bottom_mlp_fwd`` ... ``trainer.
        optimizer``) with collective spans nested inside; the compute is
        byte-for-byte identical either way — instrumentation only reads.
        """
        w = self.world_size
        local_batch = self._check_batches(local_batches)
        tr = self.tracer
        # announce the iteration boundary (v2 ProcessGroup API) so
        # wrappers can key scheduled faults on the logical step
        self.pg.on_iteration_start(self.steps)

        with tr.span("trainer.iteration", cat="trainer", step=self.steps,
                     local_batch=local_batch):
            # forward: bottom MLP (data parallel)
            with tr.span("trainer.bottom_mlp_fwd", cat="trainer"):
                dense_out = self._bottom_forward(local_batches)

            # forward: embeddings per table, per scheme
            with tr.span("trainer.embedding_fwd", cat="trainer"):
                pooled = self._embedding_forward(local_batches, local_batch,
                                                 spans=True)

            # forward: per-feature projections + interaction (data parallel)
            with tr.span("trainer.interaction_fwd", cat="trainer"):
                interacted = self._interaction_forward(dense_out, pooled)

            # forward: top MLP + loss (data parallel)
            with tr.span("trainer.top_mlp_fwd", cat="trainer"):
                logits = self._top_forward(interacted)
                losses = self._loss_forward(logits, local_batches)

            # backward: top MLP + interaction + bottom MLP (data parallel)
            with tr.span("trainer.dense_bwd", cat="trainer"):
                d_pooled = self._dense_backward()

            # backward: embeddings per table (exact sparse updates)
            with tr.span("trainer.embedding_bwd", cat="trainer"):
                for t in self.config.tables:
                    table_plan = self.plan.tables[t.name]
                    with tr.span("trainer.table_bwd", cat="trainer",
                                 table=t.name,
                                 scheme=table_plan.scheme.value):
                        self._table_backward(table_plan, d_pooled[t.name])

            # gradient sync (DDP semantics, bucketed — one AllReduce per
            # ~25 MB bucket, not per parameter)
            with tr.span("trainer.allreduce", cat="trainer"):
                flats = self._dense_allreduce()

            # dense optimizer step
            with tr.span("trainer.optimizer", cat="trainer"):
                ref_params = self._optimizer_step(flats)
                if tr.enabled:
                    # read-only instrumentation: global dense grad norm
                    # (identical on every rank after the AllReduce)
                    norm = float(np.sqrt(sum(
                        float(np.sum(p.grad.astype(np.float64) ** 2))
                        for p in ref_params)))
                    self.metrics.histogram("trainer.grad_norm").record(norm)
        self.steps += 1
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    # evaluation forward (the serving-export parity reference)
    # ------------------------------------------------------------------
    def eval_forward(self, local_batches: List[MiniBatch]
                     ) -> List[np.ndarray]:
        """Forward-only pass over per-rank sub-batches; returns each
        rank's logits ``(B/W,)``.

        No optimizer state, gradients or weights are touched — this is
        the eval answer the online-training loop would ship to serving,
        and the reference :func:`repro.serving.freeze` parity is tested
        against. Collectives still run (and are billed) exactly as in
        the forward half of :meth:`train_step`.
        """
        w = self.world_size
        local_batch = self._check_batches(local_batches)
        with self.tracer.span("trainer.eval_forward", cat="trainer",
                              local_batch=local_batch):
            dense_out = self._bottom_forward(local_batches)
            pooled = self._embedding_forward(local_batches, local_batch,
                                             spans=False)
            interacted = self._interaction_forward(dense_out, pooled)
            logits = self._top_forward(interacted)
        return [logits[r].copy() for r in range(w)]

    # ------------------------------------------------------------------
    # checkpoint restore
    # ------------------------------------------------------------------
    def load_dense_state(self, dense: Dict[int, np.ndarray],
                         opt_state: Dict[int, Dict[str, np.ndarray]]
                         ) -> None:
        """Restore dense parameters and optimizer slot state from
        checkpoint payloads (``dense[i]`` is parameter ``i`` at per-rank
        shape; ``opt_state[i]`` its optimizer slots).

        Every payload is checked before any parameter is written: a
        missing index, an extra one (in ``dense`` or ``opt_state``) or a
        shape other than the parameter's raises ``ValueError``; so does
        an optimizer slot of another shape, except the ``(1,)`` step
        counter ``t`` that Adam and LAMB keep. Values are written *in
        place* into the one storage, which every rank's replica views;
        slot state has per-rank shape, so the one optimizer takes it as
        stored.
        """
        params = self.ranks[0].dense_parameters()
        for i, p in enumerate(params):
            got = np.shape(dense[i]) if i in dense else "nothing"
            if got != p.data.shape:
                raise ValueError(
                    f"dense parameter {i} ({p.name}): expected shape "
                    f"{p.data.shape}, got {got}")
            for name, value in opt_state.get(i, {}).items():
                want = (1,) if name == "t" else p.data.shape
                if np.shape(value) != want:
                    raise ValueError(
                        f"optimizer slot {name!r} of dense parameter {i} "
                        f"({p.name}): expected shape {want}, got "
                        f"{np.shape(value)}")
        for what, payload in (("dense parameters", dense),
                              ("optimizer state for dense parameters",
                               opt_state)):
            extra = sorted(set(payload) - set(range(len(params))))
            if extra:
                raise ValueError(f"{what} {extra} do not exist: the model "
                                 f"has {len(params)}")
        for i, p in enumerate(params):
            p.data[...] = dense[i]
            slot = self.dense_opt.state_for(p)
            slot.clear()
            for name, value in opt_state.get(i, {}).items():
                slot[name] = value.copy()

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def gather_table(self, name: str) -> np.ndarray:
        """Reassemble the full (H, D) weight of one table from shards."""
        table_plan = self.plan.tables[name]
        cfg = table_plan.config
        if table_plan.scheme == ShardingScheme.DATA_PARALLEL:
            return self._shard_tables[table_plan.shards[0]].weight.copy()
        full = np.zeros((cfg.num_embeddings, cfg.embedding_dim),
                        dtype=np.float32)
        for shard in table_plan.shards:
            r0, r1 = shard.row_range
            c0, c1 = shard.col_range
            full[r0:r1, c0:c1] = self._shard_tables[shard].weight
        return full

    def to_local_model(self, seed: int = 0) -> DLRM:
        """Export current distributed state as a single-process DLRM."""
        model = DLRM(self.config, seed=seed)
        for dst, src in zip(model.dense_parameters(),
                            self.ranks[0].dense_parameters()):
            dst.data = src.data.copy()
        for t in self.config.tables:
            model.embeddings.table(t.name).weight = self.gather_table(t.name)
        return model

    def replicas_in_sync(self) -> bool:
        """Data-parallel invariant: all dense replicas bitwise identical."""
        ref = self.ranks[0].dense_parameters()
        for state in self.ranks[1:]:
            for a, b in zip(ref, state.dense_parameters()):
                if not np.array_equal(a.data, b.data):
                    return False
        return True

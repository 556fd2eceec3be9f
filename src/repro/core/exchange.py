"""The sparse half of a Neo step: embedding shards and the Fig. 8 exchange.

:class:`SparseExchange` owns every embedding shard of a plan and moves
ids, pooled rows and gradients between ranks in the collective pattern
of each table's scheme (paper Sections 4.2, 4.4; DESIGN.md lists them).
A table-wise table is the column-wise case with one full-width shard.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..comms import AlltoAllKind, SimProcessGroup
from ..data.datagen import MiniBatch
from ..data.kernels import bucketize_sparse
from ..embedding import (EmbeddingTable, EmbeddingTableConfig,
                         QuantizedEmbeddingTable, SparseGradient,
                         SparseOptimizer)
from ..embedding.kernels import rank_bags
from ..embedding.table import lengths_to_offsets, validate_offsets
from ..models.dlrm import DLRM, DLRMConfig
from ..obs.metrics import MetricRegistry
from ..sharding import Shard, ShardingPlan, ShardingScheme

__all__ = ["SparseExchange"]

_ROW_SCHEMES = (ShardingScheme.ROW_WISE, ShardingScheme.TABLE_ROW_WISE)

# every table's per-source-rank (ids, offsets): inputs[name][src]
_Inputs = Dict[str, List[Tuple[np.ndarray, np.ndarray]]]

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


class SparseExchange:
    """A trainer's embedding shards and the collectives between them.

    :meth:`forward` pools every table for every rank, :meth:`backward`
    applies the pooled gradients, :meth:`gather` and :meth:`load` read
    and restore whole tables."""

    def __init__(self, config: DLRMConfig, plan: ShardingPlan, golden: DLRM,
                 pg: SimProcessGroup, sparse_optimizer: SparseOptimizer,
                 tracer, metrics: MetricRegistry,
                 representation_plan=None) -> None:
        self.config = config
        self.plan = plan
        self.pg = pg
        self.sparse_opt = sparse_optimizer
        self.tracer = tracer
        self.world_size = plan.world_size
        self._build_exchange()
        self._check_plan()
        self._build_shards(golden, metrics, representation_plan)

    def _check_plan(self) -> None:
        """Reject a plan the exchange cannot run before any collective:
        shards must tile their tables on ranks inside the world, and a
        data-parallel table needs one replica on every rank."""
        self.plan.validate()
        for t in self.config.tables:
            table_plan = self.plan.tables[t.name]
            if table_plan.scheme != ShardingScheme.DATA_PARALLEL:
                continue
            ranks = sorted(s.rank for s in table_plan.shards)
            if ranks != list(range(self.world_size)):
                raise ValueError(
                    f"data-parallel table {t.name} needs one replica on "
                    f"every rank in [0, {self.world_size}), got ranks "
                    f"{ranks}")

    def _build_shards(self, golden: DLRM, metrics: MetricRegistry,
                      representation_plan) -> None:
        """One table per shard, except that a data-parallel table is one
        table every replica's shard maps to: one weight and one optimizer
        state, looked up once for the global batch and stepped once."""
        self.shard_tables: Dict[Shard, EmbeddingTable] = {}
        # per-shard metric counters, created once so the hot path only
        # pays a cached-attribute increment
        emb_metrics = metrics.scope("embedding")
        self._lookup_counters: Dict[Shard, object] = {}
        self._update_counters: Dict[Shard, object] = {}
        for t in self.config.tables:
            weight = golden.embeddings.table(t.name).weight
            # tables a repro.planner.RepresentationPlan serves at fp16/
            # bf16/int8 train on quantized shards, so the trained weights
            # already carry the round-trip numerics the export freezes
            train_precision = "fp32"
            if representation_plan is not None:
                if t.name not in representation_plan.assignments:
                    raise ValueError(f"representation plan has no "
                                     f"assignment for table {t.name}")
                train_precision = \
                    representation_plan.training_precision(t.name)
            make = EmbeddingTable if train_precision == "fp32" \
                else QuantizedEmbeddingTable
            table_plan = self.plan.tables[t.name]
            replicated = table_plan.scheme == ShardingScheme.DATA_PARALLEL
            table = None
            for shard in table_plan.shards:
                # every replica of a data-parallel table maps to the
                # table built for its first shard
                if table is None or not replicated:
                    r0, r1 = shard.row_range
                    c0, c1 = shard.col_range
                    shard_cfg = EmbeddingTableConfig(
                        name=f"{t.name}@{shard.rank}:{r0}-{r1}:{c0}-{c1}",
                        num_embeddings=r1 - r0, embedding_dim=c1 - c0,
                        avg_pooling=t.avg_pooling,
                        pooling_mode=t.pooling_mode,
                        precision=train_precision)
                    table = make(shard_cfg, weight=weight[r0:r1, c0:c1])
                self.shard_tables[shard] = table
                self._lookup_counters[shard] = emb_metrics.counter(
                    "lookup_rows", table=t.name)
                self._update_counters[shard] = emb_metrics.counter(
                    "update_rows", table=t.name)
        self._launch_counter = emb_metrics.counter("kernel_launches")

    def _build_exchange(self) -> None:
        """Lay out the per-step index pass (paper Section 4.4): one id
        space for the row-wise tables, table after table, cut by their
        concatenated shard boundaries."""
        self._row_wise: List[_RowWiseTable] = []
        boundaries = [0]
        for t in self.config.tables:
            if self.plan.scheme_of(t.name) not in _ROW_SCHEMES:
                continue
            if t.pooling_mode != "sum":
                raise ValueError(
                    f"row-wise sharding requires sum pooling "
                    f"(table {t.name} uses {t.pooling_mode})")
            # the row-wise exchange keys payloads and partial sums by
            # owner rank, so a second shard on one rank would overwrite
            # the first
            owners = [s.rank for s in self.plan.tables[t.name].shards]
            shared = sorted({r for r in owners if owners.count(r) > 1})
            if shared:
                raise ValueError(
                    f"row-wise table {t.name} places more than one "
                    f"shard on rank {shared[0]}")
            shards = tuple(sorted(self.plan.tables[t.name].shards,
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
            out = self.shard_tables[shard].forward(ids, offsets)
        self._lookup_counters[shard].inc(int(len(ids)))
        self._launch_counter.inc(1)  # one gather+segment-reduce dispatch
        return out

    def _shard_update(self, shard: Shard, grad,
                      bag_ranks: Optional[np.ndarray] = None) -> None:
        """Exact sparse update of one shard, under an ``embedding_update``
        span. ``grad`` is the shard's :class:`SparseGradient`, or the
        pooled gradient whose backward (one merge+apply dispatch) runs in
        the span; ``bag_ranks`` is then ``rank_bags(grad)`` when several
        shards share it (row-wise tables)."""
        with self.tracer.span("trainer.embedding_update", cat="embedding",
                              table=shard.table, rank=shard.rank):
            table = self.shard_tables[shard]
            if not isinstance(grad, SparseGradient):
                grad = table.backward(grad)
                grad.bag_ranks = bag_ranks
                self._launch_counter.inc(1)
            self.sparse_opt.step(table, grad)
            # re-round quantized storage after the step (fp32: no-op)
            if isinstance(table, QuantizedEmbeddingTable):
                table.sync_storage()
        self._update_counters[shard].inc(int(len(grad.rows)))

    # ------------------------------------------------------------------
    # the index pass: every table's exchange payloads, prepared at once
    # ------------------------------------------------------------------
    def _bag_lengths(self, inputs: _Inputs,
                     local_batch: int) -> Dict[str, List[np.ndarray]]:
        """Bag lengths of every table on every source rank (the combined
        format's lengths tensor): one ``np.diff`` over all offsets, each
        table's per-rank lengths a row of the result."""
        names = [t.name for t in self.config.tables]
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

    def _row_wise_payloads(self, inputs: _Inputs,
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

    def _forward_data_parallel(self, shard: Shard,
                               inputs: List[Tuple[np.ndarray, np.ndarray]],
                               lengths: List[np.ndarray]) -> List[np.ndarray]:
        """One lookup of the one table for the global batch (every rank's
        bags, rank-major), returned as per-rank slices.

        Each rank's offsets must run from 0 to its id count, so that no
        rank's bags shift into a neighbour's; the global lookup then
        checks order and id range for every rank at once."""
        for ids, offsets in inputs:
            validate_offsets(offsets, len(ids))
        pooled = self._shard_forward(
            shard, np.concatenate([ids for ids, _ in inputs]),
            lengths_to_offsets(np.concatenate(lengths)))
        return list(pooled.reshape(len(lengths), len(lengths[0]),
                                   pooled.shape[1]))

    def _backward_data_parallel(self, shard: Shard,
                                d_pooled: np.ndarray) -> None:
        """One backward, one AllReduce and one step of the one table.

        Rank ``r``'s dense gradient is rows ``[r*H, (r+1)*H)`` of one
        ``(R*H, D)`` scatter, so every element still sums its own rank's
        entries in entry order; the ``(R, H, D)`` stack goes through the
        stacked AllReduce, which bills and sums as the per-rank list
        form does."""
        w, local_batch, dim = d_pooled.shape
        table = self.shard_tables[shard]
        h = table.config.num_embeddings
        grad = table.backward(d_pooled.reshape(w * local_batch, dim))
        by_rank = SparseGradient(
            rows=grad.rows + grad.bag_ids // local_batch * h,
            values=grad.values, num_embeddings=w * h, bag_ids=grad.bag_ids)
        summed = self.pg.all_reduce(
            by_rank.to_dense().reshape(w, h, dim)).stacked[0]
        # the step touches every row any rank touched, as the
        # single-process step does: a touched row whose averaged
        # gradient is exactly zero still advances Adam/LAMB state
        rows = np.unique(grad.rows)
        self._shard_update(shard, SparseGradient(
            rows=rows, values=np.take(summed, rows, axis=0) / w,
            num_embeddings=h))

    # ------------------------------------------------------------------
    # the step: every table, in table order
    # ------------------------------------------------------------------
    def forward(self, local_batches: List[MiniBatch], spans: bool = True
                ) -> Dict[str, List[np.ndarray]]:
        """Every table's pooled lookups, ``pooled[name][rank]``, each
        table under a ``trainer.table_fwd`` span if ``spans`` (train path).

        A local batch without some table's sparse feature raises
        ``ValueError`` before any collective runs. Then the index pass
        prepares every table's payloads at once, and each table runs its
        collectives and shard lookups in table order."""
        for r, batch in enumerate(local_batches):
            for t in self.config.tables:
                if t.name not in batch.sparse:
                    raise ValueError(f"rank {r}'s local batch has no "
                                     f"sparse feature for table {t.name}")
        local_batch = local_batches[0].batch_size
        inputs = {t.name: [b.sparse[t.name] for b in local_batches]
                  for t in self.config.tables}
        lengths = self._bag_lengths(inputs, local_batch)
        row_wise = self._row_wise_payloads(inputs, lengths)
        pooled: Dict[str, List[np.ndarray]] = {}
        for t in self.config.tables:
            table_plan = self.plan.tables[t.name]
            with self.tracer.span("trainer.table_fwd", cat="trainer",
                                  table=t.name,
                                  scheme=table_plan.scheme.value) \
                    if spans else nullcontext():
                if table_plan.scheme == ShardingScheme.DATA_PARALLEL:
                    pooled[t.name] = self._forward_data_parallel(
                        table_plan.shards[0], inputs[t.name],
                        lengths[t.name])
                elif t.name in row_wise:
                    pooled[t.name] = self._forward_row_wise(
                        t, *row_wise[t.name], local_batch)
                else:
                    pooled[t.name] = self._forward_column_wise(
                        table_plan.shards, inputs[t.name], lengths[t.name],
                        local_batch)
        return pooled

    def backward(self, d_pooled: Dict[str, np.ndarray]) -> None:
        """Exact sparse updates from each table's ``(R, B, D)`` pooled
        gradient, each table under a ``trainer.table_bwd`` span."""
        for t in self.config.tables:
            table_plan = self.plan.tables[t.name]
            with self.tracer.span("trainer.table_bwd", cat="trainer",
                                  table=t.name,
                                  scheme=table_plan.scheme.value):
                grad = d_pooled[t.name]
                if table_plan.scheme in _ROW_SCHEMES:
                    self._backward_row_wise(table_plan.shards, grad)
                elif table_plan.scheme == ShardingScheme.DATA_PARALLEL:
                    self._backward_data_parallel(table_plan.shards[0],
                                                 grad)
                else:
                    self._backward_column_wise(table_plan.shards, grad)

    # ------------------------------------------------------------------
    # whole tables: inspection and checkpoint restore
    # ------------------------------------------------------------------
    def gather(self, name: str) -> np.ndarray:
        """Reassemble the full (H, D) weight of one table from shards."""
        table_plan = self.plan.tables[name]
        cfg = table_plan.config
        if table_plan.scheme == ShardingScheme.DATA_PARALLEL:
            return self.shard_tables[table_plan.shards[0]].weight.copy()
        full = np.zeros((cfg.num_embeddings, cfg.embedding_dim),
                        dtype=np.float32)
        for shard in table_plan.shards:
            full[slice(*shard.row_range), slice(*shard.col_range)] = \
                self.shard_tables[shard].weight
        return full

    def load(self, tables: Dict[str, List[Tuple[np.ndarray, np.ndarray]]]
             ) -> None:
        """Overwrite every shard from a checkpoint chain: ``tables[name]``
        holds table ``name``'s ``(rows, values)`` payloads, oldest first,
        later rows overriding earlier ones.

        The whole chain is checked before any shard is written: every
        row of every table must be restored, rows must lie in ``[0, H)``
        and values must be ``(len(rows), D)``. A failure raises
        ``ValueError`` naming the table."""
        full = {}
        for t in self.config.tables:
            h, d = t.num_embeddings, t.embedding_dim
            full[t.name] = np.zeros((h, d), dtype=np.float32)
            restored = np.zeros(h, dtype=bool)
            for rows, values in tables.get(t.name, ()):
                if np.shape(values) != (len(rows), d):
                    raise ValueError(
                        f"table {t.name}: checkpoint values of shape "
                        f"{np.shape(values)} for {len(rows)} rows of dim {d}")
                if len(rows) and (rows.min() < 0 or rows.max() >= h):
                    raise ValueError(f"table {t.name}: checkpoint rows "
                                     f"outside [0, {h})")
                full[t.name][rows] = values
                restored[rows] = True
            if not restored.all():
                raise ValueError(
                    f"table {t.name}: checkpoint restores "
                    f"{int(restored.sum())} of its {h} rows")
        written = set()
        for shard, table in self.shard_tables.items():
            if id(table) in written:  # a data-parallel table's replica
                continue
            written.add(id(table))
            table.weight = full[shard.table][
                slice(*shard.row_range), slice(*shard.col_range)].copy()

"""The sparse half of a Neo step: embedding shards and the Fig. 8 exchange.

:class:`SparseExchange` owns every embedding shard of a plan and moves
ids, pooled rows and gradients between ranks in the collective pattern
of each table's scheme (paper Sections 4.2, 4.4; DESIGN.md lists them).
A table-wise table is the column-wise case with one full-width shard.
A data-parallel or row-wise table is stored once, whole, and looked up,
merged and stepped once per step (Section 4.1.2) for all its shards.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..comms import AlltoAllKind, SimProcessGroup
from ..comms.collectives import rank_rows
from ..data.datagen import MiniBatch
from ..embedding import (EmbeddingTable, EmbeddingTableConfig,
                         QuantizedEmbeddingTable, SparseGradient,
                         SparseOptimizer)
from ..embedding.table import init_rows, lengths_to_offsets
from ..models.dlrm import DLRMConfig
from ..obs.metrics import MetricRegistry
from ..sharding import Shard, ShardingPlan, ShardingScheme

__all__ = ["SparseExchange"]

_ROW_SCHEMES = (ShardingScheme.ROW_WISE, ShardingScheme.TABLE_ROW_WISE)

# every table's per-source-rank (ids, offsets): inputs[name][src]
_Inputs = Dict[str, List[Tuple[np.ndarray, np.ndarray]]]

# one AlltoAll's inputs: its flat send buffer, source-major and then by
# destination, and its (W, W) split matrix of row counts
_Payload = Tuple[np.ndarray, np.ndarray]


def bucket_of(indices: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """``k`` with ``boundaries[k] <= id < boundaries[k + 1]``, per id.

    ``searchsorted`` on unsorted ids mispredicts a branch at every level
    of its binary search, and a combined id space of many row-wise
    tables has many levels. A guide over power-of-two cells no wider
    than the narrowest bucket replaces it: each cell holds at most one
    cut, so an id's bucket is its cell's first bucket, plus one if the
    id reaches the next cut. The guide is used when it has no more cells
    than there are ids, so building it never costs more than it saves.
    """
    shift = int(np.diff(boundaries).min()).bit_length() - 1
    cells = ((int(boundaries[-1]) - 1) >> shift) + 1
    if cells > len(indices):
        return np.searchsorted(boundaries, indices, side="right") - 1
    first = np.searchsorted(boundaries,
                            np.arange(cells, dtype=np.int64) << shift,
                            side="right") - 1
    bucket = np.take(first, indices >> shift)
    bucket += indices >= np.take(boundaries, bucket + 1)
    return bucket


@dataclass(frozen=True)
class _RowWiseTable:
    """One row-wise table: its shards in row order and their owner
    ranks, ascending."""

    name: str
    shards: Tuple[Shard, ...]
    ranks: List[int]


class SparseExchange:
    """A trainer's embedding shards and the collectives between them.

    :meth:`forward` pools every table for every rank, :meth:`backward`
    applies the pooled gradients, :meth:`gather` and :meth:`load` read
    and restore whole tables. ``shard_tables`` maps each shard to its
    stored table, which holds all H rows of the shard's columns, drawn
    from ``rng`` (:func:`repro.models.dlrm.draw_dlrm` positions it)."""

    def __init__(self, config: DLRMConfig, plan: ShardingPlan,
                 rng: np.random.Generator, pg: SimProcessGroup,
                 sparse_optimizer: SparseOptimizer, tracer,
                 metrics: MetricRegistry,
                 representation_plan=None) -> None:
        self.config = config
        self.plan = plan
        self.pg = pg
        self.sparse_opt = sparse_optimizer
        self.tracer = tracer
        self.world_size = plan.world_size
        self._build_exchange()
        self._check_plan()
        self._build_shards(rng, metrics, representation_plan)

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

    def _build_shards(self, rng: np.random.Generator,
                      metrics: MetricRegistry, representation_plan) -> None:
        """One stored table, with one optimizer state, per column range
        of each table: a column-wise slice is a table of its own, and all
        shards of a data-parallel or row-wise table map to one. Each table
        is drawn straight into its stored tables' rows, in config order."""
        self.shard_tables: Dict[Shard, EmbeddingTable] = {}
        # per-shard metric counters, created once so the hot path only
        # pays a cached-attribute increment
        emb_metrics = metrics.scope("embedding")
        self._lookup_counters: Dict[Shard, object] = {}
        self._update_counters: Dict[Shard, object] = {}
        for t in self.config.tables:
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
            by_cols: Dict[Tuple[int, int], EmbeddingTable] = {}
            for shard in self.plan.tables[t.name].shards:
                c0, c1 = shard.col_range
                if shard.col_range not in by_cols:
                    by_cols[shard.col_range] = make.over(EmbeddingTableConfig(
                        name=f"{t.name}@{shard.rank}:0-{t.num_embeddings}:"
                             f"{c0}-{c1}",
                        num_embeddings=t.num_embeddings, embedding_dim=c1 - c0,
                        avg_pooling=t.avg_pooling,
                        pooling_mode=t.pooling_mode,
                        precision=train_precision),
                        np.empty((t.num_embeddings, c1 - c0), np.float32))
                self.shard_tables[shard] = by_cols[shard.col_range]
                self._lookup_counters[shard] = emb_metrics.counter(
                    "lookup_rows", table=t.name)
                self._update_counters[shard] = emb_metrics.counter(
                    "update_rows", table=t.name)
            stored = [by_cols[cols] for cols in sorted(by_cols)]
            init_rows(t, rng, [table.weight for table in stored])
            if make is QuantizedEmbeddingTable:  # starts rounded, too
                for table in stored:
                    table.sync_storage()
        self._launch_counter = emb_metrics.counter("kernel_launches")

    def _build_exchange(self) -> None:
        """Lay out the per-step index pass (paper Section 4.4): one id
        space for the row-wise tables, table after table (table ``i``'s
        ids offset by ``_row_bases[i]``), cut by their concatenated shard
        boundaries into one bucket per shard, owned by
        ``_bucket_rank[bucket]``."""
        self._row_wise: List[_RowWiseTable] = []
        boundaries, owners_of_buckets, positions = [0], [], []
        for position, t in enumerate(self.config.tables):
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
            self._row_wise.append(_RowWiseTable(t.name, shards,
                                                sorted(owners)))
            positions.append(position)
            base = boundaries[-1]
            boundaries.extend(base + cut for cut in cuts[1:])
            owners_of_buckets.extend(s.rank for s in shards)
        self._row_boundaries = np.asarray(boundaries, dtype=np.int64)
        self._row_bases = np.cumsum(
            [0] + [rt.shards[-1].row_range[1] for rt in self._row_wise])
        self._bucket_rank = np.asarray(owners_of_buckets, dtype=np.int64)
        self._row_positions = positions   # row-wise tables in the config

    # ------------------------------------------------------------------
    # instrumented shard access
    # ------------------------------------------------------------------
    def _shard_forward(self, shards: Sequence[Shard], ids: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
        """Pooled lookup on the one stored table of ``shards``, under an
        ``embedding_lookup`` span stamped with the ``ranks`` owning the
        shards the call serves."""
        shard = shards[0]
        with self.tracer.span("trainer.embedding_lookup", cat="embedding",
                              table=shard.table,
                              ranks=sorted(s.rank for s in shards),
                              rows=int(len(ids))):
            out = self.shard_tables[shard].forward(ids, offsets)
        self._lookup_counters[shard].inc(int(len(ids)))
        self._launch_counter.inc(1)  # one gather+segment-reduce dispatch
        return out

    def _shard_update(self, shards: Sequence[Shard], grad,
                      stacked: bool = False) -> None:
        """Exact sparse update of the one stored table of ``shards``,
        under an ``embedding_update`` span stamped like the lookup's.
        ``grad`` is the table's :class:`SparseGradient`, or the ``(n, D)``
        gradient of its last lookup's bags, whose backward (one
        merge+apply dispatch) runs in the span. A ``stacked`` lookup
        pooled every rank's segment of each bag (row-wise tables):
        segment ``s`` takes bag ``s mod n``'s gradient."""
        shard = shards[0]
        with self.tracer.span("trainer.embedding_update", cat="embedding",
                              table=shard.table,
                              ranks=sorted(s.rank for s in shards)):
            table = self.shard_tables[shard]
            if not isinstance(grad, SparseGradient):
                grad = table.backward(grad)
                if stacked:
                    grad.bag_ids = grad.bag_ids % len(grad.values)
                self._launch_counter.inc(1)
            self.sparse_opt.step(table, grad)
            # re-round quantized storage after the step (fp32: no-op)
            if isinstance(table, QuantizedEmbeddingTable):
                table.sync_storage()
        self._update_counters[shard].inc(int(len(grad.rows)))

    # ------------------------------------------------------------------
    # the index pass: every table's exchange payloads, prepared at once
    # ------------------------------------------------------------------
    def _row_wise_payloads(self, inputs: _Inputs, lengths: np.ndarray
                           ) -> Dict[str, Tuple[Tuple[Shard, ...],
                                                _Payload, _Payload]]:
        """Every row-wise table's shards (in row order) and its ids and
        lengths index-AlltoAll payloads, from one pass over the ids of
        every row-wise table and source rank. ``lengths`` is every
        table's ``(W, B)`` bag lengths, in config order.

        The ids, table-major, are offset by their table's base into the
        combined id space, whose buckets are the shards. One stable sort
        on each id's (table, source rank, owner rank) lays out every
        table's send buffer, source-major and then by owner, with ids
        rebased to their shard; one ``bincount`` on the same key gives
        the split matrices, and one on (key, bag) every sub-bag's
        length. Each id is range-checked against its own table, so an id
        the combined space would hide in a neighbour's bucket raises the
        ``IndexError`` a per-table bucketize raises.
        """
        if not self._row_wise:
            return {}
        w, tables = self.world_size, len(self._row_wise)
        batch = lengths.shape[2]
        ids = np.concatenate([inputs[rt.name][src][0]
                              for rt in self._row_wise
                              for src in range(w)])
        # every id's bag, numbered (table, source rank, bag)
        bag = np.repeat(np.arange(tables * w * batch),
                        lengths[self._row_positions].ravel())
        table = bag // (w * batch)
        outside = (ids < 0) | (ids >= np.diff(self._row_bases)[table])
        if outside.any():
            rt = self._row_wise[int(table[np.argmax(outside)])]
            raise IndexError(f"row-wise table {rt.name}: ids outside [0, "
                             f"{rt.shards[-1].row_range[1]})")
        ids += self._row_bases[table]
        bucket = bucket_of(ids, self._row_boundaries)
        ids -= self._row_boundaries[bucket]
        key = bag // batch * w + self._bucket_rank[bucket]
        # a stable sort on a uint16 key is numpy's O(N) radix sort
        order = np.argsort(key.astype(np.uint16) if tables * w * w <= 1 << 16
                           else key, kind="stable")
        send_ids = np.take(ids, order)
        id_splits = np.bincount(key, minlength=tables * w * w).reshape(
            tables, w, w)
        sub_bags = np.bincount(
            key * batch + bag % batch,
            minlength=tables * w * w * batch).reshape(tables, w, w, batch)
        ends = np.cumsum(id_splits.sum(axis=(1, 2)))
        payloads = {}
        for i, rt in enumerate(self._row_wise):
            length_splits = np.zeros((w, w), dtype=np.int64)
            length_splits[:, rt.ranks] = batch
            payloads[rt.name] = (
                rt.shards,
                (send_ids[ends[i] - id_splits[i].sum():ends[i]],
                 id_splits[i]),
                (sub_bags[i][:, rt.ranks].ravel(), length_splits))
        return payloads

    # ------------------------------------------------------------------
    # embedding forward/backward, per scheme
    # ------------------------------------------------------------------
    def _pooled_scatter(self, shard: Shard, pooled: np.ndarray,
                        local_batch: int) -> np.ndarray:
        """Pooled AlltoAll: the owner of ``shard`` sends each rank its
        sub-batch of ``pooled``; returns the ``(W, B, D)`` stack of what
        every rank received."""
        w = self.world_size
        splits = np.zeros((w, w), dtype=np.int64)
        splits[shard.rank] = local_batch
        delivered = self.pg.all_to_all(pooled, splits,
                                       kind=AlltoAllKind.FORWARD).output
        return delivered.reshape(w, local_batch, -1)

    def _index_to(self, owners: Sequence[int], payloads: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Index AlltoAll of whole per-rank payloads: every rank ships
        its payload to each owner rank. Returns the receive buffer and
        the rows each rank received."""
        w = self.world_size
        owners = sorted(owners)
        splits = np.zeros((w, w), dtype=np.int64)
        splits[:, owners] = [[len(p)] for p in payloads]
        send = np.concatenate([p for p in payloads for _ in owners])
        arrived = self.pg.all_to_all(send, splits, kind=AlltoAllKind.INDEX)
        return arrived.output, splits.sum(axis=0)

    def _sliced_gradient(self, shard: Shard, scaled: np.ndarray) -> None:
        """Backward AlltoAll of each rank's (already ``/ W``) gradient
        slice to the owner of ``shard``, then the owner's update."""
        w, local_batch, cols = scaled.shape
        splits = np.zeros((w, w), dtype=np.int64)
        splits[:, shard.rank] = local_batch
        arrived = self.pg.all_to_all(scaled.reshape(-1, cols), splits,
                                     kind=AlltoAllKind.BACKWARD).output
        self._shard_update((shard,), arrived.astype(np.float32, copy=False))

    def _forward_column_wise(self, shards: List[Shard],
                             inputs: List[Tuple[np.ndarray, np.ndarray]],
                             lengths: np.ndarray,
                             local_batch: int) -> np.ndarray:
        # replicated index AlltoAll: each rank ships its ids, then its
        # lengths, to every owner
        owners = {s.rank for s in shards}
        ids, id_counts = self._index_to(owners, [x for x, _ in inputs])
        bags, bag_counts = self._index_to(owners, lengths)
        # each owner pools its column slice for the global batch
        pooled = {shard: self._shard_forward(
            (shard,), rank_rows(ids, id_counts, shard.rank),
            lengths_to_offsets(rank_rows(bags, bag_counts, shard.rank)))
            for shard in shards}
        # pooled AlltoAll per shard (two shards may share an owner rank),
        # then concatenate slices by column order
        ordered = sorted(shards, key=lambda s: s.col_range)
        return np.concatenate([self._pooled_scatter(s, pooled[s], local_batch)
                               for s in ordered], axis=2)

    def _backward_column_wise(self, shards: List[Shard],
                              d_pooled: np.ndarray) -> None:
        scaled = d_pooled / self.world_size
        for shard in sorted(shards, key=lambda s: s.col_range):
            c0, c1 = shard.col_range
            self._sliced_gradient(shard, scaled[:, :, c0:c1])

    def _forward_row_wise(self, table: EmbeddingTableConfig,
                          shards: Sequence[Shard],
                          ids: _Payload, lengths: _Payload,
                          local_batch: int) -> np.ndarray:
        w = self.world_size
        # bucket k of every rank's ids goes to the owner of shard k
        arrived_ids = self.pg.all_to_all(*ids, kind=AlltoAllKind.INDEX)
        arrived_lengths = self.pg.all_to_all(*lengths,
                                             kind=AlltoAllKind.INDEX)
        # what arrived is owner-major: each owner's ids go back to table
        # rows, and its bag lengths fill its row of the (W, W*B) segment
        # grid; a rank without a shard has empty segments
        owners = [s.rank for s in shards]
        starts = np.zeros(w, dtype=np.int64)
        starts[owners] = [s.row_range[0] for s in shards]
        rows = arrived_ids.output + np.repeat(starts, ids[1].sum(axis=0))
        segments = np.zeros((w, w * local_batch), dtype=np.int64)
        segments[sorted(owners)] = arrived_lengths.output.reshape(
            len(owners), -1)
        # one lookup pools every owner's partial sums for the global
        # batch into the (W, W*B, D) stack the ReduceScatter sums, in
        # rank order, delivering each rank its sub-batch
        partials = self._shard_forward(shards, rows,
                                       lengths_to_offsets(segments.ravel()))
        return self.pg.reduce_scatter(partials.reshape(
            w, w * local_batch, table.embedding_dim)).output

    def _backward_row_wise(self, shards: Sequence[Shard],
                           d_pooled: np.ndarray) -> None:
        # one (W, B, D) array through the AllGather; the gathered stack
        # reshapes to the source-rank-major (W*B, D) global gradient
        w = self.world_size
        gathered = self.pg.all_gather(d_pooled / w).output
        d_global = gathered.reshape(
            gathered.shape[0] * gathered.shape[1], -1).astype(np.float32)
        # one backward, merge and step of the one table for every shard:
        # row ranges are disjoint, so no merge segment mixes two shards
        self._shard_update(shards, d_global, stacked=True)

    def _forward_data_parallel(self, shard: Shard,
                               inputs: List[Tuple[np.ndarray, np.ndarray]],
                               lengths: np.ndarray) -> np.ndarray:
        """One lookup of the one table for the global batch (every rank's
        bags, rank-major), returned as the ``(W, B, D)`` stack.

        Each rank's bags hold exactly its ids (a :class:`MiniBatch`
        checks that when it is built), so no rank's bags shift into a
        neighbour's; the global lookup checks id range for every rank at
        once."""
        pooled = self._shard_forward(
            self.plan.tables[shard.table].shards,
            np.concatenate([ids for ids, _ in inputs]),
            lengths_to_offsets(lengths.ravel()))
        return pooled.reshape(lengths.shape + (pooled.shape[1],))

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
            by_rank.to_dense().reshape(w, h, dim)).output[0]
        # the step touches every row any rank touched, as the
        # single-process step does: a touched row whose averaged
        # gradient is exactly zero still advances Adam/LAMB state
        rows = np.unique(grad.rows)
        self._shard_update(self.plan.tables[shard.table].shards,
                           SparseGradient(
                               rows=rows, num_embeddings=h,
                               values=np.take(summed, rows, axis=0) / w))

    # ------------------------------------------------------------------
    # the step: every table, in table order
    # ------------------------------------------------------------------
    def forward(self, local_batches: List[MiniBatch], spans: bool = True
                ) -> Dict[str, np.ndarray]:
        """Every table's ``(W, B, D)`` pooled lookups, each
        table under a ``trainer.table_fwd`` span if ``spans`` (train path).

        A local batch without some table's sparse feature, or with
        another sample count than rank 0's, raises ``ValueError`` before
        any collective runs. Then the index pass stacks the ranks'
        lengths matrices into every table's ``(W, B)`` bag lengths,
        prepares every table's payloads at once, and each table runs its
        collectives and shard lookups in table order."""
        names = [t.name for t in self.config.tables]
        local_batch = local_batches[0].batch_size
        for r, batch in enumerate(local_batches):
            for name in names:
                if name not in batch.keys:
                    raise ValueError(f"rank {r}'s local batch has no "
                                     f"sparse feature for table {name}")
            if batch.batch_size != local_batch:
                raise ValueError(
                    f"rank {r}'s local batch holds {batch.batch_size} "
                    f"samples, rank 0's {local_batch}")
        inputs = {name: [b.feature(name) for b in local_batches]
                  for name in names}
        lengths = np.stack([b.lengths[[b.keys.index(name) for name in names]]
                            for b in local_batches], axis=1)
        row_wise = self._row_wise_payloads(inputs, lengths)
        pooled: Dict[str, np.ndarray] = {}
        for i, t in enumerate(self.config.tables):
            table_plan = self.plan.tables[t.name]
            with self.tracer.span("trainer.table_fwd", cat="trainer",
                                  table=t.name,
                                  scheme=table_plan.scheme.value) \
                    if spans else nullcontext():
                if table_plan.scheme == ShardingScheme.DATA_PARALLEL:
                    pooled[t.name] = self._forward_data_parallel(
                        table_plan.shards[0], inputs[t.name], lengths[i])
                elif t.name in row_wise:
                    pooled[t.name] = self._forward_row_wise(
                        t, *row_wise[t.name], local_batch)
                else:
                    pooled[t.name] = self._forward_column_wise(
                        table_plan.shards, inputs[t.name], lengths[i],
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
        """The full (H, D) weight of one table, a copy: every stored
        table holds all rows of its column range."""
        return np.concatenate([self.shard_tables[s].weight
                               for s in self._stored(name)], axis=1)

    def read(self, name: str) -> np.ndarray:
        """The full (H, D) weight of one table, read-only and copied only
        where it must be: the stored table's own rows when one stored
        table holds every column (a table-wise, row-wise or data-parallel
        table), else :meth:`gather`'s concatenation of the column
        slices."""
        stored = self._stored(name)
        if len(stored) > 1:
            return self.gather(name)
        rows = self.shard_tables[stored[0]].weight.view()
        rows.flags.writeable = False
        return rows

    def _stored(self, name: str) -> List[Shard]:
        """One shard of each stored table of table ``name``, by column."""
        return sorted({s.col_range: s for s in self.plan.tables[name].shards
                       }.values(), key=lambda s: s.col_range)

    def load(self, tables: Dict[str, List[Tuple[np.ndarray, np.ndarray]]]
             ) -> None:
        """Overwrite every stored table from a checkpoint chain:
        ``tables[name]`` holds table ``name``'s ``(rows, values)``
        payloads, oldest first, later rows overriding earlier ones.

        The whole chain is checked before any shard is written: every
        row of every table must be restored, rows must lie in ``[0, H)``
        and values must be ``(len(rows), D)``. A failure raises
        ``ValueError`` naming the table."""
        for name, weight in self._restored(tables).items():
            for shard in self._stored(name):
                self.shard_tables[shard].weight[...] = \
                    weight[:, slice(*shard.col_range)]

    def _restored(self, tables) -> Dict[str, np.ndarray]:
        """Every table's full weight from a checkpoint chain, checked."""
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
        return full

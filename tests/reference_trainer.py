"""The looped trainer the product is tested against, never imported by it.

``LoopedNeoTrainer`` is the per-rank execution the rank-stacked
``repro.core.NeoTrainer`` replaced: every rank owns its dense storage
and its own dense optimizer, and every dense phase — bottom/top MLP,
interaction, loss, backward, the bucketed AllReduce and the optimizer
step — is a python loop over ranks, whose per-rank inputs are stacked
only to enter a collective. Its sparse half is a
``LoopedSparseExchange``: every row-wise shard is a table of its own,
looked up, copied into the ReduceScatter stack, merged and stepped once
per shard, where the product stores, looks up, merges and steps each
row-wise table once; the row-wise gradient is gathered from and
concatenated for each shard, and the row-wise index payloads come from
the per-(table, source rank) bucketize loop
(:func:`looped_row_wise_payloads`, with the mask-loop kernel of
``reference_kernels.py``) that the product's one combined pass
replaced, built as ``[src][dst]`` slices. Every rank owns, looks up and
steps its own copy of a data-parallel table, densifies its gradient
with the row-wise scatter of ``reference_kernels.py`` and sums the R
gradients in one AllReduce, where the product keeps one table. Its
``gather`` and ``load`` assemble and cut each shard's own block. It
shares everything else (sharding, the other schemes' exchanges, embedding
forward/backward, sparse updates, spans, checkpoint layout) with the
product by inheritance.

``test_trainer_stacked.py`` fuzzes the product against it bitwise
(losses, dense parameters, tables, wire bytes, modeled seconds, eval
outputs), ``test_core_checkpoint.py`` moves checkpoints between the two,
and ``benchmarks/bench_rank_stacked.py`` times it as the looped baseline
(run from the repository root with ``PYTHONPATH=src:.``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

import numpy as np

from repro import nn
from repro.core import NeoTrainer
from repro.comms import AlltoAllKind
from repro.comms.collectives import rank_rows
from repro.core.exchange import SparseExchange
from repro.embedding import SparseGradient
from repro.embedding.table import lengths_to_offsets
from repro.models import DLRM
from repro.sharding import ShardingScheme

from .reference_comms import to_buffer
from .reference_kernels import bucketize_sparse_reference, to_dense_reference

# schemes whose tables the product stores once and the oracle per shard
_PER_SHARD = (ShardingScheme.ROW_WISE, ShardingScheme.TABLE_ROW_WISE,
              ShardingScheme.DATA_PARALLEL)


def looped_row_wise_payloads(exchange: SparseExchange, inputs) -> dict:
    """Every row-wise table's shards (in row order) and its ``[src][dst]``
    ids and lengths payloads, one bucketize per (table, source rank).

    ``inputs[name][src]`` is source rank ``src``'s ``(ids, offsets)``;
    the result has the shape of ``SparseExchange._row_wise_payloads``
    with each ``(send buffer, splits)`` payload as its list of slices.
    """
    w = exchange.world_size
    out = {}
    for t in exchange.config.tables:
        table_plan = exchange.plan.tables[t.name]
        if table_plan.scheme not in (ShardingScheme.ROW_WISE,
                                     ShardingScheme.TABLE_ROW_WISE):
            continue
        ordered = tuple(sorted(table_plan.shards, key=lambda s: s.row_range))
        boundaries = [s.row_range[0] for s in ordered] \
            + [ordered[-1].row_range[1]]
        empty = np.zeros(0, dtype=np.int64)
        payload_ids = [[empty for _ in range(w)] for _ in range(w)]
        payload_lengths = [[empty for _ in range(w)] for _ in range(w)]
        for src in range(w):
            ids, offsets = inputs[t.name][src]
            buckets = bucketize_sparse_reference(
                ids, np.diff(offsets).astype(np.int64), boundaries)
            for shard, (b_ids, b_lengths) in zip(ordered, buckets):
                payload_ids[src][shard.rank] = b_ids
                payload_lengths[src][shard.rank] = b_lengths
        out[t.name] = (ordered, payload_ids, payload_lengths)
    return out


class LoopedSparseExchange(SparseExchange):
    """The per-(table, source rank) index payloads, a per-rank row-wise
    gradient AllGather, a table per row-wise shard, looked up, merged and
    stepped per shard, and one data-parallel table per rank."""

    def _build_shards(self, golden, metrics, representation_plan) -> None:
        super()._build_shards(golden, metrics, representation_plan)
        for t in self.config.tables:
            table_plan = self.plan.tables[t.name]
            if table_plan.scheme not in _PER_SHARD:
                continue
            one = self.shard_tables[table_plan.shards[0]]
            weight = golden.embeddings.table(t.name).weight
            for shard in table_plan.shards:
                r0, r1 = shard.row_range
                self.shard_tables[shard] = type(one)(
                    replace(one.config, name=f"{t.name}@{shard.rank}:{r0}-"
                            f"{r1}:0-{t.embedding_dim}",
                            num_embeddings=r1 - r0),
                    weight=weight[r0:r1])

    def gather(self, name):
        cfg = self.plan.tables[name].config
        full = np.zeros((cfg.num_embeddings, cfg.embedding_dim),
                        dtype=np.float32)
        for shard in self.plan.tables[name].shards:
            full[slice(*shard.row_range), slice(*shard.col_range)] = \
                self.shard_tables[shard].weight
        return full

    def load(self, tables) -> None:
        full = self._restored(tables)
        for shard, table in self.shard_tables.items():
            table.weight = full[shard.table][
                slice(*shard.row_range), slice(*shard.col_range)].copy()

    def _replicas(self, shard):
        by_rank = {s.rank: s for s in self.plan.tables[shard.table].shards}
        return [by_rank[r] for r in range(self.world_size)]

    def _forward_data_parallel(self, shard, inputs,
                               lengths) -> List[np.ndarray]:
        return [self._shard_forward((replica,), *inputs[r])
                for r, replica in enumerate(self._replicas(shard))]

    def _backward_data_parallel(self, shard, d_pooled) -> None:
        w = self.world_size
        replicas = self._replicas(shard)
        grads = [self.shard_tables[replica].backward(d_pooled[r])
                 for r, replica in enumerate(replicas)]
        summed = self.pg.all_reduce(
            np.stack([to_dense_reference(g) for g in grads])).output
        rows = np.unique(np.concatenate([g.rows for g in grads]))
        for r, replica in enumerate(replicas):
            self._shard_update((replica,), SparseGradient(
                rows=rows, values=np.take(summed[r], rows, axis=0) / w,
                num_embeddings=summed[r].shape[0]))

    def _row_wise_payloads(self, inputs, lengths) -> dict:
        return {name: (shards, to_buffer(ids), to_buffer(lengths))
                for name, (shards, ids, lengths)
                in looped_row_wise_payloads(self, inputs).items()}

    def _forward_row_wise(self, table, shards, ids, lengths, local_batch):
        w = self.world_size
        arrived_ids = self.pg.all_to_all(*ids, kind=AlltoAllKind.INDEX)
        arrived_lengths = self.pg.all_to_all(*lengths,
                                             kind=AlltoAllKind.INDEX)
        id_counts, bag_counts = ids[1].sum(axis=0), lengths[1].sum(axis=0)
        # owners compute partial pooled sums for the global batch; ranks
        # without a shard contribute zeros
        partials = np.zeros((w, w * local_batch, table.embedding_dim),
                            dtype=np.float32)
        for shard in shards:
            partials[shard.rank] = self._shard_forward(
                (shard,), rank_rows(arrived_ids.output, id_counts, shard.rank),
                lengths_to_offsets(rank_rows(arrived_lengths.output,
                                             bag_counts, shard.rank)))
        return self.pg.reduce_scatter(partials).output

    def _backward_row_wise(self, shards, d_pooled) -> None:
        w = self.world_size
        gathered = self.pg.all_gather(np.stack([d / w for d in d_pooled]))
        for shard in shards:
            d_global = np.concatenate(list(gathered.output),
                                      axis=0).astype(np.float32)
            self._shard_update((shard,), d_global)


class LoopedNeoTrainer(NeoTrainer):
    """One replica, one optimizer and one python call per rank per phase."""

    def __init__(self, config, plan, topology, dense_optimizer,
                 sparse_optimizer, **kwargs) -> None:
        super().__init__(config, plan, topology, dense_optimizer,
                         sparse_optimizer, **kwargs)
        # give every replica storage of its own (the product's ranks
        # r >= 1 are read-only views of rank 0's)
        for state in self.ranks:
            for p in state.dense_parameters():
                p.data = p.data.copy()
        self.rank_optimizers = [dense_optimizer(state.dense_parameters())
                                for state in self.ranks]
        # checkpoints read rank 0's slots through trainer.dense_opt
        self.dense_opt = self.rank_optimizers[0]
        self._interactions = [config.make_interaction() for _ in self.ranks]
        self._losses = [nn.BCEWithLogitsLoss() for _ in self.ranks]
        # the same shards, cut from the same golden tables
        self.exchange = LoopedSparseExchange(
            config, plan, DLRM(config, seed=kwargs.get("seed", 0)), self.pg,
            sparse_optimizer, self.tracer, self.metrics,
            kwargs.get("representation_plan"))

    def _bottom_forward(self, local_batches) -> List[np.ndarray]:
        return [state.bottom.forward(batch.dense)
                for state, batch in zip(self.ranks, local_batches)]

    def _interaction_forward(self, dense_out, pooled) -> List[np.ndarray]:
        interacted = []
        for r, state in enumerate(self.ranks):
            features = [dense_out[r]]
            for t in self.config.tables:
                value = pooled[t.name][r]
                if t.name in state.projections:
                    value = state.projections[t.name].forward(value)
                features.append(value)
            interacted.append(self._interactions[r].forward_list(features))
        return interacted

    def _top_forward(self, interacted) -> List[np.ndarray]:
        return [state.top.forward(x)[:, 0]
                for state, x in zip(self.ranks, interacted)]

    def _loss_forward(self, logits, local_batches) -> List[float]:
        return [loss.forward(z, batch.labels) for loss, z, batch
                in zip(self._losses, logits, local_batches)]

    def _dense_backward(self) -> Dict[str, np.ndarray]:
        d_pooled: Dict[str, List[np.ndarray]] = {
            t.name: [] for t in self.config.tables}
        for r, state in enumerate(self.ranks):
            for p in state.dense_parameters():
                p.zero_grad()
            d_logits = self._losses[r].backward()[:, None]
            d_inter = state.top.backward(d_logits)
            d_features = self._interactions[r].backward_list(d_inter)
            state.bottom.backward(d_features[0])
            for i, t in enumerate(self.config.tables):
                grad = d_features[1 + i]
                if t.name in state.projections:
                    grad = state.projections[t.name].backward(grad)
                d_pooled[t.name].append(grad)
        # the sparse half takes each table's gradient as one (R, B, D)
        # array, as the product hands it over
        return {name: np.stack(grads) for name, grads in d_pooled.items()}

    def _dense_allreduce(self) -> List[List[np.ndarray]]:
        w = self.world_size
        flat_per_rank = [
            self._bucketer.flatten([p.grad for p in state.dense_parameters()])
            for state in self.ranks]
        for b in range(self._bucketer.num_buckets):
            reduced = self.pg.all_reduce(np.stack([flat_per_rank[r][b]
                                                   for r in range(w)])).output
            for r in range(w):
                flat_per_rank[r][b] = reduced[r]
        return flat_per_rank

    def _optimizer_step(self, reduced) -> List[nn.Parameter]:
        w = self.world_size
        for state, opt, flats in zip(self.ranks, self.rank_optimizers,
                                     reduced):
            for p, g in zip(state.dense_parameters(),
                            self._bucketer.unflatten(flats)):
                p.grad = (g / w).astype(np.float32)
            opt.step()
        return self.ranks[0].dense_parameters()

    def load_dense_state(self, dense, opt_state) -> None:
        for state, opt in zip(self.ranks, self.rank_optimizers):
            for i, p in enumerate(state.dense_parameters()):
                p.data = dense[i].copy()
                slot = opt.state_for(p)
                slot.clear()
                for name, value in opt_state.get(i, {}).items():
                    slot[name] = value.copy()

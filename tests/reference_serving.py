"""Reference serving paths the product is tested against, never imported
by it.

Each function here is the straightforward form a serving fast path
replaced; ``test_serving_fast_paths.py`` holds the product to bitwise
equality with it:

* ``service_time_reference`` re-derives every term of
  :meth:`ServingPerfModel.service_time` from ``model.config`` on each
  call. The product hoists the per-model constants and memoises the
  batch-size-only terms.
* ``concat_reference`` takes one ``np.diff`` per batch per feature. The
  product differences the concatenated offsets once.
* ``ReferenceFreqAwareCache`` scans ``fill_counts`` for an empty chunk
  on every miss, walks the ids as numpy scalars and reads each missing
  row through ``read_rows``, counting as it goes. The product keeps a
  count of empty chunks and adds its counters once per call.
* ``forward_reference``/``predict_reference`` run the embedding half of
  one coalesced dispatch table by table: one ``dedup_forward`` (a gather
  of each unique row, then a broadcast) per hot table (one fused forward without dedup), one cache read per cold table
  and one contraction per TT table. The product pools a whole window of
  dispatches at once (``ServableModel.embed``).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from repro.cache import FreqAwareCache
from repro.data import MiniBatch
from repro.data.formats import host_transfer_time
from repro.embedding import EmbeddingTable, lengths_to_offsets
from repro.embedding.dedup import dedup_cache_read
from repro.embedding.kernels import segment_sum
from repro.nn import functional as F
from repro.perf.embedding_bw import embedding_lookup_time
from repro.perf.gemm import mlp_time
from repro.serving.server import _EMB_LOOKUP_PRECISION


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


def concat_reference(batches: Sequence[MiniBatch]) -> MiniBatch:
    """Coalesce batches with one ``np.diff`` per batch per feature."""
    sparse = {}
    for name in batches[0].sparse:
        ids = np.concatenate([b.sparse[name][0] for b in batches])
        lengths = np.concatenate(
            [np.diff(b.sparse[name][1]) for b in batches])
        sparse[name] = (ids, lengths_to_offsets(lengths))
    return MiniBatch(
        dense=np.concatenate([b.dense for b in batches], axis=0),
        sparse=sparse,
        labels=np.concatenate([b.labels for b in batches]))


class ReferenceFreqAwareCache(FreqAwareCache):
    """:class:`FreqAwareCache` with the miss path that scans
    ``fill_counts`` for a free chunk on every admission check."""

    def _has_free_slot(self) -> bool:
        if self._open is not None \
                and self._fill_counts[self._open] < self.chunk_rows:
            return True
        return bool(np.any(self._fill_counts == 0))

    def _admission_ok(self, row_id: int) -> bool:
        if self._has_free_slot():
            return True
        victim_avg = float(np.min(self._scores)) / self.chunk_rows
        return self._freq.get(row_id, 0) >= victim_avg

    def read(self, row_ids, backing):
        out = np.empty((len(row_ids), self.row_dim), dtype=np.float32)
        for i, row_id in enumerate(np.asarray(row_ids, dtype=np.int64)):
            row_id = int(row_id)
            freq = self._freq[row_id] = self._freq.get(row_id, 0) + 1
            loc = self._loc.get(row_id)
            if loc is not None:
                self.stats.hits += 1
                self._scores[loc[0]] += 1.0
                out[i] = self._data[loc]
            else:
                self.stats.misses += 1
                value = backing.read_rows(
                    np.array([row_id], dtype=np.int64))[0]
                self.stats.fills += 1
                if self._admission_ok(row_id):
                    self._admit(row_id, value, dirty=False,
                                backing=backing, score=float(freq))
                out[i] = value
        return out


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
        out = segment_sum(rows[inverse], offsets)
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
    elif table.dedup:
        rows, unique_count = dedup_cache_read(
            table.cache, indices, table.backing)
        table.rows_requested += len(indices)
        table.rows_read += unique_count
    else:
        rows = table.cache.read(indices, table.backing)
        table.rows_requested += len(indices)
        table.rows_read += len(indices)
    out = segment_sum(rows, offsets)
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
    if model.hot_tables is not None:
        if model.dedup:
            for name in model.hot_table_names:
                indices, offsets = batch.sparse[name]
                pooled[name], unique_count = dedup_forward(
                    model.hot_tables.table(name), indices, offsets)
                model.dedup_rows_requested += len(indices)
                model.dedup_rows_read += unique_count
        else:
            hot_inputs = {name: batch.sparse[name]
                          for name in model.hot_table_names}
            pooled = model.hot_tables.forward(hot_inputs)
    for name, table in model.cold_tables.items():
        pooled[name] = _cold_forward_reference(table, *batch.sparse[name])
    for name, tt_table in model.tt_tables.items():
        pooled[name] = _tt_forward_reference(tt_table, *batch.sparse[name])
    return pooled


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

"""The embedding "megatable" arena: one weight array per dimension group.

The paper's headline operator win (Section 4.1.1, up to 7x) comes from
fusing the ~1000s of per-table ``EmbeddingBag`` kernels of a DLRM into a
single batched FBGEMM kernel. The numpy analogue of a kernel launch is a
ufunc dispatch, and the analogue of the fusion is this arena: all tables
that share an embedding dimension ``D`` are packed into one contiguous
``(sum(H_t), D)`` array with per-table base-row offsets, so a multi-table
pooled forward is

* **one** fancy-index gather over the base-rebased indices of every
  table, and
* **one** ``np.add.reduceat`` segment-sum over the concatenated jagged
  offsets,

instead of a Python loop issuing two dispatches per table. The fused
backward builds a single arena-global COO gradient (one gather), and the
fused backward+optimizer merges it with a single sort-and-reduce
(``merge_sorted_coo``: one ``(row, g[0])`` sort, tie refinement, one
reduceat) across all tables of the group before applying the exact
sparse update table-by-table (optimizer state stays per-table).

Tables keep their identity: each :class:`EmbeddingTable`'s ``.weight``
is re-pointed to a *view* of the arena storage, so per-table reads,
per-table optimizers and checkpointing all keep working — and any update
made through a table is immediately visible to the arena (and vice
versa). If external code rebinds a table's ``weight`` attribute (e.g. a
checkpoint restore), the arena detects the identity change on the next
call and re-packs that table's rows.

Bit parity with the per-table path is exact, not approximate: reduceat's
within-segment reduction order depends only on the segment contents, so
pooling table ``t``'s bags inside the concatenated arena batch produces
the same bits as pooling them alone, and the group-global gradient merge
produces the same per-table merged gradients as per-table merges (global
row ids are disjoint across tables). ``tests/test_embedding_arena.py``
asserts both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import merge_sorted_coo, rebase_jagged, segment_sum_gather
from .optim import SparseOptimizer
from .table import EmbeddingTable, SparseGradient

__all__ = ["EmbeddingArena", "DimGroup"]


@dataclass
class DimGroup:
    """All tables of one embedding dimension, packed contiguously."""

    dim: int
    tables: List[EmbeddingTable]
    storage: np.ndarray                    # (sum(H_t), dim) float32
    bases: np.ndarray                      # (T,) first arena row per table
    views: List[np.ndarray] = field(default_factory=list)
    # forward context for the fused backward: (global_indices,
    # per-table local indices/offsets/lengths, per-table batch sizes)
    ctx: Optional[tuple] = None

    @property
    def num_rows(self) -> int:
        return self.storage.shape[0]


class EmbeddingArena:
    """Packs same-``D`` embedding tables into single-dispatch megatables.

    One :class:`DimGroup` per distinct embedding dimension; a collection
    with uniform ``D`` (the common DLRM configuration) runs its entire
    multi-table forward in one gather + one segment-reduce.
    """

    def __init__(self, tables: Sequence[EmbeddingTable]) -> None:
        if not tables:
            raise ValueError("need at least one table")
        by_dim: Dict[int, List[EmbeddingTable]] = {}
        for t in tables:
            by_dim.setdefault(t.config.embedding_dim, []).append(t)
        self.groups: List[DimGroup] = []
        self._group_of: Dict[str, DimGroup] = {}
        for dim, group_tables in by_dim.items():
            heights = [t.config.num_embeddings for t in group_tables]
            bases = np.zeros(len(heights), dtype=np.int64)
            np.cumsum(heights[:-1], out=bases[1:])
            storage = np.empty((int(sum(heights)), dim), dtype=np.float32)
            group = DimGroup(dim=dim, tables=group_tables, storage=storage,
                             bases=bases)
            for t, base in zip(group_tables, bases):
                view = storage[base:base + t.config.num_embeddings]
                view[:] = t.weight
                t.weight = view
                group.views.append(view)
            self.groups.append(group)
            for t in group_tables:
                self._group_of[t.name] = group

    @property
    def num_groups(self) -> int:
        """True dispatch count of one fused forward (1 if uniform D)."""
        return len(self.groups)

    def memory_bytes(self) -> int:
        return sum(g.storage.nbytes for g in self.groups)

    def _sync(self, group: DimGroup) -> None:
        """Re-pack any table whose ``weight`` was rebound externally."""
        for i, t in enumerate(group.tables):
            if t.weight is not group.views[i]:
                group.views[i][:] = t.weight
                t.weight = group.views[i]

    # ------------------------------------------------------------------
    # fused forward
    # ------------------------------------------------------------------
    def forward(self, batch: Dict[str, Tuple[np.ndarray, np.ndarray]]
                ) -> Dict[str, np.ndarray]:
        """Pooled lookup for every table: one gather + one segment-reduce
        per dimension group.

        Also primes each table's saved backward state, so per-table
        ``table.backward`` remains valid after an arena forward.
        """
        out: Dict[str, np.ndarray] = {}
        for group in self.groups:
            self._sync(group)
            inputs = []
            for t in group.tables:
                indices, offsets = batch[t.name]
                indices = np.asarray(indices, dtype=np.int64)
                offsets = np.asarray(offsets, dtype=np.int64)
                t._validate(indices, offsets)
                inputs.append((indices, offsets))
            gidx, goff, _ = rebase_jagged(inputs, group.bases)
            pooled = segment_sum_gather(group.storage, gidx, goff)
            lengths_list = []
            bag_start = 0
            for t, (indices, offsets) in zip(group.tables, inputs):
                num_bags = len(offsets) - 1
                lengths = np.diff(offsets)
                lengths_list.append(lengths)
                table_out = pooled[bag_start:bag_start + num_bags]
                if t.config.pooling_mode == "mean":
                    table_out /= np.maximum(lengths, 1).astype(
                        np.float32)[:, None]
                out[t.name] = table_out
                t._saved = (indices, None, lengths)
                bag_start += num_bags
            group.ctx = (gidx, inputs, lengths_list,
                         [len(o) - 1 for _, o in inputs])
        return out

    # ------------------------------------------------------------------
    # fused backward
    # ------------------------------------------------------------------
    def _group_grad(self, group: DimGroup,
                    d_pooled: Dict[str, np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One arena-global COO gradient for a whole dimension group.

        Returns ``(global_rows, values, nnz_per_table)``. The values
        array is the concatenated gradient of every table in the group;
        it is written one table-segment at a time so each gather reads a
        cache-resident ``(B, D)`` upstream gradient (building it through
        one group-global fancy index instead measures ~3x slower — the
        source never fits in cache), but the result is a single COO the
        segmented merge consumes in one call.
        """
        if group.ctx is None:
            raise RuntimeError("backward called before forward")
        gidx, inputs, lengths_list, _ = group.ctx
        counts = np.array([len(idx) for idx, _ in inputs], dtype=np.int64)
        values = np.empty((int(counts.sum()), group.dim), dtype=np.float32)
        nnz_start = 0
        for t, (indices, _), lengths in zip(group.tables, inputs,
                                            lengths_list):
            nnz = len(indices)
            if nnz:
                dy = np.ascontiguousarray(d_pooled[t.name],
                                          dtype=np.float32)
                bag_ids = np.repeat(
                    np.arange(len(lengths), dtype=np.int64), lengths)
                segment = values[nnz_start:nnz_start + nnz]
                np.take(dy, bag_ids, axis=0, out=segment)
                if t.config.pooling_mode == "mean":
                    denom = np.maximum(lengths, 1).astype(np.float32)
                    segment /= denom[bag_ids][:, None]
            nnz_start += nnz
        return gidx, values, counts

    def backward(self, d_pooled: Dict[str, np.ndarray]
                 ) -> Dict[str, SparseGradient]:
        """Per-table sparse gradients from one fused gather per group."""
        grads: Dict[str, SparseGradient] = {}
        for group in self.groups:
            _, values, counts = self._group_grad(group, d_pooled)
            nnz_start = 0
            gidx, inputs = group.ctx[0], group.ctx[1]
            for t, (indices, _), nnz in zip(group.tables, inputs, counts):
                grads[t.name] = SparseGradient(
                    rows=indices,
                    values=values[nnz_start:nnz_start + int(nnz)],
                    num_embeddings=t.config.num_embeddings)
                nnz_start += int(nnz)
        return grads

    def backward_and_update(self, d_pooled: Dict[str, np.ndarray],
                            optimizer: SparseOptimizer) -> Dict[str, int]:
        """Fused backward + exact sparse optimizer: one COO build and one
        sort-and-reduce merge per dimension group (Section 4.1.1/4.1.2).

        The merged group gradient is split at table base boundaries
        (unique rows are sorted, bases are sorted, so each table's rows
        are one contiguous slice) and the optimizer applies each table's
        pre-merged slice — bitwise the per-table ``step`` result, without
        ever materializing more than one group's gradient. Returns the
        number of unique updated rows per table.
        """
        updated: Dict[str, int] = {}
        for group in self.groups:
            rows, values, counts = self._group_grad(group, d_pooled)
            nnz_offsets = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=nnz_offsets[1:])
            merged_rows, merged_vals = merge_sorted_coo(
                rows, values, segment_offsets=nnz_offsets)
            splits = np.searchsorted(merged_rows, np.append(group.bases,
                                                            group.num_rows))
            for i, t in enumerate(group.tables):
                lo, hi = int(splits[i]), int(splits[i + 1])
                optimizer.apply_merged(
                    t, merged_rows[lo:hi] - group.bases[i],
                    merged_vals[lo:hi])
                updated[t.name] = hi - lo
        return updated

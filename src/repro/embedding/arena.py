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
* **one** segment-sum over the concatenated jagged offsets
  (:func:`~repro.embedding.kernels.segment_sum_gather`),

instead of a Python loop issuing two dispatches per table. The fused
backward+optimizer never gathers: each table's gradient stays in bag form
(its ``(B_t, D)`` upstream gradient plus per-entry bag ids) and is merged
by one integer-key sort-and-reduce (``merge_sorted_coo``: one int64 sort
keyed on ``(row, bag rank)``, one segment-sum of the sorted bags) before the
exact sparse update is applied (optimizer state stays per-table). The
merge runs table by table because table row ranges are disjoint — a
group-wide merge would be the concatenation of the per-table ones — and
cache-sized sorts are the faster way to get it.

Tables keep their identity: each :class:`EmbeddingTable`'s ``.weight``
is re-pointed to a *view* of the arena storage, so per-table reads,
per-table optimizers and checkpointing all keep working — and any update
made through a table is immediately visible to the arena (and vice
versa). If external code rebinds a table's ``weight`` attribute (e.g. a
checkpoint restore), the arena detects the identity change on the next
call and re-packs that table's rows.

Bit parity with the per-table path is exact, not approximate: a
segment's reduction order depends only on the segment contents, so
pooling table ``t``'s bags inside the concatenated arena batch produces
the same bits as pooling them alone, and the backward builds each
table's gradient from the same saved state a per-table forward leaves.
``tests/test_embedding_arena.py`` asserts both against the per-table
loop in ``tests/reference_kernels.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .kernels import (mean_pool, merge_sorted_coo, rebase_jagged,
                      segment_sum_gather)
from .optim import SparseOptimizer
from .table import EmbeddingTable, SparseGradient, pooled_backward

__all__ = ["EmbeddingArena", "DimGroup"]


@dataclass
class DimGroup:
    """All tables of one embedding dimension, packed contiguously."""

    dim: int
    tables: List[EmbeddingTable]
    storage: np.ndarray                    # (sum(H_t), dim) float32
    bases: np.ndarray                      # (T,) first arena row per table
    views: List[np.ndarray] = field(default_factory=list)

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
            bag_start = 0
            for t, (indices, offsets) in zip(group.tables, inputs):
                num_bags = len(offsets) - 1
                lengths = np.diff(offsets)
                table_out = pooled[bag_start:bag_start + num_bags]
                if t.config.pooling_mode == "mean":
                    mean_pool(table_out, lengths)
                out[t.name] = table_out
                t._saved = (indices, None, lengths)
                bag_start += num_bags
        return out

    # ------------------------------------------------------------------
    # fused backward
    # ------------------------------------------------------------------
    def backward(self, d_pooled: Dict[str, np.ndarray]
                 ) -> Dict[str, SparseGradient]:
        """Per-table bag-form sparse gradients from the saved forward
        state: each table's ``(B_t, D)`` upstream gradient plus per-entry
        bag ids — no gather, no per-entry ``(N, D)`` array."""
        return {t.name: pooled_backward(t, d_pooled[t.name])
                for group in self.groups for t in group.tables}

    def backward_and_update(self, d_pooled: Dict[str, np.ndarray],
                            optimizer: SparseOptimizer) -> Dict[str, int]:
        """Fused backward + exact sparse optimizer (Section 4.1.1/4.1.2):
        each table's bag-form gradient is merged by one integer-key
        sort-and-reduce and applied, without ever building a per-entry
        ``(N, D)`` gradient. Returns the unique updated rows per table.

        The merge runs per table, not once over the group's arena-global
        rows: table row ranges are disjoint, so the group merge is the
        concatenation of the per-table merges bit for bit, and cache-sized
        sorts beat one group-wide sort (measured in
        ``docs/performance.md``).
        """
        updated: Dict[str, int] = {}
        for group in self.groups:
            for t in group.tables:
                grad = pooled_backward(t, d_pooled[t.name])
                rows, merged = merge_sorted_coo(grad.rows, grad.values,
                                                grad.bag_ids)
                optimizer.apply_merged(t, rows, merged)
                updated[t.name] = len(rows)
        return updated

"""Per-table id-frequency statistics for frequency-aware caching.

The ingestion tier sees every sparse id before the trainer does, so the
access skew that :class:`repro.cache.FreqAwareCache` exploits can be
measured for free while batches stream through the reader service
(hpcaitech's CacheEmbedding warms its chunked cache the same way). A
:class:`FrequencyStats` accumulates per-table histograms from
:class:`~repro.data.datagen.MiniBatch` sparse features (or raw id
arrays), merges across readers, and hands out dense histograms / top-id
rankings for cache warm-up.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List

import numpy as np

from .datagen import MiniBatch

__all__ = ["FrequencyStats"]


class FrequencyStats:
    """Streaming per-table id histograms.

    Counts are kept in plain dicts (id -> count) so tables with hundreds
    of millions of rows don't allocate dense arrays until a consumer
    asks for :meth:`histogram` over a known row count.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int))
        self.batches_observed = 0

    @property
    def tables(self) -> List[str]:
        return sorted(self._counts)

    def update(self, batch: MiniBatch) -> None:
        """Fold one batch's sparse ids into the histograms."""
        for name in batch.keys:
            self.update_ids(name, batch.feature(name)[0])
        self.batches_observed += 1

    def update_ids(self, table: str, ids: np.ndarray) -> None:
        """Fold a raw id array for ``table`` into its histogram."""
        uniq, counts = np.unique(np.asarray(ids, dtype=np.int64),
                                 return_counts=True)
        table_counts = self._counts[table]
        for row_id, count in zip(uniq, counts):
            table_counts[int(row_id)] += int(count)

    def merge(self, other: "FrequencyStats") -> None:
        """Fold another reader's statistics into this one."""
        for table, counts in other._counts.items():
            mine = self._counts[table]
            for row_id, count in counts.items():
                mine[row_id] += count
        self.batches_observed += other.batches_observed

    def total(self, table: str) -> int:
        """Total id occurrences observed for ``table``."""
        return sum(self._counts.get(table, {}).values())

    def histogram(self, table: str, num_rows: int) -> np.ndarray:
        """Dense ``(num_rows,)`` count array for ``table`` (the shape
        :meth:`repro.cache.FreqAwareCache.warm` expects)."""
        out = np.zeros(num_rows, dtype=np.int64)
        for row_id, count in self._counts.get(table, {}).items():
            if row_id >= num_rows:
                raise ValueError(
                    f"observed id {row_id} >= num_rows {num_rows} "
                    f"for table {table!r}")
            out[row_id] = count
        return out

    def top_ids(self, table: str, k: int) -> np.ndarray:
        """The ``k`` hottest ids for ``table``, hottest first (ties
        broken by id for determinism)."""
        counts = self._counts.get(table, {})
        ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
        vals = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
        order = np.lexsort((ids, -vals))
        return ids[order[:k]]

    def coverage(self, table: str, ids: Iterable[int]) -> float:
        """Fraction of observed accesses the given id set covers — the
        best-case hit rate of a cache holding exactly those ids."""
        counts = self._counts.get(table, {})
        total = sum(counts.values())
        if not total:
            return 0.0
        hot = sum(counts.get(int(i), 0) for i in ids)
        return hot / total

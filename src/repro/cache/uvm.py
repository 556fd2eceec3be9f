"""UVM-style page cache baseline (paper Section 4.1.3).

CUDA unified memory migrates *pages*, not rows: a miss on one row drags its
whole page across PCIe, and eviction throws away every row on the victim
page even if some are hot. The paper's argument for the custom software
cache is exactly this granularity mismatch, plus UVM being capped at PCIe
bandwidth. This class implements the :class:`repro.cache.RowCache`
protocol so it can be compared head-to-head with the row-granular caches
on identical access traces.

Stats note: ``fills`` in the shared :class:`CacheStats` counts *pages*
migrated on demand (the cache's native granularity); the historical
``pages_migrated`` attribute is now a read-only alias of it, so
``reset_stats()`` can no longer clear one counter and miss the other —
the drift the unified protocol removed.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .. import check
from .api import RowCacheBase
from .backing import ArrayBackingStore

__all__ = ["UVMPageCache"]


class UVMPageCache(RowCacheBase):
    """Fully-associative LRU cache at page granularity.

    Parameters
    ----------
    capacity_rows:
        Total rows the fast tier can hold (to compare like-for-like with a
        row cache of equal capacity).
    rows_per_page:
        Migration granularity. UVM pages are 2 MB; for a D=128 fp32 table
        that is 4096 rows per page.
    """

    def __init__(self, capacity_rows: int, row_dim: int,
                 rows_per_page: int = 64) -> None:
        check.count("rows_per_page", rows_per_page)
        check.count("capacity_rows", capacity_rows, low=rows_per_page)
        super().__init__()
        self.rows_per_page = rows_per_page
        self.capacity_pages = capacity_rows // rows_per_page
        self.row_dim = row_dim
        # page_id -> (data (rows_per_page, D), dirty flag)
        self._pages: Dict[int, np.ndarray] = {}
        self._dirty: Dict[int, bool] = {}
        self._lru: Dict[int, int] = {}
        self._clock = 0

    @property
    def capacity_rows(self) -> int:
        return self.capacity_pages * self.rows_per_page

    @property
    def pages_migrated(self) -> int:
        """Pages fetched from the slow tier (alias of ``stats.fills``)."""
        return self.stats.fills

    def _page_of(self, row_id: int) -> int:
        return int(row_id) // self.rows_per_page

    def _page_rows(self, page_id: int, backing: ArrayBackingStore) -> np.ndarray:
        start = page_id * self.rows_per_page
        stop = min(start + self.rows_per_page, backing.num_rows)
        return np.arange(start, stop, dtype=np.int64)

    def _evict_one(self, backing: ArrayBackingStore) -> None:
        victim = min(self._lru, key=self._lru.get)
        self.stats.evictions += 1
        if self._dirty[victim]:
            self.stats.writebacks += 1
            rows = self._page_rows(victim, backing)
            backing.write_rows(rows, self._pages[victim][:len(rows)])
        del self._pages[victim], self._dirty[victim], self._lru[victim]

    def _ensure_page(self, page_id: int, backing: ArrayBackingStore) -> None:
        if page_id in self._pages:
            return
        while len(self._pages) >= self.capacity_pages:
            self._evict_one(backing)
        rows = self._page_rows(page_id, backing)
        data = np.zeros((self.rows_per_page, self.row_dim), dtype=np.float32)
        data[:len(rows)] = backing.read_rows(rows)
        self._pages[page_id] = data
        self._dirty[page_id] = False
        self.stats.fills += 1

    def _touch(self, page_id: int) -> None:
        self._clock += 1
        self._lru[page_id] = self._clock

    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        ids = self._check_ids(row_ids, backing)
        out = np.empty((len(ids), self.row_dim), dtype=np.float32)
        for i, row_id in enumerate(ids):
            page = self._page_of(row_id)
            if page in self._pages:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                self._ensure_page(page, backing)
            self._touch(page)
            out[i] = self._pages[page][row_id % self.rows_per_page]
        return out

    def write(self, row_ids: np.ndarray, values: np.ndarray,
              backing: ArrayBackingStore) -> None:
        for i, row_id in enumerate(self._check_ids(row_ids, backing)):
            page = self._page_of(row_id)
            if page in self._pages:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                self._ensure_page(page, backing)
            self._touch(page)
            self._pages[page][row_id % self.rows_per_page] = values[i]
            self._dirty[page] = True

    def flush(self, backing: ArrayBackingStore) -> int:
        count = 0
        for page_id, dirty in list(self._dirty.items()):
            if dirty:
                rows = self._page_rows(page_id, backing)
                backing.write_rows(rows, self._pages[page_id][:len(rows)])
                self._dirty[page_id] = False
                self.stats.writebacks += 1
                count += 1
        return count

    def contains(self, row_id: int) -> bool:
        return self._page_of(row_id) in self._pages

    def prefetch_rows(self, row_ids: np.ndarray,
                      backing: ArrayBackingStore) -> int:
        """Stage the pages covering ``row_ids``; page migrations triggered
        here count as ``prefetched_rows`` (in rows), not as misses."""
        staged = 0
        ids = self._check_ids(row_ids, backing)
        for page in np.unique(ids // self.rows_per_page):
            page = int(page)
            if page in self._pages:
                continue
            self._ensure_page(page, backing)
            self._touch(page)
            rows = self.rows_per_page
            self.stats.prefetched_rows += rows
            staged += rows
        return staged

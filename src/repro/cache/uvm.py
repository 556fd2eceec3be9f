"""UVM-style page cache baseline (paper Section 4.1.3).

CUDA unified memory migrates *pages*, not rows: a miss on one row drags its
whole page across PCIe, and eviction throws away every row on the victim
page even if some are hot. The paper's argument for the custom software
cache is exactly this granularity mismatch, plus UVM being capped at PCIe
bandwidth. This class implements the :class:`repro.cache.RowCache`
protocol so it can be compared head-to-head with the row-granular caches
on identical access traces.

Stats note: ``fills`` in the shared :class:`CacheStats` counts *pages*
migrated on demand (the cache's native granularity), and each fill
counts the whole page's bytes (clipped to the table) against the backing
store.
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

    def __init__(self, capacity_rows: int,
                 rows_per_page: int = 64) -> None:
        check.count("rows_per_page", rows_per_page)
        check.count("capacity_rows", capacity_rows, low=rows_per_page)
        super().__init__()
        self.rows_per_page = rows_per_page
        self.capacity_pages = capacity_rows // rows_per_page
        # resident page_id -> last-access clock
        self._lru: Dict[int, int] = {}
        self._clock = 0

    @property
    def capacity_rows(self) -> int:
        return self.capacity_pages * self.rows_per_page

    def _fill(self, page_id: int, backing: ArrayBackingStore) -> None:
        """Migrate ``page_id`` in, evicting the least recently used page
        at capacity: the whole page (clipped to the table) moves."""
        if len(self._lru) >= self.capacity_pages:
            del self._lru[min(self._lru, key=self._lru.get)]
            self.stats.evictions += 1
        start = page_id * self.rows_per_page
        backing.count_read(min(self.rows_per_page, backing.num_rows - start))
        self.stats.fills += 1

    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        ids = self._check_ids(row_ids, backing)
        for page in (ids // self.rows_per_page).tolist():
            if page in self._lru:
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                self._fill(page, backing)
            self._clock += 1
            self._lru[page] = self._clock
        return backing.rows[ids]

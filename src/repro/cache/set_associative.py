"""32-way set-associative software cache for embedding rows (Section 4.1.3).

The paper replaces CUDA unified memory (UVM) with a custom software cache:

* **32-way set-associative**, matching the GPU warp size so one warp probes
  one set in parallel;
* **row granularity** — UVM moves large pages, evicting rows that are still
  hot just because they share a page with cold ones;
* **LRU or LFU** replacement, selectable per model.

This implementation is a functional model of residency: it keeps each
set's tags and replacement state, counts hits/misses/evictions/fills and
the bytes each fill moves, and returns exact rows straight from the
read-only backing store, so benchmarks can convert traffic into time via
the platform bandwidth model. The paper's write-back of updated rows is
not modelled: training tables live in HBM arenas here, and only the
frozen serving tables read through a cache.

It implements the :class:`repro.cache.RowCache` protocol; the constructor
form is ``capacity_rows=`` (or :func:`repro.cache.make_cache` with
``kind="set_associative"``).
"""

from __future__ import annotations

import numpy as np

from .. import check
from .api import CacheStats, RowCacheBase
from .backing import ArrayBackingStore

__all__ = ["CacheStats", "SetAssociativeCache"]


class SetAssociativeCache(RowCacheBase):
    """A set-associative row cache in front of a read-only backing store.

    Parameters
    ----------
    capacity_rows:
        Fast-tier capacity in rows (the :func:`repro.cache.make_cache`
        unit). ``ways`` is clamped to the capacity and the set count is
        ``capacity_rows // ways``.
    ways:
        Associativity; the paper uses 32 (one warp per set).
    policy:
        ``"lru"`` (least recently used) or ``"lfu"`` (least frequently
        used), the two policies of Section 4.1.3.
    """

    def __init__(self, *, capacity_rows: int, ways: int = 32,
                 policy: str = "lru") -> None:
        check.count("capacity_rows", capacity_rows)
        check.count("ways", ways)
        ways = min(ways, capacity_rows)
        num_sets = max(1, capacity_rows // ways)
        if policy not in ("lru", "lfu"):
            raise ValueError(f"policy must be 'lru' or 'lfu', got {policy!r}")
        super().__init__()
        self.num_sets = num_sets
        self.ways = ways
        self.policy = policy
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        # LRU: last-access clock; LFU: access count
        self.meta = np.zeros((num_sets, ways), dtype=np.int64)
        self._clock = 0

    @property
    def capacity_rows(self) -> int:
        return self.num_sets * self.ways

    def _set_index(self, row_id: int) -> int:
        return int(row_id) % self.num_sets

    def _touch(self, set_idx: int, way: int) -> None:
        if self.policy == "lru":
            self._clock += 1
            self.meta[set_idx, way] = self._clock
        else:  # lfu
            self.meta[set_idx, way] += 1

    def _find_way(self, set_idx: int, row_id: int) -> int:
        ways = np.nonzero(self.tags[set_idx] == row_id)[0]
        return int(ways[0]) if len(ways) else -1

    def _victim_way(self, set_idx: int) -> int:
        empty = np.nonzero(self.tags[set_idx] == -1)[0]
        if len(empty):
            return int(empty[0])
        return int(np.argmin(self.meta[set_idx]))

    def _fill(self, set_idx: int, row_id: int,
              backing: ArrayBackingStore) -> None:
        """Bring ``row_id`` into the set, evicting the replacement victim
        if needed: one row moves from ``backing``."""
        way = self._victim_way(set_idx)
        if self.tags[set_idx, way] != -1:
            self.stats.evictions += 1
        self.tags[set_idx, way] = row_id
        backing.count_read(1)
        self.stats.fills += 1
        if self.policy == "lfu":
            self.meta[set_idx, way] = 0
        self._touch(set_idx, way)

    # ------------------------------------------------------------------
    # public interface (RowCache protocol)
    # ------------------------------------------------------------------
    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        """Read rows through the cache; misses fill from ``backing``."""
        ids = self._check_ids(row_ids, backing)
        for row_id in ids:
            set_idx = self._set_index(row_id)
            way = self._find_way(set_idx, row_id)
            if way >= 0:
                self.stats.hits += 1
                self._touch(set_idx, way)
            else:
                self.stats.misses += 1
                self._fill(set_idx, row_id, backing)
        return backing.rows[ids]

"""32-way set-associative software cache for embedding rows (Section 4.1.3).

The paper replaces CUDA unified memory (UVM) with a custom software cache:

* **32-way set-associative**, matching the GPU warp size so one warp probes
  one set in parallel;
* **row granularity** — UVM moves large pages, evicting rows that are still
  hot just because they share a page with cold ones;
* **LRU or LFU** replacement, selectable per model;
* **write-back** with dirty tracking, so updated rows hit the slow tier
  once per eviction instead of once per step.

This implementation is a faithful functional model: it stores real row
data, returns exact values, and counts hits/misses/evictions/writebacks so
benchmarks can convert traffic into time via the platform bandwidth model.

It implements the :class:`repro.cache.RowCache` protocol; the constructor
form is ``capacity_rows=`` (or :func:`repro.cache.make_cache` with
``kind="set_associative"``). The pre-protocol ``num_sets=`` form was
removed after its deprecation window — passing it raises ``TypeError``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import check
from .api import CacheStats, RowCacheBase
from .backing import ArrayBackingStore

__all__ = ["CacheStats", "SetAssociativeCache"]


class SetAssociativeCache(RowCacheBase):
    """A set-associative, write-back row cache in front of a backing store.

    Parameters
    ----------
    capacity_rows:
        Fast-tier capacity in rows (the :func:`repro.cache.make_cache`
        unit). ``ways`` is clamped to the capacity and the set count is
        ``capacity_rows // ways``.
    row_dim:
        Row width ``D``; cached data is ``float32``.
    ways:
        Associativity; the paper uses 32 (one warp per set).
    policy:
        ``"lru"`` (least recently used) or ``"lfu"`` (least frequently
        used), the two policies of Section 4.1.3.
    """

    def __init__(self, row_dim: Optional[int] = None, ways: int = 32,
                 policy: str = "lru", *,
                 capacity_rows: Optional[int] = None) -> None:
        if row_dim is None:
            raise TypeError("row_dim is required")
        if capacity_rows is None:
            raise TypeError("capacity_rows is required")
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
        self.row_dim = row_dim
        self.tags = np.full((num_sets, ways), -1, dtype=np.int64)
        self.data = np.zeros((num_sets, ways, row_dim), dtype=np.float32)
        self.dirty = np.zeros((num_sets, ways), dtype=bool)
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
              backing: ArrayBackingStore) -> int:
        """Bring ``row_id`` into the set, evicting (and writing back) the
        replacement victim if needed. Returns the way used."""
        way = self._victim_way(set_idx)
        victim = self.tags[set_idx, way]
        if victim != -1:
            self.stats.evictions += 1
            if self.dirty[set_idx, way]:
                self.stats.writebacks += 1
                backing.write_rows(np.array([victim]),
                                   self.data[set_idx, way][None, :])
        self.tags[set_idx, way] = row_id
        self.data[set_idx, way] = backing.read_rows(np.array([row_id]))[0]
        self.dirty[set_idx, way] = False
        self.stats.fills += 1
        if self.policy == "lfu":
            self.meta[set_idx, way] = 0
        self._touch(set_idx, way)
        return way

    # ------------------------------------------------------------------
    # public interface (RowCache protocol)
    # ------------------------------------------------------------------
    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        """Read rows through the cache; misses fetch from ``backing``."""
        ids = self._check_ids(row_ids, backing)
        out = np.empty((len(ids), self.row_dim), dtype=np.float32)
        for i, row_id in enumerate(ids):
            set_idx = self._set_index(row_id)
            way = self._find_way(set_idx, row_id)
            if way >= 0:
                self.stats.hits += 1
                self._touch(set_idx, way)
            else:
                self.stats.misses += 1
                way = self._fill(set_idx, row_id, backing)
            out[i] = self.data[set_idx, way]
        return out

    def write(self, row_ids: np.ndarray, values: np.ndarray,
              backing: ArrayBackingStore) -> None:
        """Write rows through the cache (write-back, write-allocate)."""
        for i, row_id in enumerate(self._check_ids(row_ids, backing)):
            set_idx = self._set_index(row_id)
            way = self._find_way(set_idx, row_id)
            if way >= 0:
                self.stats.hits += 1
                self._touch(set_idx, way)
            else:
                self.stats.misses += 1
                way = self._fill(set_idx, row_id, backing)
            self.data[set_idx, way] = values[i]
            self.dirty[set_idx, way] = True

    def flush(self, backing: ArrayBackingStore) -> int:
        """Write back every dirty line; returns number written."""
        sets, ways = np.nonzero(self.dirty)
        for set_idx, way in zip(sets, ways):
            backing.write_rows(np.array([self.tags[set_idx, way]]),
                               self.data[set_idx, way][None, :])
            self.stats.writebacks += 1
        count = len(sets)
        self.dirty[:] = False
        return count

    def contains(self, row_id: int) -> bool:
        # empty ways hold tag -1, which is no row
        return row_id >= 0 and self._find_way(self._set_index(row_id),
                                              row_id) >= 0

    def prefetch_rows(self, row_ids: np.ndarray,
                      backing: ArrayBackingStore) -> int:
        """Stage rows ahead of use: misses fill without counting as
        misses (they were never demanded), so a later :meth:`read` of the
        same ids hits. Returns rows newly made resident."""
        staged = 0
        for row_id in np.unique(self._check_ids(row_ids, backing)):
            set_idx = self._set_index(row_id)
            if self._find_way(set_idx, row_id) >= 0:
                continue
            self._fill(set_idx, row_id, backing)
            self.stats.prefetched_rows += 1
            staged += 1
        return staged

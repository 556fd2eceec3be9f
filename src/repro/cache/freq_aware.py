"""Frequency-aware chunked embedding cache with pipelined prefetch.

The reactive caches in this package (set-associative LRU/LFU, the UVM
page baseline) learn the hot set by missing on it. But DLRM embedding
access is wildly skewed and *measurably* so — the ingestion pipeline sees
every id before the trainer does — so the hot set can be known up front.
This module implements the CacheEmbedding-style design the ROADMAP names
(hpcaitech ``freq_aware_embedding`` / ``chunk_param_mgr``), adapted to
this repo's exact-functional substrate:

* :class:`FreqAwareCache` packs rows into fixed-size **chunks ranked by
  id-frequency statistics**. Unlike UVM pages, chunks are not id-space
  aligned: :meth:`FreqAwareCache.warm` packs the hottest rows densely in
  rank order (hashed production ids scatter hot rows, so alignment is
  exactly what makes page caches thrash). Admission and eviction happen
  at chunk granularity — a victim chunk is the one whose member rows
  have the lowest accumulated frequency score.
* :class:`PrefetchPipeline` overlaps the remaining misses with compute:
  while batch ``k`` runs, the rows batch ``k+1`` needs are staged via
  :meth:`RowCache.prefetch_rows` inside a ``cache.prefetch`` span, and
  the pipeline accounts how much of the staging time hides under the
  compute window (the ``repro.obs`` spans carry the measured overlap;
  the benchmark prices exposed bytes at slow-tier bandwidth).

Both are exact: every read through the cache is bitwise identical to an
uncached :meth:`ArrayBackingStore.read_rows` (hypothesis-fuzzed in
``tests/test_cache_api.py``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from ..obs.tracer import as_tracer
from .api import RowCacheBase
from .backing import ArrayBackingStore

__all__ = ["FreqAwareCache", "PrefetchPipeline"]


class FreqAwareCache(RowCacheBase):
    """Chunk-based hot store ranked by id-frequency statistics.

    Parameters
    ----------
    capacity_rows:
        Fast-tier budget in rows; rounded down to whole chunks.
    row_dim:
        Row width ``D``; cached data is float32.
    chunk_rows:
        Rows per chunk — the admission/eviction granularity. Chunks
        amortize transfer setup (the real system moves chunks, not rows)
        while staying far below UVM page granularity.

    Rows are admitted into an *open* chunk as they miss; when it fills,
    the chunk is sealed and the next admission allocates a fresh chunk,
    evicting the lowest-score sealed chunk once capacity is reached. A
    chunk's score is the accumulated observed frequency of its member
    rows, seeded from the warm histogram when :meth:`warm` was used, so
    frequency-ranked hot chunks outlive reactively admitted cold ones.

    Admission is itself frequency-aware: once the cache is full, a
    missing row is only admitted (evicting the coldest chunk) when its
    observed access count has reached the victim chunk's per-row average
    score — one-touch tail ids read through without displacing
    ``chunk_rows`` warmer rows (the chunk-granularity analogue of cache
    bypass; an unwarmed cache starts with empty chunks, so it still
    fills reactively).
    """

    def __init__(self, capacity_rows: int, row_dim: int,
                 chunk_rows: int = 64) -> None:
        if capacity_rows <= 0:
            raise ValueError("capacity_rows must be positive")
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        super().__init__()
        self.chunk_rows = min(chunk_rows, capacity_rows)
        self.capacity_chunks = max(1, capacity_rows // self.chunk_rows)
        self.row_dim = row_dim
        shape = (self.capacity_chunks, self.chunk_rows)
        self._data = np.zeros(shape + (row_dim,), dtype=np.float32)
        self._row_ids = np.full(shape, -1, dtype=np.int64)
        self._dirty = np.zeros(shape, dtype=bool)
        self._fill_counts = np.zeros(self.capacity_chunks, dtype=np.int64)
        self._scores = np.zeros(self.capacity_chunks, dtype=np.float64)
        self._loc: Dict[int, Tuple[int, int]] = {}  # row_id -> (chunk, slot)
        self._freq: Dict[int, int] = {}  # observed access counts
        self._open: Optional[int] = None  # chunk currently accepting rows
        self._empty = self.capacity_chunks  # chunks with fill count 0
        self._min_chunk: Optional[int] = None  # lowest score, while known
        self.warmed_rows = 0

    @property
    def capacity_rows(self) -> int:
        return self.capacity_chunks * self.chunk_rows

    # ------------------------------------------------------------------
    # chunk management
    # ------------------------------------------------------------------
    def _evict_chunk(self, chunk: int, backing: ArrayBackingStore) -> None:
        """Drop every row of ``chunk``, writing back the dirty ones."""
        occupied = int(self._fill_counts[chunk])
        if occupied == 0:
            return
        dirty = np.nonzero(self._dirty[chunk, :occupied])[0]
        if len(dirty):
            backing.write_rows(self._row_ids[chunk, dirty],
                               self._data[chunk, dirty])
            self.stats.writebacks += len(dirty)
        for slot in range(occupied):
            del self._loc[int(self._row_ids[chunk, slot])]
        self.stats.evictions += occupied
        self._row_ids[chunk] = -1
        self._dirty[chunk] = False
        self._fill_counts[chunk] = 0
        self._scores[chunk] = 0.0
        self._empty += 1
        self._min_chunk = None

    def _alloc_chunk(self, backing: ArrayBackingStore) -> int:
        """A chunk with free slots: an empty one, else evict the coldest."""
        empty = np.nonzero(self._fill_counts == 0)[0]
        if len(empty):
            return int(empty[0])
        victim = int(np.argmin(self._scores))
        self._evict_chunk(victim, backing)
        return victim

    def _has_free_slot(self) -> bool:
        if self._open is not None \
                and self._fill_counts[self._open] < self.chunk_rows:
            return True
        return self._empty > 0

    def _admission_ok(self, row_id: int) -> bool:
        """Admit into free space always; once full, only when the row's
        observed frequency reaches the victim chunk's per-row average.
        The victim stays memoised until its own score moves or a chunk is
        evicted or warmed: a score rising elsewhere cannot undercut it."""
        if self._has_free_slot():
            return True
        if self._min_chunk is None:
            self._min_chunk = int(np.argmin(self._scores))
        victim_avg = float(self._scores[self._min_chunk]) / self.chunk_rows
        return self._freq.get(row_id, 0) >= victim_avg

    def _admit(self, row_id: int, value: np.ndarray, dirty: bool,
               backing: ArrayBackingStore, score: float) -> None:
        if self._open is None \
                or self._fill_counts[self._open] >= self.chunk_rows:
            self._open = self._alloc_chunk(backing)
        chunk = self._open
        slot = int(self._fill_counts[chunk])
        if slot == 0:
            self._empty -= 1
        self._row_ids[chunk, slot] = row_id
        self._data[chunk, slot] = value
        self._dirty[chunk, slot] = dirty
        self._fill_counts[chunk] = slot + 1
        self._scores[chunk] += score
        if chunk == self._min_chunk:
            self._min_chunk = None
        self._loc[row_id] = (chunk, slot)

    # ------------------------------------------------------------------
    # warm-up from frequency statistics
    # ------------------------------------------------------------------
    def warm(self, histogram: np.ndarray, backing: ArrayBackingStore,
             min_count: int = 1) -> int:
        """Pre-pack the hottest rows, chunk by chunk, in frequency order.

        ``histogram[i]`` is the observed (or estimated) access count of
        row ``i`` — from :class:`repro.data.FrequencyStats`, the ingestion
        pipeline, or any supplied estimate. Rows seen fewer than
        ``min_count`` times are not worth residency and are skipped.
        Returns the number of rows warmed. Warming evicts nothing it just
        loaded: it fills empty chunks only and stops at capacity.
        """
        histogram = np.asarray(histogram)
        if histogram.ndim != 1 or len(histogram) != backing.num_rows:
            raise ValueError(
                f"histogram must have one count per backing row "
                f"({backing.num_rows}), got shape {histogram.shape}")
        order = np.argsort(-histogram, kind="stable")
        order = order[histogram[order] >= min_count]
        order = np.array([i for i in order if int(i) not in self._loc],
                         dtype=np.int64)
        free_rows = self._empty * self.chunk_rows
        ids = order[:free_rows]
        for start in range(0, len(ids), self.chunk_rows):
            chunk_ids = ids[start:start + self.chunk_rows]
            chunk = self._alloc_chunk(backing)
            n = len(chunk_ids)
            self._row_ids[chunk, :n] = chunk_ids
            self._data[chunk, :n] = backing.read_rows(chunk_ids)
            self._fill_counts[chunk] = n
            self._empty -= 1
            self._scores[chunk] = float(histogram[chunk_ids].sum())
            self._min_chunk = None
            for slot, row_id in enumerate(chunk_ids):
                self._loc[int(row_id)] = (chunk, slot)
        self.warmed_rows += len(ids)
        self.stats.fills += len(ids)
        return len(ids)

    # ------------------------------------------------------------------
    # RowCache protocol
    # ------------------------------------------------------------------
    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        """Per id, in order: a hit scores its chunk; a miss may admit the
        row. Then one gather from ``backing``: a clean resident row equals
        its backing row, and a missed row's cannot change later in the
        call; dirty hits are patched with their value at the hit. The
        stats and the backing store's read bytes are added once."""
        ids = self._check_ids(row_ids, backing)
        freqs, locs, scores, data = self._freq, self._loc, self._scores, \
            self._data
        rows = backing.rows
        dirty = self._dirty if self._dirty.any() else None
        patches = []
        misses = 0
        for i, row_id in enumerate(ids.tolist()):
            freq = freqs[row_id] = freqs.get(row_id, 0) + 1
            loc = locs.get(row_id)
            if loc is not None:
                scores[loc[0]] += 1.0
                if loc[0] == self._min_chunk:
                    self._min_chunk = None
                if dirty is not None and dirty[loc]:
                    patches.append((i, data[loc].copy()))
            else:
                misses += 1
                if self._admission_ok(row_id):
                    self._admit(row_id, rows[row_id], dirty=False,
                                backing=backing, score=float(freq))
        out = rows[ids]
        for i, value in patches:
            out[i] = value
        self.stats.hits += len(ids) - misses
        self.stats.misses += misses
        self.stats.fills += misses
        backing.bytes_read += misses * backing.row_bytes
        return out

    def write(self, row_ids: np.ndarray, values: np.ndarray,
              backing: ArrayBackingStore) -> None:
        for i, row_id in enumerate(self._check_ids(row_ids, backing)):
            row_id = int(row_id)
            freq = self._freq[row_id] = self._freq.get(row_id, 0) + 1
            loc = self._loc.get(row_id)
            if loc is not None:
                self.stats.hits += 1
                self._scores[loc[0]] += 1.0
                if loc[0] == self._min_chunk:
                    self._min_chunk = None
                self._data[loc] = values[i]
                self._dirty[loc] = True
            elif self._admission_ok(row_id):
                # write-allocate: the full row is being replaced, so no
                # backing read is needed
                self.stats.misses += 1
                self._admit(row_id, values[i], dirty=True, backing=backing,
                            score=float(freq))
            else:
                # bypassed write goes straight through to the slow tier
                self.stats.misses += 1
                backing.write_rows(np.array([row_id], dtype=np.int64),
                                   values[i][None, :])

    def flush(self, backing: ArrayBackingStore) -> int:
        count = 0
        for chunk in range(self.capacity_chunks):
            occupied = int(self._fill_counts[chunk])
            if occupied == 0:
                continue
            dirty = np.nonzero(self._dirty[chunk, :occupied])[0]
            if len(dirty):
                backing.write_rows(self._row_ids[chunk, dirty],
                                   self._data[chunk, dirty])
                self.stats.writebacks += len(dirty)
                self._dirty[chunk, dirty] = False
                count += len(dirty)
        return count

    def contains(self, row_id: int) -> bool:
        return int(row_id) in self._loc

    def prefetch_rows(self, row_ids: np.ndarray,
                      backing: ArrayBackingStore) -> int:
        """Stage rows for an upcoming batch; misses triggered here count
        as ``prefetched_rows``, never as demand misses."""
        staged = 0
        for row_id in np.unique(self._check_ids(row_ids, backing)):
            row_id = int(row_id)
            if row_id in self._loc:
                continue
            value = backing.read_rows(np.array([row_id], dtype=np.int64))[0]
            self._admit(row_id, value, dirty=False, backing=backing,
                        score=1.0)
            self.stats.fills += 1
            self.stats.prefetched_rows += 1
            staged += 1
        return staged


class PrefetchPipeline:
    """Stage batch ``k+1``'s rows while batch ``k`` computes.

    The simulator executes sequentially, so overlap is *accounted*, not
    threaded: each :meth:`stage` measures its own wall time inside a
    ``cache.prefetch`` span and, given the compute window it would have
    run under, splits it into hidden and exposed seconds. The benchmark
    prices exposed prefetch bytes at slow-tier bandwidth — the pipelined
    counterpart of the ingestion pipeline's double-buffered batch
    prefetch (Section 4.3 of the paper).

    Works with any :class:`RowCache`; the cache's ``prefetched_rows``
    stat and the span tree record what was staged and when.
    """

    def __init__(self, cache, backing: ArrayBackingStore,
                 tracer=None) -> None:
        self.cache = cache
        self.backing = backing
        self.tracer = as_tracer(tracer)
        self.batches_staged = 0
        self.rows_staged = 0
        self.bytes_staged = 0
        self.prefetch_s = 0.0
        self.hidden_s = 0.0
        self.exposed_s = 0.0

    def stage(self, next_ids: np.ndarray,
              compute_s: Optional[float] = None) -> int:
        """Prefetch ``next_ids`` under a compute window of ``compute_s``
        seconds (``None`` means no overlap credit). Returns rows staged."""
        bytes_before = self.backing.bytes_read
        t0 = time.perf_counter()
        with self.tracer.span("cache.prefetch", cat="cache",
                              rows=int(len(next_ids))) as span:
            staged = self.cache.prefetch_rows(next_ids, self.backing)
            if span is not None and hasattr(span, "set"):
                span.set(staged=int(staged))
        elapsed = time.perf_counter() - t0
        self.batches_staged += 1
        self.rows_staged += staged
        self.bytes_staged += self.backing.bytes_read - bytes_before
        self.prefetch_s += elapsed
        hidden = min(elapsed, compute_s) if compute_s is not None else 0.0
        self.hidden_s += hidden
        self.exposed_s += elapsed - hidden
        return staged

    def overlap_report(self) -> Dict[str, float]:
        """Measured staging totals and how much hid under compute."""
        return {
            "batches_staged": self.batches_staged,
            "rows_staged": self.rows_staged,
            "bytes_staged": self.bytes_staged,
            "prefetch_s": self.prefetch_s,
            "hidden_s": self.hidden_s,
            "exposed_s": self.exposed_s,
            "hidden_frac": (self.hidden_s / self.prefetch_s
                            if self.prefetch_s else 0.0),
        }

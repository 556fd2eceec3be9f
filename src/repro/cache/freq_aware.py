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
  have the lowest accumulated frequency score — and are decided once
  per call, over all of its ids, as CacheEmbedding decides once per
  batch.
* :class:`PrefetchPipeline` overlaps the remaining misses with compute:
  while batch ``k`` runs, the rows batch ``k+1`` needs are staged via
  :meth:`RowCache.prefetch_rows` inside a ``cache.prefetch`` span, and
  the pipeline accounts how much of the staging time hides under the
  compute window (the ``repro.obs`` spans carry the measured overlap;
  the benchmark prices exposed bytes at slow-tier bandwidth).

Both are exact: every read through the cache is bitwise identical to an
uncached :meth:`ArrayBackingStore.read_rows` (hypothesis-fuzzed in
``tests/test_cache_api.py`` and ``tests/test_cache_window.py``).
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from .. import check
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

    Admission is decided once per call, over the call's ids as a whole
    (for the serving path, one window of one cold table):

    * every occurrence bumps its row's access count;
    * an occurrence whose row was resident at the start of the call is a
      hit and adds 1 to its chunk's score; every other one is a miss;
    * the call's distinct missed rows are ranked by count, highest first
      (ties by row id), and fill the *open* chunk (the one admitted into
      last), then empty chunks, lowest index first;
    * then, while the best remaining row's count reaches the lowest
      chunk score per row (``score / chunk_rows``), that chunk is evicted
      (dirty rows written back) and refilled with up to ``chunk_rows``
      of the rows that pass. A chunk this call filled is never its
      victim;
    * an admitted row adds its count to its chunk's score.

    Chunk scores are seeded from the warm histogram when :meth:`warm`
    was used, so frequency-ranked hot chunks outlive reactively admitted
    cold ones, and one-touch tail ids read through without displacing
    ``chunk_rows`` warmer rows (the chunk-granularity analogue of cache
    bypass; an unwarmed cache starts with empty chunks, so it still
    fills reactively). A call of one id decides exactly as a per-id
    policy would.
    """

    def __init__(self, capacity_rows: int, row_dim: int,
                 chunk_rows: int = 64) -> None:
        check.count("capacity_rows", capacity_rows)
        check.count("chunk_rows", chunk_rows)
        super().__init__()
        self.chunk_rows = min(chunk_rows, capacity_rows)
        self.capacity_chunks = max(1, capacity_rows // self.chunk_rows)
        self.row_dim = row_dim
        # slot s belongs to chunk s // chunk_rows
        slots = self.capacity_chunks * self.chunk_rows
        self._data = np.zeros((slots, row_dim), dtype=np.float32)
        self._row_ids = np.full(slots, -1, dtype=np.int64)
        self._dirty = np.zeros(slots, dtype=bool)
        self._fill_counts = np.zeros(self.capacity_chunks, dtype=np.int64)
        self._scores = np.zeros(self.capacity_chunks, dtype=np.float64)
        # per backing row, sized on first use: its slot (-1 if not
        # resident) and its observed access count
        self._slot_of = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._open: Optional[int] = None  # chunk admitted into last
        self.warmed_rows = 0

    @property
    def capacity_rows(self) -> int:
        return self.capacity_chunks * self.chunk_rows

    # ------------------------------------------------------------------
    # chunk management
    # ------------------------------------------------------------------
    def _track(self, backing: ArrayBackingStore) -> None:
        """Size the per-row arrays to ``backing``'s rows."""
        grow = backing.num_rows - len(self._slot_of)
        if grow > 0:
            self._slot_of = np.concatenate(
                [self._slot_of, np.full(grow, -1, dtype=np.int64)])
            self._counts = np.concatenate(
                [self._counts, np.zeros(grow, dtype=np.int64)])

    def _evict_chunk(self, chunk: int, backing: ArrayBackingStore) -> None:
        """Drop every row of ``chunk``, writing back the dirty ones."""
        lo = chunk * self.chunk_rows
        hi = lo + int(self._fill_counts[chunk])
        dirty = lo + np.flatnonzero(self._dirty[lo:hi])
        if len(dirty):
            backing.write_rows(self._row_ids[dirty], self._data[dirty])
            self.stats.writebacks += len(dirty)
        self._slot_of[self._row_ids[lo:hi]] = -1
        self.stats.evictions += hi - lo
        self._row_ids[lo:hi] = -1
        self._dirty[lo:hi] = False
        self._fill_counts[chunk] = 0
        self._scores[chunk] = 0.0

    def _place(self, chunk: int, rows: np.ndarray,
               scores: np.ndarray) -> int:
        """Put the head of ``rows`` into ``chunk``'s free slots; returns
        how many fit. Their data is the caller's to write."""
        fill = int(self._fill_counts[chunk])
        count = min(self.chunk_rows - fill, len(rows))
        slots = chunk * self.chunk_rows + fill + np.arange(count)
        self._row_ids[slots] = rows[:count]
        self._slot_of[rows[:count]] = slots
        self._fill_counts[chunk] = fill + count
        self._scores[chunk] += scores[:count].sum()
        return count

    def _admit(self, rows: np.ndarray, scores: np.ndarray,
               backing: ArrayBackingStore, gate: bool = True) -> int:
        """Admit the head of ``rows`` (ranked best first, ``scores`` the
        score each adds to its chunk) and return how many were admitted.

        Free slots come first: the open chunk's, then empty chunks',
        lowest index first. Then the lowest-score chunk not filled by
        this call is evicted and refilled, while the best remaining row
        passes: with ``gate``, its score must reach the victim's score
        per row; without, every row passes. The admitted rows' data and
        dirty bits are the caller's to write."""
        fill = self._fill_counts
        targets = np.flatnonzero(fill == 0).tolist()
        if self._open is not None and fill[self._open] < self.chunk_rows:
            targets = [self._open] + [c for c in targets if c != self._open]
        fresh = np.zeros(self.capacity_chunks, dtype=bool)
        admitted = 0
        for chunk in targets:
            if admitted == len(rows):
                break
            admitted += self._place(chunk, rows[admitted:],
                                    scores[admitted:])
            fresh[chunk] = True
            self._open = chunk
        while admitted < len(rows):
            victim = int(np.argmin(np.where(fresh, np.inf, self._scores)))
            if fresh[victim]:
                break  # every chunk was filled by this call
            head = scores[admitted:admitted + self.chunk_rows]
            passing = len(head) if not gate else int(np.count_nonzero(
                head >= self._scores[victim] / self.chunk_rows))
            if passing == 0:
                break
            self._evict_chunk(victim, backing)
            admitted += self._place(victim, rows[admitted:admitted + passing],
                                    scores[admitted:admitted + passing])
            fresh[victim] = True
            self._open = victim
        return admitted

    def _access(self, ids: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Count every occurrence of ``ids`` and score the hits on rows
        resident at the start of the call. Returns the distinct rows
        (sorted), their slots then (-1 for a miss), the order of the
        missed ones, as indices into the rows, ranked by count, highest
        first, ties by row id, and the number of missed occurrences."""
        rows, counts = np.unique(ids, return_counts=True)
        self._counts[rows] += counts
        slots = self._slot_of[rows]
        hit = slots >= 0
        self._scores += np.bincount(slots[hit] // self.chunk_rows,
                                    weights=counts[hit],
                                    minlength=self.capacity_chunks)
        misses = len(ids) - int(counts[hit].sum())
        self.stats.hits += len(ids) - misses
        self.stats.misses += misses
        missed = np.flatnonzero(~hit)
        ranked = missed[np.argsort(-self._counts[rows[missed]],
                                   kind="stable")]
        return rows, slots, ranked, misses

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
        loaded: it fills empty chunks only, lowest index first, and stops
        at capacity. A chunk's score is its rows' histogram mass.
        """
        histogram = np.asarray(histogram)
        if histogram.ndim != 1 or len(histogram) != backing.num_rows:
            raise ValueError(
                f"histogram must have one count per backing row "
                f"({backing.num_rows}), got shape {histogram.shape}")
        self._track(backing)
        order = np.argsort(-histogram, kind="stable")
        order = order[histogram[order] >= min_count]
        order = order[self._slot_of[order] < 0]
        empty = np.flatnonzero(self._fill_counts == 0)
        ids = order[:len(empty) * self.chunk_rows]
        position = np.arange(len(ids))
        chunks = empty[position // self.chunk_rows]
        slots = chunks * self.chunk_rows + position % self.chunk_rows
        self._row_ids[slots] = ids
        self._slot_of[ids] = slots
        self._data[slots] = backing.read_rows(ids)
        self._fill_counts += np.bincount(chunks,
                                         minlength=self.capacity_chunks)
        self._scores += np.bincount(chunks, weights=histogram[ids],
                                    minlength=self.capacity_chunks)
        self.warmed_rows += len(ids)
        self.stats.fills += len(ids)
        return len(ids)

    # ------------------------------------------------------------------
    # RowCache protocol
    # ------------------------------------------------------------------
    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        """One admission decision for the whole call (see the class
        docstring); every miss counts one fill. The rows are one gather
        from ``backing`` as the call found it, with dirty resident rows
        patched in: a clean resident row equals its backing row."""
        ids = self._check_ids(row_ids, backing)
        self._track(backing)
        out = backing.rows[ids]
        if self._dirty.any():
            slots = self._slot_of[ids]
            patch = np.flatnonzero(slots >= 0)
            patch = patch[self._dirty[slots[patch]]]
            out[patch] = self._data[slots[patch]]
        rows, _, ranked, misses = self._access(ids)
        ranked_rows = rows[ranked]
        admitted = ranked_rows[:self._admit(
            ranked_rows, self._counts[ranked_rows].astype(np.float64),
            backing)]
        self._data[self._slot_of[admitted]] = backing.rows[admitted]
        self.stats.fills += misses
        backing.bytes_read += misses * backing.row_bytes
        return out

    def write(self, row_ids: np.ndarray, values: np.ndarray,
              backing: ArrayBackingStore) -> None:
        """Write-back, write-allocate, admitted by the same one decision
        as :meth:`read`; the last value of a repeated id wins. A missed
        row the decision does not admit is written through to
        ``backing``."""
        ids = self._check_ids(row_ids, backing)
        self._track(backing)
        rows, slots, ranked, _ = self._access(ids)
        # each distinct row's last occurrence, aligned with ``rows``
        last = len(ids) - 1 - np.unique(ids[::-1], return_index=True)[1]
        resident = slots >= 0
        self._data[slots[resident]] = values[last[resident]]
        self._dirty[slots[resident]] = True
        ranked_rows = rows[ranked]
        admitted = self._admit(
            ranked_rows, self._counts[ranked_rows].astype(np.float64),
            backing)
        new_slots = self._slot_of[ranked_rows[:admitted]]
        self._data[new_slots] = values[last[ranked[:admitted]]]
        self._dirty[new_slots] = True
        bypass = ranked[admitted:]
        if len(bypass):
            backing.write_rows(rows[bypass], values[last[bypass]])

    def flush(self, backing: ArrayBackingStore) -> int:
        dirty = np.flatnonzero(self._dirty)
        if len(dirty):
            backing.write_rows(self._row_ids[dirty], self._data[dirty])
            self._dirty[dirty] = False
            self.stats.writebacks += len(dirty)
        return len(dirty)

    def contains(self, row_id: int) -> bool:
        row_id = int(row_id)
        return 0 <= row_id < len(self._slot_of) \
            and self._slot_of[row_id] >= 0

    def prefetch_rows(self, row_ids: np.ndarray,
                      backing: ArrayBackingStore) -> int:
        """Stage rows for an upcoming batch: the distinct non-resident
        ids, in id order, are admitted without the count gate, each
        adding 1 to its chunk's score. Rows staged here count as
        ``prefetched_rows``, never as demand misses."""
        ids = self._check_ids(row_ids, backing)
        self._track(backing)
        rows = np.unique(ids)
        rows = rows[self._slot_of[rows] < 0]
        staged = rows[:self._admit(rows, np.ones(len(rows)), backing,
                                   gate=False)]
        self._data[self._slot_of[staged]] = backing.read_rows(staged)
        self.stats.fills += len(staged)
        self.stats.prefetched_rows += len(staged)
        return len(staged)


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

"""Reference policies for :class:`repro.cache.FreqAwareCache`, never
imported by the product.

Both keep the product's state layout (they subclass it and reuse its
per-row arrays and ``warm``), so a test compares the whole state with
``tests.helpers.cache_state``. Each walks its ids one at a
time in plain Python:

* ``WindowLoopCache`` is the product's policy, one admission decision
  per call, written as loops: count each occurrence, score each hit on a
  row resident at the start of the call, rank the call's distinct missed
  rows by ``(-count, row id)``, fill the open chunk and then empty
  chunks, then evict the lowest-score chunk this call did not fill and
  refill it with the rows that pass, one row at a time.
  ``tests/test_cache_window.py`` holds the product to it bit for bit.
* ``PerIdCache`` is the policy the product replaced: each id, in order,
  bumps its count, scores its chunk on a hit, and on a miss is admitted
  into a free slot, or, once full, when its count reaches the
  lowest-score chunk's score per row, into that chunk after evicting it.
  On calls of one id the two policies decide alike.
"""

from __future__ import annotations

import numpy as np

from repro.cache import FreqAwareCache


class _LoopCache(FreqAwareCache):
    """Row-at-a-time state edits shared by both references."""

    def _chunk_of(self, row_id: int) -> int:
        return int(self._slot_of[row_id]) // self.chunk_rows

    def _has_room(self, chunk) -> bool:
        return chunk is not None \
            and self._fill_counts[chunk] < self.chunk_rows

    def _lowest(self, exclude=()) -> int:
        """The lowest-score chunk outside ``exclude``, lowest index on
        ties; ``None`` if every chunk is excluded."""
        best = None
        for chunk in range(self.capacity_chunks):
            if chunk in exclude:
                continue
            if best is None or self._scores[chunk] < self._scores[best]:
                best = chunk
        return best

    def _evict_loop(self, chunk: int) -> None:
        lo = chunk * self.chunk_rows
        for slot in range(lo, lo + int(self._fill_counts[chunk])):
            self._slot_of[int(self._row_ids[slot])] = -1
            self._row_ids[slot] = -1
            self.stats.evictions += 1
        self._fill_counts[chunk] = 0
        self._scores[chunk] = 0.0

    def _put(self, chunk: int, row_id: int, score: float) -> None:
        slot = chunk * self.chunk_rows + int(self._fill_counts[chunk])
        self._row_ids[slot] = row_id
        self._slot_of[row_id] = slot
        self._fill_counts[chunk] += 1
        self._scores[chunk] += score
        self._open = chunk


class WindowLoopCache(_LoopCache):
    """One admission decision per call, one row at a time."""

    def _admit_loop(self, ranked, scores, gate=True):
        """Admit ``ranked`` rows best first; returns how many."""
        free = [] if not self._has_room(self._open) else [self._open]
        free += [c for c in range(self.capacity_chunks)
                 if self._fill_counts[c] == 0 and c != self._open]
        filled = set()
        i = 0
        for chunk in free:
            while self._has_room(chunk) and i < len(ranked):
                self._put(chunk, ranked[i], scores[ranked[i]])
                filled.add(chunk)
                i += 1
        while i < len(ranked):
            victim = self._lowest(exclude=filled)
            if victim is None:
                break
            threshold = self._scores[victim] / self.chunk_rows
            if gate and scores[ranked[i]] < threshold:
                break
            self._evict_loop(victim)
            filled.add(victim)
            while self._has_room(victim) and i < len(ranked) \
                    and (not gate or scores[ranked[i]] >= threshold):
                self._put(victim, ranked[i], scores[ranked[i]])
                i += 1
        return i

    def _count_loop(self, ids):
        """Count and score the call's ids; returns its missed rows."""
        missed = []
        for row_id in ids:
            self._counts[row_id] += 1
            if self._slot_of[row_id] >= 0:
                self.stats.hits += 1
                self._scores[self._chunk_of(row_id)] += 1.0
            else:
                self.stats.misses += 1
                if row_id not in missed:
                    missed.append(row_id)
        return sorted(missed, key=lambda r: (-self._counts[r], r))

    def read(self, row_ids, backing):
        ids = [int(i) for i in self._check_ids(row_ids, backing)]
        self._track(backing)
        out = np.empty((len(ids), backing.row_dim), dtype=np.float32)
        for i, row_id in enumerate(ids):
            out[i] = backing.rows[row_id]
        ranked = self._count_loop(ids)
        self._admit_loop(ranked, {r: float(self._counts[r]) for r in ranked})
        misses = sum(1 for r in ids if r in ranked)
        self.stats.fills += misses
        backing.bytes_read += misses * backing.row_bytes
        return out

    def prefetch_rows(self, row_ids, backing):
        ids = self._check_ids(row_ids, backing)
        self._track(backing)
        rows = [int(r) for r in sorted(set(ids.tolist()))
                if self._slot_of[r] < 0]
        admitted = self._admit_loop(rows, {r: 1.0 for r in rows},
                                    gate=False)
        backing.bytes_read += admitted * backing.row_bytes
        self.stats.fills += admitted
        self.stats.prefetched_rows += admitted
        return admitted


class PerIdCache(_LoopCache):
    """The per-id policy: every id decides alone, in order."""

    def _free_chunk(self):
        """The chunk the next admission goes to without evicting."""
        if self._has_room(self._open):
            return self._open
        for chunk in range(self.capacity_chunks):
            if self._fill_counts[chunk] == 0:
                return chunk
        return None

    def _admit_one(self, row_id, score, gate=True) -> None:
        chunk = self._free_chunk()
        if chunk is None:
            chunk = self._lowest()
            threshold = self._scores[chunk] / self.chunk_rows
            if gate and self._counts[row_id] < threshold:
                return
            self._evict_loop(chunk)
        self._put(chunk, row_id, score)

    def read(self, row_ids, backing):
        ids = self._check_ids(row_ids, backing)
        self._track(backing)
        out = np.empty((len(ids), backing.row_dim), dtype=np.float32)
        for i, row_id in enumerate(ids.tolist()):
            self._counts[row_id] += 1
            slot = self._slot_of[row_id]
            out[i] = backing.rows[row_id]
            if slot >= 0:
                self.stats.hits += 1
                self._scores[slot // self.chunk_rows] += 1.0
            else:
                self.stats.misses += 1
                self.stats.fills += 1
                backing.bytes_read += backing.row_bytes
                self._admit_one(row_id, float(self._counts[row_id]))
        return out

    def prefetch_rows(self, row_ids, backing):
        ids = self._check_ids(row_ids, backing)
        self._track(backing)
        staged = 0
        for row_id in np.unique(ids).tolist():
            if self._slot_of[row_id] >= 0:
                continue
            backing.bytes_read += backing.row_bytes
            self._admit_one(row_id, 1.0, gate=False)
            self.stats.fills += 1
            self.stats.prefetched_rows += 1
            staged += 1
        return staged

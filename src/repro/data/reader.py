"""Disaggregated data-ingestion pipeline (paper Fig. 6, Section 4.4).

Production Neo streams training data from the Tectonic filesystem through
a tier of reader machines that pre-process and feed trainers over the
frontend network. We reproduce the pipeline's *structure* and its cost
accounting:

* readers produce per-rank local sub-batches in the combined format;
* a double-buffered prefetch queue models the overlap of batch ``i+1``'s
  ingestion with batch ``i``'s training (Section 4.3);
* transfer accounting distinguishes the frontend network hop (reader ->
  trainer host) from the host->device copy (pinned PCIe).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional


from .. import check
from .datagen import MiniBatch, SyntheticCTRDataset
from .formats import host_transfer_time
from .freq import FrequencyStats

__all__ = ["IngestionStats", "DataIngestionService"]


@dataclass
class IngestionStats:
    batches_produced: int = 0
    frontend_bytes: int = 0
    h2d_seconds_pinned: float = 0.0
    h2d_seconds_pageable: float = 0.0
    combined_tensors_per_iter: int = 0
    separate_tensors_per_iter: int = 0


class DataIngestionService:
    """Feeds per-rank sub-batches with prefetch and transfer accounting.

    Parameters
    ----------
    dataset:
        The batch source.
    world_size:
        Number of trainer ranks; each global batch splits evenly.
    prefetch_depth:
        Queue depth. Depth 2 is the paper's double buffering; depth 1
        disables overlap (used for the no-pipelining ablation).
    track_frequencies:
        When true, the reader folds every produced batch's sparse ids
        into a :class:`FrequencyStats` (exposed as
        :attr:`frequency_stats`) — the histogram source that warms
        :class:`repro.cache.FreqAwareCache`.
    """

    def __init__(self, dataset: SyntheticCTRDataset, world_size: int,
                 global_batch_size: int, prefetch_depth: int = 2,
                 track_frequencies: bool = False) -> None:
        check.count("world_size", world_size)
        if global_batch_size % world_size:
            raise ValueError(
                f"global batch {global_batch_size} not divisible by "
                f"world size {world_size}")
        check.count("prefetch_depth", prefetch_depth)
        self.dataset = dataset
        self.world_size = world_size
        self.global_batch_size = global_batch_size
        self.prefetch_depth = prefetch_depth
        self.stats = IngestionStats()
        self.frequency_stats: Optional[FrequencyStats] = \
            FrequencyStats() if track_frequencies else None
        self._queue: deque = deque()
        self._next_index = 0

    # ------------------------------------------------------------------
    def _produce(self) -> List[MiniBatch]:
        """Readers materialize one global batch, split across ranks."""
        batch = self.dataset.batch(self.global_batch_size, self._next_index)
        self._next_index += 1
        if self.frequency_stats is not None:
            self.frequency_stats.update(batch)
        shards = batch.split(self.world_size)
        self._account(shards)
        return shards

    def _account(self, shards: List[MiniBatch]) -> None:
        """Bill each shard's transfer in the combined format it is held
        in: its ``(T, B)`` int64 lengths plus every id as an int64."""
        self.stats.batches_produced += 1
        combined_tensors = 0
        separate_tensors = 0
        for shard in shards:
            tables = len(shard.keys)
            payload = 8 * (shard.lengths.size + len(shard.ids)) \
                + shard.dense.nbytes + shard.labels.nbytes
            self.stats.frontend_bytes += payload
            # combined: lengths + indices; separate: two per table; +2
            # for dense and labels tensors in both layouts
            combined_tensors = 2 + 2
            separate_tensors = 2 * tables + 2
            self.stats.h2d_seconds_pinned += host_transfer_time(
                combined_tensors, payload, pinned=True)
            self.stats.h2d_seconds_pageable += host_transfer_time(
                separate_tensors, payload, pinned=False)
        self.stats.combined_tensors_per_iter = combined_tensors
        self.stats.separate_tensors_per_iter = separate_tensors

    # ------------------------------------------------------------------
    def fill(self) -> None:
        """Top up the prefetch queue (reader tier runs ahead of training)."""
        while len(self._queue) < self.prefetch_depth:
            self._queue.append(self._produce())

    def next_batch(self) -> List[MiniBatch]:
        """Pop the next global batch (per-rank list); refills behind it."""
        if not self._queue:
            self.fill()
        shards = self._queue.popleft()
        self.fill()
        return shards

    def seek(self, batch_index: int) -> None:
        """Reposition so the next :meth:`next_batch` serves ``batch_index``.

        Batches are deterministic functions of their index, so rewinding
        the reader replays the exact sample stream — this is what lets
        checkpoint recovery resume on the same data an uninterrupted run
        would have seen. Prefetched batches are discarded (their indices
        no longer line up).
        """
        check.count("batch_index", batch_index, low=0)
        self._queue.clear()
        self._next_index = batch_index

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

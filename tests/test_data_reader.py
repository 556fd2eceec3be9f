"""Tests for the data ingestion service."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.data import (DataIngestionService, IngestionStats, MiniBatch,
                        SyntheticCTRDataset, host_transfer_time)
from repro.embedding import EmbeddingTableConfig

from .reference_batch import to_features


def make_service(world=4, global_batch=32, prefetch=2, num_tables=3):
    tables = [EmbeddingTableConfig(f"t{i}", 500, 8, avg_pooling=4.0)
              for i in range(num_tables)]
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=0)
    return DataIngestionService(ds, world_size=world,
                                global_batch_size=global_batch,
                                prefetch_depth=prefetch)


class TestIngestion:
    def test_next_batch_shape(self):
        svc = make_service()
        shards = svc.next_batch()
        assert len(shards) == 4
        assert all(s.batch_size == 8 for s in shards)

    def test_prefetch_queue_stays_full(self):
        svc = make_service(prefetch=3)
        svc.next_batch()
        assert svc.queue_depth == 3

    def test_batches_advance(self):
        svc = make_service()
        b1 = svc.next_batch()
        b2 = svc.next_batch()
        assert not np.array_equal(b1[0].dense, b2[0].dense)

    def test_deterministic_stream(self):
        s1, s2 = make_service(), make_service()
        for _ in range(3):
            b1, b2 = s1.next_batch(), s2.next_batch()
            for r1, r2 in zip(b1, b2):
                np.testing.assert_array_equal(r1.dense, r2.dense)
                np.testing.assert_array_equal(r1.labels, r2.labels)

    def test_combined_format_advantage_recorded(self):
        """Stats exhibit the 2-vs-2T tensor-count gap of Section 4.4."""
        svc = make_service(num_tables=100)
        svc.next_batch()
        assert svc.stats.separate_tensors_per_iter == 2 * 100 + 2
        assert svc.stats.combined_tensors_per_iter == 2 + 2
        assert svc.stats.h2d_seconds_pinned < svc.stats.h2d_seconds_pageable

    def test_frontend_bytes_accumulate(self):
        svc = make_service()
        svc.next_batch()
        before = svc.stats.frontend_bytes
        svc.next_batch()
        assert svc.stats.frontend_bytes > before

    def test_validation(self):
        tables = [EmbeddingTableConfig("t", 100, 8)]
        ds = SyntheticCTRDataset(tables)
        with pytest.raises(ValueError):
            DataIngestionService(ds, world_size=0, global_batch_size=8)
        with pytest.raises(ValueError):
            DataIngestionService(ds, world_size=3, global_batch_size=8)
        with pytest.raises(ValueError):
            DataIngestionService(ds, world_size=2, global_batch_size=8,
                                 prefetch_depth=0)


def built_format_stats(svc: DataIngestionService) -> IngestionStats:
    """The accounting of every batch ``svc`` produced, from each shard's
    built buffers: the combined format is the shard's own lengths and
    ids arrays, the separate one an (ids, offsets) pair per feature."""
    stats = IngestionStats()
    for index in range(svc.stats.batches_produced):
        stats.batches_produced += 1
        shards = svc.dataset.batch(svc.global_batch_size,
                                   index).split(svc.world_size)
        for shard in shards:
            combined = (shard.lengths, shard.ids)
            separate = [a for pair in to_features(shard).values()
                        for a in pair]
            payload = sum(a.nbytes for a in combined) + shard.dense.nbytes \
                + shard.labels.nbytes
            stats.frontend_bytes += payload
            stats.h2d_seconds_pinned += host_transfer_time(
                len(combined) + 2, payload, pinned=True)
            stats.h2d_seconds_pageable += host_transfer_time(
                len(separate) + 2, payload, pinned=False)
            stats.combined_tensors_per_iter = len(combined) + 2
            stats.separate_tensors_per_iter = len(separate) + 2
    return stats


class TestAccounting:
    @pytest.mark.parametrize("num_tables", [1, 3, 17])
    def test_counted_equals_built_formats_field_for_field(self, num_tables):
        svc = make_service(num_tables=num_tables)
        for _ in range(3):
            svc.next_batch()
        assert asdict(svc.stats) == asdict(built_format_stats(svc))

    def test_mismatched_table_batch_rejected(self):
        """Tables that disagree on the batch size cannot reach the
        accounting: the lengths matrix holds one column per sample, and
        a shard of any other shape is refused when it is built."""
        svc = make_service()
        shard = svc.next_batch()[0]
        with pytest.raises(ValueError, match="8 samples"):
            MiniBatch(dense=shard.dense, keys=shard.keys,
                      lengths=shard.lengths[:, :-1], ids=shard.ids,
                      labels=shard.labels)

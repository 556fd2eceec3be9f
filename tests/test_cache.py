"""Tests for the software cache, UVM baseline, and memory hierarchy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (ArrayBackingStore, CachedEmbeddingTable,
                         SetAssociativeCache, UVMPageCache)
from repro.embedding import EmbeddingTable, EmbeddingTableConfig


def make_backing(h=64, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayBackingStore(rng.normal(size=(h, d)).astype(np.float32))


class TestBackingStore:
    def test_read_counts_bytes(self):
        b = make_backing(d=4)
        b.read_rows(np.array([0, 1, 2]))
        assert b.bytes_read == 3 * 4 * 4

    def test_write_then_read(self):
        b = make_backing()
        vals = np.ones((2, 4), dtype=np.float32)
        b.write_rows(np.array([5, 6]), vals)
        np.testing.assert_array_equal(b.read_rows(np.array([5, 6])), vals)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            ArrayBackingStore(np.zeros(4))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(capacity_rows=8, row_dim=4, ways=2)
        backing = make_backing()
        cache.read(np.array([3]), backing)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.read(np.array([3]), backing)
        assert cache.stats.hits == 1

    def test_read_returns_backing_values(self):
        cache = SetAssociativeCache(capacity_rows=256, row_dim=4)
        backing = make_backing()
        ids = np.array([1, 17, 33, 1])
        out = cache.read(ids, backing)
        np.testing.assert_array_equal(out, backing.rows[ids])

    def test_read_after_write_returns_written(self):
        cache = SetAssociativeCache(capacity_rows=8, row_dim=4, ways=2)
        backing = make_backing()
        new = np.full((1, 4), 9.0, dtype=np.float32)
        cache.write(np.array([7]), new, backing)
        out = cache.read(np.array([7]), backing)
        np.testing.assert_array_equal(out, new)

    def test_write_back_on_eviction(self):
        """Dirty victim reaches the backing store when evicted."""
        cache = SetAssociativeCache(capacity_rows=1, row_dim=4, ways=1)
        backing = make_backing(h=8)
        new = np.full((1, 4), 5.0, dtype=np.float32)
        cache.write(np.array([0]), new, backing)
        # evict row 0 by touching another row in the same (only) set
        cache.read(np.array([1]), backing)
        np.testing.assert_array_equal(backing.rows[0], new[0])
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = SetAssociativeCache(capacity_rows=1, row_dim=4, ways=1)
        backing = make_backing(h=8)
        cache.read(np.array([0]), backing)
        cache.read(np.array([1]), backing)
        assert cache.stats.evictions == 1
        assert cache.stats.writebacks == 0

    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(capacity_rows=2, row_dim=4, ways=2,
                                    policy="lru")
        backing = make_backing(h=8)
        cache.read(np.array([0]), backing)
        cache.read(np.array([1]), backing)
        cache.read(np.array([0]), backing)  # 0 now most recent
        cache.read(np.array([2]), backing)  # evicts 1
        assert cache.contains(0) and cache.contains(2)
        assert not cache.contains(1)

    def test_lfu_evicts_least_frequent(self):
        cache = SetAssociativeCache(capacity_rows=2, row_dim=4, ways=2,
                                    policy="lfu")
        backing = make_backing(h=8)
        for _ in range(3):
            cache.read(np.array([0]), backing)
        cache.read(np.array([1]), backing)
        cache.read(np.array([2]), backing)  # evicts 1 (freq 1 < freq 3)
        assert cache.contains(0) and cache.contains(2)
        assert not cache.contains(1)

    def test_flush_writes_all_dirty(self):
        cache = SetAssociativeCache(capacity_rows=8, row_dim=4, ways=2)
        backing = make_backing(h=16)
        vals = np.arange(8, dtype=np.float32).reshape(2, 4)
        cache.write(np.array([2, 9]), vals, backing)
        flushed = cache.flush(backing)
        assert flushed == 2
        np.testing.assert_array_equal(backing.rows[2], vals[0])
        np.testing.assert_array_equal(backing.rows[9], vals[1])
        assert cache.flush(backing) == 0  # idempotent

    def test_hit_plus_miss_equals_accesses(self):
        cache = SetAssociativeCache(capacity_rows=128, row_dim=4)
        backing = make_backing()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=200)
        cache.read(ids, backing)
        assert cache.stats.accesses == 200

    def test_set_mapping(self):
        cache = SetAssociativeCache(capacity_rows=128, row_dim=4)
        assert cache._set_index(7) == 3
        assert cache._set_index(8) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_rows=0, row_dim=4)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_rows=128, row_dim=4, policy="fifo")
        with pytest.raises(TypeError):
            SetAssociativeCache(row_dim=4)  # no sizing at all
        with pytest.raises(TypeError):
            # pre-protocol geometry sizing was removed
            SetAssociativeCache(num_sets=4, row_dim=4, capacity_rows=128)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_coherence_property(self, trace):
        """Reads through the cache always equal a shadow dense copy."""
        cache = SetAssociativeCache(capacity_rows=4, row_dim=4, ways=2)
        backing = make_backing(h=64, seed=1)
        shadow = backing.rows.copy()
        rng = np.random.default_rng(0)
        for i, row in enumerate(trace):
            if i % 3 == 2:  # every third access is a write
                val = rng.normal(size=(1, 4)).astype(np.float32)
                cache.write(np.array([row]), val, backing)
                shadow[row] = val[0]
            else:
                out = cache.read(np.array([row]), backing)
                np.testing.assert_array_equal(out[0], shadow[row])
        cache.flush(backing)
        np.testing.assert_array_equal(backing.rows, shadow)


class TestUVMPageCache:
    def test_page_migration_fetches_whole_page(self):
        cache = UVMPageCache(capacity_rows=16, row_dim=4, rows_per_page=8)
        backing = make_backing(h=64)
        cache.read(np.array([0]), backing)
        # one row requested but a full page of bytes moved
        assert backing.bytes_read == 8 * 4 * 4
        assert cache.pages_migrated == 1

    def test_same_page_hits(self):
        cache = UVMPageCache(capacity_rows=16, row_dim=4, rows_per_page=8)
        backing = make_backing(h=64)
        cache.read(np.array([0]), backing)
        cache.read(np.array([7]), backing)  # same page
        assert cache.stats.hits == 1

    def test_eviction_at_capacity(self):
        cache = UVMPageCache(capacity_rows=8, row_dim=4, rows_per_page=8)
        backing = make_backing(h=64)
        cache.read(np.array([0]), backing)   # page 0
        cache.read(np.array([8]), backing)   # page 1 evicts page 0
        assert not cache.contains(0)
        assert cache.contains(8)

    def test_dirty_page_written_back(self):
        cache = UVMPageCache(capacity_rows=8, row_dim=4, rows_per_page=8)
        backing = make_backing(h=64)
        val = np.full((1, 4), 3.0, dtype=np.float32)
        cache.write(np.array([1]), val, backing)
        cache.read(np.array([9]), backing)  # evict page 0
        np.testing.assert_array_equal(backing.rows[1], val[0])

    def test_row_cache_beats_uvm_on_sparse_hot_set(self):
        """The paper's granularity argument: for a scattered hot set, the
        row cache holds every hot row while UVM thrashes pages."""
        h, d = 4096, 4
        backing_row = make_backing(h=h, d=d, seed=2)
        backing_uvm = make_backing(h=h, d=d, seed=2)
        capacity = 256
        row_cache = SetAssociativeCache(capacity_rows=capacity, row_dim=d,
                                        ways=32)
        uvm = UVMPageCache(capacity_rows=capacity, row_dim=d,
                           rows_per_page=64)
        # hot rows scattered one per page
        hot = np.arange(0, h, h // 128)[:128]
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = rng.choice(hot, size=64)
            row_cache.read(ids, backing_row)
            uvm.read(ids, backing_uvm)
        assert row_cache.stats.hit_rate > uvm.stats.hit_rate
        assert backing_row.bytes_read < backing_uvm.bytes_read

    def test_flush(self):
        cache = UVMPageCache(capacity_rows=16, row_dim=4, rows_per_page=8)
        backing = make_backing(h=64)
        val = np.full((1, 4), 2.0, dtype=np.float32)
        cache.write(np.array([3]), val, backing)
        assert cache.flush(backing) == 1
        np.testing.assert_array_equal(backing.rows[3], val[0])
        assert cache.flush(backing) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            UVMPageCache(capacity_rows=4, row_dim=4, rows_per_page=8)

    def test_partial_last_page(self):
        """Backing stores whose row count is not a page multiple work."""
        cache = UVMPageCache(capacity_rows=16, row_dim=4, rows_per_page=8)
        backing = make_backing(h=12)  # last page has 4 rows
        out = cache.read(np.array([11]), backing)
        np.testing.assert_array_equal(out[0], backing.rows[11])


class TestMemoryHierarchy:
    def test_hbm_pcie_gap(self):
        """Section 4.1.3: HBM is ~36-50x faster than PCIe-bound UVM."""
        hbm = 7.2e12 / 8  # per GPU
        pcie = 25e9       # PCIe gen3 x16 measured
        assert 30 <= hbm / pcie <= 50


class TestCachedEmbeddingTable:
    def make(self, h=32, d=4):
        cfg = EmbeddingTableConfig("t", h, d)
        cache = SetAssociativeCache(capacity_rows=8, row_dim=d, ways=2)
        return CachedEmbeddingTable(cfg, cache,
                                    rng=np.random.default_rng(0))

    def test_matches_uncached_forward(self):
        cached = self.make()
        plain = EmbeddingTable(cached.config,
                               weight=cached.backing.rows.copy())
        indices = np.array([1, 5, 9, 1], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        np.testing.assert_array_equal(cached.forward(indices, offsets),
                                      plain.forward(indices, offsets))

    def test_training_step_coherent(self):
        """Train through the cache, checkpoint, compare with dense math."""
        cached = self.make()
        reference = cached.backing.rows.copy()
        indices = np.array([2, 3, 2], dtype=np.int64)
        offsets = np.array([0, 3], dtype=np.int64)
        cached.forward(indices, offsets)
        grad = cached.backward(np.ones((1, 4), dtype=np.float32))
        cached.sgd_step(grad, lr=0.5)
        final = cached.checkpoint()
        # row 2 hit twice (merged), row 3 once
        reference[2] -= 0.5 * 2.0
        reference[3] -= 0.5 * 1.0
        np.testing.assert_allclose(final, reference, rtol=1e-5)

    def test_empty_batch(self):
        cached = self.make()
        out = cached.forward(np.array([], dtype=np.int64),
                             np.array([0], dtype=np.int64))
        assert out.shape == (0, 4)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            self.make().backward(np.zeros((1, 4), dtype=np.float32))

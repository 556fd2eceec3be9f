"""Tests for the read-only software cache and the UVM baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import ArrayBackingStore, SetAssociativeCache, UVMPageCache


def make_backing(h=64, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return ArrayBackingStore(rng.normal(size=(h, d)).astype(np.float32))


class TestBackingStore:
    def test_read_counts_bytes(self):
        b = make_backing(d=4)
        b.read_rows(np.array([0, 1, 2]))
        assert b.bytes_read == 3 * 4 * 4

    def test_rows_are_read_only(self):
        rows = np.zeros((8, 4), dtype=np.float32)
        b = ArrayBackingStore(rows)
        assert np.shares_memory(b.rows, rows)  # adopted, not copied
        with pytest.raises(ValueError):
            b.rows[5] = 1.0
        with pytest.raises(ValueError):
            b.rows[[2, 3]] += 1.0

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            ArrayBackingStore(np.zeros(4))


class TestSetAssociativeCache:
    def test_miss_then_hit(self):
        cache = SetAssociativeCache(capacity_rows=8, ways=2)
        backing = make_backing()
        cache.read(np.array([3]), backing)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        cache.read(np.array([3]), backing)
        assert cache.stats.hits == 1

    def test_read_returns_backing_values(self):
        cache = SetAssociativeCache(capacity_rows=256)
        backing = make_backing()
        ids = np.array([1, 17, 33, 1])
        out = cache.read(ids, backing)
        np.testing.assert_array_equal(out, backing.rows[ids])

    def test_eviction_fill_moves_one_row(self):
        cache = SetAssociativeCache(capacity_rows=1, ways=1)
        backing = make_backing(h=8)
        cache.read(np.array([0]), backing)
        cache.read(np.array([1]), backing)  # evicts row 0
        assert cache.stats.evictions == 1
        assert cache.stats.fills == 2
        assert backing.bytes_read == 2 * backing.row_bytes
        assert cache.tags.tolist() == [[1]]

    def test_lru_evicts_least_recent(self):
        cache = SetAssociativeCache(capacity_rows=2, ways=2,
                                    policy="lru")
        backing = make_backing(h=8)
        cache.read(np.array([0]), backing)
        cache.read(np.array([1]), backing)
        cache.read(np.array([0]), backing)  # 0 now most recent
        cache.read(np.array([2]), backing)  # evicts 1
        assert sorted(cache.tags.ravel().tolist()) == [0, 2]

    def test_lfu_evicts_least_frequent(self):
        cache = SetAssociativeCache(capacity_rows=2, ways=2,
                                    policy="lfu")
        backing = make_backing(h=8)
        for _ in range(3):
            cache.read(np.array([0]), backing)
        cache.read(np.array([1]), backing)
        cache.read(np.array([2]), backing)  # evicts 1 (freq 1 < freq 3)
        assert sorted(cache.tags.ravel().tolist()) == [0, 2]

    def test_hit_plus_miss_equals_accesses(self):
        cache = SetAssociativeCache(capacity_rows=128)
        backing = make_backing()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=200)
        cache.read(ids, backing)
        assert cache.stats.accesses == 200

    def test_set_mapping(self):
        cache = SetAssociativeCache(capacity_rows=128)
        assert cache._set_index(7) == 3
        assert cache._set_index(8) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_rows=0)
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_rows=128, policy="fifo")
        with pytest.raises(TypeError):
            SetAssociativeCache()  # no sizing at all
        with pytest.raises(TypeError):
            # pre-protocol geometry sizing was removed
            SetAssociativeCache(num_sets=4, capacity_rows=128)
        with pytest.raises(TypeError):
            # a cache holds no rows, so it takes no row width
            SetAssociativeCache(capacity_rows=128, row_dim=4)

    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                    max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_coherence_property(self, trace):
        """Reads through the cache always equal a shadow dense copy, one
        id at a time or the whole trace at once."""
        cache = SetAssociativeCache(capacity_rows=4, ways=2)
        backing = make_backing(h=64, seed=1)
        shadow = backing.rows.copy()
        for row in trace:
            out = cache.read(np.array([row]), backing)
            np.testing.assert_array_equal(out[0], shadow[row])
        np.testing.assert_array_equal(cache.read(np.array(trace), backing),
                                      shadow[trace])
        assert cache.stats.fills == cache.stats.misses
        assert backing.bytes_read == cache.stats.fills * backing.row_bytes


class TestUVMPageCache:
    def test_page_migration_fetches_whole_page(self):
        cache = UVMPageCache(capacity_rows=16, rows_per_page=8)
        backing = make_backing(h=64)
        cache.read(np.array([0]), backing)
        # one row requested but a full page of bytes moved
        assert backing.bytes_read == 8 * 4 * 4
        assert cache.stats.fills == 1

    def test_same_page_hits(self):
        cache = UVMPageCache(capacity_rows=16, rows_per_page=8)
        backing = make_backing(h=64)
        cache.read(np.array([0]), backing)
        cache.read(np.array([7]), backing)  # same page
        assert cache.stats.hits == 1

    def test_eviction_at_capacity(self):
        cache = UVMPageCache(capacity_rows=8, rows_per_page=8)
        backing = make_backing(h=64)
        cache.read(np.array([0]), backing)   # page 0
        cache.read(np.array([8]), backing)   # page 1 evicts page 0
        assert cache.stats.evictions == 1
        cache.reset_stats()
        cache.read(np.array([15]), backing)  # page 1: resident
        assert cache.stats.hits == 1
        cache.read(np.array([7]), backing)   # page 0: gone
        assert cache.stats.misses == 1

    def test_row_cache_beats_uvm_on_sparse_hot_set(self):
        """The paper's granularity argument: for a scattered hot set, the
        row cache holds every hot row while UVM thrashes pages."""
        h, d = 4096, 4
        backing_row = make_backing(h=h, d=d, seed=2)
        backing_uvm = make_backing(h=h, d=d, seed=2)
        capacity = 256
        row_cache = SetAssociativeCache(capacity_rows=capacity, ways=32)
        uvm = UVMPageCache(capacity_rows=capacity, rows_per_page=64)
        # hot rows scattered one per page
        hot = np.arange(0, h, h // 128)[:128]
        rng = np.random.default_rng(3)
        for _ in range(20):
            ids = rng.choice(hot, size=64)
            row_cache.read(ids, backing_row)
            uvm.read(ids, backing_uvm)
        assert row_cache.stats.hit_rate > uvm.stats.hit_rate
        assert backing_row.bytes_read < backing_uvm.bytes_read

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            UVMPageCache(capacity_rows=4, rows_per_page=8)

    def test_partial_last_page(self):
        """Backing stores whose row count is not a page multiple work."""
        cache = UVMPageCache(capacity_rows=16, rows_per_page=8)
        backing = make_backing(h=12)  # last page has 4 rows
        out = cache.read(np.array([11]), backing)
        np.testing.assert_array_equal(out[0], backing.rows[11])
        # the fill moves only the rows the page has
        assert backing.bytes_read == 4 * backing.row_bytes


class TestMemoryHierarchy:
    def test_hbm_pcie_gap(self):
        """Section 4.1.3: HBM is ~36-50x faster than PCIe-bound UVM."""
        hbm = 7.2e12 / 8  # per GPU
        pcie = 25e9       # PCIe gen3 x16 measured
        assert 30 <= hbm / pcie <= 50

"""Conformance suite for the unified ``RowCache`` API.

Every cache kind registered in :data:`repro.cache.CACHE_KINDS` runs
through the same read/write/flush/eviction/stats assertions, so a new
policy cannot drift from the protocol the consumers
(``CachedEmbeddingTable``, ``serving.export``, the benchmarks) type
against. The headline property is exactness: reads through any cache are
bitwise-identical to an uncached backing-store read (hypothesis-fuzzed
for the frequency-aware chunked cache, including interleaved writes).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (CACHE_KINDS, ArrayBackingStore, CacheStats,
                         CachedEmbeddingTable, FreqAwareCache,
                         PrefetchPipeline, RowCache, SetAssociativeCache,
                         make_cache)
from repro.data import (DataIngestionService, FrequencyStats,
                        SyntheticCTRDataset)
from repro.embedding import EmbeddingTableConfig
from repro.models import DLRM
from repro.obs import Tracer
from repro.serving import FreezeConfig, freeze

from .helpers import cache_state, tiny_config, tiny_dataset

H, D = 200, 8


def make_backing(seed=0, h=H, d=D):
    rng = np.random.default_rng(seed)
    return ArrayBackingStore(rng.normal(size=(h, d)).astype(np.float32))


@pytest.fixture(params=CACHE_KINDS)
def kind(request):
    return request.param


def build(kind, capacity_rows=64, d=D):
    return make_cache(kind, row_dim=d, capacity_rows=capacity_rows)


class TestConformance:
    def test_satisfies_protocol(self, kind):
        assert isinstance(build(kind), RowCache)

    def test_capacity_rows(self, kind):
        cache = build(kind, capacity_rows=64)
        # kinds may round down to their granularity, never exceed
        assert 1 <= cache.capacity_rows <= 64

    def test_read_returns_backing_values(self, kind):
        cache, backing = build(kind), make_backing()
        ids = np.array([1, 17, 33, 1, 199], dtype=np.int64)
        np.testing.assert_array_equal(cache.read(ids, backing),
                                      backing.rows[ids])

    def test_miss_then_hit(self, kind):
        cache, backing = build(kind), make_backing()
        cache.read(np.array([3]), backing)
        assert cache.stats.misses == 1 and cache.stats.hits == 0
        assert cache.stats.fills >= 1
        cache.read(np.array([3]), backing)
        assert cache.stats.hits == 1
        assert cache.stats.accesses == 2

    def test_write_then_read(self, kind):
        cache, backing = build(kind), make_backing()
        new = np.full((1, D), 9.0, dtype=np.float32)
        cache.write(np.array([7]), new, backing)
        np.testing.assert_array_equal(cache.read(np.array([7]), backing),
                                      new)

    def test_flush_persists_writes(self, kind):
        cache, backing = build(kind), make_backing()
        vals = np.arange(2 * D, dtype=np.float32).reshape(2, D)
        cache.write(np.array([2, 90]), vals, backing)
        assert cache.flush(backing) > 0
        np.testing.assert_array_equal(backing.rows[2], vals[0])
        np.testing.assert_array_equal(backing.rows[90], vals[1])
        assert cache.flush(backing) == 0  # idempotent

    def test_eviction_under_pressure_stays_exact(self, kind):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        rng = np.random.default_rng(1)
        for _ in range(30):
            ids = rng.integers(0, H, size=16)
            np.testing.assert_array_equal(cache.read(ids, backing),
                                          backing.rows[ids])
        assert cache.stats.evictions > 0

    def test_contains(self, kind):
        cache, backing = build(kind), make_backing()
        assert not cache.contains(5)
        cache.read(np.array([5]), backing)
        assert cache.contains(5)

    def test_prefetch_turns_misses_into_hits(self, kind):
        cache, backing = build(kind), make_backing()
        # ids within one UVM page so every kind can hold all of them
        ids = np.array([3, 17, 42], dtype=np.int64)
        staged = cache.prefetch_rows(ids, backing)
        assert staged > 0
        assert cache.stats.prefetched_rows >= len(ids)
        assert cache.stats.misses == 0  # prefetches are not demand misses
        out = cache.read(ids, backing)
        assert cache.stats.misses == 0 and cache.stats.hits == len(ids)
        np.testing.assert_array_equal(out, backing.rows[ids])

    def test_reset_stats_clears_every_counter(self, kind):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        rng = np.random.default_rng(2)
        for _ in range(10):
            cache.write(rng.integers(0, H, size=4),
                        np.ones((4, D), dtype=np.float32), backing)
            cache.read(rng.integers(0, H, size=8), backing)
        cache.prefetch_rows(np.array([150]), backing)
        assert cache.stats.fills > 0
        cache.reset_stats()
        assert cache.stats == CacheStats()

    @pytest.mark.parametrize("bad", [-1, H])
    @pytest.mark.parametrize("op", ["read", "write", "prefetch_rows"])
    def test_out_of_range_id_rejected_before_any_change(self, kind, op,
                                                        bad):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        cache.write(np.array([1, 2]), np.ones((2, D), dtype=np.float32),
                    backing)
        cache.read(np.arange(0, 40, 3), backing)
        before = cache_state(cache, backing)
        ids = np.array([5, bad, 7], dtype=np.int64)
        args = (ids, np.ones((3, D), dtype=np.float32)) if op == "write" \
            else (ids,)
        with pytest.raises(ValueError, match=rf"\[0, {H}\)"):
            getattr(cache, op)(*args, backing)
        assert cache_state(cache, backing) == before
        assert not cache.contains(bad)
        assert not build(kind).contains(bad)

    @pytest.mark.parametrize("bad", [
        np.array([1.9, 0.2]), np.array([True, False]),
        np.array([[1, 2], [3, 4]]), [[1], [2]], np.int64(3)],
        ids=["float", "bool", "2d", "nested-list", "scalar"])
    @pytest.mark.parametrize("op", ["read", "write", "prefetch_rows"])
    def test_non_integer_or_non_1d_ids_rejected_before_any_change(
            self, kind, op, bad):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        cache.write(np.array([1, 2]), np.ones((2, D), dtype=np.float32),
                    backing)
        cache.read(np.arange(0, 40, 3), backing)
        before = cache_state(cache, backing)
        args = (bad, np.ones((2, D), dtype=np.float32)) if op == "write" \
            else (bad,)
        with pytest.raises(ValueError, match="row ids must be"):
            getattr(cache, op)(*args, backing)
        assert cache_state(cache, backing) == before

    def test_empty_id_list_is_valid(self, kind):
        cache, backing = build(kind), make_backing()
        assert cache.read([], backing).shape == (0, D)
        cache.write([], np.zeros((0, D), dtype=np.float32), backing)
        assert cache.prefetch_rows([], backing) == 0
        assert cache.stats == CacheStats()

    def test_shared_stats_dataclass(self, kind):
        # one CacheStats for every implementation — the drift fix
        assert type(build(kind).stats) is CacheStats


class TestCachedTableIdRange:
    @pytest.mark.parametrize("bad", [-1, H])
    def test_forward_rejects_out_of_range_id(self, kind, bad):
        config = EmbeddingTableConfig("t", H, D)
        table = CachedEmbeddingTable(config, build(kind))
        with pytest.raises(ValueError, match=rf"\[0, {H}\)"):
            table.forward(np.array([bad]), np.array([0, 1]))
        assert table.cache.stats == CacheStats()


class TestUVMStatsDriftFix:
    def test_pages_migrated_cannot_drift_from_reset(self):
        cache, backing = build("uvm"), make_backing()
        cache.read(np.array([0, 100]), backing)
        assert cache.pages_migrated == cache.stats.fills > 0
        cache.reset_stats()
        assert cache.pages_migrated == 0  # alias, not a second counter


class TestMakeCache:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_cache("direct_mapped", row_dim=4, capacity_rows=8)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_cache("freq_aware", row_dim=0, capacity_rows=8)
        with pytest.raises(ValueError):
            make_cache("uvm", row_dim=4, capacity_rows=0)

    def test_kind_specific_config(self):
        cache = make_cache("set_associative", row_dim=4, capacity_rows=64,
                           ways=4, policy="lfu")
        assert cache.ways == 4 and cache.policy == "lfu"
        cache = make_cache("freq_aware", row_dim=4, capacity_rows=64,
                           chunk_rows=16)
        assert cache.chunk_rows == 16

    def test_cached_table_accepts_kind_name(self):
        cfg = EmbeddingTableConfig("t", H, D)
        table = CachedEmbeddingTable(
            cfg, "freq_aware", rng=np.random.default_rng(0),
            cache_config={"capacity_rows": 32})
        assert isinstance(table.cache, FreqAwareCache)
        indices = np.array([1, 5, 9, 1], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        out = table.forward(indices, offsets)
        assert out.shape == (2, D)
        with pytest.raises(ValueError):
            CachedEmbeddingTable(cfg, "freq_aware")  # no capacity


class TestRemovedShims:
    """The pre-protocol constructor shims were removed after their
    deprecation window — the old keywords now raise ``TypeError``."""

    def test_num_sets_constructor_removed(self):
        with pytest.raises(TypeError):
            SetAssociativeCache(num_sets=4, row_dim=D, ways=2)

    def test_canonical_form_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SetAssociativeCache(capacity_rows=8, row_dim=D, ways=2)

    def test_freeze_config_cache_rows_fraction_removed(self):
        with pytest.raises(TypeError):
            FreezeConfig(cache_rows_fraction=0.5)

    def test_freeze_config_cache_ways_removed(self):
        with pytest.raises(TypeError):
            FreezeConfig(cache_ways=8)

    def test_freeze_config_validates_kind(self):
        with pytest.raises(ValueError):
            FreezeConfig(cache_kind="direct_mapped")


class TestFreqAwareCache:
    def test_warm_packs_hottest_rows(self):
        cache = FreqAwareCache(capacity_rows=32, row_dim=D, chunk_rows=8)
        backing = make_backing()
        hist = np.zeros(H, dtype=np.int64)
        hist[:40] = np.arange(40, 0, -1)  # ids 0..39, hottest first
        assert cache.warm(hist, backing) == 32
        assert all(cache.contains(i) for i in range(32))
        assert not cache.contains(33)

    def test_warm_rejects_bad_histogram(self):
        cache = FreqAwareCache(capacity_rows=32, row_dim=D)
        with pytest.raises(ValueError):
            cache.warm(np.zeros(H - 1), make_backing())

    def test_warmed_scores_outlive_reactive_admissions(self):
        """A frequency-ranked hot chunk survives one-touch traffic."""
        cache = FreqAwareCache(capacity_rows=16, row_dim=D, chunk_rows=8)
        backing = make_backing()
        hist = np.zeros(H, dtype=np.int64)
        hist[:8] = 100
        cache.warm(hist, backing)
        # stream of cold one-touch ids fills and churns the other chunk
        for i in range(50, 90):
            cache.read(np.array([i]), backing)
        assert all(cache.contains(i) for i in range(8))

    def test_chunk_eviction_writes_back_dirty_rows(self):
        cache = FreqAwareCache(capacity_rows=4, row_dim=D, chunk_rows=4)
        backing = make_backing()
        new = np.full((1, D), 5.0, dtype=np.float32)
        cache.write(np.array([0]), new, backing)
        for i in range(1, 9):  # churn past capacity: chunk 0 evicted
            cache.read(np.array([i]), backing)
        np.testing.assert_array_equal(backing.rows[0], new[0])
        assert cache.stats.writebacks >= 1

    def test_beats_set_associative_on_zipf(self):
        """The tentpole claim, in miniature: with the hot set known in
        advance, the warmed chunked cache out-hits reactive LRU."""
        from repro.data import zipf_indices
        h, capacity = 4096, 256
        backing_fa = make_backing(seed=2, h=h)
        backing_sa = make_backing(seed=2, h=h)
        rng = np.random.default_rng(3)
        trace = [zipf_indices(h, 512, rng, alpha=1.1) for _ in range(20)]
        hist = np.bincount(np.concatenate(trace[:5]), minlength=h)
        fa = make_cache("freq_aware", row_dim=D, capacity_rows=capacity)
        fa.warm(hist, backing_fa)
        fa.reset_stats()
        sa = make_cache("set_associative", row_dim=D,
                        capacity_rows=capacity)
        for ids in trace[5:]:
            np.testing.assert_array_equal(fa.read(ids, backing_fa),
                                          backing_fa.rows[ids])
            sa.read(ids, backing_sa)
        assert fa.stats.hit_rate > sa.stats.hit_rate

    @given(st.lists(st.integers(min_value=0, max_value=H - 1),
                    min_size=1, max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_fuzz_bitwise_identical_to_uncached(self, trace):
        """Reads through FreqAwareCache == uncached backing reads,
        bitwise, under interleaved writes, eviction and prefetch."""
        cache = FreqAwareCache(capacity_rows=16, row_dim=D, chunk_rows=4)
        backing = make_backing(seed=1)
        shadow = backing.rows.copy()
        rng = np.random.default_rng(0)
        for i, row in enumerate(trace):
            if i % 5 == 4:
                cache.prefetch_rows(np.array([row]), backing)
            elif i % 3 == 2:
                val = rng.normal(size=(1, D)).astype(np.float32)
                cache.write(np.array([row]), val, backing)
                shadow[row] = val[0]
            else:
                out = cache.read(np.array([row]), backing)
                np.testing.assert_array_equal(out[0], shadow[row])
        cache.flush(backing)
        np.testing.assert_array_equal(backing.rows, shadow)


class TestPrefetchPipeline:
    def test_stage_hides_under_compute(self):
        cache = make_cache("freq_aware", row_dim=D, capacity_rows=64)
        backing = make_backing()
        pipe = PrefetchPipeline(cache, backing, tracer=Tracer())
        staged = pipe.stage(np.array([1, 2, 3]), compute_s=10.0)
        assert staged == 3
        report = pipe.overlap_report()
        assert report["rows_staged"] == 3
        assert report["bytes_staged"] == 3 * backing.row_bytes
        assert report["exposed_s"] == pytest.approx(0.0)
        assert report["hidden_frac"] == pytest.approx(1.0)

    def test_no_compute_window_is_fully_exposed(self):
        cache = make_cache("set_associative", row_dim=D, capacity_rows=64)
        pipe = PrefetchPipeline(cache, make_backing())
        pipe.stage(np.array([1, 2, 3]))
        report = pipe.overlap_report()
        assert report["hidden_s"] == 0.0
        assert report["exposed_s"] == report["prefetch_s"] > 0.0

    def test_emits_cache_prefetch_spans(self):
        tracer = Tracer()
        cache = make_cache("freq_aware", row_dim=D, capacity_rows=64)
        pipe = PrefetchPipeline(cache, make_backing(), tracer=tracer)
        pipe.stage(np.array([1, 2, 3]), compute_s=1.0)
        spans = tracer.trace.find("cache.prefetch")
        assert len(spans) == 1
        assert spans[0].args["staged"] == 3


class TestFrequencyStats:
    def test_ingestion_tracks_frequencies(self):
        config = tiny_config()
        ds = tiny_dataset(config)
        service = DataIngestionService(ds, world_size=2,
                                      global_batch_size=32,
                                      track_frequencies=True)
        for _ in range(3):
            service.next_batch()
        stats = service.frequency_stats
        assert stats.batches_observed >= 3
        assert set(stats.tables) == {t.name for t in config.tables}
        name = config.tables[0].name
        hist = stats.histogram(name, config.tables[0].num_embeddings)
        assert hist.sum() == stats.total(name) > 0

    def test_merge_across_readers(self):
        a, b = FrequencyStats(), FrequencyStats()
        a.update_ids("t", np.array([1, 1, 2]))
        b.update_ids("t", np.array([2, 3]))
        a.merge(b)
        np.testing.assert_array_equal(a.histogram("t", 4), [0, 2, 2, 1])

    def test_top_ids_and_coverage(self):
        stats = FrequencyStats()
        stats.update_ids("t", np.array([5, 5, 5, 2, 2, 9]))
        np.testing.assert_array_equal(stats.top_ids("t", 2), [5, 2])
        assert stats.coverage("t", [5, 2]) == pytest.approx(5 / 6)
        assert stats.coverage("missing", [1]) == 0.0

    def test_histogram_rejects_out_of_range(self):
        stats = FrequencyStats()
        stats.update_ids("t", np.array([10]))
        with pytest.raises(ValueError):
            stats.histogram("t", 5)


class TestFreezeFreqAware:
    def test_freq_aware_cold_serving_is_bitwise_exact(self):
        config = tiny_config()
        model = DLRM(config, seed=4)
        ds = tiny_dataset(config)
        service = DataIngestionService(ds, world_size=1,
                                      global_batch_size=32,
                                      track_frequencies=True)
        for _ in range(4):
            service.next_batch()
        servable = freeze(
            model, FreezeConfig(hot_bytes=0.0, cache_kind="freq_aware"),
            frequency_stats=service.frequency_stats)
        batch = ds.batch(32, 50)
        np.testing.assert_array_equal(servable.forward(batch),
                                      model.forward(batch))
        # the warm pre-packed rows and they are paying off
        for name in servable.cold_table_names:
            cache = servable.cold_tables[name].cache
            assert cache.warmed_rows > 0
            assert cache.stats.hits > 0

    def test_frequency_aware_packing_prefers_hot_tables(self):
        config = tiny_config(num_tables=2)
        model = DLRM(config, seed=0)
        names = [t.name for t in config.tables]
        stats = FrequencyStats()
        stats.update_ids(names[1], np.arange(50) % 7)  # table 1 is hot
        table_bytes = config.tables[0].num_parameters * 4
        servable = freeze(model, FreezeConfig(hot_bytes=float(table_bytes)),
                          frequency_stats=stats)
        assert servable.hot_table_names == [names[1]]
        assert servable.cold_table_names == [names[0]]

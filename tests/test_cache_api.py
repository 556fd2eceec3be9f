"""Conformance suite for the unified read-only ``RowCache`` API.

Every cache kind registered in :data:`repro.cache.CACHE_KINDS` runs
through the same read/eviction/stats assertions, so a new policy cannot
drift from the protocol the consumers (``serving.export``, the
benchmarks) type against. The headline property is exactness: reads
through any cache are bitwise-identical to an uncached backing-store
read (hypothesis-fuzzed for the frequency-aware chunked cache, including
interleaved prefetches). ``TestPinnedTraffic`` pins each kind's traffic
on one seeded trace.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import (CACHE_KINDS, ArrayBackingStore, CacheStats,
                         FreqAwareCache, PrefetchPipeline, RowCache,
                         SetAssociativeCache, make_cache)
from repro.data import DataIngestionService, FrequencyStats, zipf_indices
from repro.embedding import EmbeddingTable, EmbeddingTableConfig
from repro.models import DLRM
from repro.obs import Tracer
from repro.serving import FreezeConfig, freeze
from repro.serving.export import _ColdTable

from .helpers import cache_state, tiny_config, tiny_dataset

H, D = 200, 8


def make_backing(seed=0, h=H, d=D):
    rng = np.random.default_rng(seed)
    return ArrayBackingStore(rng.normal(size=(h, d)).astype(np.float32))


@pytest.fixture(params=CACHE_KINDS)
def kind(request):
    return request.param


def build(kind, capacity_rows=64):
    return make_cache(kind, capacity_rows=capacity_rows)


# every (kind, op) pair that takes row ids: ``read`` on every kind, and
# the frequency-aware cache's staging
ID_OPS = [(kind, "read") for kind in CACHE_KINDS] \
    + [("freq_aware", "prefetch_rows")]


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

    def test_eviction_under_pressure_stays_exact(self, kind):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        rng = np.random.default_rng(1)
        for _ in range(30):
            ids = rng.integers(0, H, size=16)
            np.testing.assert_array_equal(cache.read(ids, backing),
                                          backing.rows[ids])
        assert cache.stats.evictions > 0

    # staging ahead of use is the frequency-aware cache's alone
    @pytest.mark.parametrize("kind", ["freq_aware"])
    def test_prefetch_turns_misses_into_hits(self, kind):
        cache, backing = build(kind), make_backing()
        ids = np.array([3, 17, 42], dtype=np.int64)
        assert cache.prefetch_rows(ids, backing) == len(ids)
        assert cache.stats.prefetched_rows == len(ids)
        assert cache.stats.misses == 0  # prefetches are not demand misses
        assert backing.bytes_read == len(ids) * backing.row_bytes
        out = cache.read(ids, backing)
        assert cache.stats.misses == 0 and cache.stats.hits == len(ids)
        np.testing.assert_array_equal(out, backing.rows[ids])

    def test_reset_stats_clears_every_counter(self, kind):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        rng = np.random.default_rng(2)
        for _ in range(10):
            cache.read(rng.integers(0, H, size=8), backing)
        if kind == "freq_aware":
            cache.prefetch_rows(np.array([150]), backing)
        assert cache.stats.fills > 0 and cache.stats.evictions > 0
        cache.reset_stats()
        assert cache.stats == CacheStats()

    @pytest.mark.parametrize("bad", [-1, H])
    @pytest.mark.parametrize("kind,op", ID_OPS)
    def test_out_of_range_id_rejected_before_any_change(self, kind, op,
                                                        bad):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        cache.read(np.arange(0, 40, 3), backing)
        before = cache_state(cache, backing)
        with pytest.raises(ValueError, match=rf"\[0, {H}\)"):
            getattr(cache, op)(np.array([5, bad, 7]), backing)
        assert cache_state(cache, backing) == before

    @pytest.mark.parametrize("bad", [
        np.array([1.9, 0.2]), np.array([True, False]),
        np.array([[1, 2], [3, 4]]), [[1], [2]], np.int64(3)],
        ids=["float", "bool", "2d", "nested-list", "scalar"])
    @pytest.mark.parametrize("kind,op", ID_OPS)
    def test_non_integer_or_non_1d_ids_rejected_before_any_change(
            self, kind, op, bad):
        cache, backing = build(kind, capacity_rows=8), make_backing()
        cache.read(np.arange(0, 40, 3), backing)
        before = cache_state(cache, backing)
        with pytest.raises(ValueError, match="row ids must be"):
            getattr(cache, op)(bad, backing)
        assert cache_state(cache, backing) == before

    def test_empty_id_list_is_valid(self, kind):
        cache, backing = build(kind), make_backing()
        assert cache.read([], backing).shape == (0, D)
        if kind == "freq_aware":
            assert cache.prefetch_rows([], backing) == 0
        assert cache.stats == CacheStats()
        assert backing.bytes_read == 0

    def test_shared_stats_dataclass(self, kind):
        # one CacheStats for every implementation — the drift fix
        assert type(build(kind).stats) is CacheStats


class TestCachedTableIdRange:
    @pytest.mark.parametrize("bad", [-1, H])
    def test_forward_rejects_out_of_range_id(self, kind, bad):
        """The serving cold table rejects an id outside the table before
        its cache sees it: a negative id would otherwise read (and be
        counted as) a row from the end."""
        table = _ColdTable("t", make_backing().rows, "sum", kind, 0.32)
        with pytest.raises(IndexError, match=f"H={H}"):
            table.forward(np.array([bad]), np.array([0, 1]))
        assert table.cache.stats == CacheStats()
        assert table.backing.bytes_read == 0


class TestColdTable:
    """The serving cold table pools rows read through its cache."""

    def test_matches_uncached_forward(self, kind):
        rows = make_backing().rows
        table = _ColdTable("t", rows, "sum", kind, 0.32)
        indices = np.array([1, 5, 9, 1, 199], dtype=np.int64)
        offsets = np.array([0, 2, 5], dtype=np.int64)
        plain = EmbeddingTable(EmbeddingTableConfig("t", H, D),
                               weight=rows.copy())
        np.testing.assert_array_equal(table.forward(indices, offsets),
                                      plain.forward(indices, offsets))
        assert table.cache.stats.accesses == 4  # one per unique id

    def test_empty_batch(self, kind):
        table = _ColdTable("t", make_backing().rows, "sum", kind, 0.32)
        out = table.forward(np.zeros(0, dtype=np.int64),
                            np.zeros(3, dtype=np.int64))
        assert out.shape == (2, D) and not out.any()
        assert table.cache.stats == CacheStats()


class TestMakeCache:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            make_cache("direct_mapped", capacity_rows=8)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            make_cache("freq_aware", capacity_rows=0)
        with pytest.raises(ValueError):
            make_cache("uvm", capacity_rows=0)

    def test_kind_specific_config(self):
        cache = make_cache("set_associative", capacity_rows=64,
                           ways=4, policy="lfu")
        assert cache.ways == 4 and cache.policy == "lfu"
        cache = make_cache("freq_aware", capacity_rows=64, chunk_rows=16)
        assert cache.chunk_rows == 16

    def test_takes_no_row_width(self, kind):
        # a cache holds no rows: the width is the backing store's
        with pytest.raises(TypeError):
            make_cache(kind, capacity_rows=64, row_dim=D)


class TestRemovedShims:
    """The pre-protocol constructor shims were removed after their
    deprecation window — the old keywords now raise ``TypeError``."""

    def test_num_sets_constructor_removed(self):
        with pytest.raises(TypeError):
            SetAssociativeCache(num_sets=4, ways=2)

    def test_canonical_form_does_not_warn(self):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SetAssociativeCache(capacity_rows=8, ways=2)

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
        cache = FreqAwareCache(capacity_rows=32, chunk_rows=8)
        backing = make_backing()
        hist = np.zeros(H, dtype=np.int64)
        hist[:40] = np.arange(40, 0, -1)  # ids 0..39, hottest first
        assert cache.warm(hist, backing) == 32
        assert backing.bytes_read == 32 * backing.row_bytes
        cache.read(np.arange(32), backing)
        assert cache.stats.hits == 32 and cache.stats.misses == 0
        cache.read(np.array([33]), backing)
        assert cache.stats.misses == 1

    def test_warm_rejects_bad_histogram(self):
        cache = FreqAwareCache(capacity_rows=32)
        with pytest.raises(ValueError):
            cache.warm(np.zeros(H - 1), make_backing())

    def test_warmed_scores_outlive_reactive_admissions(self):
        """A frequency-ranked hot chunk survives one-touch traffic."""
        cache = FreqAwareCache(capacity_rows=16, chunk_rows=8)
        backing = make_backing()
        hist = np.zeros(H, dtype=np.int64)
        hist[:8] = 100
        cache.warm(hist, backing)
        # stream of cold one-touch ids fills and churns the other chunk
        for i in range(50, 90):
            cache.read(np.array([i]), backing)
        assert cache.stats.evictions > 0
        cache.reset_stats()
        cache.read(np.arange(8), backing)
        assert cache.stats.hits == 8

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
        fa = make_cache("freq_aware", capacity_rows=capacity)
        fa.warm(hist, backing_fa)
        fa.reset_stats()
        sa = make_cache("set_associative", capacity_rows=capacity)
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
        bitwise, under interleaved eviction and prefetch."""
        cache = FreqAwareCache(capacity_rows=16, chunk_rows=4)
        backing = make_backing(seed=1)
        shadow = backing.rows.copy()
        for i, row in enumerate(trace):
            if i % 5 == 4:
                cache.prefetch_rows(np.array([row]), backing)
            else:
                out = cache.read(np.array([row]), backing)
                np.testing.assert_array_equal(out[0], shadow[row])
        np.testing.assert_array_equal(cache.read(np.array(trace), backing),
                                      shadow[trace])
        assert backing.rows.tobytes() == shadow.tobytes()


class TestPrefetchPipeline:
    def test_stage_hides_under_compute(self):
        cache = make_cache("freq_aware", capacity_rows=64)
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
        cache = make_cache("freq_aware", capacity_rows=64)
        pipe = PrefetchPipeline(cache, make_backing())
        pipe.stage(np.array([1, 2, 3]))
        report = pipe.overlap_report()
        assert report["hidden_s"] == 0.0
        assert report["exposed_s"] == report["prefetch_s"] > 0.0

    def test_emits_cache_prefetch_spans(self):
        tracer = Tracer()
        cache = make_cache("freq_aware", capacity_rows=64)
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
        # the warm pre-packed rows pay off: one deduplicated dispatch
        # reads each id once, so every hit is a warmed row; warm traffic
        # counts in no counter, so the fills are the demand misses
        for name in servable.cold_table_names:
            cache = servable.cold_tables[name].cache
            assert cache.stats.fills == cache.stats.misses
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


class TestPinnedTraffic:
    """Each kind's traffic on one seeded hashed-Zipf trace, pinned, so a
    change to admission, eviction or fill accounting shows."""

    H, D, CAPACITY = 2000, 8, 256
    # (hits, misses, evictions, fills, prefetched_rows, bytes_read)
    TRAFFIC = {
        "set_associative": (1630, 674, 418, 674, 0, 21568),
        "uvm": (573, 1731, 1727, 1731, 0, 3535872),
        "freq_aware": (1864, 440, 256, 754, 58, 24128),
    }
    ROWS_SHA256 = ("835b9120038166cb2f797013ac53820872f452ea"
                   "15b893fdbcd678ab480ddd26")

    def replay(self, kind):
        """Read nine batches through ``kind`` (a ``freq_aware`` cache is
        warmed from the first three and stages the fourth first)."""
        h = self.H
        permutation = np.random.default_rng(5).permutation(h)
        rng = np.random.default_rng(6)
        batches = [permutation[zipf_indices(h, 256, rng, alpha=1.1)]
                   for _ in range(9)]
        backing = ArrayBackingStore(np.random.default_rng(7).normal(
            size=(h, self.D)).astype(np.float32))
        cache = make_cache(kind, capacity_rows=self.CAPACITY)
        if kind == "freq_aware":
            cache.warm(np.bincount(np.concatenate(batches[:3]),
                                   minlength=h), backing)
            PrefetchPipeline(cache, backing).stage(batches[3])
        digest = hashlib.sha256()
        for ids in batches:
            digest.update(cache.read(ids, backing).tobytes())
        return cache, backing, digest.hexdigest()

    def test_traffic_and_rows(self, kind):
        cache, backing, rows_sha256 = self.replay(kind)
        s = cache.stats
        assert (s.hits, s.misses, s.evictions, s.fills, s.prefetched_rows,
                backing.bytes_read) == self.TRAFFIC[kind]
        assert rows_sha256 == self.ROWS_SHA256

    def test_holds_no_rows(self, kind):
        """No cache attribute is a float array but the frequency-aware
        chunk scores, one per chunk: the rows live in the store only."""
        cache, _, _ = self.replay(kind)
        floats = {name: value.shape for name, value in vars(cache).items()
                  if isinstance(value, np.ndarray)
                  and np.issubdtype(value.dtype, np.floating)}
        expected = {"_scores": (cache.capacity_chunks,)} \
            if kind == "freq_aware" else {}
        assert floats == expected

"""Tests for synthetic CTR data generation and the combined-format
batch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import MiniBatch, SyntheticCTRDataset, zipf_indices
from repro.embedding import EmbeddingTableConfig
from repro.serving.batcher import _StoreRows

from .reference_batch import (assert_same_batch, concat_features,
                              from_features, slice_features, take_features,
                              to_features)
from .reference_kernels import zipf_indices_reference


def make_tables(n=3, h=1000, pooling=5.0):
    return [EmbeddingTableConfig(f"t{i}", h, 8, avg_pooling=pooling)
            for i in range(n)]


class TestZipf:
    def test_range(self):
        rng = np.random.default_rng(0)
        ids = zipf_indices(100, 10_000, rng)
        assert ids.min() >= 0 and ids.max() < 100

    def test_skew(self):
        """Low ids (popular) dominate under Zipf."""
        rng = np.random.default_rng(1)
        ids = zipf_indices(1000, 100_000, rng, alpha=1.2)
        top10 = np.sum(ids < 10) / len(ids)
        assert top10 > 0.2

    def test_empty(self):
        rng = np.random.default_rng(0)
        assert len(zipf_indices(10, 0, rng)) == 0

    def test_invalid(self):
        with pytest.raises(ValueError):
            zipf_indices(0, 10, np.random.default_rng(0))

    def test_cached_cdf_matches_fresh_inverse_cdf_bitwise(self):
        """The per-(num_ids, alpha) CDF cache changes no drawn id."""
        for num_ids, alpha in ((20_000, 1.05), (20_000, 1.05), (37, 1.3)):
            ids = zipf_indices(num_ids, 4096, np.random.default_rng(3),
                               alpha=alpha)
            cdf = np.cumsum(
                np.arange(1, num_ids + 1, dtype=np.float64) ** (-alpha))
            cdf /= cdf[-1]
            fresh = np.searchsorted(cdf, np.random.default_rng(3).random(4096))
            np.testing.assert_array_equal(ids, fresh)
            assert ids.dtype == np.int64

    @pytest.mark.parametrize("size", [1, 2, 4096])
    def test_sorted_needle_search_equals_plain_searchsorted(self, size):
        from repro.data.datagen import _zipf_cdf
        cdf = _zipf_cdf(20_000, 1.05)
        ids = zipf_indices(20_000, size, np.random.default_rng(size))
        u = np.random.default_rng(size).random(size)
        np.testing.assert_array_equal(ids, np.searchsorted(cdf, u))
        assert ids.dtype == np.int64

    def test_needles_on_cdf_knots_match_plain_searchsorted(self):
        """Draws that sit exactly on CDF knots (and repeat) land where
        the plain unsorted search puts them."""
        from repro.data.datagen import _zipf_cdf

        class KnotDraws:
            def __init__(self, u):
                self.u = u

            def random(self, size):
                assert size == len(self.u)
                return self.u.copy()

        cdf = _zipf_cdf(37, 1.3)
        u = np.concatenate([cdf[[5, 0, 36, 5, 17]], [0.0, cdf[3]],
                            np.nextafter(cdf[[2, 9]], 0.0)])
        ids = zipf_indices(37, len(u), KnotDraws(u), alpha=1.3)
        np.testing.assert_array_equal(ids, np.searchsorted(cdf, u))
        assert len(zipf_indices(37, 0, KnotDraws(u[:0]), alpha=1.3)) == 0

    def test_cached_cdf_is_read_only(self):
        from repro.data.datagen import _zipf_cdf
        with pytest.raises(ValueError):
            _zipf_cdf(50, 1.05)[0] = 0.0

    @given(st.integers(min_value=1, max_value=500))
    @settings(max_examples=25)
    def test_bounds_property(self, n):
        ids = zipf_indices(n, 200, np.random.default_rng(n))
        assert np.all((0 <= ids) & (ids < n))


class _Draws:
    """A stand-in generator that hands out prescribed uniform draws."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


class TestZipfOracle:
    """The guide-table sampler against the searchsorted oracle of
    ``tests/reference_kernels.py``, on random draws mixed with draws
    that sit exactly on CDF knots, just below them and on guide-cell
    starts. Sizes cross the one-search threshold (700 draws) and ids up
    to 200 000 leave enough draws open for the stepped search."""

    @given(num_ids=st.one_of(st.integers(min_value=1, max_value=300),
                             st.sampled_from([1024, 20_000, 200_000])),
           size=st.sampled_from([1, 5, 700, 701, 2000, 6000]),
           alpha=st.sampled_from([0.8, 1.05, 1.2]),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_guide_equals_searchsorted(self, num_ids, size, alpha, seed):
        rng = np.random.default_rng(seed)
        u = rng.random(size)
        cdf = np.cumsum(
            np.arange(1, num_ids + 1, dtype=np.float64) ** (-alpha))
        cdf /= cdf[-1]
        if num_ids > 1:   # the last knot is 1.0, never a uniform draw
            knots = cdf[rng.integers(0, num_ids - 1, size)]
            pick = rng.integers(0, 4, size)
            u = np.where(pick == 0, knots, u)
            u = np.where(pick == 1, np.nextafter(knots, 0.0), u)
        cells = rng.integers(0, 1 << 16, size) / float(1 << 16)
        u = np.where(rng.integers(0, 8, size) == 0, cells, u)
        ids = zipf_indices(num_ids, size, _Draws(u), alpha=alpha)
        want = zipf_indices_reference(num_ids, size, _Draws(u), alpha=alpha)
        np.testing.assert_array_equal(ids, want)
        assert ids.dtype == np.int64

    def test_cached_guide_is_read_only(self):
        from repro.data.datagen import _zipf_guide
        with pytest.raises(ValueError):
            _zipf_guide(50, 1.05)[0] = 0


@st.composite
def combined_batches(draw):
    """A batch of 1..5 features in shuffled key order and 0..9 samples,
    bags of 0..3 ids, some features with every bag empty."""
    num_features = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.integers(min_value=0, max_value=9))
    lengths = np.array(draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=3),
                 min_size=rows, max_size=rows),
        min_size=num_features, max_size=num_features)),
        dtype=np.int64).reshape(num_features, rows)
    lengths[draw(st.lists(st.booleans(), min_size=num_features,
                          max_size=num_features))] = 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keys = draw(st.permutations([f"f{i}" for i in range(num_features)]))
    return MiniBatch(
        dense=rng.normal(size=(rows, 2)).astype(np.float32), keys=keys,
        lengths=lengths, ids=rng.integers(0, 100, int(lengths.sum())),
        labels=rng.integers(0, 2, rows).astype(np.float32))


def oracle_batch(batch: MiniBatch, features) -> MiniBatch:
    return from_features(batch.dense, features, batch.labels)


class TestCombinedBatchOracle:
    """The combined-format batch (one lengths matrix, one ids array,
    one vector op per batch op) against the per-feature dict layout of
    ``tests/reference_batch.py``."""

    @given(combined_batches())
    @settings(max_examples=60, deadline=None)
    def test_feature_is_a_view_of_the_dict_layout(self, batch):
        features = to_features(batch)
        assert list(features) == list(batch.keys)
        for name in batch.keys:
            ids, offsets = batch.feature(name)
            np.testing.assert_array_equal(ids, features[name][0])
            np.testing.assert_array_equal(offsets, features[name][1])
            assert ids.dtype == offsets.dtype == np.int64
            if len(ids):
                assert np.shares_memory(ids, batch.ids)
        assert batch.nnz == sum(len(ids) for ids, _ in features.values())
        assert_same_batch(oracle_batch(batch, features), batch)

    @given(combined_batches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_concat_of_split_is_the_batch(self, batch, data):
        parts = data.draw(st.sampled_from(
            [k for k in range(1, 10) if batch.batch_size % k == 0]))
        pieces = batch.split(parts)
        assert len(pieces) == parts
        step = batch.batch_size // parts
        features = to_features(batch)
        for i, piece in enumerate(pieces):
            want = slice_features(features, i * step, (i + 1) * step)
            assert_same_batch(piece, from_features(
                piece.dense, want, piece.labels))
        assert_same_batch(MiniBatch.concat(pieces), batch)
        assert_same_batch(MiniBatch.concat(pieces), oracle_batch(
            batch, concat_features([to_features(p) for p in pieces])))

    @given(combined_batches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_take_is_concat_of_row_slices(self, batch, data):
        rows = data.draw(st.lists(
            st.integers(min_value=0, max_value=batch.batch_size - 1),
            min_size=1, max_size=12)) if batch.batch_size else []
        taken = batch.take(np.array(rows, dtype=np.int64))
        want = take_features(to_features(batch), rows)
        assert_same_batch(taken, from_features(batch.dense[rows], want,
                                               batch.labels[rows]))
        if rows:
            assert_same_batch(taken, MiniBatch.concat(
                [batch.slice(r, r + 1) for r in rows]))

    @given(combined_batches(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_store_rows_view_is_the_store_slice(self, batch, data):
        start = data.draw(st.integers(0, batch.batch_size))
        stop = data.draw(st.integers(start, batch.batch_size))
        sliced = batch.slice(start, stop)
        view = _StoreRows(batch, start, stop, sliced.nnz)
        assert (view.batch_size, view.nnz) == (stop - start, sliced.nnz)
        assert_same_batch(view, sliced)
        for name in batch.keys:
            for got, want in zip(view.feature(name), sliced.feature(name)):
                np.testing.assert_array_equal(got, want)


class TestDataset:
    def test_batch_shapes(self):
        ds = SyntheticCTRDataset(make_tables(), dense_dim=6)
        b = ds.batch(32)
        assert b.dense.shape == (32, 6)
        assert b.labels.shape == (32,)
        assert b.keys == ("t0", "t1", "t2")
        assert b.lengths.shape == (3, 32)
        for name in b.keys:
            indices, offsets = b.feature(name)
            assert len(offsets) == 33
            assert offsets[-1] == len(indices)

    def test_deterministic(self):
        ds1 = SyntheticCTRDataset(make_tables(), seed=7)
        ds2 = SyntheticCTRDataset(make_tables(), seed=7)
        b1, b2 = ds1.batch(16, 3), ds2.batch(16, 3)
        np.testing.assert_array_equal(b1.dense, b2.dense)
        np.testing.assert_array_equal(b1.labels, b2.labels)
        np.testing.assert_array_equal(b1.lengths, b2.lengths)
        np.testing.assert_array_equal(b1.ids, b2.ids)

    def test_different_batches_differ(self):
        ds = SyntheticCTRDataset(make_tables())
        b0, b1 = ds.batch(16, 0), ds.batch(16, 1)
        assert not np.array_equal(b0.dense, b1.dense)

    def test_labels_binary(self):
        ds = SyntheticCTRDataset(make_tables())
        b = ds.batch(256)
        assert set(np.unique(b.labels)) <= {0.0, 1.0}

    def test_pooling_sizes_near_configured(self):
        tables = make_tables(pooling=10.0)
        ds = SyntheticCTRDataset(tables)
        b = ds.batch(2048)
        for mean_l in b.lengths.mean(axis=1):
            assert mean_l == pytest.approx(10.0, rel=0.15)

    def test_labels_are_learnable(self):
        """A logistic model on the planted features beats base rate —
        sanity check that the teacher actually injects signal."""
        ds = SyntheticCTRDataset(make_tables(n=1, h=50), dense_dim=4,
                                 noise=0.1, seed=1)
        b = ds.batch(4096)
        # the dense weights alone should correlate with labels
        proj = b.dense @ ds._dense_weights
        pos = proj[b.labels == 1].mean()
        neg = proj[b.labels == 0].mean()
        assert pos > neg + 0.3

    def test_base_rate_sane(self):
        ds = SyntheticCTRDataset(make_tables())
        rate = ds.base_rate()
        assert 0.05 < rate < 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCTRDataset([])
        with pytest.raises(ValueError):
            SyntheticCTRDataset(make_tables(), dense_dim=0)
        ds = SyntheticCTRDataset(make_tables())
        with pytest.raises(ValueError):
            ds.batch(0)


class TestMiniBatch:
    def make_batch(self):
        ds = SyntheticCTRDataset(make_tables(), dense_dim=4)
        return ds.batch(16)

    def test_slice_rebases_offsets(self):
        b = self.make_batch()
        s = b.slice(4, 8)
        assert s.batch_size == 4
        for name in s.keys:
            indices, offsets = s.feature(name)
            assert offsets[0] == 0
            assert offsets[-1] == len(indices)

    def test_split_preserves_content(self):
        b = self.make_batch()
        parts = b.split(4)
        assert len(parts) == 4
        np.testing.assert_array_equal(
            np.concatenate([p.dense for p in parts]), b.dense)
        np.testing.assert_array_equal(
            np.concatenate([p.labels for p in parts]), b.labels)
        for name in b.keys:
            joined = np.concatenate([p.feature(name)[0] for p in parts])
            np.testing.assert_array_equal(joined, b.feature(name)[0])

    def test_split_requires_divisibility(self):
        b = self.make_batch()
        with pytest.raises(ValueError):
            b.split(5)

    def test_slices_are_copies(self):
        b = self.make_batch()
        s = b.slice(0, 4)
        s.dense[0, 0] = 999.0
        assert b.dense[0, 0] != 999.0

    def test_rows_out_of_range_or_not_integers_raise(self):
        """Out-of-range rows, a reversed range, zero parts and
        non-integer rows are refused instead of returning a malformed
        or truncated batch."""
        b = self.make_batch().slice(0, 3)
        with pytest.raises(ValueError):
            b.slice(-1, 3)
        with pytest.raises(ValueError):
            b.slice(2, 1)
        with pytest.raises(ValueError):
            b.slice(0, 2.0)
        with pytest.raises(IndexError):
            b.slice(1, 4)
        with pytest.raises(ValueError):
            b.split(0)
        with pytest.raises(ValueError):
            b.take(np.array([0.7]))
        with pytest.raises(ValueError):
            b.take(np.array([True, False]))
        with pytest.raises(IndexError):
            b.take(np.array([3]))
        with pytest.raises(IndexError):
            b.take(np.array([-1]))
        assert b.slice(3, 3).batch_size == 0
        assert b.take(np.array([], dtype=np.int64)).batch_size == 0

    def test_layout_is_checked_at_construction(self):
        b = self.make_batch()
        fields = dict(dense=b.dense, keys=b.keys, lengths=b.lengths,
                      ids=b.ids, labels=b.labels)
        negative = b.lengths.copy()
        negative[0, 0] += negative[0, 1] + 1   # the same id count
        negative[0, 1] = -1
        for change, match in (
                (dict(lengths=negative), "non-negative"),
                (dict(ids=b.ids[:-1]), "lengths sum to"),
                (dict(lengths=b.lengths[:, :-1]), "samples"),
                (dict(lengths=b.lengths[:-1]), "samples"),
                (dict(labels=b.labels[:-1]), "samples"),
                (dict(ids=b.ids.reshape(1, -1)), "flat ids"),
                (dict(lengths=b.lengths.astype(np.float64)), "integers"),
                (dict(keys=("t0", "t0", "t1")), "duplicate")):
            with pytest.raises(ValueError, match=match):
                MiniBatch(**{**fields, **change})
        with pytest.raises(KeyError):
            b.feature("t9")

    def test_concat_needs_one_key_order(self):
        b = self.make_batch()
        swapped = MiniBatch(dense=b.dense, keys=("t1", "t0", "t2"),
                            lengths=b.lengths, ids=b.ids, labels=b.labels)
        with pytest.raises(ValueError, match="feature mismatch"):
            MiniBatch.concat([b, swapped])
        with pytest.raises(ValueError):
            MiniBatch.concat([])

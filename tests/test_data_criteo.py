"""Tests for the Criteo-shaped workload adapter."""

import numpy as np
import pytest

from repro.data import (CRITEO_NUM_DENSE, CRITEO_NUM_SPARSE,
                        CriteoLikeDataset, SyntheticCTRDataset,
                        criteo_dlrm_config, criteo_table_configs,
                        log_transform)

from .reference_batch import to_features


class TestLogTransform:
    def test_values(self):
        x = np.array([0.0, np.e - 1.0], dtype=np.float32)
        np.testing.assert_allclose(log_transform(x), [0.0, 1.0], rtol=1e-6)

    def test_negative_clamped(self):
        assert log_transform(np.array([-5.0]))[0] == 0.0


class TestTableConfigs:
    def test_26_tables(self):
        tables = criteo_table_configs()
        assert len(tables) == CRITEO_NUM_SPARSE == 26

    def test_full_cardinalities_skewed(self):
        tables = criteo_table_configs(max_rows=None)
        rows = [t.num_embeddings for t in tables]
        assert max(rows) > 10 ** 7
        assert min(rows) <= 10

    def test_max_rows_caps(self):
        tables = criteo_table_configs(max_rows=5000)
        assert all(t.num_embeddings <= 5000 for t in tables)
        # small tables keep their true cardinality
        assert any(t.num_embeddings < 5000 for t in tables)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            criteo_table_configs(embedding_dim=0)


class TestDLRMConfig:
    def test_shape(self):
        cfg = criteo_dlrm_config(max_rows=1000, embedding_dim=8)
        assert cfg.dense_dim == CRITEO_NUM_DENSE
        assert len(cfg.tables) == 26
        assert cfg.embedding_dim == 8


class TestCriteoLikeDataset:
    def test_batch_shape(self):
        ds = CriteoLikeDataset(max_rows=1000, embedding_dim=8)
        b = ds.batch(32)
        assert b.dense.shape == (32, 13)
        assert len(b.keys) == 26
        assert b.lengths.shape == (26, 32)

    def test_single_valued_categoricals(self):
        """Criteo semantics: exactly one id per feature per sample."""
        ds = CriteoLikeDataset(max_rows=1000)
        b = ds.batch(64)
        for name in b.keys:
            ids, offsets = b.feature(name)
            assert len(ids) == 64
            np.testing.assert_array_equal(np.diff(offsets), np.ones(64))

    def test_dense_nonnegative(self):
        ds = CriteoLikeDataset(max_rows=1000)
        b = ds.batch(128)
        assert np.all(b.dense >= 0)

    def test_ids_in_range(self):
        ds = CriteoLikeDataset(max_rows=500)
        b = ds.batch(256)
        for t in ds.tables:
            ids, _ = b.feature(t.name)
            assert ids.max() < t.num_embeddings

    def test_deterministic(self):
        a = CriteoLikeDataset(max_rows=100, seed=3).batch(16, 2)
        b = CriteoLikeDataset(max_rows=100, seed=3).batch(16, 2)
        np.testing.assert_array_equal(a.dense, b.dense)
        np.testing.assert_array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 8])
    def test_small_batches_keep_first_ids_and_zero_for_empty_bags(
            self, batch_size):
        """At B <= 4 many features have every bag empty; each sample
        still gets exactly one id per feature: its bag's first id, or
        id 0 for an empty bag."""
        ds = CriteoLikeDataset(max_rows=1000, seed=2)
        for index in range(12):
            b = ds.batch(batch_size, index)
            drawn = to_features(SyntheticCTRDataset.batch(ds, batch_size,
                                                          index))
            np.testing.assert_array_equal(b.lengths, 1)
            for name, (ids, offsets) in drawn.items():
                want = [ids[lo] if hi > lo else 0
                        for lo, hi in zip(offsets[:-1], offsets[1:])]
                np.testing.assert_array_equal(b.feature(name)[0], want)

    def test_trains_a_dlrm(self):
        """The public-workload path end to end."""
        from repro import nn
        from repro.embedding import SparseAdaGrad
        from repro.models import DLRM

        cfg = criteo_dlrm_config(max_rows=200, embedding_dim=8)
        ds = CriteoLikeDataset(max_rows=200, embedding_dim=8, noise=0.2,
                               seed=1)
        model = DLRM(cfg, seed=0)
        opt = nn.Adam(model.dense_parameters(), lr=0.01)
        sparse = SparseAdaGrad(lr=0.1)
        losses = [model.train_step(ds.batch(64, i), opt, sparse)
                  for i in range(40)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

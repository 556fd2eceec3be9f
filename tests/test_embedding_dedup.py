"""Tests for batch-level index deduplication: ``duplication_factor``, and
``dedup_forward``, the per-table hot lookup the serving oracle
(``tests/reference_serving.py``) runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import zipf_indices
from repro.embedding import (EmbeddingTable, EmbeddingTableConfig,
                             SparseSGD, duplication_factor,
                             lengths_to_offsets)

from .reference_serving import dedup_forward


def make_table(h=50, d=4, pooling="sum", seed=0):
    cfg = EmbeddingTableConfig("t", h, d, pooling_mode=pooling)
    return EmbeddingTable(cfg, rng=np.random.default_rng(seed))


class TestDedupForward:
    def test_matches_plain_forward(self):
        table = make_table()
        rng = np.random.default_rng(1)
        lengths = rng.integers(0, 6, size=8).astype(np.int64)
        indices = rng.integers(0, 50, size=int(lengths.sum())).astype(
            np.int64)
        offsets = lengths_to_offsets(lengths)
        plain = table.forward(indices, offsets)
        deduped, unique = dedup_forward(table, indices, offsets)
        np.testing.assert_array_equal(deduped, plain)
        assert unique == len(np.unique(indices))

    def test_mean_pooling(self):
        table = make_table(pooling="mean")
        indices = np.array([3, 3, 7], dtype=np.int64)
        offsets = np.array([0, 3], dtype=np.int64)
        plain = table.forward(indices, offsets)
        deduped, unique = dedup_forward(table, indices, offsets)
        np.testing.assert_array_equal(deduped, plain)
        assert unique == 2

    def test_backward_state_primed(self):
        """table.backward works after dedup_forward, identically."""
        t1, t2 = make_table(seed=2), make_table(seed=2)
        indices = np.array([1, 1, 4, 4, 4], dtype=np.int64)
        offsets = np.array([0, 2, 5], dtype=np.int64)
        dy = np.random.default_rng(3).normal(size=(2, 4)).astype(np.float32)
        t1.forward(indices, offsets)
        dedup_forward(t2, indices, offsets)
        g1, g2 = t1.backward(dy), t2.backward(dy)
        np.testing.assert_array_equal(g1.rows, g2.rows)
        np.testing.assert_array_equal(g1.values, g2.values)
        SparseSGD(lr=0.1).step(t1, g1)
        SparseSGD(lr=0.1).step(t2, g2)
        np.testing.assert_array_equal(t1.weight, t2.weight)

    def test_empty_batch(self):
        table = make_table()
        out, unique = dedup_forward(table, np.zeros(0, dtype=np.int64),
                                    np.array([0], dtype=np.int64))
        assert out.shape == (0, 4)
        assert unique == 0

    def test_out_of_range_raises(self):
        table = make_table(h=5)
        with pytest.raises(IndexError):
            dedup_forward(table, np.array([5], dtype=np.int64),
                          np.array([0, 1], dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=19), min_size=0,
                    max_size=60))
    @settings(max_examples=40)
    def test_equivalence_property(self, ids_list):
        table = make_table(h=20, d=3, seed=4)
        indices = np.array(ids_list, dtype=np.int64)
        offsets = np.array([0, len(ids_list)], dtype=np.int64)
        plain = table.forward(indices, offsets)
        deduped, _ = dedup_forward(table, indices, offsets)
        np.testing.assert_array_equal(deduped, plain)


class TestDuplicationFactor:
    def test_no_duplicates(self):
        assert duplication_factor(np.array([1, 2, 3])) == 1.0

    def test_all_same(self):
        assert duplication_factor(np.array([7] * 10)) == 10.0

    def test_empty(self):
        assert duplication_factor(np.zeros(0, dtype=np.int64)) == 1.0

    def test_zipf_traffic_highly_duplicated(self):
        """The production motivation: skewed DLRM inputs repeat hot ids,
        so dedup saves several-fold row traffic at realistic batch sizes."""
        rng = np.random.default_rng(0)
        ids = zipf_indices(100_000, 65536, rng, alpha=1.1)
        assert duplication_factor(ids) > 3.0

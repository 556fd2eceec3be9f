"""Tests for embedding tables, pooled lookup, and sparse gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import (EmbeddingTable, EmbeddingTableConfig,
                             lengths_to_offsets, offsets_to_lengths)


def make_table(h=10, d=4, pooling="sum", seed=0):
    cfg = EmbeddingTableConfig(name="t", num_embeddings=h, embedding_dim=d,
                               pooling_mode=pooling)
    return EmbeddingTable(cfg, rng=np.random.default_rng(seed))


class TestConfig:
    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            EmbeddingTableConfig("t", num_embeddings=0, embedding_dim=4)
        with pytest.raises(ValueError):
            EmbeddingTableConfig("t", num_embeddings=4, embedding_dim=-1)

    def test_invalid_pooling_raises(self):
        with pytest.raises(ValueError):
            EmbeddingTableConfig("t", 4, 4, pooling_mode="max")

    def test_num_parameters(self):
        cfg = EmbeddingTableConfig("t", 100, 16)
        assert cfg.num_parameters == 1600

    def test_memory_bytes_by_precision(self):
        cfg = EmbeddingTableConfig("t", 100, 16)
        assert cfg.memory_bytes("fp32") == 6400
        assert cfg.memory_bytes("fp16") == 3200
        assert cfg.memory_bytes("int8") == 1600


class TestOffsetsLengths:
    def test_round_trip(self):
        lengths = np.array([3, 0, 2, 5], dtype=np.int64)
        offsets = lengths_to_offsets(lengths)
        np.testing.assert_array_equal(offsets, [0, 3, 3, 5, 10])
        np.testing.assert_array_equal(offsets_to_lengths(offsets), lengths)

    @given(st.lists(st.integers(min_value=0, max_value=20), min_size=0,
                    max_size=50))
    @settings(max_examples=50)
    def test_round_trip_property(self, lengths_list):
        lengths = np.array(lengths_list, dtype=np.int64)
        np.testing.assert_array_equal(
            offsets_to_lengths(lengths_to_offsets(lengths)), lengths)


class TestLookup:
    def test_sum_pooling_matches_manual(self):
        table = make_table()
        indices = np.array([1, 2, 3, 7], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        out = table.forward(indices, offsets)
        w = table.weight
        np.testing.assert_allclose(out[0], w[1] + w[2], rtol=1e-6)
        np.testing.assert_allclose(out[1], w[3] + w[7], rtol=1e-6)

    def test_mean_pooling(self):
        table = make_table(pooling="mean")
        indices = np.array([0, 1, 2, 3], dtype=np.int64)
        offsets = np.array([0, 4], dtype=np.int64)
        out = table.forward(indices, offsets)
        np.testing.assert_allclose(out[0], table.weight[:4].mean(axis=0),
                                   rtol=1e-5)

    def test_empty_bag_is_zero(self):
        table = make_table()
        indices = np.array([5], dtype=np.int64)
        offsets = np.array([0, 0, 1], dtype=np.int64)
        out = table.forward(indices, offsets)
        np.testing.assert_array_equal(out[0], np.zeros(4, dtype=np.float32))
        np.testing.assert_allclose(out[1], table.weight[5])

    def test_empty_batch(self):
        table = make_table()
        out = table.forward(np.array([], dtype=np.int64),
                            np.array([0], dtype=np.int64))
        assert out.shape == (0, 4)

    def test_duplicate_indices_in_bag(self):
        table = make_table()
        indices = np.array([3, 3, 3], dtype=np.int64)
        offsets = np.array([0, 3], dtype=np.int64)
        out = table.forward(indices, offsets)
        np.testing.assert_allclose(out[0], 3 * table.weight[3], rtol=1e-6)

    def test_out_of_range_raises(self):
        table = make_table(h=5)
        with pytest.raises(IndexError):
            table.forward(np.array([5], dtype=np.int64),
                          np.array([0, 1], dtype=np.int64))
        with pytest.raises(IndexError):
            table.forward(np.array([-1], dtype=np.int64),
                          np.array([0, 1], dtype=np.int64))

    def test_bad_offsets_raise(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.forward(np.array([1, 2], dtype=np.int64),
                          np.array([0, 1], dtype=np.int64))  # ends at 1 != 2

    def test_custom_weight(self):
        w = np.arange(20, dtype=np.float32).reshape(5, 4)
        cfg = EmbeddingTableConfig("t", 5, 4)
        table = EmbeddingTable(cfg, weight=w)
        out = table.forward(np.array([2], dtype=np.int64),
                            np.array([0, 1], dtype=np.int64))
        np.testing.assert_array_equal(out[0], w[2])

    def test_wrong_weight_shape_raises(self):
        cfg = EmbeddingTableConfig("t", 5, 4)
        with pytest.raises(ValueError):
            EmbeddingTable(cfg, weight=np.zeros((4, 5)))


class TestBackward:
    def test_sparse_gradient_rows(self):
        table = make_table()
        indices = np.array([1, 2, 2], dtype=np.int64)
        offsets = np.array([0, 1, 3], dtype=np.int64)
        table.forward(indices, offsets)
        dy = np.ones((2, 4), dtype=np.float32)
        grad = table.backward(dy)
        np.testing.assert_array_equal(grad.rows, indices)
        # each occurrence gets its bag's upstream gradient
        np.testing.assert_array_equal(grad.entry_values(), np.ones((3, 4)))

    def test_dense_equivalence_sum(self):
        """Sparse backward densified == numerical dense gradient."""
        table = make_table(h=6, d=3)
        indices = np.array([0, 1, 1, 5], dtype=np.int64)
        offsets = np.array([0, 2, 4], dtype=np.int64)
        table.forward(indices, offsets)
        rng = np.random.default_rng(0)
        dy = rng.normal(size=(2, 3)).astype(np.float32)
        dense = table.backward(dy).to_dense()

        # numerical: d(sum(out * dy))/dW
        eps = 1e-2
        num = np.zeros_like(table.weight, dtype=np.float64)
        for i in range(6):
            for j in range(3):
                table.weight[i, j] += eps
                up = float(np.sum(table.forward(indices, offsets) * dy))
                table.weight[i, j] -= 2 * eps
                down = float(np.sum(table.forward(indices, offsets) * dy))
                table.weight[i, j] += eps
                num[i, j] = (up - down) / (2 * eps)
        np.testing.assert_allclose(dense, num, rtol=1e-2, atol=1e-3)

    def test_mean_pooling_scales_gradient(self):
        table = make_table(pooling="mean")
        indices = np.array([0, 1, 2, 3], dtype=np.int64)
        offsets = np.array([0, 4], dtype=np.int64)
        table.forward(indices, offsets)
        dy = np.ones((1, 4), dtype=np.float32)
        grad = table.backward(dy)
        np.testing.assert_allclose(grad.entry_values(), np.full((4, 4), 0.25))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            make_table().backward(np.zeros((1, 4), dtype=np.float32))

    def test_to_dense_requires_h(self):
        from repro.embedding import SparseGradient
        g = SparseGradient(rows=np.array([0]), values=np.zeros((1, 2)),
                           num_embeddings=0)
        with pytest.raises(ValueError):
            g.to_dense()

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_gradient_row_count_equals_nnz(self, batch, per_bag):
        table = make_table(h=20, d=2)
        rng = np.random.default_rng(batch * 10 + per_bag)
        lengths = np.full(batch, per_bag, dtype=np.int64)
        indices = rng.integers(0, 20, size=per_bag * batch).astype(np.int64)
        offsets = lengths_to_offsets(lengths)
        table.forward(indices, offsets)
        grad = table.backward(np.ones((batch, 2), dtype=np.float32))
        assert len(grad.rows) == len(indices)

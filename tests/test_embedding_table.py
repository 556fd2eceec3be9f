"""Tests for embedding tables, pooled lookup, and sparse gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.embedding import (EmbeddingTable, EmbeddingTableConfig,
                             SparseGradient, lengths_to_offsets,
                             offsets_to_lengths)

from .reference_kernels import to_dense_reference

# every float32: NaN payloads, +-inf, +-0.0 and subnormals included
FLOATS32 = st.floats(width=32)


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


@st.composite
def sparse_gradients(draw):
    """A gradient over few rows (heavy duplicates), in bag or COO form,
    possibly with no entries."""
    h = draw(st.integers(min_value=1, max_value=6))
    d = draw(st.integers(min_value=1, max_value=5))
    nnz = draw(st.integers(min_value=0, max_value=40))
    rows = draw(arrays(np.int64, nnz,
                       elements=st.integers(min_value=0, max_value=h - 1)))
    if draw(st.booleans()):
        bags = draw(st.integers(min_value=1, max_value=5))
        bag_ids = np.sort(draw(arrays(
            np.int64, nnz, elements=st.integers(min_value=0,
                                                max_value=bags - 1))))
        values = draw(arrays(np.float32, (bags, d), elements=FLOATS32))
        return SparseGradient(rows, values, h, bag_ids=bag_ids)
    values = draw(arrays(np.float32, (nnz, d), elements=FLOATS32))
    return SparseGradient(rows, values, h)


class TestToDense:
    """``to_dense`` scatters once into the flat ``(H*D,)`` buffer; the
    row-wise 2-D ``np.add.at`` of ``reference_kernels.py`` is its oracle,
    byte for byte."""

    @given(sparse_gradients())
    @settings(max_examples=80, deadline=None)
    def test_matches_row_wise_scatter(self, grad):
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = grad.to_dense(), to_dense_reference(grad)
        assert got.tobytes() == want.tobytes()

    def test_negative_zeros_on_one_row(self):
        grad = SparseGradient(rows=np.zeros(5, dtype=np.int64),
                              values=np.full((5, 3), -0.0, np.float32),
                              num_embeddings=2)
        dense = grad.to_dense()
        assert dense.tobytes() == to_dense_reference(grad).tobytes()
        assert not np.signbit(dense).any()  # 0.0 + -0.0 == +0.0

    def test_no_entries(self):
        grad = SparseGradient(rows=np.zeros(0, dtype=np.int64),
                              values=np.zeros((0, 4), np.float32),
                              num_embeddings=3)
        assert grad.to_dense().tobytes() == bytes(3 * 4 * 4)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_rank_offset_rows_densify_each_rank(self, world, batch, data):
        """Rank ``r``'s entries of one global backward, moved to rows
        ``r*H + row`` of an ``(R*H, D)`` gradient, densify to what rank
        ``r``'s own backward densifies to (the data-parallel exchange)."""
        h, d = 4, 3
        table = make_table(h=h, d=d)
        lengths = data.draw(arrays(
            np.int64, (world, batch),
            elements=st.integers(min_value=0, max_value=6)))
        ids = data.draw(arrays(np.int64, int(lengths.sum()),
                               elements=st.integers(min_value=0,
                                                    max_value=h - 1)))
        dy = data.draw(arrays(np.float32, (world * batch, d),
                              elements=FLOATS32))
        table.forward(ids, lengths_to_offsets(lengths.reshape(-1)))
        grad = table.backward(dy)
        by_rank = SparseGradient(
            rows=grad.rows + grad.bag_ids // batch * h, values=grad.values,
            num_embeddings=world * h, bag_ids=grad.bag_ids)
        with np.errstate(over="ignore", invalid="ignore"):
            got = by_rank.to_dense().reshape(world, h, d)
        ends = np.cumsum(lengths.sum(axis=1))
        for r in range(world):
            table.forward(ids[ends[r] - lengths[r].sum():ends[r]],
                          lengths_to_offsets(lengths[r]))
            with np.errstate(over="ignore", invalid="ignore"):
                want = to_dense_reference(
                    table.backward(dy[r * batch:(r + 1) * batch]))
            assert got[r].tobytes() == want.tobytes()

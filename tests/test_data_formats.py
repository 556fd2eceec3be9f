"""Tests for the combined sparse format and the redistribution of ids.

A :class:`MiniBatch` holds the paper's combined format (Section 4.4):
one ``(F, B)`` lengths matrix and one flat ids array, whatever the table
count. Joining per-rank batches is the ``(W, T, B) -> (T, W, B)``
permute of their segments, and the sparse exchange's index pass
bucketizes a row-wise table's ids by shard.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comms import ClusterTopology, SimProcessGroup
from repro.core.exchange import SparseExchange, bucket_of
from repro.data import MiniBatch, host_transfer_time
from repro.embedding import (EmbeddingTableConfig, SparseAdaGrad,
                             lengths_to_offsets)
from repro.models import DLRMConfig
from repro.obs import NULL_TRACER, MetricRegistry
from repro.sharding import (Shard, ShardingPlan, ShardingScheme,
                            TableShardingPlan)

from .reference_batch import assert_same_batch, from_features, to_features
from .reference_comms import to_slices
from .reference_kernels import bucketize_sparse_reference


def make_batch(num_tables=3, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = {}
    for i in range(num_tables):
        lengths = rng.integers(0, 5, size=batch).astype(np.int64)
        indices = rng.integers(0, 100, size=int(lengths.sum())).astype(
            np.int64)
        tables[f"t{i}"] = (indices, lengths_to_offsets(lengths))
    return from_features(np.zeros((batch, 2), dtype=np.float32), tables,
                         np.zeros(batch, dtype=np.float32))


def segments(lengths, values, num_features):
    """Per-rank batches of one sample whose bags are ``(W, T)`` segments
    laid out row-major in ``lengths`` and ``values``."""
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1, num_features)
    ends = np.cumsum(lengths.sum(axis=1))
    return [MiniBatch(dense=np.zeros((1, 1), dtype=np.float32),
                      keys=[f"t{t}" for t in range(num_features)],
                      lengths=rank[:, None], ids=values[end - rank.sum():end],
                      labels=np.zeros(1, dtype=np.float32))
            for rank, end in zip(lengths, ends)]


class TestFormats:
    def test_tensor_counts(self):
        """The Section 4.4 headline: 2T tensors vs 2, regardless of T."""
        batch = make_batch(num_tables=500)
        assert sum(len(pair) for pair in to_features(batch).values()) == 1000
        assert (batch.lengths.shape, batch.ids.ndim) == ((500, 4), 1)

    def test_round_trip(self):
        batch = make_batch()
        features = to_features(batch)
        assert_same_batch(from_features(batch.dense, features, batch.labels),
                          batch)
        for name, (ids, offsets) in features.items():
            np.testing.assert_array_equal(batch.feature(name)[0], ids)
            np.testing.assert_array_equal(batch.feature(name)[1], offsets)

    def test_combined_layout_table_major(self):
        batch = from_features(np.zeros((2, 1), dtype=np.float32), {
            "a": (np.array([1, 2], dtype=np.int64),
                  np.array([0, 1, 2], dtype=np.int64)),
            "b": (np.array([7], dtype=np.int64),
                  np.array([0, 0, 1], dtype=np.int64)),
        }, np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(batch.lengths.ravel(), [1, 1, 0, 1])
        np.testing.assert_array_equal(batch.ids, [1, 2, 7])
        np.testing.assert_array_equal(np.diff(batch.feature("b")[1]), [0, 1])

    def test_mismatched_batch_raises(self):
        batch = make_batch(batch=2)
        with pytest.raises(ValueError, match="1 samples"):
            MiniBatch(dense=batch.dense[:1], keys=batch.keys,
                      lengths=batch.lengths, ids=batch.ids,
                      labels=batch.labels[:1])

    def test_wrong_table_order_raises(self):
        batch = make_batch()
        with pytest.raises(ValueError, match="4 sparse features"):
            MiniBatch(dense=batch.dense, keys=batch.keys + ("t3",),
                      lengths=batch.lengths, ids=batch.ids,
                      labels=batch.labels)

    def test_combined_validation(self):
        dense, labels = np.zeros((2, 1)), np.zeros(2)
        with pytest.raises(ValueError):
            MiniBatch(dense=dense, keys=["a"], lengths=np.array([[1]]),
                      ids=np.array([0]), labels=labels)
        with pytest.raises(ValueError, match="lengths sum to 2"):
            MiniBatch(dense=dense[:1], keys=["a"], lengths=np.array([[2]]),
                      ids=np.array([0]), labels=labels[:1])

    def test_transfer_time_model(self):
        """Fewer tensors and pinned memory both cut H2D time."""
        many = host_transfer_time(1000, 1e6, pinned=True)
        few = host_transfer_time(2, 1e6, pinned=True)
        assert few < many
        pageable = host_transfer_time(2, 1e6, pinned=False)
        assert few < pageable

    def test_transfer_time_validation(self):
        with pytest.raises(ValueError):
            host_transfer_time(-1, 100)


class TestPermuteJagged:
    """``MiniBatch.concat`` of per-rank batches reorders their segments
    from ``(W, T, B)`` to ``(T, W, B)``; ``split`` reorders them back."""

    def test_wtb_to_twb(self):
        """The Section 4.4 permute: (W,T,B) -> (T,W,B)."""
        # segments in (W, T, B) order with distinct contents
        lengths = np.array([1, 2, 3, 4], dtype=np.int64)
        values = np.array([0, 10, 11, 20, 21, 22, 30, 31, 32, 33],
                          dtype=np.int64)
        joined = MiniBatch.concat(segments(lengths, values, 2))
        # new order: (t0,w0), (t0,w1), (t1,w0), (t1,w1)
        np.testing.assert_array_equal(joined.lengths.ravel(), [1, 3, 2, 4])
        np.testing.assert_array_equal(
            joined.ids, [0, 20, 21, 22, 10, 11, 30, 31, 32, 33])

    def test_identity_perm(self):
        batch = make_batch()
        assert_same_batch(MiniBatch.concat([batch]), batch)

    def test_double_permute_is_identity(self):
        ranks = [make_batch(num_tables=4, batch=2, seed=s) for s in range(3)]
        for got, want in zip(MiniBatch.concat(ranks).split(3), ranks):
            assert_same_batch(got, want)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(0, 5, size=12).astype(np.int64)
        values = rng.integers(0, 50, size=int(lengths.sum()))
        joined = MiniBatch.concat(segments(lengths, values, 4))
        np.testing.assert_array_equal(np.sort(joined.ids), np.sort(values))

    def test_validation(self):
        a, b = segments([1, 2], np.arange(3), 2)[0], make_batch(num_tables=2)
        with pytest.raises(ValueError):
            MiniBatch.concat([])
        with pytest.raises(ValueError, match="feature mismatch"):
            MiniBatch.concat([a, make_batch()])
        swapped = MiniBatch(dense=b.dense[:, :1], keys=b.keys[::-1],
                            lengths=b.lengths, ids=b.ids, labels=b.labels)
        with pytest.raises(ValueError, match="feature mismatch"):
            MiniBatch.concat([a, swapped])

    def test_empty_values(self):
        joined = MiniBatch.concat(segments(np.zeros(4, dtype=np.int64),
                                           np.zeros(0, dtype=np.int64), 2))
        assert len(joined.ids) == 0
        np.testing.assert_array_equal(joined.lengths, 0)


def bucketize(indices, lengths, boundaries):
    """Rank 0's bags of one row-wise table through the exchange's index
    pass, with the shard of rows ``[boundaries[k], boundaries[k + 1])``
    on rank ``k`` and empty bags on every other rank: each shard's
    ``(ids rebased to the shard, sub-bag lengths)``, as rank 0 sends
    them."""
    indices = np.asarray(indices, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    world, batch = len(boundaries) - 1, len(lengths)
    table = EmbeddingTableConfig("t", int(boundaries[-1]), 2)
    plan = ShardingPlan(world_size=world)
    plan.tables["t"] = TableShardingPlan(table, ShardingScheme.ROW_WISE, [
        Shard("t", k, (int(lo), int(hi)), (0, 2))
        for k, (lo, hi) in enumerate(zip(boundaries[:-1], boundaries[1:]))])
    metrics = MetricRegistry()
    exchange = SparseExchange(
        DLRMConfig(dense_dim=2, bottom_mlp=(2,), tables=(table,),
                   top_mlp=(2,)), plan, np.random.default_rng(0),
        SimProcessGroup(ClusterTopology(num_nodes=1, gpus_per_node=world),
                        registry=metrics),
        SparseAdaGrad(lr=0.1), NULL_TRACER, metrics)
    stacked = np.zeros((1, world, batch), dtype=np.int64)
    stacked[0, 0] = lengths
    empty = (np.zeros(0, dtype=np.int64), np.zeros(batch + 1, np.int64))
    _, ids, bags = exchange._row_wise_payloads(
        {"t": [(indices, lengths_to_offsets(lengths))]
         + [empty] * (world - 1)}, stacked)["t"]
    return list(zip(to_slices(*ids)[0], to_slices(*bags)[0]))


class TestBucketize:
    def test_basic_split(self):
        indices = np.array([0, 5, 9, 2, 7], dtype=np.int64)
        lengths = np.array([3, 2], dtype=np.int64)
        out = bucketize(indices, lengths, [0, 5, 10])
        lo_ids, lo_lengths = out[0]
        hi_ids, hi_lengths = out[1]
        np.testing.assert_array_equal(lo_ids, [0, 2])
        np.testing.assert_array_equal(lo_lengths, [1, 1])
        np.testing.assert_array_equal(hi_ids, [0, 4, 2])  # rebased by -5
        np.testing.assert_array_equal(hi_lengths, [2, 1])

    def test_multiset_preserved(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(0, 6, size=10).astype(np.int64)
        indices = rng.integers(0, 100, size=int(lengths.sum())).astype(
            np.int64)
        boundaries = [0, 30, 60, 100]
        out = bucketize(indices, lengths, boundaries)
        rebuilt = np.concatenate(
            [ids + boundaries[k] for k, (ids, _) in enumerate(out)])
        np.testing.assert_array_equal(np.sort(rebuilt), np.sort(indices))
        total_lengths = sum(l for _, l in out)
        np.testing.assert_array_equal(total_lengths, lengths)

    def test_boundary_ownership(self):
        """Row exactly at a boundary belongs to the upper bucket."""
        out = bucketize(np.array([5], dtype=np.int64),
                        np.array([1], dtype=np.int64), [0, 5, 10])
        assert len(out[0][0]) == 0
        np.testing.assert_array_equal(out[1][0], [0])

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            bucketize(np.array([10], dtype=np.int64),
                      np.array([1], dtype=np.int64), [0, 5, 10])

    def test_validation(self):
        """Shards that do not tile the table from row 0, or an empty
        shard, are refused before any id moves."""
        with pytest.raises(ValueError, match="tile rows"):
            bucketize(np.array([1]), np.array([1]), [1, 5])
        with pytest.raises(ValueError):
            bucketize(np.array([0]), np.array([1]), [0, 5, 5])

    @given(st.lists(st.integers(min_value=0, max_value=99), min_size=0,
                    max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_multiset_property(self, ids_list):
        indices = np.array(ids_list, dtype=np.int64)
        lengths = np.array([len(ids_list)], dtype=np.int64)
        boundaries = [0, 25, 50, 75, 100]
        out = bucketize(indices, lengths, boundaries)
        rebuilt = np.concatenate(
            [ids + boundaries[k] for k, (ids, _) in enumerate(out)])
        np.testing.assert_array_equal(np.sort(rebuilt), np.sort(indices))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_mask_loop_oracle(self, data):
        """``bucket_of`` (a guide over power-of-two cells, or
        ``searchsorted`` when the guide would have more cells than there
        are ids) cuts ids into buckets exactly as the bucket-by-bucket
        mask loop does, for uneven buckets down to one row, empty bags,
        ids on boundaries, and enough buckets to take both paths."""
        widths = data.draw(st.lists(st.integers(min_value=1, max_value=9),
                                    min_size=1, max_size=40))
        boundaries = np.concatenate([[0], np.cumsum(widths)])
        cuts = sorted({int(b) for b in boundaries[:-1]}
                      | {int(b) - 1 for b in boundaries[1:]})
        lengths = np.array(data.draw(st.lists(
            st.integers(min_value=0, max_value=5), max_size=12)),
            dtype=np.int64)
        indices = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from(cuts),
                      st.integers(min_value=0,
                                  max_value=int(boundaries[-1]) - 1)),
            min_size=int(lengths.sum()), max_size=int(lengths.sum()))),
            dtype=np.int64)
        bucket = bucket_of(indices, boundaries)
        bags = np.repeat(np.arange(len(lengths)), lengths)
        want = bucketize_sparse_reference(indices, lengths, boundaries)
        assert len(want) == len(widths)
        for k, (w_ids, w_len) in enumerate(want):
            mine = bucket == k
            np.testing.assert_array_equal(indices[mine] - boundaries[k],
                                          w_ids)
            np.testing.assert_array_equal(
                np.bincount(bags[mine], minlength=len(lengths)), w_len)

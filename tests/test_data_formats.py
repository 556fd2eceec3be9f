"""Tests for sparse input formats and redistribution kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (CombinedFormat, SeparateFormat, bucketize_sparse,
                        host_transfer_time, permute_jagged, replicate_sparse)
from repro.embedding import lengths_to_offsets

from .reference_kernels import bucketize_sparse_reference


def make_separate(num_tables=3, batch=4, seed=0):
    rng = np.random.default_rng(seed)
    tables = {}
    for i in range(num_tables):
        lengths = rng.integers(0, 5, size=batch).astype(np.int64)
        indices = rng.integers(0, 100, size=int(lengths.sum())).astype(
            np.int64)
        tables[f"t{i}"] = (indices, lengths_to_offsets(lengths))
    return SeparateFormat(tables=tables)


class TestFormats:
    def test_tensor_counts(self):
        """The Section 4.4 headline: 2T tensors vs 2, regardless of T."""
        sep = make_separate(num_tables=500)
        assert sep.num_tensors == 1000
        comb = sep.to_combined([f"t{i}" for i in range(500)])
        assert comb.num_tensors == 2

    def test_round_trip(self):
        sep = make_separate()
        comb = sep.to_combined(["t0", "t1", "t2"])
        back = comb.to_separate()
        for name in sep.tables:
            np.testing.assert_array_equal(back.tables[name][0],
                                          sep.tables[name][0])
            np.testing.assert_array_equal(back.tables[name][1],
                                          sep.tables[name][1])

    def test_combined_layout_table_major(self):
        sep = SeparateFormat(tables={
            "a": (np.array([1, 2], dtype=np.int64),
                  np.array([0, 1, 2], dtype=np.int64)),
            "b": (np.array([7], dtype=np.int64),
                  np.array([0, 0, 1], dtype=np.int64)),
        })
        comb = sep.to_combined(["a", "b"])
        np.testing.assert_array_equal(comb.lengths, [1, 1, 0, 1])
        np.testing.assert_array_equal(comb.indices, [1, 2, 7])
        np.testing.assert_array_equal(comb.table_lengths("b"), [0, 1])

    def test_mismatched_batch_raises(self):
        sep = SeparateFormat(tables={
            "a": (np.zeros(0, dtype=np.int64),
                  np.array([0, 0], dtype=np.int64)),       # B=1
            "b": (np.zeros(0, dtype=np.int64),
                  np.array([0, 0, 0], dtype=np.int64)),    # B=2
        })
        with pytest.raises(ValueError):
            sep.to_combined(["a", "b"])

    def test_wrong_table_order_raises(self):
        sep = make_separate()
        with pytest.raises(ValueError):
            sep.to_combined(["t0", "t1"])  # missing t2

    def test_combined_validation(self):
        with pytest.raises(ValueError):
            CombinedFormat(table_names=["a"], batch_size=2,
                           lengths=np.array([1], dtype=np.int64),
                           indices=np.array([0], dtype=np.int64))
        with pytest.raises(ValueError):
            CombinedFormat(table_names=["a"], batch_size=1,
                           lengths=np.array([2], dtype=np.int64),
                           indices=np.array([0], dtype=np.int64))

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
    def test_wtb_to_twb(self):
        """The Section 4.4 permute: (W,T,B) -> (T,W,B)."""
        w, t, b = 2, 2, 1
        # segments in (W, T, B) order with distinct contents
        lengths = np.array([1, 2, 3, 4], dtype=np.int64)
        values = np.array([0, 10, 11, 20, 21, 22, 30, 31, 32, 33],
                          dtype=np.int64)
        new_lengths, new_values = permute_jagged(lengths, values, (w, t, b),
                                                 (1, 0, 2))
        # new order: (t0,w0), (t0,w1), (t1,w0), (t1,w1)
        np.testing.assert_array_equal(new_lengths, [1, 3, 2, 4])
        np.testing.assert_array_equal(
            new_values, [0, 20, 21, 22, 10, 11, 30, 31, 32, 33])

    def test_identity_perm(self):
        lengths = np.array([2, 1], dtype=np.int64)
        values = np.array([5, 6, 7])
        nl, nv = permute_jagged(lengths, values, (2,), (0,))
        np.testing.assert_array_equal(nl, lengths)
        np.testing.assert_array_equal(nv, values)

    def test_double_permute_is_identity(self):
        rng = np.random.default_rng(0)
        shape = (3, 4, 2)
        lengths = rng.integers(0, 4, size=24).astype(np.int64)
        values = rng.integers(0, 100, size=int(lengths.sum()))
        l1, v1 = permute_jagged(lengths, values, shape, (1, 0, 2))
        l2, v2 = permute_jagged(l1, v1, (4, 3, 2), (1, 0, 2))
        np.testing.assert_array_equal(l2, lengths)
        np.testing.assert_array_equal(v2, values)

    def test_preserves_multiset(self):
        rng = np.random.default_rng(1)
        lengths = rng.integers(0, 5, size=12).astype(np.int64)
        values = rng.integers(0, 50, size=int(lengths.sum()))
        _, nv = permute_jagged(lengths, values, (3, 2, 2), (2, 0, 1))
        np.testing.assert_array_equal(np.sort(nv), np.sort(values))

    def test_validation(self):
        with pytest.raises(ValueError):
            permute_jagged(np.array([1]), np.array([0]), (2,), (0,))
        with pytest.raises(ValueError):
            permute_jagged(np.array([2]), np.array([0]), (1,), (0,))
        with pytest.raises(ValueError):
            permute_jagged(np.array([1]), np.array([0]), (1,), (1,))

    def test_empty_values(self):
        nl, nv = permute_jagged(np.zeros(4, dtype=np.int64),
                                np.zeros(0, dtype=np.int64), (2, 2), (1, 0))
        assert len(nv) == 0


class TestBucketize:
    def test_basic_split(self):
        indices = np.array([0, 5, 9, 2, 7], dtype=np.int64)
        lengths = np.array([3, 2], dtype=np.int64)
        out = bucketize_sparse(indices, lengths, [0, 5, 10])
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
        out = bucketize_sparse(indices, lengths, boundaries)
        rebuilt = np.concatenate(
            [ids + boundaries[k] for k, (ids, _) in enumerate(out)])
        np.testing.assert_array_equal(np.sort(rebuilt), np.sort(indices))
        total_lengths = sum(l for _, l in out)
        np.testing.assert_array_equal(total_lengths, lengths)

    def test_boundary_ownership(self):
        """Row exactly at a boundary belongs to the upper bucket."""
        out = bucketize_sparse(np.array([5], dtype=np.int64),
                               np.array([1], dtype=np.int64), [0, 5, 10])
        assert len(out[0][0]) == 0
        np.testing.assert_array_equal(out[1][0], [0])

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            bucketize_sparse(np.array([10], dtype=np.int64),
                             np.array([1], dtype=np.int64), [0, 5, 10])

    def test_validation(self):
        with pytest.raises(ValueError):
            bucketize_sparse(np.array([0]), np.array([1]), [1, 5])
        with pytest.raises(ValueError):
            bucketize_sparse(np.array([0]), np.array([1]), [0, 5, 5])
        with pytest.raises(ValueError):
            bucketize_sparse(np.array([0, 1]), np.array([1]), [0, 5])

    @given(st.lists(st.integers(min_value=0, max_value=99), min_size=0,
                    max_size=50))
    @settings(max_examples=40)
    def test_multiset_property(self, ids_list):
        indices = np.array(ids_list, dtype=np.int64)
        lengths = np.array([len(ids_list)], dtype=np.int64)
        boundaries = [0, 25, 50, 75, 100]
        out = bucketize_sparse(indices, lengths, boundaries)
        rebuilt = np.concatenate(
            [ids + boundaries[k] for k, (ids, _) in enumerate(out)]) \
            if ids_list else np.zeros(0, dtype=np.int64)
        np.testing.assert_array_equal(np.sort(rebuilt), np.sort(indices))


    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_equals_mask_loop_oracle(self, data):
        """One sort and one (bucket, bag) count give every bucket's ids
        and lengths exactly as the bucket-by-bucket mask loop does, for
        uneven buckets down to one row, empty bags, ids on boundaries,
        and enough buckets to take both bucketing paths."""
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
        got = bucketize_sparse(indices, lengths, boundaries)
        want = bucketize_sparse_reference(indices, lengths, boundaries)
        assert len(got) == len(want) == len(widths)
        for (g_ids, g_len), (w_ids, w_len) in zip(got, want):
            assert g_ids.dtype == g_len.dtype == np.int64
            np.testing.assert_array_equal(g_ids, w_ids)
            np.testing.assert_array_equal(g_len, w_len)


class TestReplicate:
    def test_copies(self):
        indices = np.array([1, 2, 3], dtype=np.int64)
        lengths = np.array([3], dtype=np.int64)
        out = replicate_sparse(indices, lengths, 3)
        assert len(out) == 3
        for ids, lens in out:
            np.testing.assert_array_equal(ids, indices)
            np.testing.assert_array_equal(lens, lengths)

    def test_copies_independent(self):
        out = replicate_sparse(np.array([1], dtype=np.int64),
                               np.array([1], dtype=np.int64), 2)
        out[0][0][0] = 99
        assert out[1][0][0] == 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            replicate_sparse(np.array([1]), np.array([1]), 0)

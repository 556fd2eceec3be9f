"""Unit tests for the shared segment-reduce kernels (repro.embedding.kernels).

These primitives back every pooled lookup in the repo (per-table,
arena, TT, dedup, cached tables), so their edge cases — above all the
``np.add.reduceat`` empty-segment identity gap — get dedicated coverage
here rather than indirectly through the operators.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import kernels
from repro.embedding.kernels import (expand_bag_ids, mean_pool,
                                     merge_sorted_coo, rank_bags,
                                     rebase_jagged, segment_sum,
                                     segment_sum_gather)

from .reference_kernels import (merge_sorted_coo_reference,
                                segment_sum_reference)


def reference_segment_sum(values, offsets):
    """Straight-line oracle: per-bag slice-and-sum.

    ``ndarray.sum`` blocks its pairwise summation differently from
    ``np.add.reduceat``, so comparisons against this oracle are allclose,
    not bitwise (the bitwise assertions in this file compare reduceat
    against reduceat).
    """
    out = np.zeros((len(offsets) - 1, values.shape[1]), dtype=np.float32)
    for b in range(len(offsets) - 1):
        seg = values[offsets[b]:offsets[b + 1]]
        if len(seg):
            out[b] = seg.sum(axis=0)
    return out


def assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=1e-6, atol=1e-6)


def random_jagged(rng, num_bags, max_len, dim, empty_prob=0.3):
    lengths = rng.integers(0, max_len + 1, size=num_bags)
    lengths[rng.random(num_bags) < empty_prob] = 0
    offsets = np.zeros(num_bags + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    values = rng.normal(size=(int(offsets[-1]), dim)).astype(np.float32)
    return values, offsets


class TestSegmentSum:
    def test_matches_reference_dense(self):
        rng = np.random.default_rng(0)
        values, offsets = random_jagged(rng, 50, 9, 8, empty_prob=0.0)
        assert_close(segment_sum(values, offsets),
                     reference_segment_sum(values, offsets))

    def test_empty_bag_between_full_bags_yields_zeros(self):
        # The reduceat identity gap: offsets[i] == offsets[i+1] would make
        # raw reduceat return values[offsets[i]] instead of 0.
        values = np.arange(12, dtype=np.float32).reshape(6, 2)
        offsets = np.array([0, 2, 2, 6], dtype=np.int64)
        out = segment_sum(values, offsets)
        np.testing.assert_array_equal(out[1], np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(out, reference_segment_sum(values,
                                                                 offsets))

    def test_trailing_empty_bags(self):
        # Trailing empty bags start at len(values) — out of range for raw
        # reduceat; must still produce zeros, not raise.
        values = np.ones((3, 4), dtype=np.float32)
        offsets = np.array([0, 3, 3, 3], dtype=np.int64)
        out = segment_sum(values, offsets)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[0], np.full(4, 3.0))
        np.testing.assert_array_equal(out[1:], np.zeros((2, 4)))

    def test_leading_empty_bag(self):
        values = np.ones((2, 3), dtype=np.float32)
        offsets = np.array([0, 0, 2], dtype=np.int64)
        out = segment_sum(values, offsets)
        np.testing.assert_array_equal(out[0], np.zeros(3))
        np.testing.assert_array_equal(out[1], np.full(3, 2.0))

    def test_all_bags_empty(self):
        values = np.zeros((0, 5), dtype=np.float32)
        offsets = np.zeros(4, dtype=np.int64)
        out = segment_sum(values, offsets)
        np.testing.assert_array_equal(out, np.zeros((3, 5)))

    def test_zero_bags(self):
        values = np.zeros((0, 5), dtype=np.float32)
        offsets = np.zeros(1, dtype=np.int64)
        assert segment_sum(values, offsets).shape == (0, 5)

    def test_out_parameter_reused_and_cleared(self):
        rng = np.random.default_rng(1)
        values, offsets = random_jagged(rng, 20, 5, 4)
        out = np.full((20, 4), 7.0, dtype=np.float32)
        result = segment_sum(values, offsets, out=out)
        assert result is out
        assert_close(out, reference_segment_sum(values, offsets))

    def test_randomized_with_empties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            values, offsets = random_jagged(rng, int(rng.integers(1, 40)),
                                            7, 3, empty_prob=0.4)
            assert_close(segment_sum(values, offsets),
                         reference_segment_sum(values, offsets))


class TestSegmentSumGather:
    def test_bitwise_equals_unfused_gather_then_sum(self):
        rng = np.random.default_rng(3)
        storage = rng.normal(size=(500, 16)).astype(np.float32)
        _, offsets = random_jagged(rng, 200, 40, 1, empty_prob=0.1)
        indices = rng.integers(0, 500, size=int(offsets[-1]))
        expected = segment_sum(storage[indices], offsets)
        np.testing.assert_array_equal(
            segment_sum_gather(storage, indices, offsets), expected)

    @pytest.mark.parametrize("nnz", [0, 1, 16_384, 16_385, 40_000])
    def test_default_is_bitwise_either_side_of_whole_batch_limit(self, nnz):
        # at D=16 the default gathers up to 16 384 rows (1 MB) whole and
        # tiles a larger batch; both forms give the unfused bits
        rng = np.random.default_rng(5)
        storage = rng.normal(size=(300, 16)).astype(np.float32)
        cuts = np.sort(rng.integers(0, nnz + 1, size=999))
        offsets = np.concatenate([[0], cuts, [nnz]]).astype(np.int64)
        indices = rng.integers(0, 300, size=nnz)
        expected = segment_sum(storage[indices], offsets)
        np.testing.assert_array_equal(
            segment_sum_gather(storage, indices, offsets), expected)

    @pytest.mark.parametrize("tile_rows", [1, 3, 17, 64, 10_000])
    def test_tile_size_invariance(self, tile_rows):
        # Tiles snap to whole-bag boundaries, so any tile size gives the
        # same bits — including tiles smaller than a single bag.
        rng = np.random.default_rng(4)
        storage = rng.normal(size=(100, 8)).astype(np.float32)
        _, offsets = random_jagged(rng, 60, 12, 1, empty_prob=0.25)
        indices = rng.integers(0, 100, size=int(offsets[-1]))
        expected = segment_sum(storage[indices], offsets)
        np.testing.assert_array_equal(
            segment_sum_gather(storage, indices, offsets,
                               tile_rows=tile_rows), expected)

    def test_empty_bags_inside_tile(self):
        storage = np.arange(20, dtype=np.float32).reshape(10, 2)
        indices = np.array([1, 2, 9], dtype=np.int64)
        offsets = np.array([0, 2, 2, 3, 3], dtype=np.int64)
        out = segment_sum_gather(storage, indices, offsets, tile_rows=4)
        np.testing.assert_array_equal(
            out, segment_sum(storage[indices], offsets))

    def test_all_empty(self):
        storage = np.ones((5, 3), dtype=np.float32)
        out = segment_sum_gather(storage, np.zeros(0, dtype=np.int64),
                                 np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_zero_bags(self):
        storage = np.ones((5, 3), dtype=np.float32)
        out = segment_sum_gather(storage, np.zeros(0, dtype=np.int64),
                                 np.zeros(1, dtype=np.int64))
        assert out.shape == (0, 3)

    def test_split_invariance_concat_vs_solo(self):
        # The arena's parity foundation: pooling a table's bags inside a
        # concatenated multi-table batch gives the same bits as pooling
        # them alone.
        rng = np.random.default_rng(5)
        storage = rng.normal(size=(300, 16)).astype(np.float32)
        batches = []
        for seed in range(3):
            r = np.random.default_rng(seed)
            _, offsets = random_jagged(r, 30, 20, 1, empty_prob=0.1)
            indices = r.integers(0, 300, size=int(offsets[-1]))
            batches.append((indices, offsets))
        solo = [segment_sum_gather(storage, idx, off)
                for idx, off in batches]
        gidx, goff, _ = rebase_jagged(batches, [0, 0, 0])
        fused = segment_sum_gather(storage, gidx, goff)
        bag = 0
        for s in solo:
            np.testing.assert_array_equal(fused[bag:bag + len(s)], s)
            bag += len(s)


class TestMeanPool:
    def test_matches_sum_divided_by_lengths(self):
        rng = np.random.default_rng(6)
        values, offsets = random_jagged(rng, 30, 6, 4, empty_prob=0.2)
        lengths = np.diff(offsets)
        expected = reference_segment_sum(values, offsets)
        expected /= np.maximum(lengths, 1).astype(np.float32)[:, None]
        pooled = segment_sum(values, offsets)
        assert mean_pool(pooled, lengths) is pooled
        assert_close(pooled, expected)

    def test_empty_bags_stay_zero(self):
        values = np.ones((2, 3), dtype=np.float32)
        offsets = np.array([0, 0, 2], dtype=np.int64)
        out = mean_pool(segment_sum(values, offsets), np.diff(offsets))
        np.testing.assert_array_equal(out[0], np.zeros(3))
        np.testing.assert_array_equal(out[1], np.ones(3))


# ----------------------------------------------------------------------
# the short-segment kernel: numpy's order, and bitwise the reduceat oracle
# ----------------------------------------------------------------------
# Signed zeros, infinities, NaNs with two payloads, 1e8-scale values that
# cancel, and float32's largest value (whose sums overflow): any change
# of association or operand order changes bits on these.
SPECIAL_POOL = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, 1e8, -1e8, 1.0, -1.0, 3e-8,
              16777216.0, -16777215.0, 3.4e38, 1e-45], dtype=np.float32),
    np.array([0x7FC00000, 0xFFC00001], dtype=np.uint32).view(np.float32)])


def bits(a):
    """The float32 bits of ``a``, every NaN as one canonical NaN. Which
    payload survives an add of two NaNs is not fixed even within numpy's
    own elementwise add (it changes with the array length), so NaN
    payloads are not compared; every other bit is."""
    a = np.asarray(a, dtype=np.float32)
    return np.where(np.isnan(a), np.float32(np.nan), a).view(np.uint32)


def left_to_right(segment):
    """``a0 + (((s + a1) + a2) + ...)``, ``s`` the probed start value."""
    if len(segment) == 1:
        return segment[0].copy()
    tail = kernels._PAIRWISE_START + segment[1]
    for row in segment[2:]:
        tail = tail + row
    return segment[0] + tail


class TestNumpyOrder:
    """Pins the order the short-segment kernel reproduces. If a numpy
    release changes ``pairwise_sum``, these fail by name before any
    parity suite drifts."""

    def test_probed_start_is_negative_zero(self):
        assert bits(np.array([kernels._PAIRWISE_START]))[0] == 0x80000000

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("dim", [1, 7])
    @pytest.mark.parametrize("n", range(1, kernels._SHORT_ROWS + 1))
    def test_reduceat_of_short_segment_is_left_to_right(self, n, dim):
        rng = np.random.default_rng(n * 10 + dim)
        for _ in range(200):
            segment = rng.choice(SPECIAL_POOL, size=(n, dim))
            np.testing.assert_array_equal(
                bits(np.add.reduceat(segment, [0], axis=0)[0]),
                bits(left_to_right(segment)))

    @pytest.mark.parametrize("segment", [
        [[1e8], [1.0], [-1e8]],            # cancels only left to right
        [[-0.0], [-0.0], [-0.0]],          # the start value's sign
        [[1.0], [1e8], [-1e8], [1.0]],
        [[np.inf], [-np.inf], [1.0]],
        [[3.4e38], [3.4e38], [-3.4e38]],
    ])
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_named_cases(self, segment):
        segment = np.array(segment, dtype=np.float32)
        np.testing.assert_array_equal(
            bits(np.add.reduceat(segment, [0], axis=0)[0]),
            bits(left_to_right(segment)))


@st.composite
def jagged_batches(draw):
    """``(storage, indices, offsets)``: empty, singleton, short and
    long (> 8 rows) bags, drawn from the special-value pool."""
    dim = draw(st.sampled_from([1, 4, 16, 96]))
    dtype = draw(st.sampled_from([np.float32, np.float32, np.float16,
                                  np.float64]))
    kind = draw(st.sampled_from(["mixed", "singletons", "short", "long"]))
    top = {"mixed": 12, "singletons": 1, "short": 8, "long": 20}[kind]
    lengths = np.array(draw(st.lists(st.integers(0, top), min_size=0,
                                     max_size=40)), dtype=np.int64)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    num_rows = draw(st.integers(1, 30))
    picks = draw(st.lists(st.integers(0, len(SPECIAL_POOL) - 1),
                          min_size=num_rows * dim, max_size=num_rows * dim))
    storage = SPECIAL_POOL[picks].reshape(num_rows, dim).astype(dtype)
    indices = np.array(draw(st.lists(
        st.integers(0, num_rows - 1), min_size=int(offsets[-1]),
        max_size=int(offsets[-1]))), dtype=np.int64)
    return storage, indices, offsets


def check_kernels_against_oracle(batch, min_work):
    """Every product kernel that sums segments, bitwise the reduceat
    form, with the short-segment path engaged from ``min_work`` short
    segment x column sums (0: whenever the rows are float32)."""
    storage, indices, offsets = batch
    gathered = storage[indices]
    want = segment_sum_reference(gathered, offsets)
    # merges of the gathered rows as per-entry gradients: few duplicate
    # rows, so most merge segments are singletons
    rows = indices // 2
    with mock.patch.object(kernels, "_SHORT_MIN_WORK", min_work), \
            np.errstate(all="ignore"):
        np.testing.assert_array_equal(bits(segment_sum(gathered, offsets)),
                                      bits(want))
        np.testing.assert_array_equal(
            bits(segment_sum_gather(storage, indices, offsets)), bits(want))
        if storage.dtype != np.float32:
            return  # the tiles gather into float32 scratch
        np.testing.assert_array_equal(
            bits(segment_sum_gather(storage, indices, offsets, tile_rows=5)),
            bits(want))
        if len(rows):
            got = merge_sorted_coo(rows, gathered)
            want = merge_sorted_coo_reference(rows, gathered)
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(bits(got[1]), bits(want[1]))


class TestShortSegmentKernel:
    @settings(max_examples=150, deadline=None)
    @given(jagged_batches(), st.sampled_from([0, 11264]))
    def test_bitwise_equals_reduceat_oracle(self, batch, min_work):
        check_kernels_against_oracle(batch, min_work)

    @pytest.mark.slow
    @settings(max_examples=2000, deadline=None)
    @given(jagged_batches(), st.sampled_from([0, 11264]))
    def test_bitwise_equals_reduceat_oracle_long_run(self, batch, min_work):
        check_kernels_against_oracle(batch, min_work)

    @pytest.mark.parametrize("num_bags", [
        kernels._SHORT_MIN_WORK // 89, kernels._SHORT_MIN_WORK // 89 + 1])
    def test_either_side_of_the_threshold(self, num_bags):
        # D=89 (a large-zoo table) and bags of 1-8 ids: 126 bags are one
        # short segment too few for the short-segment path, 127 take it
        rng = np.random.default_rng(num_bags)
        lengths = rng.integers(1, kernels._SHORT_ROWS + 1, num_bags)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        storage = rng.normal(size=(1024, 89)).astype(np.float32)
        indices = rng.integers(0, 1024, size=int(offsets[-1]))
        want = segment_sum_reference(storage[indices], offsets)
        np.testing.assert_array_equal(
            bits(segment_sum_gather(storage, indices, offsets)), bits(want))

    def test_serving_shape(self):
        # a serving window of one large-zoo table: 500 bags of Poisson
        # (3.4) ids at D=89, empty and > 8-id bags included
        rng = np.random.default_rng(0)
        lengths = rng.poisson(3.4, 500)
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        storage = rng.normal(size=(1024, 89)).astype(np.float32)
        indices = rng.integers(0, 1024, size=int(offsets[-1]))
        want = segment_sum_reference(storage[indices], offsets)
        np.testing.assert_array_equal(
            bits(segment_sum_gather(storage, indices, offsets)), bits(want))
        np.testing.assert_array_equal(
            bits(segment_sum(storage[indices], offsets)), bits(want))


class TestExpandBagIds:
    def test_basic(self):
        np.testing.assert_array_equal(
            expand_bag_ids(np.array([2, 0, 3])),
            np.array([0, 0, 2, 2, 2], dtype=np.int64))

    def test_empty(self):
        assert len(expand_bag_ids(np.zeros(0, dtype=np.int64))) == 0


class TestRebaseJagged:
    def test_two_tables(self):
        a = (np.array([0, 1, 2]), np.array([0, 1, 3]))
        b = (np.array([0, 4]), np.array([0, 0, 2]))
        gidx, goff, counts = rebase_jagged([a, b], [0, 10])
        np.testing.assert_array_equal(gidx, [0, 1, 2, 10, 14])
        np.testing.assert_array_equal(goff, [0, 1, 3, 3, 5])
        np.testing.assert_array_equal(counts, [3, 2])

    def test_does_not_mutate_inputs(self):
        idx = np.array([1, 2], dtype=np.int64)
        rebase_jagged([(idx, np.array([0, 2]))], [100])
        np.testing.assert_array_equal(idx, [1, 2])

    def test_empty_input_list(self):
        gidx, goff, counts = rebase_jagged([], [])
        assert len(gidx) == 0 and len(counts) == 0
        np.testing.assert_array_equal(goff, [0])

    def test_mismatched_bases_raises(self):
        with pytest.raises(ValueError):
            rebase_jagged([(np.array([0]), np.array([0, 1]))], [0, 1])


class TestMergeSortedCoo:
    def test_sums_duplicates(self):
        rows = np.array([3, 1, 3, 1, 2], dtype=np.int64)
        vals = np.arange(10, dtype=np.float32).reshape(5, 2)
        m_rows, m_vals = merge_sorted_coo(rows, vals)
        np.testing.assert_array_equal(m_rows, [1, 2, 3])
        np.testing.assert_array_equal(m_vals[0], vals[1] + vals[3])
        np.testing.assert_array_equal(m_vals[1], vals[4])
        np.testing.assert_array_equal(m_vals[2], vals[0] + vals[2])

    def test_order_independence(self):
        # Value-column tie-breakers make the result a pure function of the
        # (row, grad) multiset — Section 4.1.2 determinism.
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 5, size=200)
        vals = rng.normal(size=(200, 4)).astype(np.float32)
        base_r, base_v = merge_sorted_coo(rows, vals)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(200)
            r, v = merge_sorted_coo(rows[perm], vals[perm])
            np.testing.assert_array_equal(r, base_r)
            np.testing.assert_array_equal(v, base_v)

    def test_empty(self):
        r, v = merge_sorted_coo(np.zeros(0, dtype=np.int64),
                                np.zeros((0, 3), dtype=np.float32))
        assert len(r) == 0 and v.shape == (0, 3)

    def test_segmented_merge_bitwise_equals_global(self):
        # Disjoint increasing row ranges per segment (the arena's
        # table-major layout): merging each segment alone and
        # concatenating must give the same bits as one global merge.
        rng = np.random.default_rng(8)
        rows_parts, vals_parts = [], []
        base = 0
        for _ in range(4):
            n = int(rng.integers(0, 60))
            rows_parts.append(base + rng.integers(0, 10, size=n))
            vals_parts.append(rng.normal(size=(n, 3)).astype(np.float32))
            base += 10
        g_rows, g_vals = merge_sorted_coo(np.concatenate(rows_parts),
                                          np.concatenate(vals_parts, axis=0))
        parts = [merge_sorted_coo(r, v)
                 for r, v in zip(rows_parts, vals_parts)]
        np.testing.assert_array_equal(
            np.concatenate([r for r, _ in parts]), g_rows)
        np.testing.assert_array_equal(
            np.concatenate([v for _, v in parts], axis=0), g_vals)


# ----------------------------------------------------------------------
# merge_sorted_coo vs the full (D+1)-key lexsort oracle
# ----------------------------------------------------------------------
# A tiny value pool makes ties on g[0] — and partial ties on later
# columns — the norm instead of the exception; the huge magnitudes make
# any deviation from the canonical summation order change the bits.
FINITE_POOL = np.array([0.0, -0.0, 1.0, -1.0, 0.1, 3e-8, 1e8, -1e8,
                        16777216.0], dtype=np.float32)
NONFINITE_POOL = np.append(FINITE_POOL, [np.nan, np.inf, -np.inf]
                           ).astype(np.float32)
ROW_POOLS = {
    "few": np.arange(4, dtype=np.int64),
    "single": np.array([7], dtype=np.int64),
    "huge": 2 ** 31 + np.array([0, 1, 2 ** 20, 2 ** 31], dtype=np.int64),
}


@st.composite
def coo_gradients(draw, pool=FINITE_POOL):
    """Adversarially tied COO gradients ``(rows, values)``."""
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 6))
    row_mode = draw(st.sampled_from(["few", "single", "huge", "unique"]))
    if row_mode == "unique":
        rows = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    else:
        picks = draw(st.lists(st.integers(0, len(ROW_POOLS[row_mode]) - 1),
                              min_size=n, max_size=n))
        rows = ROW_POOLS[row_mode][picks]
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=n * dim, max_size=n * dim))
    values = pool[picks].reshape(n, dim).copy()
    # dead ReLU: every column from `live` on is (signed) zero
    live = draw(st.integers(0, dim))
    values[:, live:] = np.where(np.signbit(values[:, live:]),
                                np.float32(-0.0), np.float32(0.0))
    # one id twice in a bag / mean-pooled bag: whole entries repeated
    for src, dst in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n)):
        rows[dst], values[dst] = rows[src], values[src]
    return rows, values


def shuffled(coo, rnd):
    """The same (row, grad) multiset in a hypothesis-chosen order."""
    rows, values = coo
    perm = list(range(len(rows)))
    rnd.shuffle(perm)
    return rows[perm], values[perm]


def assert_bitwise_equal(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    assert got[0].dtype == want[0].dtype == np.int64
    assert got[1].dtype == want[1].dtype == np.float32
    np.testing.assert_array_equal(got[1].view(np.uint32),
                                  want[1].view(np.uint32))


class TestMergeMatchesLexsortOracle:
    @settings(max_examples=300, deadline=None)
    @given(coo_gradients())
    def test_bitwise_equals_oracle(self, coo):
        rows, values = coo
        before = values.copy()
        assert_bitwise_equal(merge_sorted_coo(rows, values),
                             merge_sorted_coo_reference(rows, values))
        np.testing.assert_array_equal(values.view(np.uint32),
                                      before.view(np.uint32))

    @settings(max_examples=200, deadline=None)
    @given(coo_gradients(), st.randoms(use_true_random=False))
    def test_permutation_invariant(self, coo, rnd):
        assert_bitwise_equal(merge_sorted_coo(*shuffled(coo, rnd)),
                             merge_sorted_coo(*coo))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(coo_gradients(), min_size=1, max_size=4))
    def test_segmented_equals_global_and_oracle(self, parts):
        # disjoint increasing row ranges per segment, the arena layout:
        # per-segment merges concatenate to the global merge
        rows, base = [], 0
        for part_rows, _ in parts:
            _, dense = np.unique(part_rows, return_inverse=True)
            rows.append(base + dense)
            base += int(dense.max()) + 1
        dim = min(v.shape[1] for _, v in parts)
        values = [v[:, :dim] for _, v in parts]
        merged = [merge_sorted_coo(r, v) for r, v in zip(rows, values)]
        segmented = (np.concatenate([r for r, _ in merged]),
                     np.concatenate([v for _, v in merged], axis=0))
        rows, values = np.concatenate(rows), np.concatenate(values, axis=0)
        assert_bitwise_equal(segmented, merge_sorted_coo(rows, values))
        assert_bitwise_equal(segmented,
                             merge_sorted_coo_reference(rows, values))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=100, deadline=None)
    @given(coo_gradients(pool=NONFINITE_POOL),
           st.randoms(use_true_random=False))
    def test_nonfinite_no_crash_and_permutation_invariant(self, coo, rnd):
        # NaNs tie with each other (numpy sorts them last), so the
        # sorted value sequence — hence every sum — is still a function
        # of the multiset. NaN payload bits are not compared.
        base_rows, base_vals = merge_sorted_coo(*coo)
        got_rows, got_vals = merge_sorted_coo(*shuffled(coo, rnd))
        np.testing.assert_array_equal(got_rows, base_rows)
        np.testing.assert_array_equal(got_vals, base_vals)
        np.testing.assert_array_equal(
            base_vals, merge_sorted_coo_reference(*coo)[1])

    def test_nan_ties_are_refined_on_later_columns(self):
        rows = np.array([1, 1, 1, 1], dtype=np.int64)
        values = np.array([[np.nan, 1e8], [np.nan, 1.0], [np.nan, -1e8],
                           [np.nan, 1.0]], dtype=np.float32)
        want = merge_sorted_coo_reference(rows, values)
        for seed in range(6):
            perm = np.random.default_rng(seed).permutation(4)
            got = merge_sorted_coo(rows[perm], values[perm])
            np.testing.assert_array_equal(got[1], want[1])

    @pytest.mark.parametrize("rows,values", [
        # n = 1
        ([5], [[1.0, 2.0]]),
        # D = 1: the first gradient column is the only tie-breaker
        ([2, 2, 2, 1], [[1e8], [1.0], [-1e8], [3.0]]),
        # equal g[0], order decided by the last column only
        ([1, 1, 1], [[0.5, 2.0, 1e8], [0.5, 2.0, 1.0], [0.5, 2.0, -1e8]]),
        # ties broken at different depths in different runs of one call
        ([1, 1, 1, 2, 2, 2],
         [[0.5, 1e8, 0.0], [0.5, 1.0, 0.0], [0.5, -1e8, 0.0],
          [0.5, 0.0, 1e8], [0.5, 0.0, 1.0], [0.5, 0.0, -1e8]]),
        # +0.0 and -0.0 tie; later columns must still be ordered
        ([3, 3, 3], [[0.0, 1e8], [-0.0, 1.0], [0.0, -1e8]]),
        # only signed zeros: -0.0 survives only if every term is -0.0
        ([3, 3, 4, 4], [[-0.0, 0.0], [-0.0, -0.0], [-0.0, -0.0],
                        [-0.0, -0.0]]),
        # fully identical vectors (one id twice in a bag)
        ([9, 9, 9, 9], [[0.1, 0.2, 0.3]] * 4),
        # a single row repeated n times, all unique rows, rows >= 2**31
        ([0] * 6, [[1e8], [1.0], [-1e8], [1.0], [3e-8], [-1.0]]),
        ([4, 2, 9, 0], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
        ([2 ** 40, 2 ** 31, 2 ** 40, 2 ** 31],
         [[1e8, 1.0], [1.0, 1.0], [-1e8, 1.0], [1.0, 3e-8]]),
    ])
    def test_named_adversarial_cases(self, rows, values):
        rows = np.array(rows, dtype=np.int64)
        values = np.array(values, dtype=np.float32)
        want = merge_sorted_coo_reference(rows, values)
        for perm in (np.arange(len(rows)), np.arange(len(rows))[::-1],
                     np.random.default_rng(0).permutation(len(rows))):
            assert_bitwise_equal(merge_sorted_coo(rows[perm], values[perm]),
                                 want)


# ----------------------------------------------------------------------
# bag-form merge (int64 key on (row, bag rank)) vs the lexsort oracle
# ----------------------------------------------------------------------
# rows >= 2**62 make `row * B` overflow int64 for every B >= 2, which
# forces the two-key integer lexsort fallback
ROW_POOLS_BAG = dict(ROW_POOLS, overflow=2 ** 62 + np.array(
    [0, 1, 2 ** 40, 2 ** 62 - 1], dtype=np.int64))


@st.composite
def bag_gradients(draw, pool=NONFINITE_POOL):
    """``(rows, bag_grad, bag_ids)`` as a pooled backward produces them:
    ``B`` bag vectors (adversarially tied), jagged non-decreasing bag ids
    with empty bags, and rows that repeat within and across bags."""
    num_bags = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=num_bags * dim, max_size=num_bags * dim))
    bag_grad = pool[picks].reshape(num_bags, dim).copy()
    # dead ReLU: every column from `live` on is (signed) zero
    live = draw(st.integers(0, dim))
    bag_grad[:, live:] = np.where(np.signbit(bag_grad[:, live:]),
                                  np.float32(-0.0), np.float32(0.0))
    # two samples with the same upstream gradient: whole bags repeated
    for src, dst in draw(st.lists(st.tuples(
            st.integers(0, num_bags - 1), st.integers(0, num_bags - 1)),
            max_size=num_bags)):
        bag_grad[dst] = bag_grad[src]
    lengths = np.array(draw(st.lists(st.integers(0, 5), min_size=num_bags,
                                     max_size=num_bags)), dtype=np.int64)
    if lengths.sum() == 0:
        lengths[draw(st.integers(0, num_bags - 1))] = 1
    bag_ids = expand_bag_ids(lengths)
    row_pool = ROW_POOLS_BAG[draw(st.sampled_from(sorted(ROW_POOLS_BAG)))]
    picks = draw(st.lists(st.integers(0, len(row_pool) - 1),
                          min_size=len(bag_ids), max_size=len(bag_ids)))
    if draw(st.booleans()):  # mean pooling: the (B, D) matrix divided once
        bag_grad = bag_grad / np.maximum(lengths, 1).astype(
            np.float32)[:, None]
    return row_pool[picks], bag_grad, bag_ids


class TestBagFormMatchesOracle:
    """``merge_sorted_coo(rows, dy, bag_ids)`` equals the full lexsort
    merge of the expanded per-entry gradient ``dy[bag_ids]``, bit for bit
    (NaN payloads included: the permutation itself is the oracle's)."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=400, deadline=None)
    @given(bag_gradients())
    def test_bitwise_equals_oracle(self, grad):
        rows, bag_grad, bag_ids = grad
        before = bag_grad.copy()
        want = merge_sorted_coo_reference(rows, bag_grad[bag_ids])
        assert_bitwise_equal(merge_sorted_coo(rows, bag_grad, bag_ids), want)
        np.testing.assert_array_equal(bag_grad.view(np.uint32),
                                      before.view(np.uint32))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=200, deadline=None)
    @given(bag_gradients())
    def test_identity_map_equals_oracle(self, grad):
        rows, bag_grad, bag_ids = grad
        values = bag_grad[bag_ids]
        assert_bitwise_equal(merge_sorted_coo(rows, values),
                             merge_sorted_coo_reference(rows, values))

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @settings(max_examples=200, deadline=None)
    @given(bag_gradients())
    def test_rank_bags_is_the_stable_lexsort(self, grad):
        _, bag_grad, _ = grad
        keys = tuple(bag_grad[:, d]
                     for d in range(bag_grad.shape[1] - 1, -1, -1))
        ranks = rank_bags(bag_grad)
        np.testing.assert_array_equal(np.argsort(ranks), np.lexsort(keys))

    def test_mean_pooling_division_is_per_entry_bitwise(self):
        rng = np.random.default_rng(3)
        dy = rng.normal(size=(6, 4)).astype(np.float32)
        lengths = np.array([3, 0, 1, 7, 2, 5], dtype=np.int64)
        bag_ids = expand_bag_ids(lengths)
        rows = rng.integers(0, 4, size=len(bag_ids))
        denom = np.maximum(lengths, 1).astype(np.float32)
        assert_bitwise_equal(
            merge_sorted_coo(rows, dy / denom[:, None], bag_ids),
            merge_sorted_coo_reference(
                rows, dy[bag_ids] / denom[bag_ids][:, None]))

    @pytest.mark.parametrize("rows,bag_grad,lengths", [
        # D = 1, tied bags decided by bag order
        ([1, 1, 1, 1], [[1e8], [1.0], [1e8]], [1, 2, 1]),
        # B = 1: every entry copies the one vector
        ([4, 2, 4, 4], [[0.1, 0.2]], [4]),
        # the same id twice in one bag: equal keys, identical values
        ([5, 5, 5, 5], [[1e8, 1.0], [-1e8, 1.0]], [2, 2]),
        # dead-ReLU zero bags with both zero signs, and an empty bag
        ([0, 0, 0, 0], [[0.0, -0.0], [-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0]],
         [1, 1, 0, 2]),
        # NaN bags tie on g[0] and are refined on g[1]
        ([2, 2, 2], [[np.nan, 1e8], [np.nan, 1.0], [np.nan, -1e8]],
         [1, 1, 1]),
        # overflowing key: the integer lexsort fallback
        ([2 ** 62, 2 ** 62 + 5, 2 ** 62, 2 ** 62 + 5],
         [[1e8, 0.0], [1.0, 0.0], [-1e8, 0.0]], [2, 1, 1]),
    ])
    def test_named_cases(self, rows, bag_grad, lengths):
        rows = np.array(rows, dtype=np.int64)
        bag_grad = np.array(bag_grad, dtype=np.float32)
        bag_ids = expand_bag_ids(np.array(lengths, dtype=np.int64))
        assert_bitwise_equal(
            merge_sorted_coo(rows, bag_grad, bag_ids),
            merge_sorted_coo_reference(rows, bag_grad[bag_ids]))

    def test_empty_bag_form(self):
        r, v = merge_sorted_coo(np.zeros(0, dtype=np.int64),
                                np.ones((3, 2), dtype=np.float32),
                                np.zeros(0, dtype=np.int64))
        assert len(r) == 0 and r.dtype == np.int64 and v.shape == (0, 2)

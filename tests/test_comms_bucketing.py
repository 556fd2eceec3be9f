"""Tests for DDP-style gradient bucketing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.comms import collectives as C
from repro.comms.bucketing import GradientBucketer


def make_params(shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [nn.Parameter(rng.normal(size=s).astype(np.float32))
            for s in shapes]


def make_grads(shapes, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=s).astype(np.float32) for s in shapes]


class TestBucketAssignment:
    def test_single_bucket_for_small_model(self):
        params = make_params([(4, 4), (8,), (2, 2)])
        b = GradientBucketer(params)  # default 25 MB
        assert b.num_buckets == 1
        assert b.buckets[0].num_elements == 16 + 8 + 4

    def test_splits_at_capacity(self):
        params = make_params([(100,), (100,), (100,)])
        b = GradientBucketer(params, bucket_bytes=100 * 4)
        assert b.num_buckets == 3

    def test_reverse_order_packing(self):
        """DDP heuristic: last parameters (ready first) pack first."""
        params = make_params([(10,), (20,), (30,)])
        b = GradientBucketer(params, bucket_bytes=55 * 4)
        assert b.buckets[0].param_indices == (2, 1)
        assert b.buckets[1].param_indices == (0,)

    def test_oversized_param_gets_own_bucket(self):
        params = make_params([(1000,), (10,)])
        b = GradientBucketer(params, bucket_bytes=100 * 4)
        assert b.num_buckets == 2

    def test_invalid_bucket_bytes(self):
        with pytest.raises(ValueError):
            GradientBucketer(make_params([(2,)]), bucket_bytes=0)


class TestFlattenUnflatten:
    def test_round_trip(self):
        shapes = [(3, 4), (7,), (2, 2, 2)]
        b = GradientBucketer(make_params(shapes), bucket_bytes=40)
        grads = make_grads(shapes)
        back = b.unflatten(b.flatten(grads))
        for g, r in zip(grads, back):
            np.testing.assert_array_equal(g, r)

    def test_wrong_grad_count(self):
        b = GradientBucketer(make_params([(2,), (2,)]))
        with pytest.raises(ValueError):
            b.flatten([np.zeros(2, dtype=np.float32)])

    def test_wrong_grad_shape(self):
        b = GradientBucketer(make_params([(2,)]))
        with pytest.raises(ValueError):
            b.flatten([np.zeros(3, dtype=np.float32)])

    def test_wrong_bucket_count(self):
        b = GradientBucketer(make_params([(2,)]))
        with pytest.raises(ValueError):
            b.unflatten([])

    def test_wrong_flat_size(self):
        b = GradientBucketer(make_params([(2,)]))
        with pytest.raises(ValueError):
            b.unflatten([np.zeros(5, dtype=np.float32)])

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1,
                    max_size=12),
           st.integers(min_value=4, max_value=200))
    @settings(max_examples=40)
    def test_round_trip_property(self, sizes, cap_elems):
        shapes = [(s,) for s in sizes]
        b = GradientBucketer(make_params(shapes),
                             bucket_bytes=cap_elems * 4)
        grads = make_grads(shapes, seed=sum(sizes))
        back = b.unflatten(b.flatten(grads))
        for g, r in zip(grads, back):
            np.testing.assert_array_equal(g, r)
        # every element lands in exactly one bucket
        assert sum(bk.num_elements for bk in b.buckets) == sum(sizes)


class TestBucketedAllReduce:
    def test_numerically_identical_to_per_param(self):
        """Bucketed AllReduce == per-parameter AllReduce, exactly."""
        world = 4
        shapes = [(5, 3), (8,), (4, 4)]
        b = GradientBucketer(make_params(shapes), bucket_bytes=30 * 4)
        per_rank_grads = [make_grads(shapes, seed=r) for r in range(world)]

        # per-parameter path
        expected = []
        for i in range(len(shapes)):
            expected.append(C.all_reduce(np.stack(
                [per_rank_grads[r][i] for r in range(world)]))[0])

        # bucketed path
        flats = [b.flatten(per_rank_grads[r]) for r in range(world)]
        reduced_buckets = []
        for k in range(b.num_buckets):
            reduced_buckets.append(C.all_reduce(np.stack(
                [flats[r][k] for r in range(world)]))[0])
        got = b.unflatten(reduced_buckets)
        for e, g in zip(expected, got):
            np.testing.assert_array_equal(e, g)

    def test_fewer_collectives_than_params(self):
        """The point of bucketing: a 26-layer MLP syncs in O(1) calls."""
        mlp = nn.MLP([64] * 27, rng=np.random.default_rng(0))
        b = GradientBucketer(mlp.parameters())
        assert len(mlp.parameters()) == 52
        assert b.num_buckets == 1

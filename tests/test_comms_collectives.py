"""Tests for exact collectives: correctness identities, quantization, and
the rank-stacked forms against the list-form oracle of
``tests/reference_comms.py``."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import lowp
from repro.comms import (AlltoAllKind, ClusterTopology, QuantizedCommsConfig,
                         SimProcessGroup)
from repro.comms import collectives as C

from . import reference_comms as ref


def rank_arrays(world, shape=(4,), seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.normal(size=shape).astype(np.float32)
                     for _ in range(world)])


def uniform_splits(world, rows):
    return np.full((world, world), rows, dtype=np.int64)


class TestAllReduce:
    def test_sum_semantics(self):
        xs = rank_arrays(4)
        out = C.all_reduce(xs)
        expected = sum(xs)
        for o in out:
            np.testing.assert_allclose(o, expected, rtol=1e-6)

    def test_all_ranks_identical(self):
        out = C.all_reduce(rank_arrays(3))
        for o in out[1:]:
            np.testing.assert_array_equal(o, out[0])

    def test_outputs_independent(self):
        """Every rank reads the one sum, so no rank may write it."""
        out = C.all_reduce(rank_arrays(2))
        with pytest.raises(ValueError, match="read-only"):
            out[0][0] = 999.0

    def test_shape_mismatch_raises(self):
        """Ranks of different shapes do not make one stack."""
        with pytest.raises(ValueError):
            C.all_reduce(np.stack([np.zeros(3), np.zeros(4)]))

    def test_empty_world_raises(self):
        with pytest.raises(ValueError):
            C.all_reduce(np.zeros((0, 3)))

    def test_bitwise_repeatable(self):
        xs = rank_arrays(8, seed=3)
        a = C.all_reduce(xs)[0]
        b = C.all_reduce(xs)[0]
        assert np.array_equal(a, b)

    def test_codec_applied_before_reduction(self):
        xs = np.array([[1.0 + 2 ** -12], [1.0]], dtype=np.float32)
        out = C.all_reduce(xs, codec=lowp.fp16_roundtrip)
        # first input rounds to 1.0 in fp16, so the sum is exactly 2.0
        assert out[0][0] == np.float32(2.0)


class TestAllGather:
    def test_gathers_all(self):
        xs = rank_arrays(3)
        out = C.all_gather(xs)
        assert out.shape == xs.shape
        np.testing.assert_array_equal(out, xs)
        assert not np.shares_memory(out, xs)


class TestReduceScatter:
    def test_chunk_sums(self):
        world = 3
        inputs = np.array([[np.full(2, r * 10 + c) for c in range(world)]
                           for r in range(world)], dtype=np.float32)
        out = C.reduce_scatter(inputs.reshape(world, world * 2))
        for c in range(world):
            np.testing.assert_allclose(out[c], inputs[:, c].sum(axis=0))

    def test_wrong_chunk_count_raises(self):
        with pytest.raises(ValueError):
            C.reduce_scatter(np.zeros((2, 3)))

    def test_rs_plus_ag_equals_allreduce(self):
        """reduce_scatter + all_gather == all_reduce (DESIGN invariant 2)."""
        world = 4
        full = rank_arrays(world, shape=(8,), seed=1)
        ar = C.all_reduce(full)
        ag = C.all_gather(C.reduce_scatter(full))
        for rank in range(world):
            np.testing.assert_allclose(ag.reshape(-1), ar[rank], rtol=1e-5)


class TestAllToAll:
    def test_transpose_semantics(self):
        world = 3
        send = np.array([src * 10 + dst for src in range(world)
                         for dst in range(world)], dtype=np.float32)
        out = C.all_to_all(send, uniform_splits(world, 1))
        for dst in range(world):
            for src in range(world):
                assert out[dst * world + src] == src * 10 + dst

    def test_round_trip_identity(self):
        """alltoall(alltoall(x)) == x (DESIGN invariant 2): the receive
        buffer sent back with the transposed splits."""
        world = 4
        rng = np.random.default_rng(2)
        splits = rng.integers(0, 4, size=(world, world))
        send = rng.normal(size=(int(splits.sum()), 3)).astype(np.float32)
        twice = C.all_to_all(C.all_to_all(send, splits), splits.T)
        np.testing.assert_array_equal(send, twice)

    def test_ragged_payloads(self):
        """AlltoAllv: per-destination sizes may differ."""
        splits = np.array([[1, 2], [2, 3]])
        out = C.all_to_all(np.arange(8, dtype=np.float32), splits)
        slots = ref.to_slices(out, splits.T)
        assert slots[0][1].shape == (2,)  # from src 1 to dst 0
        assert slots[1][0].shape == (2,)  # from src 0 to dst 1
        np.testing.assert_array_equal(slots[0][1], [3, 4])

    def test_wrong_row_length_raises(self):
        with pytest.raises(ValueError):
            C.all_to_all(np.zeros(2), np.ones((2, 1), dtype=np.int64))
        with pytest.raises(ValueError, match="sum to the 3 rows"):
            C.all_to_all(np.zeros(3), np.ones((2, 2), dtype=np.int64))


class TestAllToAllSingle:
    """The equal-split AlltoAll (torch's ``all_to_all_single``) is the
    flat form with a uniform split matrix."""

    def test_equal_split_exchange(self):
        send = np.arange(8, dtype=np.float32)
        out = C.all_to_all(send, uniform_splits(2, 2))
        np.testing.assert_array_equal(out[:4], [0, 1, 4, 5])
        np.testing.assert_array_equal(out[4:], [2, 3, 6, 7])

    @given(st.integers(min_value=1, max_value=6))
    @settings(max_examples=20)
    def test_involution_property(self, world):
        rng = np.random.default_rng(world)
        send = rng.normal(size=(world * world * 2,)).astype(np.float32)
        splits = uniform_splits(world, 2)
        twice = C.all_to_all(C.all_to_all(send, splits), splits)
        np.testing.assert_array_equal(send, twice)


@st.composite
def split_matrices(draw):
    """A ``(W, W)`` split matrix for W in 1..6, with rows, columns or
    the whole matrix zero often enough to matter."""
    world = draw(st.integers(min_value=1, max_value=6))
    splits = np.array(draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=world,
                 max_size=world), min_size=world, max_size=world)),
        dtype=np.int64)
    shape = draw(st.sampled_from(["any", "zero_row", "zero_col", "zero"]))
    pick = draw(st.integers(min_value=0, max_value=world - 1))
    if shape == "zero_row":
        splits[pick] = 0
    elif shape == "zero_col":
        splits[:, pick] = 0
    elif shape == "zero":
        splits[:] = 0
    return splits


PRECISIONS = ["fp32", "fp16", "bf16"]
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _groups(world, precision):
    topo = ClusterTopology(num_nodes=1, gpus_per_node=world)
    config = QuantizedCommsConfig(forward_alltoall=precision,
                                  backward_alltoall=precision,
                                  allreduce=precision)
    return SimProcessGroup(topo, config), \
        ref.ReferenceProcessGroup(topo, config)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestStackedFormsEqualTheListOracle:
    """Through ``SimProcessGroup`` every collective delivers the list
    oracle's bits and bills its wire bytes and modeled seconds."""

    @given(splits=split_matrices(), precision=st.sampled_from(PRECISIONS),
           kind=st.sampled_from(list(AlltoAllKind)), dim=st.integers(1, 3),
           seed=st.integers(0, 2 ** 16))
    @FUZZ
    def test_all_to_all(self, splits, precision, kind, dim, seed):
        world = len(splits)
        rng = np.random.default_rng(seed)
        rows = int(splits.sum())
        if kind is AlltoAllKind.INDEX:
            send = rng.integers(-2 ** 40, 2 ** 40, size=rows)
        else:
            send = (rng.normal(size=(rows, dim)) * 1e3).astype(np.float32)
        pg, oracle = _groups(world, precision)
        got = pg.all_to_all(send, splits, kind=kind)
        want = oracle.all_to_all(ref.to_slices(send, splits), kind)
        assert got.wire_bytes == want.wire_bytes
        assert got.modeled_seconds == want.modeled_seconds
        received = ref.to_slices(got.output, splits.T)
        for dst in range(world):
            for src in range(world):
                _same_bits(received[dst][src], want.outputs[dst][src])

    @given(world=st.integers(1, 6), precision=st.sampled_from(PRECISIONS),
           batch=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
    @FUZZ
    def test_reduce_scatter(self, world, precision, batch, seed):
        rng = np.random.default_rng(seed)
        stack = (rng.normal(size=(world, world * batch, 2))
                 * 10.0 ** rng.integers(-3, 4, size=(world, 1, 1))
                 ).astype(np.float32)
        pg, oracle = _groups(world, precision)
        got = pg.reduce_scatter(stack)
        want = oracle.reduce_scatter(
            [list(x.reshape(world, batch, 2)) for x in stack])
        assert got.wire_bytes == want.wire_bytes
        assert got.modeled_seconds == want.modeled_seconds
        for r in range(world):
            _same_bits(got.output[r], want.outputs[r])

    @given(world=st.integers(1, 6), precision=st.sampled_from(PRECISIONS),
           seed=st.integers(0, 2 ** 16))
    @FUZZ
    def test_all_reduce_and_all_gather(self, world, precision, seed):
        rng = np.random.default_rng(seed)
        stack = (rng.normal(size=(world, 5))
                 * 10.0 ** rng.integers(-3, 4, size=(world, 1))
                 ).astype(np.float32)
        pg, oracle = _groups(world, precision)
        reduced = pg.all_reduce(stack)
        want = oracle.all_reduce(list(stack))
        assert reduced.wire_bytes == want.wire_bytes
        assert reduced.modeled_seconds == want.modeled_seconds
        for r in range(world):
            _same_bits(np.ascontiguousarray(reduced.output[r]),
                       want.outputs[r])
        # every rank receives the one gathered stack
        gathered = pg.all_gather(stack)
        want = oracle.all_gather(list(stack))
        assert gathered.wire_bytes == want.wire_bytes
        assert gathered.modeled_seconds == want.modeled_seconds
        for r in range(world):
            _same_bits(gathered.output, np.stack(want.outputs[r]))

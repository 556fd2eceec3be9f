"""Contracts the reduce-once / update-once dense sync relies on.

The rank-stacked trainer computes what DDP makes identical on every rank
once: the AllReduce sum is one vector returned as a read-only broadcast
view, one optimizer updates rank 0's views ``stacked.data[0]`` in place,
and the flat gradient buckets are persistent buffers. Each of those
leans on a property of another module, pinned here so a change to that
module fails next to the reason rather than on a parity fuzz.
"""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig, SimProcessGroup
from repro.comms import collectives
from repro.comms.bucketing import GradientBucketer
from repro.comms.quantization import get_codec

from .helpers import (DENSE_OPTIMIZERS, tiny_config, tiny_dataset,
                      tiny_trainer)


class TestOptimizersUpdateInPlace:
    """Update-once mutates ``stacked.data[0]`` through rank 0's
    parameter, so ``step()`` must write into ``p.data``, never rebind
    it."""

    @pytest.mark.parametrize("name", sorted(DENSE_OPTIMIZERS))
    def test_step_keeps_the_view(self, name):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(2, 4, 3)).astype(np.float32)
        before = stack.copy()
        p = nn.Parameter(np.zeros((4, 3)))
        p.data = stack[0]
        view = p.data
        opt = DENSE_OPTIMIZERS[name]([p])
        for _ in range(3):  # first step creates the state, later ones use it
            p.grad = rng.normal(size=(4, 3)).astype(np.float32)
            opt.step()
            assert p.data is view
            assert p.data.base is stack
        assert not np.array_equal(stack[0], before[0])
        np.testing.assert_array_equal(stack[1], before[1])


def adversarial_stack(world=16, elems=24):
    """Rows cycling ``1e8, 1, -1e8`` times normal noise: in float32 the
    small rows survive or vanish depending on the order of addition."""
    rng = np.random.default_rng(1)
    stack = rng.normal(size=(world, elems)).astype(np.float32)
    stack[0::3] *= np.float32(1e8)
    stack[2::3] *= np.float32(-1e8)
    return stack


class TestAllReduceStacked:
    @pytest.mark.parametrize("precision", ["fp32", "bf16"])
    def test_summation_order_is_the_list_collectives(self, precision):
        stack = adversarial_stack()
        codec = get_codec(precision)
        expected = collectives.all_reduce(list(stack), codec=codec)
        got = collectives.all_reduce_stacked(stack, codec=codec)
        assert got.shape == stack.shape and got.dtype == np.float32
        for r in range(stack.shape[0]):
            np.testing.assert_array_equal(got[r], expected[r])
        # the order matters on this data: rank W-1 first gives other bits
        backwards = collectives.all_reduce(list(stack[::-1]), codec=codec)
        assert not np.array_equal(got[0], backwards[0])

    def test_result_is_one_read_only_vector(self):
        stack = adversarial_stack()
        kept = stack.copy()
        got = collectives.all_reduce_stacked(stack)
        assert not got.flags.writeable
        assert got.strides[0] == 0
        assert all(np.shares_memory(got[0], got[r]) for r in range(1, 16))
        with pytest.raises(ValueError, match="read-only"):
            got[3, 0] = 0.0
        np.testing.assert_array_equal(stack, kept)  # input untouched

    def test_process_group_outputs_are_read_only_too(self):
        pg = SimProcessGroup(ClusterTopology(num_nodes=2, gpus_per_node=8),
                             QuantizedCommsConfig(allreduce="bf16"))
        stack = adversarial_stack()
        result = pg.all_reduce(stack)
        listed = SimProcessGroup(pg.topology, pg.comms_config) \
            .all_reduce(list(stack))
        assert result.wire_bytes == listed.wire_bytes
        assert result.modeled_seconds == listed.modeled_seconds
        for r in range(16):
            np.testing.assert_array_equal(result.outputs[r], listed[r])
            np.testing.assert_array_equal(result.stacked[r], listed[r])
        with pytest.raises(ValueError, match="read-only"):
            result.outputs[0][0] = 0.0


class TestFlatBucketBuffers:
    def test_flats_are_reused_and_lazy(self):
        params = [nn.Parameter(np.zeros((3, 2))), nn.Parameter(np.zeros(5))]
        bucketer = GradientBucketer(params, bucket_bytes=6 * 4)
        assert bucketer._stacked_flats is None
        rng = np.random.default_rng(2)

        def grads():
            return [rng.normal(size=(4,) + p.data.shape).astype(np.float32)
                    for p in params]

        first_grads = grads()
        first = bucketer.flatten_stacked(first_grads)
        second_grads = grads()
        second = bucketer.flatten_stacked(second_grads)
        assert len(first) == bucketer.num_buckets == 2
        for a, b in zip(first, second):
            assert a is b
        # and they hold the second call's rows, rank by rank
        for r in range(4):
            for flat, expected in zip(
                    second, bucketer.flatten([g[r] for g in second_grads])):
                np.testing.assert_array_equal(flat[r], expected)

    def test_trainer_allocates_on_the_first_step(self):
        config = tiny_config(num_tables=1, rows=32, dim=4, dense_dim=3,
                             bottom_mlp=(4,), top_mlp=(4,))
        trainer = tiny_trainer(config, world=2)
        ds = tiny_dataset(config, seed=0)
        assert trainer._bucketer._stacked_flats is None
        trainer.train_step(ds.batch(4, 0).split(2))
        buffers = list(trainer._bucketer._stacked_flats)
        trainer.train_step(ds.batch(4, 1).split(2))
        for a, b in zip(buffers, trainer._bucketer._stacked_flats):
            assert a is b

"""Contracts the reduce-once / update-once dense sync relies on.

The rank-stacked trainer stores each dense parameter once and computes
what DDP makes identical on every rank once: the backward writes every
rank's gradients into persistent ``(R, bucket_elements)`` buffers, the
AllReduce sum is one vector returned as a read-only broadcast view, and
one optimizer updates the one storage in place, which every other rank
views. Each of those leans on a property of another module, pinned here
so a change to that module fails next to the reason rather than on a
parity fuzz.
"""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig, SimProcessGroup
from repro.comms import collectives
from repro.comms.bucketing import GradientBucketer
from repro.comms.quantization import get_codec
from repro.core import CheckpointManager

from . import reference_comms
from .helpers import (DENSE_OPTIMIZERS, tiny_config, tiny_dataset,
                      tiny_trainer)


class TestOptimizersUpdateInPlace:
    """Update-once writes the one storage that ranks ``r >= 1`` view,
    so ``step()`` must write into ``p.data``, never rebind it (a rebind
    would leave the replicas viewing the old values)."""

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
        expected = reference_comms.all_reduce(list(stack), codec=codec)
        got = collectives.all_reduce(stack, codec=codec)
        assert got.shape == stack.shape and got.dtype == np.float32
        for r in range(stack.shape[0]):
            np.testing.assert_array_equal(got[r], expected[r])
        # the order matters on this data: rank W-1 first gives other bits
        backwards = reference_comms.all_reduce(list(stack[::-1]),
                                               codec=codec)
        assert not np.array_equal(got[0], backwards[0])

    def test_result_is_one_read_only_vector(self):
        stack = adversarial_stack()
        kept = stack.copy()
        got = collectives.all_reduce(stack)
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
        listed = reference_comms.ReferenceProcessGroup(
            pg.topology, pg.comms_config).all_reduce(list(stack))
        assert result.wire_bytes == listed.wire_bytes
        assert result.modeled_seconds == listed.modeled_seconds
        for r in range(16):
            np.testing.assert_array_equal(result.output[r],
                                          listed.outputs[r])
        with pytest.raises(ValueError, match="read-only"):
            result.output[0][0] = 0.0


class TestFlatBucketBuffers:
    def test_views_write_the_buckets(self):
        """``views`` cuts ``(R, elements)`` buffers into per-parameter
        ``(R, *shape)`` views of the same memory: a gradient written
        through view ``i`` lands, rank by rank, where ``flatten`` packs
        parameter ``i``."""
        params = [nn.Parameter(np.zeros((3, 2))), nn.Parameter(np.zeros(5))]
        bucketer = GradientBucketer(params, bucket_bytes=6 * 4)
        assert bucketer.num_buckets == 2
        buffers = [np.empty((4, bucket.num_elements), dtype=np.float32)
                   for bucket in bucketer.buckets]
        rng = np.random.default_rng(2)
        grads = [rng.normal(size=(4,) + p.data.shape).astype(np.float32)
                 for p in params]
        for view, g in zip(bucketer.views(buffers), grads):
            assert view.shape == g.shape
            assert sum(np.shares_memory(view, b) for b in buffers) == 1
            view[...] = g
        for r in range(4):
            for flat, expected in zip(
                    buffers, bucketer.flatten([g[r] for g in grads])):
                np.testing.assert_array_equal(flat[r], expected)

    def test_buffers_persist_and_are_overwritten(self, tmp_path):
        """The trainer's buckets are the same arrays on every step, and
        step 2's backward leaves exactly step 2's gradients in them: a
        trainer restored from the step-1 checkpoint writes equal buckets
        on its first backward."""
        config = tiny_config(num_tables=1, rows=32, dim=4, dense_dim=3,
                             bottom_mlp=(4,), top_mlp=(4,))
        trainer = tiny_trainer(config, world=2)
        ds = tiny_dataset(config, seed=0)
        buffers = list(trainer.grad_buckets)
        trainer.train_step(ds.batch(4, 0).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        trainer.train_step(ds.batch(4, 1).split(2))
        assert all(a is b for a, b in zip(buffers, trainer.grad_buckets))
        restored = tiny_trainer(config, world=2, seed=99)
        mgr.load(restored)
        restored.train_step(ds.batch(4, 1).split(2))
        for a, b in zip(trainer.grad_buckets, restored.grad_buckets):
            np.testing.assert_array_equal(a, b)

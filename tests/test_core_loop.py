"""Tests for the end-to-end training loop."""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology
from repro.core import CheckpointManager, NeoTrainer, TrainingLoop
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
from repro.models import DLRMConfig
from repro.nn import WarmupLinearDecay
from repro.sharding import ShardingPlan, ShardingScheme, shard_table


def make_parts(world=2, seed=0):
    tables = tuple(EmbeddingTableConfig(f"t{i}", 128, 8, avg_pooling=3.0)
                   for i in range(2))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(16, 8), tables=tables,
                        top_mlp=(16,))
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(tables):
        plan.tables[t.name] = shard_table(t, ShardingScheme.TABLE_WISE,
                                          [i % world])
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=lambda p: nn.Adam(p, lr=0.01),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=seed)
    dataset = SyntheticCTRDataset(tables, dense_dim=4, noise=0.2, seed=1)
    return trainer, dataset


class TestTrainingLoop:
    def test_runs_and_records(self):
        trainer, dataset = make_parts()
        loop = TrainingLoop(trainer, dataset, global_batch_size=32,
                            eval_every=10, eval_batch_size=256)
        result = loop.run(30)
        assert len(result.losses) == 30
        assert result.eval_steps == [10, 20, 30]
        assert len(result.eval_ne) == 3
        assert not result.stopped_early

    def test_learning_improves_ne(self):
        trainer, dataset = make_parts()
        loop = TrainingLoop(trainer, dataset, global_batch_size=64,
                            eval_every=20, eval_batch_size=1024)
        # compare on the SAME held-out batch before and after training
        # (the loop's own cadence uses varying eval batches, which is
        # right for monitoring but noisy for a two-point comparison)
        ne_before = loop.evaluate(batch_index=0)
        result = loop.run(80)
        ne_after = loop.evaluate(batch_index=0)
        assert ne_after < ne_before
        assert result.final_ne < 1.0

    def test_early_stopping(self):
        trainer, dataset = make_parts()
        # zero-signal labels: NE can't improve, patience triggers
        loop = TrainingLoop(trainer, dataset, global_batch_size=32,
                            eval_every=2, eval_batch_size=64, patience=2)
        result = loop.run(100)
        # either stopped early or finished; with patience 2 on a noisy
        # small eval it stops long before 100
        assert result.stopped_early
        assert len(result.losses) < 100

    def test_checkpoints_written(self, tmp_path):
        trainer, dataset = make_parts()
        mgr = CheckpointManager(str(tmp_path))
        loop = TrainingLoop(trainer, dataset, global_batch_size=32,
                            eval_every=50, checkpoint_manager=mgr,
                            checkpoint_every=5)
        result = loop.run(12)
        assert len(result.checkpoints) == 2
        assert mgr.list_steps() == [5, 10]

    def test_lr_scheduler_advances(self):
        trainer, dataset = make_parts()
        opt = trainer.dense_opt
        sched = WarmupLinearDecay(opt, base_lr=0.02, warmup_steps=5,
                                  total_steps=20)
        loop = TrainingLoop(trainer, dataset, global_batch_size=32,
                            eval_every=100, lr_schedulers=[sched])
        loop.run(5)
        assert opt.lr == pytest.approx(0.02)

    def test_validation(self):
        trainer, dataset = make_parts()
        with pytest.raises(ValueError):
            TrainingLoop(trainer, dataset, global_batch_size=32,
                         eval_every=0)
        with pytest.raises(ValueError):
            TrainingLoop(trainer, dataset, global_batch_size=32,
                         checkpoint_every=-1)
        with pytest.raises(ValueError):
            TrainingLoop(trainer, dataset, global_batch_size=32, patience=0)

    def test_result_properties_empty(self):
        from repro.core import TrainingResult
        r = TrainingResult()
        assert r.final_ne is None
        assert r.best_ne is None

"""Whole-system integration: the training subsystems in one
production-shaped workflow, plus trainer coverage for TWRW and mean
pooling.

The workflow test chains: model zoo -> planned sharding with memory
validation -> Neo trainer with quantized comms and gradient bucketing ->
training loop with LR warmup, eval and differential checkpoints -> NE on
held-out data -> bit-exact resume. If any two subsystems disagree about
an interface or a convention, this test is where it surfaces.
"""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig
from repro.core import CheckpointManager, NeoTrainer, TrainingLoop
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, RowWiseAdaGrad, \
    SparseAdaGrad, SparseSGD
from repro.metrics import normalized_entropy
from repro.models import DLRM, DLRMConfig, mini_config
from repro.nn import WarmupLinearDecay
from repro.sharding import (PlannerConfig, ShardingPlan, ShardingScheme,
                            shard_table)

from .reference_trainer import to_local_model


class TestTrainerSchemeCoverage:
    """Scheme/pooling combinations not covered by the core matrix."""

    def test_twrw_matches_reference(self):
        """Hierarchical table-row-wise: shards confined to one node's
        ranks, still equivalent to the single-process model."""
        tables = (EmbeddingTableConfig("big", 64, 8, avg_pooling=3.0),)
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                            top_mlp=(8,))
        world = 4  # 2 nodes x 2 GPUs
        plan = ShardingPlan(world_size=world)
        # TWRW places the table on node 1's local ranks [2, 3]
        plan.tables["big"] = shard_table(
            tables[0], ShardingScheme.TABLE_ROW_WISE, [2, 3])
        plan.validate()
        ds = SyntheticCTRDataset(tables, dense_dim=4, seed=0)
        batches = ds.batches(8, 3)

        reference = DLRM(config, seed=0)
        ref_opt = nn.SGD(reference.dense_parameters(), lr=0.1)
        ref_sparse = SparseAdaGrad(lr=0.1)
        for b in batches:
            reference.train_step(b, ref_opt, ref_sparse)

        trainer = NeoTrainer(
            config, plan, ClusterTopology(num_nodes=2, gpus_per_node=2),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseAdaGrad(lr=0.1), seed=0)
        for b in batches:
            trainer.train_step(b.split(world))
        np.testing.assert_allclose(
            trainer.gather_table("big"),
            reference.embeddings.table("big").weight, rtol=1e-4,
            atol=1e-6)

    @pytest.mark.parametrize("scheme", [ShardingScheme.TABLE_WISE,
                                        ShardingScheme.COLUMN_WISE,
                                        ShardingScheme.DATA_PARALLEL])
    def test_mean_pooling_matches_reference(self, scheme):
        """Mean pooling works for every scheme except row-wise (which the
        trainer rejects — partial means don't compose)."""
        tables = (EmbeddingTableConfig("t0", 32, 8, avg_pooling=3.0,
                                       pooling_mode="mean"),)
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                            top_mlp=(8,))
        world = 2
        plan = ShardingPlan(world_size=world)
        ranks = [0] if scheme == ShardingScheme.TABLE_WISE else [0, 1]
        plan.tables["t0"] = shard_table(tables[0], scheme, ranks)
        ds = SyntheticCTRDataset(tables, dense_dim=4, seed=0)
        batches = ds.batches(8, 2)

        reference = DLRM(config, seed=0)
        ref_opt = nn.SGD(reference.dense_parameters(), lr=0.1)
        sparse = SparseSGD(lr=0.1)
        ref_losses = [reference.train_step(b, ref_opt, sparse)
                      for b in batches]

        trainer = NeoTrainer(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1), seed=0)
        losses = [trainer.train_step(b.split(world)) for b in batches]
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-4,
                                   atol=1e-6)


class TestFullWorkflow:
    def test_production_shaped_pipeline(self, tmp_path):
        # 1. model from the zoo; planned and memory-validated sharding
        config = mini_config("A1", scale=256, num_tables=4,
                             embedding_dim=8)
        world = 4

        def build(seed):
            return NeoTrainer.from_planner(
                config, ClusterTopology(num_nodes=1, gpus_per_node=world),
                dense_optimizer=lambda p: nn.Adam(p, lr=0.01),
                sparse_optimizer=RowWiseAdaGrad(lr=0.1),
                comms_config=QuantizedCommsConfig.paper_recipe(), seed=seed,
                planner_config=PlannerConfig(world_size=world,
                                             ranks_per_node=world,
                                             dp_threshold_rows=32),
                device_memory_bytes=32e9)

        # 2. trainer with quantized comms
        trainer = build(seed=0)
        assert set(trainer.plan.tables) == {t.name for t in config.tables}

        # 3. loop with warmup, eval, differential checkpoints
        ds = SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                                 noise=0.2, seed=1)
        manager = CheckpointManager(str(tmp_path), differential=True)
        scheduler = WarmupLinearDecay(trainer.dense_opt,
                                      base_lr=0.02, warmup_steps=5,
                                      total_steps=40)
        loop = TrainingLoop(trainer, ds, global_batch_size=64,
                            eval_every=10, eval_batch_size=512,
                            checkpoint_manager=manager,
                            checkpoint_every=10,
                            lr_schedulers=[scheduler])
        run = loop.run(30)
        assert len(run.losses) == 30
        assert len(run.checkpoints) == 3
        assert run.losses[-1] < run.losses[0]

        # 4. NE on held-out data
        model = to_local_model(trainer)
        test = ds.batch(2048, 777_777)
        assert normalized_entropy(model.predict_proba(test),
                                  test.labels) < 1.0

        # 5. resume from the differential chain, bit-exact
        fresh = build(seed=42)
        manager.load(fresh)
        for t in config.tables:
            np.testing.assert_array_equal(fresh.gather_table(t.name),
                                          trainer.gather_table(t.name))
        dense = list(zip(fresh.ranks[0].dense_parameters(),
                         trainer.ranks[0].dense_parameters()))
        for a, b in dense:
            np.testing.assert_array_equal(a.data, b.data)
        # the dense Adam state is restored too: the next step matches
        fresh.dense_opt.lr = trainer.dense_opt.lr
        next_batch = ds.batch(64, 30).split(world)
        assert fresh.train_step(next_batch) == trainer.train_step(next_batch)
        for a, b in dense:
            np.testing.assert_array_equal(a.data, b.data)

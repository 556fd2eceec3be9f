"""Tests for API ergonomics: from_planner, the command-line entry point,
and the cat-interaction DLRM variant."""

import subprocess
import sys

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRM, DLRMConfig
from repro.sharding import PlannerConfig, ShardingPlan, ShardingScheme, \
    shard_table


def small_tables(n=3, h=64):
    return tuple(EmbeddingTableConfig(f"t{i}", h, 8, avg_pooling=3.0)
                 for i in range(n))


class TestFromPlanner:
    def test_builds_and_trains(self):
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8),
                            tables=small_tables(), top_mlp=(8,))
        trainer = NeoTrainer.from_planner(
            config, ClusterTopology(num_nodes=1, gpus_per_node=2),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1),
            planner_config=PlannerConfig(world_size=2, ranks_per_node=2,
                                         dp_threshold_rows=16))
        ds = SyntheticCTRDataset(config.tables, dense_dim=4)
        loss = trainer.train_step(ds.batch(8).split(2))
        assert np.isfinite(loss)
        trainer.plan.validate()

    def test_default_planner_config(self):
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8),
                            tables=small_tables(), top_mlp=(8,))
        trainer = NeoTrainer.from_planner(
            config, ClusterTopology(num_nodes=1, gpus_per_node=2),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1))
        assert trainer.world_size == 2

    def test_memory_validation_enforced(self):
        big = (
            EmbeddingTableConfig("huge", 10_000_000, 64, avg_pooling=3.0),)
        config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 64), tables=big,
                            top_mlp=(8,))
        with pytest.raises(ValueError, match="budget"):
            NeoTrainer.from_planner(
                config, ClusterTopology(num_nodes=1, gpus_per_node=2),
                dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
                sparse_optimizer=SparseSGD(lr=0.1),
                planner_config=PlannerConfig(
                    world_size=2, ranks_per_node=2,
                    device_memory_bytes=64e9,
                    allow_column_wise=False),
                device_memory_bytes=5e9)


class TestCatInteraction:
    def make_config(self):
        return DLRMConfig(dense_dim=4, bottom_mlp=(8, 8),
                          tables=small_tables(2), top_mlp=(8,),
                          interaction="cat")

    def test_interaction_dim(self):
        cfg = self.make_config()
        assert cfg.interaction_dim == 3 * 8  # dense + 2 tables

    def test_invalid_interaction(self):
        with pytest.raises(ValueError):
            DLRMConfig(dense_dim=4, bottom_mlp=(8, 8),
                       tables=small_tables(1), top_mlp=(8,),
                       interaction="mlp")

    def test_trains(self):
        cfg = self.make_config()
        model = DLRM(cfg, seed=0)
        ds = SyntheticCTRDataset(cfg.tables, dense_dim=4, noise=0.2,
                                 seed=1)
        opt = nn.Adam(model.dense_parameters(), lr=0.02)
        sparse = SparseSGD(lr=0.1)
        losses = [model.train_step(ds.batch(64, i), opt, sparse)
                  for i in range(40)]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_distributed_matches_reference(self):
        cfg = self.make_config()
        world = 2
        plan = ShardingPlan(world_size=world)
        for i, t in enumerate(cfg.tables):
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.TABLE_WISE, [i % world])
        ds = SyntheticCTRDataset(cfg.tables, dense_dim=4, seed=0)
        batches = ds.batches(8, 3)
        reference = DLRM(cfg, seed=0)
        ref_opt = nn.SGD(reference.dense_parameters(), lr=0.1)
        sparse = SparseSGD(lr=0.1)
        ref_losses = [reference.train_step(b, ref_opt, sparse)
                      for b in batches]
        trainer = NeoTrainer(
            cfg, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1), seed=0)
        losses = [trainer.train_step(b.split(world)) for b in batches]
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-4,
                                   atol=1e-6)


class TestSelfCheck:
    def test_module_entry_point(self):
        result = subprocess.run([sys.executable, "-m", "repro"],
                                capture_output=True, text=True,
                                timeout=180)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "ALL CHECKS PASSED" in result.stdout

    def test_main_defaults_to_selfcheck(self, capsys):
        from repro.__main__ import main
        assert main([]) == 0
        assert "ALL CHECKS PASSED" in capsys.readouterr().out

    def test_help_lists_only_selfcheck_and_trace(self, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        commands = usage[usage.index("{") + 1:usage.index("}")]
        assert set(commands.split(",")) == {"selfcheck", "trace"}

    def test_bench_subcommands_removed(self, capsys):
        """Each bench runs from its ``benchmarks/bench_*.py`` script."""
        from repro.__main__ import main
        with pytest.raises(SystemExit) as exc:
            main(["serve-bench"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

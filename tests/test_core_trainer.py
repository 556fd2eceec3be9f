"""Integration tests for the Neo trainer: every sharding scheme must match
the single-process reference DLRM, and distributed invariants must hold."""

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import (EmbeddingTableConfig, RowWiseAdaGrad,
                             SparseAdaGrad, SparseAdam, SparseSGD)
from repro.models import DLRM, DLRMConfig, zoo_config
from repro.planner import RepresentationPlan, TableAssignment
from repro.sharding import (EmbeddingShardingPlanner, PlannerConfig,
                            ShardingPlan, ShardingScheme, shard_table)

from .helpers import scheme_plan, train_sparse_model
from .reference_batch import from_features, to_features
from .reference_trainer import to_local_model


def make_config(num_tables=3, h=64, d=8):
    tables = tuple(EmbeddingTableConfig(f"t{i}", h, d, avg_pooling=3.0)
                   for i in range(num_tables))
    return DLRMConfig(dense_dim=4, bottom_mlp=(16, d), tables=tables,
                      top_mlp=(16,))


def make_plan(config, world, scheme):
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(config.tables):
        if scheme == ShardingScheme.TABLE_WISE:
            ranks = [i % world]
        else:
            ranks = list(range(world))
        plan.tables[t.name] = shard_table(t, scheme, ranks)
    plan.validate()
    return plan


def make_trainer(config, plan, world, sparse_opt=None, comms=None, seed=0,
                 lr=0.1):
    topo = ClusterTopology(num_nodes=1, gpus_per_node=world)
    return NeoTrainer(
        config, plan, topo,
        dense_optimizer=lambda params: nn.SGD(params, lr=lr),
        sparse_optimizer=sparse_opt or SparseSGD(lr=lr),
        comms_config=comms, seed=seed)


def train_reference(config, batches, steps, seed=0, lr=0.1,
                    sparse_opt=None):
    model = DLRM(config, seed=seed)
    dense_opt = nn.SGD(model.dense_parameters(), lr=lr)
    sparse = sparse_opt or SparseSGD(lr=lr)
    losses = []
    for b in batches[:steps]:
        losses.append(model.train_step(b, dense_opt, sparse))
    return model, losses


def dataset_for(config, seed=0):
    return SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=seed)


SCHEMES = [ShardingScheme.TABLE_WISE, ShardingScheme.ROW_WISE,
           ShardingScheme.COLUMN_WISE, ShardingScheme.DATA_PARALLEL]


@pytest.mark.parametrize("scheme", SCHEMES)
class TestSchemeEquivalence:
    """Each scheme's distributed step == the single-process step."""

    def test_matches_reference_after_training(self, scheme):
        config = make_config()
        world = 4
        ds = dataset_for(config)
        batches = ds.batches(16, 4)
        reference, ref_losses = train_reference(config, batches, steps=4)

        plan = make_plan(config, world, scheme)
        trainer = make_trainer(config, plan, world)
        dist_losses = [trainer.train_step(b.split(world)) for b in batches]

        np.testing.assert_allclose(dist_losses, ref_losses, rtol=1e-4,
                                   atol=1e-6)
        exported = to_local_model(trainer)
        for t in config.tables:
            np.testing.assert_allclose(
                exported.embeddings.table(t.name).weight,
                reference.embeddings.table(t.name).weight,
                rtol=1e-4, atol=1e-6)
        for got, want in zip(exported.dense_parameters(),
                             reference.dense_parameters()):
            np.testing.assert_allclose(got.data, want.data, rtol=1e-4,
                                       atol=1e-5)

    def test_replicas_stay_in_sync(self, scheme):
        config = make_config()
        world = 4
        plan = make_plan(config, world, scheme)
        trainer = make_trainer(config, plan, world)
        ds = dataset_for(config)
        for b in ds.batches(16, 3):
            trainer.train_step(b.split(world))
        assert trainer.replicas_in_sync()


class TestToLocalModel:
    """The oracle ``to_local_model`` writes each table's rows into the
    new model's own arena views: the model holds every table once, and
    its forward is bitwise the forward of a model whose tables are
    rebound to the gathered copies."""

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_tables_are_arena_views_with_the_trained_rows(self, scheme):
        config = make_config()
        world = 4
        trainer = make_trainer(config, make_plan(config, world, scheme),
                               world)
        batches = dataset_for(config).batches(16, 3)
        for b in batches[:2]:
            trainer.train_step(b.split(world))
        model = to_local_model(trainer)
        for group in model.embeddings.arena.groups:
            for t, view in zip(group.tables, group.views):
                assert t.weight is view and view.base is group.storage
                assert t.weight.tobytes() == \
                    trainer.gather_table(t.name).tobytes()
        # the model as it used to be built: tables rebound to copies
        rebound = DLRM(config, seed=0)
        for dst, src in zip(rebound.dense_parameters(),
                            trainer.ranks[0].dense_parameters()):
            dst.data = src.data.copy()
        for t in config.tables:
            rebound.embeddings.table(t.name).weight = \
                trainer.gather_table(t.name)
        assert model.forward(batches[2]).tobytes() == \
            rebound.forward(batches[2]).tobytes()


class TestAdaGradEquivalence:
    """The exact sparse optimizer claim (4.1.2): non-linear optimizers stay
    equivalent under distribution because duplicates merge before update."""

    @pytest.mark.parametrize("scheme", [ShardingScheme.TABLE_WISE,
                                        ShardingScheme.ROW_WISE])
    def test_adagrad(self, scheme):
        config = make_config(num_tables=2)
        world = 2
        ds = dataset_for(config)
        batches = ds.batches(8, 3)
        reference, _ = train_reference(config, batches, steps=3,
                                       sparse_opt=SparseAdaGrad(lr=0.1))
        plan = make_plan(config, world, scheme)
        trainer = make_trainer(config, plan, world,
                               sparse_opt=SparseAdaGrad(lr=0.1))
        for b in batches:
            trainer.train_step(b.split(world))
        for t in config.tables:
            np.testing.assert_allclose(
                trainer.gather_table(t.name),
                reference.embeddings.table(t.name).weight,
                rtol=1e-4, atol=1e-6)

    def test_rowwise_adagrad_with_rowwise_sharding(self):
        """The F1 recipe: row-wise sharded table + row-wise AdaGrad."""
        config = make_config(num_tables=1, h=32)
        world = 4
        ds = dataset_for(config)
        batches = ds.batches(8, 3)
        reference, _ = train_reference(config, batches, steps=3,
                                       sparse_opt=RowWiseAdaGrad(lr=0.1))
        plan = make_plan(config, world, ShardingScheme.ROW_WISE)
        trainer = make_trainer(config, plan, world,
                               sparse_opt=RowWiseAdaGrad(lr=0.1))
        for b in batches:
            trainer.train_step(b.split(world))
        np.testing.assert_allclose(
            trainer.gather_table(config.tables[0].name),
            reference.embeddings.table(config.tables[0].name).weight,
            rtol=1e-4, atol=1e-6)


class TestWorkerCountInvariance:
    """Section 4.1.2: results do not depend on the number of workers."""

    @pytest.mark.parametrize("scheme", [ShardingScheme.TABLE_WISE,
                                        ShardingScheme.ROW_WISE])
    def test_2_vs_4_workers(self, scheme):
        config = make_config()
        ds = dataset_for(config)
        batches = ds.batches(16, 3)
        tables = {}
        for world in (2, 4):
            plan = make_plan(config, world, scheme)
            trainer = make_trainer(config, plan, world,
                                   sparse_opt=SparseAdaGrad(lr=0.1))
            for b in batches:
                trainer.train_step(b.split(world))
            tables[world] = {t.name: trainer.gather_table(t.name)
                             for t in config.tables}
        for name in tables[2]:
            np.testing.assert_allclose(tables[2][name], tables[4][name],
                                       rtol=1e-4, atol=1e-6)

    def test_run_to_run_bitwise(self):
        """Same config, same seed, two runs: bitwise identical."""
        config = make_config()
        ds = dataset_for(config)
        batches = ds.batches(16, 2)
        results = []
        for _ in range(2):
            plan = make_plan(config, 2, ShardingScheme.TABLE_WISE)
            trainer = make_trainer(config, plan, 2,
                                   sparse_opt=SparseAdaGrad(lr=0.1))
            for b in batches:
                trainer.train_step(b.split(2))
            results.append({t.name: trainer.gather_table(t.name)
                            for t in config.tables})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])


class TestMixedPlan:
    def test_planner_produced_plan_trains(self):
        """End-to-end: planner chooses mixed schemes, training still
        matches the reference."""
        tables = tuple([
            EmbeddingTableConfig("small", 8, 8, avg_pooling=2.0),   # DP
            EmbeddingTableConfig("big", 128, 8, avg_pooling=3.0),   # RW
            EmbeddingTableConfig("mid", 64, 8, avg_pooling=3.0),    # TW
        ])
        config = DLRMConfig(dense_dim=4, bottom_mlp=(16, 8), tables=tables,
                            top_mlp=(16,))
        world = 4
        planner = EmbeddingShardingPlanner(PlannerConfig(
            world_size=world, ranks_per_node=world, dp_threshold_rows=10,
            device_memory_bytes=128 * 8 * 4 * 0.6))  # force 'big' row-wise
        plan = planner.plan(list(tables))
        assert plan.scheme_of("small") == ShardingScheme.DATA_PARALLEL
        assert plan.scheme_of("big") == ShardingScheme.ROW_WISE

        ds = dataset_for(config)
        batches = ds.batches(16, 3)
        reference, ref_losses = train_reference(config, batches, steps=3)
        trainer = make_trainer(config, plan, world)
        losses = [trainer.train_step(b.split(world)) for b in batches]
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-4, atol=1e-6)

    def test_quantized_comms_still_converges(self):
        """FP16/BF16 wire precision must not break learning (5.3.2)."""
        config = make_config()
        world = 2
        plan = make_plan(config, world, ShardingScheme.TABLE_WISE)
        trainer = make_trainer(config, plan, world,
                               comms=QuantizedCommsConfig.paper_recipe())
        ds = dataset_for(config)
        losses = [trainer.train_step(ds.batch(32, i).split(world))
                  for i in range(30)]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_quantized_comms_close_to_fp32(self):
        config = make_config()
        world = 2
        ds = dataset_for(config)
        batches = ds.batches(16, 3)
        results = {}
        for name, comms in (("fp32", None),
                            ("quant", QuantizedCommsConfig.paper_recipe())):
            plan = make_plan(config, world, ShardingScheme.TABLE_WISE)
            trainer = make_trainer(config, plan, world, comms=comms)
            losses = [trainer.train_step(b.split(world)) for b in batches]
            results[name] = losses
        np.testing.assert_allclose(results["quant"], results["fp32"],
                                   rtol=5e-3)


class TestDataParallelZeroGradient:
    def test_touched_row_with_zero_gradient_still_steps(self):
        """A data-parallel table steps every row any rank touched, as
        every other scheme and the single-process step do: with the top
        MLP zeroed every pooled gradient is exactly zero, and Adam's
        per-row step count must still advance on the touched rows."""
        tables = (EmbeddingTableConfig("dp", 32, 8, avg_pooling=3.0),
                  EmbeddingTableConfig("tw", 32, 8, avg_pooling=3.0))
        config = DLRMConfig(dense_dim=4, bottom_mlp=(16, 8), tables=tables,
                            top_mlp=(16,))
        plan = ShardingPlan(world_size=2)
        plan.tables["dp"] = shard_table(tables[0],
                                        ShardingScheme.DATA_PARALLEL, [0, 1])
        plan.tables["tw"] = shard_table(tables[1],
                                        ShardingScheme.TABLE_WISE, [1])
        trainer = make_trainer(config, plan, 2,
                               sparse_opt=SparseAdam(lr=0.01))
        ds = dataset_for(config)

        def step(index):
            batch = ds.batch(8, index)
            # both tables read the same ids, so they touch the same rows
            features = to_features(batch)
            features["tw"] = features["dp"]
            trainer.train_step(from_features(batch.dense, features,
                                             batch.labels).split(2))

        step(0)
        # the one storage: every rank views rank 0's top MLP
        for p in trainer.ranks[0].top.parameters():
            p.data[...] = 0.0
        step(1)
        t_of = [trainer.sparse_opt.state_for(
            trainer.exchange.shard_tables[shard])["t"]
            for name in ("tw", "dp") for shard in plan.tables[name].shards]
        assert t_of[0].max() == 2
        for t in t_of[1:]:
            np.testing.assert_array_equal(t, t_of[0])


class TestValidation:
    def test_world_size_mismatch(self):
        config = make_config()
        plan = make_plan(config, 4, ShardingScheme.TABLE_WISE)
        topo = ClusterTopology(num_nodes=1, gpus_per_node=2)
        with pytest.raises(ValueError):
            NeoTrainer(config, plan, topo,
                       dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
                       sparse_optimizer=SparseSGD(lr=0.1))

    def test_missing_table_in_plan(self):
        config = make_config(num_tables=2)
        plan = ShardingPlan(world_size=2)
        plan.tables["t0"] = shard_table(config.tables[0],
                                        ShardingScheme.TABLE_WISE, [0])
        topo = ClusterTopology(num_nodes=1, gpus_per_node=2)
        with pytest.raises(ValueError, match="missing"):
            NeoTrainer(config, plan, topo,
                       dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
                       sparse_optimizer=SparseSGD(lr=0.1))

    def test_rw_mean_pooling_rejected(self):
        tables = (EmbeddingTableConfig("t0", 64, 8, pooling_mode="mean"),)
        config = DLRMConfig(dense_dim=4, bottom_mlp=(16, 8), tables=tables,
                            top_mlp=(16,))
        plan = ShardingPlan(world_size=2)
        plan.tables["t0"] = shard_table(tables[0], ShardingScheme.ROW_WISE,
                                        [0, 1])
        topo = ClusterTopology(num_nodes=1, gpus_per_node=2)
        with pytest.raises(ValueError, match="sum pooling"):
            NeoTrainer(config, plan, topo,
                       dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
                       sparse_optimizer=SparseSGD(lr=0.1))

    @pytest.mark.parametrize("scheme", [ShardingScheme.ROW_WISE,
                                        ShardingScheme.TABLE_ROW_WISE])
    @pytest.mark.parametrize("ranks,shared", [([0, 0, 1], 0),
                                              ([0, 1, 1], 1)])
    def test_rw_two_shards_on_one_rank_rejected(self, scheme, ranks,
                                                 shared):
        # the row-wise exchange is keyed by owner rank: a second shard
        # on one rank would silently overwrite the first's partials
        config = make_config(num_tables=2)
        plan = make_plan(config, 2, ShardingScheme.TABLE_WISE)
        plan.tables["t1"] = shard_table(config.tables[1], scheme, ranks)
        topo = ClusterTopology(num_nodes=1, gpus_per_node=2)
        with pytest.raises(ValueError, match=f"t1 .* rank {shared}"):
            NeoTrainer(config, plan, topo,
                       dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
                       sparse_optimizer=SparseSGD(lr=0.1))

    def test_wrong_batch_count(self):
        config = make_config()
        plan = make_plan(config, 2, ShardingScheme.TABLE_WISE)
        trainer = make_trainer(config, plan, 2)
        ds = dataset_for(config)
        with pytest.raises(ValueError):
            trainer.train_step([ds.batch(4)])

    def test_comms_traffic_logged(self):
        config = make_config()
        plan = make_plan(config, 2, ShardingScheme.TABLE_WISE)
        trainer = make_trainer(config, plan, 2)
        ds = dataset_for(config)
        trainer.train_step(ds.batch(8).split(2))
        log = trainer.pg.log
        assert log.calls.get("all_reduce", 0) > 0
        assert any("all_to_all" in k for k in log.calls)
        assert log.total_seconds > 0


class TestTracingParity:
    """Instrumentation must be read-only: a traced run and an untraced run
    produce bit-identical parameters and losses."""

    def _train(self, trace):
        from repro.obs import MetricRegistry
        config = make_config()
        world = 4
        plan = make_plan(config, world, ShardingScheme.TABLE_WISE)
        topo = ClusterTopology(num_nodes=1, gpus_per_node=world)
        trainer = NeoTrainer(
            config, plan, topo,
            dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
            sparse_optimizer=SparseSGD(lr=0.1), seed=0,
            trace=trace, metrics=MetricRegistry())
        ds = dataset_for(config)
        losses = [trainer.train_step(b.split(world))
                  for b in ds.batches(16, 3)]
        return trainer, losses

    def test_traced_run_is_bit_identical(self):
        from repro.obs import Tracer
        plain, plain_losses = self._train(trace=None)
        traced, traced_losses = self._train(trace=Tracer(clock="logical"))

        assert plain_losses == traced_losses  # exact, not approx
        for t in plain.config.tables:
            np.testing.assert_array_equal(plain.gather_table(t.name),
                                          traced.gather_table(t.name))
        for got, want in zip(traced.ranks[0].dense_parameters(),
                             plain.ranks[0].dense_parameters()):
            np.testing.assert_array_equal(got.data, want.data)
        # and the traced run actually recorded the phase taxonomy
        agg = traced.tracer.trace.aggregate()
        assert "trainer.iteration" in agg
        assert agg["trainer.iteration"].count == 3


RW, TW, CW, DP = (ShardingScheme.ROW_WISE, ShardingScheme.TABLE_WISE,
                  ShardingScheme.COLUMN_WISE, ShardingScheme.DATA_PARALLEL)


def _zoo_model(size):
    config = zoo_config(size)
    return config, scheme_plan(config, [(RW, TW, CW, DP)[i % 4]
                                        for i in range(len(config.tables))],
                               4)


def _mixed_model():
    """Every scheme, two column-wise tables, heterogeneous dims."""
    tables = tuple(EmbeddingTableConfig(f"t{i}", 300 + 37 * i, d,
                                        avg_pooling=3.0)
                   for i, d in enumerate((8, 12, 16, 6, 10, 16)))
    config = DLRMConfig(dense_dim=5, bottom_mlp=(16, 8), tables=tables,
                        top_mlp=(16,), project_features=True)
    return config, scheme_plan(config, [RW, TW, CW, DP, TW, CW], 4)


def _fp16_plan(config):
    return RepresentationPlan(assignments={
        t.name: TableAssignment(table=t.name, kind="fp16", hot_bytes=0,
                                total_bytes=0, error=0.0, lookup_s=0.0)
        for t in config.tables})


class TestPinnedInit:
    """The trainer's start state, and its state after one step, pinned as
    a sha256 of every stored table, dense parameter and optimizer slot.
    The values were recorded when the trainer still cut its shards from
    a whole ``DLRM(config, seed)``, so drawing the init straight into the
    stored tables is held to the same bits."""

    MODELS = {
        "train_sparse": train_sparse_model,
        "zoo_small": lambda: _zoo_model("small"),
        "zoo_medium": lambda: _zoo_model("medium"),
        "zoo_large": lambda: _zoo_model("large"),
        "mixed_projected": _mixed_model,
        "fp16_plan": _mixed_model,
    }
    # (model, seed): (after construction, after one step), sha256 prefixes
    PINNED = {
        ("train_sparse", 0): ("3c8639e185178a4c", "443346f755b1dc36"),
        ("train_sparse", 3): ("cbd0f432e9d6efc2", "86da3d7d5910351f"),
        ("zoo_small", 0): ("b9d41908bc2a34ff", "b31b191f361feebb"),
        ("zoo_small", 3): ("8d3fe8dcf2a043c2", "47e1e5ea881d5382"),
        ("zoo_medium", 0): ("a452ca80bcb1426e", "3c2bf17fc029f540"),
        ("zoo_medium", 3): ("a7efcfcdbad3597a", "108b3136c3bb8939"),
        ("zoo_large", 0): ("d77893b1bb3343d1", "6b0913f9c9b3018a"),
        ("zoo_large", 3): ("e62380de935eccf9", "aeb2630f0fcf9b4d"),
        ("mixed_projected", 0): ("957f41c3b4120385", "1f75c6f486ce0adb"),
        ("mixed_projected", 3): ("7099244d201697ad", "803ecd61089ebb8c"),
        ("fp16_plan", 0): ("94d75279b2057069", "f38a3574c2696df7"),
        ("fp16_plan", 3): ("f0d7a99952f342e3", "ef994dfd83382758"),
    }

    @staticmethod
    def state_hash(trainer) -> str:
        """Each stored table once (in shard order) with its sparse
        optimizer slots, then rank 0's dense parameters with theirs."""
        h = hashlib.sha256()

        def put(a):
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())

        seen = set()
        for table in trainer.exchange.shard_tables.values():
            if id(table) in seen:
                continue
            seen.add(id(table))
            put(table.weight)
            for name, value in sorted(
                    trainer.sparse_opt._state.get(id(table), {}).items()):
                h.update(name.encode())
                put(value)
        for p in trainer.ranks[0].dense_parameters():
            put(p.data)
            for name, value in sorted(
                    trainer.dense_opt._state.get(id(p), {}).items()):
                h.update(name.encode())
                put(value)
        return h.hexdigest()[:16]

    @pytest.mark.parametrize("model,seed", sorted(PINNED))
    def test_state_after_construction_and_one_step(self, model, seed):
        config, plan = self.MODELS[model]()
        trainer = NeoTrainer(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=4),
            dense_optimizer=lambda p: nn.Adam(p, lr=0.01),
            sparse_optimizer=SparseAdaGrad(lr=0.1), seed=seed,
            representation_plan=_fp16_plan(config)
            if model == "fp16_plan" else None)
        built = self.state_hash(trainer)
        data = SyntheticCTRDataset(config.tables,
                                   dense_dim=config.dense_dim, seed=seed)
        trainer.train_step(data.batch(64, batch_index=0).split(4))
        assert (built, self.state_hash(trainer)) == self.PINNED[model, seed]

"""Rank-stacked trainer vs the looped reference oracle.

The stacked path (``NeoTrainer(..., stacked=True)``, the default) packs
all ranks' dense state into leading-axis ``(R, ...)`` arrays and
advances every replica with one batched kernel per phase. It is only
allowed to exist because it is *bitwise identical* to the sequential
per-rank loop: this file fuzzes that identity over random
architectures, world sizes, sharding schemes and optimizers — losses,
dense parameters, comms byte/call logs, and eval outputs — and pins
the compatibility surface (per-rank ``dense_opt`` facade, checkpoint
state, ``replicas_in_sync``) that the rest of the repo reads through.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig
from repro.core import CheckpointManager, NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad, SparseSGD
from repro.models import DLRMConfig
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .helpers import DENSE_OPTIMIZERS as OPTIMIZERS

SCHEMES = [ShardingScheme.TABLE_WISE, ShardingScheme.ROW_WISE,
           ShardingScheme.COLUMN_WISE, ShardingScheme.DATA_PARALLEL]


def build_pair(tables, emb_dim, world, schemes, seed, optimizer="sgd",
               dense_dim=3, depth=2, allreduce="fp32"):
    """One looped and one stacked trainer with identical state. Both
    MLPs have ``depth`` Linear layers; ``allreduce`` is the wire
    precision of the dense gradient AllReduce."""
    config = DLRMConfig(dense_dim=dense_dim,
                        bottom_mlp=(6,) * (depth - 1) + (emb_dim,),
                        tables=tables, top_mlp=(6,) * (depth - 1))
    nodes = 2 if world == 16 else 1
    trainers = []
    for stacked in (False, True):
        plan = ShardingPlan(world_size=world)
        for i, t in enumerate(tables):
            scheme = schemes[t.name]
            ranks = [i % world] if scheme == ShardingScheme.TABLE_WISE \
                else list(range(world))
            plan.tables[t.name] = shard_table(t, scheme, ranks)
        plan.validate()
        trainers.append(NeoTrainer(
            config, plan,
            ClusterTopology(num_nodes=nodes, gpus_per_node=world // nodes),
            dense_optimizer=OPTIMIZERS[optimizer],
            sparse_optimizer=SparseSGD(lr=0.1),
            comms_config=QuantizedCommsConfig(allreduce=allreduce),
            seed=seed, stacked=stacked))
    return trainers[0], trainers[1]


def assert_bitwise_equal(looped, stacked, tables):
    """Every observable of the two trainers must agree exactly."""
    for r in range(looped.world_size):
        for pa, pb in zip(looped.ranks[r].dense_parameters(),
                          stacked.ranks[r].dense_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
    for t in tables:
        np.testing.assert_array_equal(looped.gather_table(t.name),
                                      stacked.gather_table(t.name))
    assert looped.pg.log.wire_bytes == stacked.pg.log.wire_bytes
    assert looped.pg.log.calls == stacked.pg.log.calls
    assert looped.pg.log.modeled_seconds == stacked.pg.log.modeled_seconds
    assert looped.replicas_in_sync()
    assert stacked.replicas_in_sync()


@st.composite
def stacked_scenario(draw):
    num_tables = draw(st.integers(min_value=1, max_value=3))
    emb_dim = draw(st.sampled_from([4, 8]))
    world = draw(st.sampled_from([2, 4, 16]))
    depth = draw(st.integers(min_value=2, max_value=6))
    allreduce = draw(st.sampled_from(["fp32", "bf16"]))
    batch_per_rank = draw(st.integers(min_value=1, max_value=4))
    tables = tuple(
        EmbeddingTableConfig(
            f"t{i}",
            num_embeddings=draw(st.integers(min_value=world * 2,
                                            max_value=64)),
            embedding_dim=emb_dim,
            avg_pooling=float(draw(st.integers(min_value=1, max_value=5))))
        for i in range(num_tables))
    schemes = {t.name: draw(st.sampled_from(SCHEMES)) for t in tables}
    optimizer = draw(st.sampled_from(sorted(OPTIMIZERS)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return (tables, emb_dim, world, batch_per_rank, schemes, optimizer,
            seed, depth, allreduce)


@given(stacked_scenario())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_stacked_bitwise_matches_looped(scenario):
    """Random configs x world sizes x MLP depths x schemes x optimizers
    x AllReduce precisions: per-step losses, all dense params, gathered
    tables, the comms byte/call/modeled-time logs and eval outputs are
    bitwise equal between the two modes."""
    (tables, emb_dim, world, batch_per_rank, schemes, optimizer, seed,
     depth, allreduce) = scenario
    looped, stacked = build_pair(tables, emb_dim, world, schemes, seed,
                                 optimizer=optimizer, depth=depth,
                                 allreduce=allreduce)
    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    for i in range(5):
        split = ds.batch(batch_per_rank * world, i).split(world)
        loss_l = looped.train_step(split)
        loss_s = stacked.train_step(split)
        assert loss_l == loss_s  # exact, not approx
    assert_bitwise_equal(looped, stacked, tables)
    split = ds.batch(batch_per_rank * world, 99).split(world)
    for out_l, out_s in zip(looped.eval_forward(split),
                            stacked.eval_forward(split)):
        np.testing.assert_array_equal(out_l, out_s)


def two_table_setup(world=2, optimizer="sgd", seed=0, **kwargs):
    tables = (EmbeddingTableConfig("t0", 32, 8, avg_pooling=3.0),
              EmbeddingTableConfig("t1", 16, 8, avg_pooling=2.0))
    schemes = {"t0": ShardingScheme.TABLE_WISE,
               "t1": ShardingScheme.DATA_PARALLEL}
    looped, stacked = build_pair(tables, 8, world, schemes, seed,
                                 optimizer=optimizer, **kwargs)
    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    return looped, stacked, ds, tables


class TestOptimizerParity:
    """Exact parity for every stateful optimizer, fixed config."""

    @pytest.mark.parametrize("optimizer", sorted(OPTIMIZERS))
    def test_bitwise_parity(self, optimizer):
        looped, stacked, ds, tables = two_table_setup(optimizer=optimizer)
        for i in range(4):
            split = ds.batch(8, i).split(2)
            assert looped.train_step(split) == stacked.train_step(split)
        assert_bitwise_equal(looped, stacked, tables)

    @pytest.mark.parametrize("optimizer", ["adam", "lamb"])
    def test_bf16_allreduce_world16_depth6(self, optimizer):
        """The widest corner of the fuzz, always run: 16 ranks over two
        nodes, 6-layer MLPs, quantized gradient AllReduce."""
        looped, stacked, ds, tables = two_table_setup(
            world=16, optimizer=optimizer, depth=6, allreduce="bf16")
        for i in range(5):
            split = ds.batch(32, i).split(16)
            assert looped.train_step(split) == stacked.train_step(split)
        assert_bitwise_equal(looped, stacked, tables)


class TestOptimizerFacade:
    """Per-rank ``ranks[r].dense_opt`` stays a usable read surface in
    stacked mode — checkpointing and LR schedulers go through it."""

    def test_state_is_per_rank_shaped(self):
        """One optimizer over rank 0's views: its slots have the shape
        checkpoints store, and every rank's facade reads the same
        slots."""
        _, stacked, ds, _ = two_table_setup(optimizer="momentum")
        stacked.train_step(ds.batch(8, 0).split(2))
        shared = stacked._stacked_state.dense_opt
        rank0 = stacked.ranks[0].dense_parameters()
        for r in range(2):
            opt = stacked.ranks[r].dense_opt
            for p, p0 in zip(stacked.ranks[r].dense_parameters(), rank0):
                state = opt.state_for(p)
                assert state["momentum"].shape == p.data.shape
                assert state["momentum"] is \
                    shared.state_for(p0)["momentum"]

    def test_rank_states_identical_replicas(self):
        """Dense state is replicated, so every rank's slice agrees."""
        _, stacked, ds, _ = two_table_setup(optimizer="adam")
        stacked.train_step(ds.batch(8, 0).split(2))
        params = [stacked.ranks[r].dense_parameters() for r in range(2)]
        for p0, p1 in zip(*params):
            s0 = stacked.ranks[0].dense_opt.state_for(p0)
            s1 = stacked.ranks[1].dense_opt.state_for(p1)
            assert s0.keys() == s1.keys()
            for key in s0:
                np.testing.assert_array_equal(s0[key], s1[key])

    def test_step_raises(self):
        _, stacked, _, _ = two_table_setup()
        for r in range(2):
            with pytest.raises(RuntimeError):
                stacked.ranks[r].dense_opt.step()

    def test_scheduler_drives_shared_lr(self):
        """A scheduler built on rank 0's facade reaches the shared
        stacked optimizer (and therefore every replica)."""
        _, stacked, ds, _ = two_table_setup()
        sched = nn.StepDecay(stacked.ranks[0].dense_opt, base_lr=0.1,
                             milestones=[1], gamma=0.5)
        sched.step()
        assert stacked.ranks[0].dense_opt.lr == pytest.approx(0.05)
        assert stacked.ranks[1].dense_opt.lr == pytest.approx(0.05)
        stacked.train_step(ds.batch(8, 0).split(2))  # still trains


class TestStackedStateLayout:
    def test_parameters_are_views_of_stacked_storage(self):
        _, stacked, ds, _ = two_table_setup()
        assert stacked.stacked
        sp_list = stacked._stacked_state.dense_parameters()
        for r in range(2):
            for p, sp in zip(stacked.ranks[r].dense_parameters(), sp_list):
                assert sp.data.shape == (2,) + p.data.shape
                assert np.shares_memory(p.data, sp.data)
        # and the views survive a training step (updates are in-place)
        stacked.train_step(ds.batch(8, 0).split(2))
        for p, sp in zip(stacked.ranks[0].dense_parameters(), sp_list):
            assert np.shares_memory(p.data, sp.data)

    def test_poked_replica_is_detected_until_the_next_step(self):
        """Replicas are real storage, not aliases: a write to one rank
        shows in ``replicas_in_sync()``; the next step re-broadcasts
        rank 0 over it."""
        _, stacked, ds, _ = two_table_setup()
        stacked.train_step(ds.batch(8, 0).split(2))
        stacked.ranks[1].dense_parameters()[0].data[0, 0] += 1.0
        assert not stacked.replicas_in_sync()
        stacked.train_step(ds.batch(8, 1).split(2))
        assert stacked.replicas_in_sync()

    def test_looped_flag_off(self):
        looped, _, _, _ = two_table_setup()
        assert not looped.stacked
        assert looped._stacked_state is None


class TestCrossModeCheckpoint:
    """Optimizer state has per-rank shape in both modes, so a checkpoint
    moves between them with nothing to convert."""

    @pytest.mark.parametrize("optimizer", ["adam", "lamb"])
    @pytest.mark.parametrize("save_stacked", [False, True])
    def test_save_load_continue(self, tmp_path, optimizer, save_stacked):
        looped, stacked, ds, tables = two_table_setup(optimizer=optimizer)
        for i in range(2):
            split = ds.batch(8, i).split(2)
            looped.train_step(split)
            stacked.train_step(split)
        saver = stacked if save_stacked else looped
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(saver)
        pair = two_table_setup(optimizer=optimizer, seed=99)
        resumed = pair[0] if save_stacked else pair[1]  # the other mode
        assert resumed.stacked != saver.stacked
        mgr.load(resumed)
        self.assert_slots_equal(resumed, saver)
        for i in range(2, 4):
            split = ds.batch(8, i).split(2)
            assert resumed.train_step(split) == looped.train_step(split)
        self.assert_slots_equal(resumed, looped)
        for r in range(2):
            for pa, pb in zip(resumed.ranks[r].dense_parameters(),
                              looped.ranks[r].dense_parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)
        for t in tables:
            np.testing.assert_array_equal(resumed.gather_table(t.name),
                                          looped.gather_table(t.name))

    @staticmethod
    def assert_slots_equal(a, b):
        for r in range(2):
            for pa, pb in zip(a.ranks[r].dense_parameters(),
                              b.ranks[r].dense_parameters()):
                sa = a.ranks[r].dense_opt.state_for(pa)
                sb = b.ranks[r].dense_opt.state_for(pb)
                assert sorted(sa) == sorted(sb) == ["m", "t", "v"]
                for key in sa:
                    assert sa[key].shape == sb[key].shape
                    np.testing.assert_array_equal(sa[key], sb[key])


def test_stacked_smoke_r64():
    """A 64-rank step is affordable in stacked mode (the reason the
    Fig. 11 sweep moved to the fast tier)."""
    tables = (EmbeddingTableConfig("t0", 256, 8, avg_pooling=2.0),)
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                        top_mlp=(8,))
    plan = ShardingPlan(world_size=64)
    plan.tables["t0"] = shard_table(tables[0],
                                    ShardingScheme.DATA_PARALLEL,
                                    list(range(64)))
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=8, gpus_per_node=8),
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=0)
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    losses = [trainer.train_step(ds.batch(128, i).split(64))
              for i in range(2)]
    assert all(np.isfinite(l) for l in losses)
    assert trainer.replicas_in_sync()

"""Rank-stacked trainer vs the looped reference oracle.

``NeoTrainer`` stores each dense parameter once and advances every
replica with one batched kernel per phase over leading-axis ``(R, ...)``
activations. It is only allowed to exist because it is *bitwise
identical* to the sequential per-rank loop (``LoopedNeoTrainer`` in
``reference_trainer.py``): this file fuzzes that identity over random
architectures, world sizes, sharding schemes and optimizers — losses,
dense parameters, comms byte/call logs, and eval outputs — and pins
the surface the rest of the repo reads through (the one
``trainer.dense_opt``, checkpoint state, ``replicas_in_sync``). Row-wise
tables, which the product stores once and the oracle per shard, get a
fuzz of their own: shard layouts, storage precisions and all five
sparse optimizers.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig
from repro.core import CheckpointManager, NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import (EmbeddingTableConfig, RowWiseAdaGrad,
                             SparseAdaGrad, SparseAdam, SparseLAMB, SparseSGD)
from repro.models import DLRM, DLRMConfig
from repro.planner import PlannerCostModel, RepresentationPlan, uniform_plan
from repro.sharding import (Shard, ShardingPlan, ShardingScheme,
                            TableShardingPlan, shard_table)

from .helpers import DENSE_OPTIMIZERS as OPTIMIZERS
from .reference_batch import from_features, to_features
from .reference_trainer import LoopedNeoTrainer

SCHEMES = [ShardingScheme.TABLE_WISE, ShardingScheme.ROW_WISE,
           ShardingScheme.COLUMN_WISE, ShardingScheme.DATA_PARALLEL]
ROW_SCHEMES = (ShardingScheme.ROW_WISE, ShardingScheme.TABLE_ROW_WISE)
SPARSE_OPTIMIZERS = {"sgd": lambda: SparseSGD(lr=0.1),
                     "adagrad": lambda: SparseAdaGrad(lr=0.1),
                     "adam": lambda: SparseAdam(lr=0.01)}


def fp16_data_parallel(config, schemes, seed) -> RepresentationPlan:
    """Data-parallel tables train fp16-stored, the rest at full width."""
    model = DLRM(config, seed=seed)
    cost = PlannerCostModel(allow_tt=False)
    full = uniform_plan(model, "full", cost=cost).assignments
    fp16 = uniform_plan(model, "fp16", cost=cost).assignments
    return RepresentationPlan(assignments={
        name: fp16[name] if schemes[name] == ShardingScheme.DATA_PARALLEL
        else full[name] for name in full})


def build_pair(tables, emb_dim, world, schemes, seed, optimizer="sgd",
               dense_dim=3, depth=2, allreduce="fp32", sparse="sgd",
               dp_ranks=None, fp16_dp=False):
    """One looped (oracle) and one stacked (product) trainer with
    identical state. Both
    MLPs have ``depth`` Linear layers; ``allreduce`` is the wire
    precision of the dense gradient AllReduce. ``sparse`` names the
    sparse optimizer, ``dp_ranks`` orders a data-parallel table's replica
    shards (default: rank order), and ``fp16_dp`` trains data-parallel
    tables fp16-stored through a representation plan."""
    config = DLRMConfig(dense_dim=dense_dim,
                        bottom_mlp=(6,) * (depth - 1) + (emb_dim,),
                        tables=tables, top_mlp=(6,) * (depth - 1))
    nodes = 2 if world == 16 else 1
    representation = fp16_data_parallel(config, schemes, seed) \
        if fp16_dp else None
    trainers = []
    for cls in (LoopedNeoTrainer, NeoTrainer):
        plan = ShardingPlan(world_size=world)
        for i, t in enumerate(tables):
            scheme = schemes[t.name]
            ranks = [i % world] if scheme == ShardingScheme.TABLE_WISE \
                else list(range(world))
            if scheme == ShardingScheme.DATA_PARALLEL and dp_ranks:
                ranks = list(dp_ranks)
            plan.tables[t.name] = shard_table(t, scheme, ranks)
        plan.validate()
        trainers.append(cls(
            config, plan,
            ClusterTopology(num_nodes=nodes, gpus_per_node=world // nodes),
            dense_optimizer=OPTIMIZERS[optimizer],
            sparse_optimizer=SPARSE_OPTIMIZERS[sparse](),
            comms_config=QuantizedCommsConfig(allreduce=allreduce),
            seed=seed, representation_plan=representation))
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
    # the product's one data-parallel table holds every oracle replica's
    # optimizer state, and its one row-wise table the oracle's per-shard
    # states, concatenated in row order
    for shard, table in stacked.exchange.shard_tables.items():
        if stacked.plan.scheme_of(shard.table) in ROW_SCHEMES:
            want = row_wise_state(looped, shard.table)
        else:
            want = looped.sparse_opt.state_for(
                looped.exchange.shard_tables[shard])
        got = stacked.sparse_opt.state_for(table)
        assert sorted(got) == sorted(want)
        for key in want:
            np.testing.assert_array_equal(got[key], want[key])


def row_wise_state(looped, name):
    """The oracle's per-shard optimizer states of row-wise table
    ``name``, concatenated in row order. A shard the oracle never
    stepped has no state yet; it counts as the zeros every state starts
    from."""
    shards = sorted(looped.plan.tables[name].shards,
                    key=lambda s: s.row_range)
    states = [looped.sparse_opt.state_for(looped.exchange.shard_tables[s])
              for s in shards]
    whole = {}
    for key in sorted({key for state in states for key in state}):
        like = next(state[key] for state in states if key in state)
        whole[key] = np.concatenate([
            state[key] if key in state
            else np.zeros((s.num_rows,) + like.shape[1:], like.dtype)
            for s, state in zip(shards, states)])
    return whole


@st.composite
def stacked_scenario(draw):
    num_tables = draw(st.integers(min_value=1, max_value=3))
    emb_dim = draw(st.sampled_from([4, 8]))
    world = draw(st.sampled_from([2, 4, 16]))
    depth = draw(st.integers(min_value=2, max_value=6))
    allreduce = draw(st.sampled_from(["fp32", "bf16"]))
    batch_per_rank = draw(st.integers(min_value=1, max_value=4))
    schemes = {f"t{i}": draw(st.sampled_from(SCHEMES))
               for i in range(num_tables)}
    # row-wise tables pool by sum only
    tables = tuple(
        EmbeddingTableConfig(
            name,
            num_embeddings=draw(st.integers(min_value=world * 2,
                                            max_value=64)),
            embedding_dim=emb_dim,
            avg_pooling=float(draw(st.integers(min_value=1, max_value=5))),
            pooling_mode="sum" if scheme == ShardingScheme.ROW_WISE
            else draw(st.sampled_from(["sum", "mean"])))
        for name, scheme in schemes.items())
    optimizer = draw(st.sampled_from(sorted(OPTIMIZERS)))
    sparse = draw(st.sampled_from(sorted(SPARSE_OPTIMIZERS)))
    dp_ranks = draw(st.permutations(range(world)))
    fp16_dp = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return (tables, emb_dim, world, batch_per_rank, schemes, optimizer,
            seed, depth, allreduce, sparse, dp_ranks, fp16_dp)


@given(stacked_scenario())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_stacked_bitwise_matches_looped(scenario):
    """Random configs x world sizes x MLP depths x schemes x optimizers
    x AllReduce precisions x pooling modes, with data-parallel replicas
    in any rank order and optionally fp16-stored: per-step losses, all
    dense params, gathered tables, the comms byte/call/modeled-time logs
    and eval outputs are bitwise equal between the two modes."""
    (tables, emb_dim, world, batch_per_rank, schemes, optimizer, seed,
     depth, allreduce, sparse, dp_ranks, fp16_dp) = scenario
    looped, stacked = build_pair(tables, emb_dim, world, schemes, seed,
                                 optimizer=optimizer, depth=depth,
                                 allreduce=allreduce, sparse=sparse,
                                 dp_ranks=dp_ranks, fp16_dp=fp16_dp)
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


def rank_slots(trainer, r):
    """Rank ``r``'s dense optimizer slots, in parameter order: the
    oracle keeps one optimizer per rank; the product's one optimizer
    over rank 0's views stands for every replica."""
    if isinstance(trainer, LoopedNeoTrainer):
        opt = trainer.rank_optimizers[r]
        params = trainer.ranks[r].dense_parameters()
    else:
        opt, params = trainer.dense_opt, trainer.ranks[0].dense_parameters()
    return [opt.state_for(p) for p in params]


def assert_slots_equal(a, b):
    for r in range(a.world_size):
        for sa, sb in zip(rank_slots(a, r), rank_slots(b, r)):
            assert sorted(sa) == sorted(sb)
            for key in sa:
                assert sa[key].shape == sb[key].shape
                np.testing.assert_array_equal(sa[key], sb[key])


class TestDenseOptimizer:
    """``trainer.dense_opt`` is the one dense optimizer: LR schedulers
    drive it and checkpoints read and restore its slots."""

    def test_state_is_per_rank_shaped(self):
        """One optimizer over rank 0's views: its slots have the shape
        of one replica's parameter — what checkpoints store — and equal
        the oracle's per-rank optimizers' slots on every rank."""
        looped, stacked, ds, _ = two_table_setup(optimizer="momentum")
        split = ds.batch(8, 0).split(2)
        looped.train_step(split)
        stacked.train_step(split)
        for p, state in zip(stacked.ranks[0].dense_parameters(),
                            rank_slots(stacked, 0)):
            assert state["momentum"].shape == p.data.shape
        assert_slots_equal(stacked, looped)

    def test_state_round_trips_through_checkpoint(self, tmp_path):
        """Slot state round-trips through a checkpoint: a fresh trainer
        restored from it holds the same slots and takes the same next
        step."""
        _, stacked, ds, tables = two_table_setup(optimizer="adam")
        stacked.train_step(ds.batch(8, 0).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(stacked)
        resumed = two_table_setup(optimizer="adam", seed=99)[1]
        mgr.load(resumed)
        assert_slots_equal(resumed, stacked)
        split = ds.batch(8, 1).split(2)
        assert resumed.train_step(split) == stacked.train_step(split)
        assert_slots_equal(resumed, stacked)
        for t in tables:
            np.testing.assert_array_equal(resumed.gather_table(t.name),
                                          stacked.gather_table(t.name))

    def test_scheduler_lr_reaches_next_step(self):
        """A scheduler built on ``trainer.dense_opt`` sets the lr the
        next step uses on every replica: the product then matches an
        oracle whose per-rank optimizers all run at the scheduled lr."""
        looped, stacked, ds, _ = two_table_setup()
        sched = nn.WarmupLinearDecay(stacked.dense_opt, base_lr=0.1,
                                     warmup_steps=0, total_steps=2)
        sched.step()
        assert stacked.dense_opt.lr == pytest.approx(0.05)
        for opt in looped.rank_optimizers:
            opt.lr = 0.05
        split = ds.batch(8, 0).split(2)
        assert stacked.train_step(split) == looped.train_step(split)
        assert_bitwise_equal(looped, stacked, ())


def distinct_nbytes(arrays):
    """Bytes of the memory ``arrays`` view, each owning buffer once."""
    owners = {}
    for a in arrays:
        while a.base is not None:
            a = a.base
        owners[id(a)] = a.nbytes
    return sum(owners.values())


class TestStoredOnceLayout:
    """Each dense parameter is stored once, by rank 0; every rank's
    gradients live in the AllReduce buckets. A data-parallel table is
    one table too; the oracle keeps one per rank."""

    def test_data_parallel_table_is_one_object(self):
        looped, stacked, ds, _ = two_table_setup(world=4)
        shards = stacked.plan.tables["t1"].shards
        assert len({id(stacked.exchange.shard_tables[s])
                    for s in shards}) == 1
        assert len({id(looped.exchange.shard_tables[s])
                    for s in shards}) == 4
        split = ds.batch(8, 0).split(4)
        assert stacked.train_step(split) == looped.train_step(split)
        counts = stacked.metrics.snapshot("embedding.")
        # one lookup and one step of t1, beside t0's lookup and update
        assert counts["embedding.kernel_launches"] == 1 + 2

    def test_every_rank_views_rank0_storage(self):
        _, stacked, ds, _ = two_table_setup(world=4)
        owned = stacked.ranks[0].dense_parameters()
        for step in range(2):  # before and after a step
            for state in stacked.ranks[1:]:
                for p, p0 in zip(state.dense_parameters(), owned):
                    assert p.data.shape == p0.data.shape
                    assert np.shares_memory(p.data, p0.data)
            stacked.train_step(ds.batch(8, step).split(4))

    def test_replicas_are_read_only(self):
        """The optimizer step is the only write: a write through any
        other rank raises, so a replica cannot drift."""
        _, stacked, ds, _ = two_table_setup()
        stacked.train_step(ds.batch(8, 0).split(2))
        with pytest.raises(ValueError, match="read-only"):
            stacked.ranks[1].dense_parameters()[0].data[0, 0] += 1.0
        assert stacked.replicas_in_sync()

    def test_parameter_bytes_do_not_grow_with_ranks(self):
        """Distinct dense parameter bytes are the same at R=2 and R=8;
        only the gradient buckets scale with R."""
        trainers = {world: two_table_setup(world=world)[1]
                    for world in (2, 8)}
        params = {world: distinct_nbytes(
            p.data for state in t.ranks for p in state.dense_parameters())
            for world, t in trainers.items()}
        assert params[2] == params[8] == sum(
            p.data.nbytes for p in trainers[2].ranks[0].dense_parameters())
        buckets = {world: sum(b.nbytes for b in t.grad_buckets)
                   for world, t in trainers.items()}
        assert buckets[8] == 4 * buckets[2] == 8 * params[2]

    def test_stacked_gradients_are_views_of_the_billed_buckets(self):
        """After a step, each parameter's ``(R, *shape)`` gradient is a
        view into the bucket the AllReduce read in place and billed."""
        tables = (EmbeddingTableConfig("t0", 32, 8, avg_pooling=3.0),)
        _, stacked = build_pair(tables, 8, 2,
                                {"t0": ShardingScheme.TABLE_WISE}, 0)
        shipped = []
        all_reduce = stacked.pg.all_reduce

        def spy(inputs):
            shipped.append(inputs)
            return all_reduce(inputs)

        stacked.pg.all_reduce = spy
        ds = SyntheticCTRDataset(tables, dense_dim=3, seed=0)
        stacked.train_step(ds.batch(8, 0).split(2))
        assert len(shipped) == len(stacked.grad_buckets)
        assert all(a is b for a, b in zip(shipped, stacked.grad_buckets))
        for p in stacked.ranks[0].dense_parameters():
            assert p.grad_slot.shape == (2,) + p.data.shape
            owners = [b for b in shipped if np.shares_memory(p.grad_slot, b)]
            assert len(owners) == 1
        assert stacked.pg.log.wire_bytes["all_reduce"] == sum(
            b.nbytes for b in shipped)


class TestCrossModeCheckpoint:
    """Optimizer state has per-rank shape in the product and the oracle,
    so a checkpoint moves between them with nothing to convert."""

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
        resumed = pair[0] if save_stacked else pair[1]  # the other one
        assert type(resumed) is not type(saver)
        mgr.load(resumed)
        assert all(sorted(slots) == ["m", "t", "v"]
                   for slots in rank_slots(resumed, 0))
        assert_slots_equal(resumed, saver)
        for i in range(2, 4):
            split = ds.batch(8, i).split(2)
            assert resumed.train_step(split) == looped.train_step(split)
        assert_slots_equal(resumed, looped)
        for r in range(2):
            for pa, pb in zip(resumed.ranks[r].dense_parameters(),
                              looped.ranks[r].dense_parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)
        for t in tables:
            np.testing.assert_array_equal(resumed.gather_table(t.name),
                                          looped.gather_table(t.name))


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


# ----------------------------------------------------------------------
# row-wise tables: stored once in the product, per shard in the oracle
# ----------------------------------------------------------------------
DIM = 4
ALL_SPARSE_OPTIMIZERS = {
    "sgd": lambda: SparseSGD(lr=0.1),
    "adagrad": lambda: SparseAdaGrad(lr=0.1),
    "rowwise_adagrad": lambda: RowWiseAdaGrad(lr=0.1),
    "adam": lambda: SparseAdam(lr=0.01),
    "lamb": lambda: SparseLAMB(lr=0.01),
}


def row_wise_pair(world, tables, placements, schemes, precisions, sparse,
                  seed):
    """An oracle and a product trainer whose tables are all row-wise:
    ``placements[name]`` lists each shard's ``(owner rank, row range)``
    and ``precisions[name]`` its storage kind (``full``, ``fp16``,
    ``int8``)."""
    config = DLRMConfig(dense_dim=3, bottom_mlp=(6, DIM), tables=tables,
                        top_mlp=(6,))
    model = DLRM(config, seed=seed)
    cost = PlannerCostModel(allow_tt=False)
    kinds = {kind: uniform_plan(model, kind, cost=cost).assignments
             for kind in set(precisions.values())}
    representation = RepresentationPlan(assignments={
        name: kinds[kind][name] for name, kind in precisions.items()})
    trainers = []
    for cls in (LoopedNeoTrainer, NeoTrainer):
        plan = ShardingPlan(world_size=world)
        for t in tables:
            plan.tables[t.name] = TableShardingPlan(t, schemes[t.name], [
                Shard(t.name, rank, rows, (0, DIM))
                for rank, rows in placements[t.name]])
        plan.validate()
        trainers.append(cls(
            config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
            dense_optimizer=OPTIMIZERS["sgd"],
            sparse_optimizer=ALL_SPARSE_OPTIMIZERS[sparse](), seed=seed,
            representation_plan=representation))
    return trainers[0], trainers[1]


def with_empty_bags(batches):
    """Rank ``r``'s batch with bag ``r mod B`` of every table emptied."""
    out = []
    for r, batch in enumerate(batches):
        sparse = {}
        for name, (ids, offsets) in to_features(batch).items():
            bag = r % batch.batch_size
            lengths = np.diff(offsets)
            lengths[bag] = 0
            keep = np.ones(len(ids), dtype=bool)
            keep[offsets[bag]:offsets[bag + 1]] = False
            sparse[name] = (ids[keep], np.concatenate(
                [[0], np.cumsum(lengths)]).astype(np.int64))
        out.append(from_features(batch.dense, sparse, batch.labels))
    return out


def assert_row_wise_pair_matches(looped, stacked, tables, batch_per_rank,
                                 empty, seed, steps=4):
    ds = SyntheticCTRDataset(tables, dense_dim=3, seed=seed)
    world = stacked.world_size
    for i in range(steps):
        split = ds.batch(batch_per_rank * world, i).split(world)
        if empty:
            split = with_empty_bags(split)
        assert looped.train_step(split) == stacked.train_step(split)
    for t in tables:
        shards = stacked.plan.tables[t.name].shards
        stored = {id(stacked.exchange.shard_tables[s]) for s in shards}
        assert len(stored) == 1
        assert stacked.exchange.shard_tables[shards[0]].weight.shape == (
            t.num_embeddings, DIM)
    assert_bitwise_equal(looped, stacked, tables)
    split = ds.batch(batch_per_rank * world, 99).split(world)
    for out_l, out_s in zip(looped.eval_forward(split),
                            stacked.eval_forward(split)):
        np.testing.assert_array_equal(out_l, out_s)


@st.composite
def row_wise_scenario(draw):
    """1..3 row-wise or table-row-wise tables, each cut at random points
    into 1..W shards (single-row shards included) on a random subset of
    ranks in random order, stored at fp32, fp16 or int8."""
    world = draw(st.integers(min_value=2, max_value=4))
    tables, placements, schemes, precisions = [], {}, {}, {}
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        name = f"t{i}"
        rows = draw(st.integers(min_value=1, max_value=24))
        k = draw(st.integers(min_value=1, max_value=min(world, rows)))
        cuts = sorted(draw(st.sets(st.integers(min_value=1,
                                               max_value=max(rows - 1, 1)),
                                   min_size=k - 1, max_size=k - 1))) \
            if k > 1 else []
        edges = [0] + cuts + [rows]
        owners = draw(st.permutations(range(world)))[:k]
        tables.append(EmbeddingTableConfig(
            name, rows, DIM,
            avg_pooling=float(draw(st.integers(min_value=1, max_value=5)))))
        placements[name] = list(zip(owners, zip(edges[:-1], edges[1:])))
        schemes[name] = draw(st.sampled_from(
            [ShardingScheme.ROW_WISE, ShardingScheme.TABLE_ROW_WISE]))
        precisions[name] = draw(st.sampled_from(["full", "fp16", "int8"]))
    sparse = draw(st.sampled_from(sorted(ALL_SPARSE_OPTIMIZERS)))
    batch_per_rank = draw(st.integers(min_value=1, max_value=4))
    empty = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return (world, tuple(tables), placements, schemes, precisions, sparse,
            batch_per_rank, empty, seed)


@given(row_wise_scenario())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
def test_row_wise_stored_once_matches_per_shard_oracle(scenario):
    """One stored table, one lookup, one merge and one step per row-wise
    table are bitwise the oracle's per-shard tables: losses, tables,
    every sparse optimizer's state (the oracle's per-shard states
    concatenated in row order), comms logs and eval outputs."""
    (world, tables, placements, schemes, precisions, sparse,
     batch_per_rank, empty, seed) = scenario
    looped, stacked = row_wise_pair(world, tables, placements, schemes,
                                    precisions, sparse, seed)
    assert_row_wise_pair_matches(looped, stacked, tables, batch_per_rank,
                                 empty, seed)


# uneven shards, one a single row, owners out of row order; a table-row-
# wise table that skips rank 0
FIXED_TABLES = (EmbeddingTableConfig("rw", 37, DIM, avg_pooling=3.0),
                EmbeddingTableConfig("trw", 23, DIM, avg_pooling=2.0))
FIXED_PLACEMENTS = {"rw": [(2, (0, 5)), (0, (5, 20)), (3, (20, 21)),
                           (1, (21, 37))],
                    "trw": [(3, (0, 10)), (1, (10, 11)), (2, (11, 23))]}
FIXED_SCHEMES = {"rw": ShardingScheme.ROW_WISE,
                 "trw": ShardingScheme.TABLE_ROW_WISE}


@pytest.mark.parametrize("precision", ["full", "fp16", "int8"])
@pytest.mark.parametrize("sparse", sorted(ALL_SPARSE_OPTIMIZERS))
def test_row_wise_fixed_layout_every_optimizer(sparse, precision):
    looped, stacked = row_wise_pair(
        4, FIXED_TABLES, FIXED_PLACEMENTS, FIXED_SCHEMES,
        {"rw": precision, "trw": precision}, sparse, seed=7)
    assert_row_wise_pair_matches(looped, stacked, FIXED_TABLES,
                                 batch_per_rank=3, empty=True, seed=7)
    # one lookup and one update per table and step (4 steps, 2 tables),
    # then the eval forward's one lookup per table
    counts = stacked.metrics.snapshot("embedding.")
    assert counts["embedding.kernel_launches"] == 4 * 2 * 2 + 2


def test_row_wise_checkpoint_resume_is_bitwise(tmp_path):
    """Save at step k, restore into a fresh trainer built from another
    seed, continue: bitwise the uninterrupted run, so ``load`` wrote the
    one stored table of each row-wise table."""
    def make(seed):
        return row_wise_pair(4, FIXED_TABLES, FIXED_PLACEMENTS,
                             FIXED_SCHEMES, {"rw": "full", "trw": "fp16"},
                             "sgd", seed)[1]

    ds = SyntheticCTRDataset(FIXED_TABLES, dense_dim=3, seed=7)
    batches = [ds.batch(12, i).split(4) for i in range(5)]
    straight, first = make(7), make(7)
    straight_losses = [straight.train_step(b) for b in batches]
    for b in batches[:2]:
        first.train_step(b)
    mgr = CheckpointManager(str(tmp_path))
    mgr.save(first)
    resumed = make(99)
    mgr.load(resumed)
    assert [resumed.train_step(b) for b in batches[2:]] == \
        straight_losses[2:]
    for t in FIXED_TABLES:
        np.testing.assert_array_equal(resumed.gather_table(t.name),
                                      straight.gather_table(t.name))

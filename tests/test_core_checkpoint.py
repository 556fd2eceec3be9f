"""Tests for checkpointing: exact resume, differential writes, quantized
storage (Check-N-Run semantics)."""

import os
import re

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology
from repro.core import CheckpointManager, NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad, SparseSGD
from repro.models import DLRMConfig
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .reference_trainer import LoopedNeoTrainer


def make_trainer(world=2, seed=0, scheme=ShardingScheme.TABLE_WISE,
                 stacked=True, momentum=0.0, dense_optimizer=None, rows=64):
    tables = tuple(EmbeddingTableConfig(f"t{i}", rows, 8, avg_pooling=3.0)
                   for i in range(2))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                        top_mlp=(8,))
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(tables):
        ranks = [i % world] if scheme == ShardingScheme.TABLE_WISE \
            else list(range(world))
        plan.tables[t.name] = shard_table(t, scheme, ranks)
    # stacked=False builds the looped reference oracle
    cls = NeoTrainer if stacked else LoopedNeoTrainer
    trainer = cls(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=dense_optimizer or (
            lambda p: nn.SGD(p, lr=0.1, momentum=momentum)),
        sparse_optimizer=SparseSGD(lr=0.1), seed=seed)
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    return trainer, ds, config


class TestFullCheckpoint:
    def test_save_creates_file(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(trainer)
        assert os.path.exists(path)
        assert mgr.list_steps() == [0]

    def test_round_trip_exact(self, tmp_path):
        trainer, ds, config = make_trainer()
        for i in range(3):
            trainer.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        saved = {t.name: trainer.gather_table(t.name)
                 for t in config.tables}
        # wreck the state, then restore
        for i in range(3, 6):
            trainer.train_step(ds.batch(8, i).split(2))
        mgr.load(trainer)
        assert trainer.steps == 3
        for t in config.tables:
            np.testing.assert_array_equal(trainer.gather_table(t.name),
                                          saved[t.name])

    def test_resume_equivalence(self, tmp_path):
        """train 6 == train 3, checkpoint, restore into a fresh trainer,
        train 3 more — the checkpoint carries everything needed."""
        straight, ds, config = make_trainer(seed=0)
        for i in range(6):
            straight.train_step(ds.batch(8, i).split(2))

        first, _, _ = make_trainer(seed=0)
        for i in range(3):
            first.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(first)

        resumed, _, _ = make_trainer(seed=99)  # different init; overwritten
        mgr.load(resumed)
        for i in range(3, 6):
            resumed.train_step(ds.batch(8, i).split(2))
        for t in config.tables:
            np.testing.assert_allclose(resumed.gather_table(t.name),
                                       straight.gather_table(t.name),
                                       rtol=1e-5, atol=1e-7)
        for a, b in zip(resumed.ranks[0].dense_parameters(),
                        straight.ranks[0].dense_parameters()):
            np.testing.assert_allclose(a.data, b.data, rtol=1e-5, atol=1e-7)

    def test_load_empty_dir_raises(self, tmp_path):
        trainer, _, _ = make_trainer()
        with pytest.raises(FileNotFoundError):
            CheckpointManager(str(tmp_path)).load(trainer)

    def test_load_missing_step_raises(self, tmp_path):
        trainer, _, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        with pytest.raises(FileNotFoundError):
            mgr.load(trainer, step=999)

    def test_row_wise_sharded_round_trip(self, tmp_path):
        trainer, ds, config = make_trainer(scheme=ShardingScheme.ROW_WISE)
        trainer.train_step(ds.batch(8, 0).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(trainer)
        saved = trainer.gather_table("t0").copy()
        trainer.train_step(ds.batch(8, 1).split(2))
        mgr.load(trainer)
        np.testing.assert_array_equal(trainer.gather_table("t0"), saved)


class TestCorruptDensePayload:
    """``load_dense_state`` rejects a payload that does not match the
    model before it writes any parameter."""

    def check_rejected(self, trainer, dense, match, opt_state=None):
        params = trainer.ranks[0].dense_parameters()
        before = [p.data.copy() for p in params]
        slots = [dict(trainer.dense_opt.state_for(p)) for p in params]
        with pytest.raises(ValueError, match=match):
            trainer.load_dense_state(dense, opt_state or {})
        for p, kept, kept_slots in zip(params, before, slots):
            np.testing.assert_array_equal(p.data, kept)
            assert trainer.dense_opt.state_for(p) == kept_slots

    def payload(self, trainer):
        return {i: p.data + 1.0
                for i, p in enumerate(trainer.ranks[0].dense_parameters())}

    def test_wrong_shape(self):
        trainer, _, _ = make_trainer()
        dense = self.payload(trainer)
        shape = dense[2].shape
        dense[2] = dense[2][0]  # a (cols,) row for a (rows, cols) weight
        self.check_rejected(
            trainer, dense, re.escape(f"dense parameter 2 (bottom.1.weight): "
                                      f"expected shape {shape}, got "
                                      f"({shape[1]},)"))

    def test_missing_index(self):
        trainer, _, _ = make_trainer()
        dense = self.payload(trainer)
        del dense[0]
        self.check_rejected(trainer, dense, "dense parameter 0 .*nothing")

    def test_extra_index(self):
        trainer, _, _ = make_trainer()
        dense = self.payload(trainer)
        dense[len(dense)] = np.zeros(3, dtype=np.float32)
        self.check_rejected(trainer, dense, "do not exist")

    def adam_trainer(self):
        trainer, ds, _ = make_trainer(
            dense_optimizer=lambda p: nn.Adam(p, lr=0.01))
        trainer.train_step(ds.batch(8, 0).split(2))
        return trainer

    def test_extra_optimizer_state_index(self):
        trainer = self.adam_trainer()
        opt_state = {99: {"m": np.zeros(3, dtype=np.float32)}}
        self.check_rejected(
            trainer, self.payload(trainer),
            re.escape("optimizer state for dense parameters [99] do not "
                      "exist"), opt_state)

    @pytest.mark.parametrize("slot,bad", [("m", (1,)), ("t", (2,))])
    def test_wrong_slot_shape(self, slot, bad):
        """An Adam ``m`` of shape (1,) would broadcast in every later
        step; only the step counter ``t`` is (1,)."""
        trainer = self.adam_trainer()
        params = trainer.ranks[0].dense_parameters()
        opt_state = {i: dict(trainer.dense_opt.state_for(p))
                     for i, p in enumerate(params)}
        opt_state[2][slot] = np.zeros(bad, dtype=np.float32)
        want = (1,) if slot == "t" else params[2].data.shape
        self.check_rejected(
            trainer, self.payload(trainer),
            re.escape(f"optimizer slot {slot!r} of dense parameter 2 "
                      f"(bottom.1.weight): expected shape {want}, got "
                      f"{bad}"), opt_state)


class TestCorruptEmbeddingPayload:
    """A checkpoint chain that does not restore every row of every table
    exactly is rejected, naming the table, before anything is written."""

    def check_rejected(self, trainer, mgr, match):
        tables = {t.name: trainer.gather_table(t.name)
                  for t in trainer.config.tables}
        dense = [p.data.copy() for p in trainer.ranks[0].dense_parameters()]
        steps = trainer.steps
        with pytest.raises(ValueError, match=match):
            mgr.load(trainer)
        assert trainer.steps == steps
        for name, table in tables.items():
            np.testing.assert_array_equal(trainer.gather_table(name), table)
        for p, kept in zip(trainer.ranks[0].dense_parameters(), dense):
            np.testing.assert_array_equal(p.data, kept)

    def saved(self, tmp_path, rows=64):
        """A row-wise trainer's checkpoint, then one more step."""
        trainer, ds, _ = make_trainer(scheme=ShardingScheme.ROW_WISE,
                                      rows=rows)
        trainer.train_step(ds.batch(8, 0).split(2))
        mgr = CheckpointManager(str(tmp_path))
        path = mgr.save(trainer)
        trainer.train_step(ds.batch(8, 1).split(2))
        return trainer, mgr, path

    @pytest.mark.parametrize("edit, match", [
        (lambda r, v: (r[:40], v[:40]), "restores 40 of its 64 rows"),
        (lambda r, v: (np.append(r, 64), np.vstack([v, v[:1]])),
         r"rows outside \[0, 64\)"),
        (lambda r, v: (np.append(r, -1), np.vstack([v, v[:1]])),
         r"rows outside \[0, 64\)"),
        (lambda r, v: (r, np.hstack([v, v[:, :1]])), r"shape \(64, 9\)"),
        (lambda r, v: (r, v[:-1]), r"shape \(63, 8\) for 64 rows"),
        (lambda r, v: (r[:0], v[:0]), "restores 0 of its 64 rows"),
    ], ids=["fewer_rows", "row_past_the_end", "negative_row", "wider_values",
            "values_for_fewer_rows", "no_rows"])
    def test_bad_rows_or_values(self, tmp_path, edit, match):
        trainer, mgr, path = self.saved(tmp_path)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["emb/t1/rows"], payload["emb/t1/values"] = edit(
            payload["emb/t1/rows"], payload["emb/t1/values"])
        np.savez(path, **payload)
        self.check_rejected(trainer, mgr, "table t1: .*" + match)

    def test_table_missing_from_the_checkpoint(self, tmp_path):
        trainer, mgr, path = self.saved(tmp_path)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files
                       if not key.startswith("emb/t0/")}
        np.savez(path, **payload)
        self.check_rejected(trainer, mgr, "table t0: .*restores 0 of")

    @pytest.mark.parametrize("saved_rows, match", [
        (32, "table t0: checkpoint restores 32 of its 64 rows"),
        (128, r"table t0: checkpoint rows outside \[0, 64\)")],
        ids=["shorter", "taller"])
    def test_checkpoint_of_another_table_height(self, tmp_path, saved_rows,
                                                 match):
        self.saved(tmp_path, rows=saved_rows)
        trainer, ds, _ = make_trainer(scheme=ShardingScheme.ROW_WISE)
        trainer.train_step(ds.batch(8, 0).split(2))
        self.check_rejected(trainer, CheckpointManager(str(tmp_path)), match)

    def test_differential_chain_without_its_full_checkpoint(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        first = mgr.save(trainer)
        trainer.train_step(ds.batch(4, 0).split(2))
        mgr.save(trainer)
        os.remove(first)
        self.check_rejected(trainer, mgr, "table t0: .*restores")


class TestCrossPlanRestore:
    def test_tw_checkpoint_loads_into_rw_trainer(self, tmp_path):
        """Checkpoints store gathered tables, so a job can restart under
        a *different* sharding plan (resharding on restore — what lets
        operations change the fleet size between runs)."""
        tw_trainer, ds, config = make_trainer(
            scheme=ShardingScheme.TABLE_WISE)
        for i in range(3):
            tw_trainer.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(tw_trainer)

        rw_trainer, _, _ = make_trainer(scheme=ShardingScheme.ROW_WISE,
                                        seed=77)
        mgr.load(rw_trainer)
        for t in config.tables:
            np.testing.assert_array_equal(rw_trainer.gather_table(t.name),
                                          tw_trainer.gather_table(t.name))
        # and it keeps training under the new plan
        loss = rw_trainer.train_step(ds.batch(8, 99).split(2))
        assert np.isfinite(loss)


class TestCrossFormatResume:
    """The checkpoint format is execution-mode neutral: it stores one
    replica's dense state, so the rank-stacked trainer and the looped
    oracle write and read the same files. A stacked-trained checkpoint
    must resume *bitwise* on the looped oracle (and vice versa) —
    including stateful optimizer buffers."""

    @pytest.mark.parametrize("train_stacked,resume_stacked",
                             [(True, False), (False, True)])
    def test_resume_bitwise_across_modes(self, tmp_path, train_stacked,
                                         resume_stacked):
        # reference: uninterrupted 6-step run in the *training* mode
        straight, ds, config = make_trainer(stacked=train_stacked,
                                            momentum=0.9)
        for i in range(6):
            straight.train_step(ds.batch(8, i).split(2))

        first, _, _ = make_trainer(stacked=train_stacked, momentum=0.9)
        for i in range(3):
            first.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(first)

        resumed, _, _ = make_trainer(stacked=resume_stacked, momentum=0.9,
                                     seed=99)  # different init; overwritten
        mgr.load(resumed)
        for i in range(3, 6):
            resumed.train_step(ds.batch(8, i).split(2))

        for t in config.tables:
            np.testing.assert_array_equal(resumed.gather_table(t.name),
                                          straight.gather_table(t.name))
        for r in range(2):
            for pa, pb in zip(straight.ranks[r].dense_parameters(),
                              resumed.ranks[r].dense_parameters()):
                np.testing.assert_array_equal(pa.data, pb.data)
        assert resumed.replicas_in_sync()

    @pytest.mark.parametrize("train_stacked", [True, False])
    def test_data_parallel_checkpoint_moves_between_modes(
            self, tmp_path, train_stacked):
        """The product's one data-parallel table and the oracle's R
        replicas write the same file and restore each other bitwise."""
        def make(stacked, seed=0):
            return make_trainer(world=4, seed=seed, stacked=stacked,
                                scheme=ShardingScheme.DATA_PARALLEL)

        straight, ds, config = make(train_stacked)
        first, _, _ = make(train_stacked)
        for i in range(5):
            straight.train_step(ds.batch(8, i).split(4))
            if i < 2:
                first.train_step(ds.batch(8, i).split(4))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(first)
        resumed, _, _ = make(not train_stacked, seed=99)
        mgr.load(resumed)
        for i in range(2, 5):
            resumed.train_step(ds.batch(8, i).split(4))
        for t in config.tables:
            for shard in resumed.plan.tables[t.name].shards:
                np.testing.assert_array_equal(
                    resumed.exchange.shard_tables[shard].weight,
                    straight.gather_table(t.name))

    def test_restored_momentum_state_matches(self, tmp_path):
        """Optimizer slot state written by a stacked run reads back
        into every per-rank optimizer of the looped oracle (and agrees
        exactly)."""
        stacked, ds, _ = make_trainer(stacked=True, momentum=0.9)
        for i in range(2):
            stacked.train_step(ds.batch(8, i).split(2))
        mgr = CheckpointManager(str(tmp_path))
        mgr.save(stacked)
        looped, _, _ = make_trainer(stacked=False, momentum=0.9, seed=99)
        mgr.load(looped)
        for r, opt in enumerate(looped.rank_optimizers):
            for pa, pb in zip(stacked.ranks[0].dense_parameters(),
                              looped.ranks[r].dense_parameters()):
                sa = stacked.dense_opt.state_for(pa)
                sb = opt.state_for(pb)
                assert sa.keys() == sb.keys() == {"momentum"}
                for key in sa:
                    np.testing.assert_array_equal(np.asarray(sa[key]),
                                                  np.asarray(sb[key]))


class TestRetention:
    def test_retain_last_prunes_full_checkpoints(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path))
        for i in range(4):
            trainer.train_step(ds.batch(8, i).split(2))
            mgr.save(trainer)
        deleted = mgr.retain_last(2)
        assert deleted == [1, 2]
        assert mgr.list_steps() == [3, 4]
        # newest checkpoint still loads
        mgr.load(trainer)
        assert trainer.steps == 4

    def test_differential_refuses_pruning(self, tmp_path):
        trainer, ds, _ = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        mgr.save(trainer)
        with pytest.raises(ValueError, match="differential"):
            mgr.retain_last(1)

    def test_invalid_keep(self, tmp_path):
        mgr = CheckpointManager(str(tmp_path))
        with pytest.raises(ValueError):
            mgr.retain_last(0)


class TestDifferentialCheckpoint:
    def test_second_checkpoint_writes_only_touched_rows(self, tmp_path):
        trainer, ds, config = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        mgr.save(trainer)  # full
        trainer.train_step(ds.batch(4, 0).split(2))  # touches few rows
        mgr.save(trainer)  # differential
        first, second = mgr.history
        assert not first.differential
        assert second.differential
        assert second.written_rows < first.written_rows
        assert second.write_fraction < 0.6

    def test_differential_chain_restores_exactly(self, tmp_path):
        trainer, ds, config = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        mgr.save(trainer)
        for i in range(4):
            trainer.train_step(ds.batch(8, i).split(2))
            mgr.save(trainer)
        final = {t.name: trainer.gather_table(t.name)
                 for t in config.tables}
        fresh, _, _ = make_trainer(seed=5)
        mgr.load(fresh)
        assert fresh.steps == 4
        for t in config.tables:
            np.testing.assert_array_equal(fresh.gather_table(t.name),
                                          final[t.name])

    def test_restore_intermediate_step(self, tmp_path):
        trainer, ds, config = make_trainer()
        mgr = CheckpointManager(str(tmp_path), differential=True)
        snapshots = {}
        mgr.save(trainer)
        snapshots[0] = trainer.gather_table("t0").copy()
        for i in range(3):
            trainer.train_step(ds.batch(8, i).split(2))
            mgr.save(trainer)
            snapshots[i + 1] = trainer.gather_table("t0").copy()
        fresh, _, _ = make_trainer(seed=5)
        mgr.load(fresh, step=2)
        np.testing.assert_array_equal(fresh.gather_table("t0"),
                                      snapshots[2])


class TestQuantizedCheckpoint:
    def test_fp16_smaller_payload(self, tmp_path):
        t32, ds, _ = make_trainer()
        t16, _, _ = make_trainer()
        m32 = CheckpointManager(str(tmp_path / "fp32"), precision="fp32")
        m16 = CheckpointManager(str(tmp_path / "fp16"), precision="fp16")
        m32.save(t32)
        m16.save(t16)
        assert m16.history[0].payload_bytes < m32.history[0].payload_bytes

    def test_fp16_restore_error_bounded(self, tmp_path):
        trainer, ds, config = make_trainer()
        trainer.train_step(ds.batch(8, 0).split(2))
        exact = trainer.gather_table("t0").copy()
        mgr = CheckpointManager(str(tmp_path), precision="fp16")
        mgr.save(trainer)
        fresh, _, _ = make_trainer(seed=5)
        mgr.load(fresh)
        restored = fresh.gather_table("t0")
        err = np.abs(restored - exact)
        assert np.all(err <= np.abs(exact) * 2 ** -11 + 1e-7)

    def test_invalid_precision(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(str(tmp_path), precision="int4")

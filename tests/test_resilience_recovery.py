"""Tests for crash recovery: bitwise-identical resume when the world
size is restored, graceful N-1 degradation, cold restarts, scheduler
rebuilds and the recovery accounting."""

import numpy as np
import pytest

from repro.core import CheckpointManager, TrainingLoop
from repro.nn import WarmupLinearDecay
from repro.resilience import (FaultKind, FaultSchedule, FaultSpec,
                              RankFailure, RecoveryError, RecoveryManager,
                              faulty_process_group_factory)

from .helpers import tiny_config, tiny_dataset, tiny_trainer

CONFIG = tiny_config(num_tables=2, rows=96, dim=8, dense_dim=4,
                     avg_pooling=2.0, bottom_mlp=(8,), top_mlp=(8,))
TABLES = CONFIG.tables


def make_trainer(world, pg_factory=None, seed=0):
    """A trainer for any world size; the table-wise scheme re-plans table
    placement over it. Momentum SGD is deliberate: it has per-parameter
    optimizer state, so the bitwise tests prove that state survives
    checkpoint recovery."""
    return tiny_trainer(CONFIG, world=world, seed=seed,
                        pg_factory=pg_factory, momentum=0.9,
                        scheme="table_wise")


def make_dataset():
    return tiny_dataset(CONFIG, seed=1, noise=0.2)


def assert_trainers_bitwise_equal(a, b):
    for t in TABLES:
        np.testing.assert_array_equal(a.gather_table(t.name),
                                      b.gather_table(t.name))
    for pa, pb in zip(a.ranks[0].dense_parameters(),
                      b.ranks[0].dense_parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
        sa = a.dense_opt.state_for(pa)
        sb = b.dense_opt.state_for(pb)
        assert sorted(sa) == sorted(sb)
        for key in sa:
            np.testing.assert_array_equal(sa[key], sb[key])


class TestBitwiseRecovery:
    """A run that crashes at iteration 7, restores the step-6 checkpoint
    onto a replacement world and replays must be *bitwise identical* to
    an uninterrupted run at the same sample budget."""

    STEPS = 12

    def _reference(self):
        trainer = make_trainer(world=2)
        loop = TrainingLoop(trainer, make_dataset(), global_batch_size=8,
                            eval_every=4, eval_batch_size=64)
        return trainer, loop.run(self.STEPS)

    def test_recovered_run_is_bitwise_identical(self, tmp_path):
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=1,
                                            iteration=7)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr)
        trainer = make_trainer(world=2, pg_factory=pg_factory)
        loop = TrainingLoop(trainer, make_dataset(), global_batch_size=8,
                            eval_every=4, eval_batch_size=64,
                            checkpoint_manager=mgr, checkpoint_every=3,
                            recovery=recovery)
        result = loop.run(self.STEPS)

        assert len(result.recoveries) == 1
        event = result.recoveries[0]
        assert event.failed_rank == 1
        assert event.failed_iteration == 7
        assert event.restored_step == 6  # checkpoints at 3 and 6
        assert event.lost_steps == 1
        assert not event.degraded
        assert not event.cold_start
        assert loop.trainer is event.trainer
        assert loop.trainer.steps == self.STEPS

        ref_trainer, ref_result = self._reference()
        # losses and eval history: bitwise, including the replayed steps
        assert result.losses == ref_result.losses
        assert len(result.losses) == self.STEPS
        assert result.eval_steps == ref_result.eval_steps
        assert result.eval_ne == ref_result.eval_ne
        assert_trainers_bitwise_equal(loop.trainer, ref_trainer)

    def test_consumed_crash_does_not_refire_on_replay(self, tmp_path):
        # the crash iteration (7) is replayed after restoring step 6; a
        # second firing would loop recovery forever (caught by the
        # max_recoveries budget if the consumption semantics broke)
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=0,
                                            iteration=7)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr, max_recoveries=2)
        loop = TrainingLoop(make_trainer(world=2, pg_factory=pg_factory),
                            make_dataset(), global_batch_size=8,
                            eval_every=100, checkpoint_manager=mgr,
                            checkpoint_every=3, recovery=recovery)
        result = loop.run(self.STEPS)
        assert len(result.recoveries) == 1
        assert schedule.pending == 0

    def test_recovery_metrics_recorded(self, tmp_path):
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=1,
                                            iteration=4)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr)
        loop = TrainingLoop(make_trainer(world=2, pg_factory=pg_factory),
                            make_dataset(), global_batch_size=8,
                            eval_every=100, checkpoint_manager=mgr,
                            checkpoint_every=2, recovery=recovery)
        result = loop.run(6)
        metrics = loop.trainer.metrics
        assert metrics.counter("resilience.recoveries").value == 1
        assert metrics.counter("resilience.recovery_seconds").value > 0
        assert metrics.counter("resilience.lost_steps").value == \
            result.recoveries[0].lost_steps


class TestDegradedRecovery:
    def test_world_shrinks_by_one_and_training_continues(self, tmp_path):
        # global batch 12 divides both the healthy world (4) and the
        # degraded one (3)
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=2,
                                            iteration=5)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr, replacement_ranks=False,
            allow_degraded=True)
        loop = TrainingLoop(make_trainer(world=4, pg_factory=pg_factory),
                            make_dataset(), global_batch_size=12,
                            eval_every=4, eval_batch_size=64,
                            checkpoint_manager=mgr, checkpoint_every=2,
                            recovery=recovery)
        result = loop.run(8)
        assert len(result.recoveries) == 1
        event = result.recoveries[0]
        assert event.degraded
        assert event.world_size == 3
        assert event.restored_step == 4
        assert loop.trainer.world_size == 3
        assert loop.ingestion.world_size == 3
        assert len(result.losses) == 8
        assert all(np.isfinite(result.losses))
        assert result.eval_ne and np.isfinite(result.eval_ne[-1])

    def test_degraded_disabled_raises(self):
        recovery = RecoveryManager(trainer_factory=make_trainer,
                                   replacement_ranks=False,
                                   allow_degraded=False)
        with pytest.raises(RecoveryError):
            recovery.recover(RankFailure(0, 3), current_world=4)

    def test_no_survivors_raises(self):
        recovery = RecoveryManager(trainer_factory=make_trainer,
                                   replacement_ranks=False)
        with pytest.raises(RecoveryError):
            recovery.recover(RankFailure(0, 3), current_world=1)


class TestColdRestart:
    def test_crash_before_first_checkpoint_replays_from_scratch(
            self, tmp_path):
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=0,
                                            iteration=2)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        # manager exists but nothing is ever saved (checkpoint_every=0)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr)
        loop = TrainingLoop(make_trainer(world=2, pg_factory=pg_factory),
                            make_dataset(), global_batch_size=8,
                            eval_every=100, recovery=recovery)
        result = loop.run(5)
        event = result.recoveries[0]
        assert event.cold_start
        assert event.restored_step == 0
        assert event.lost_steps == 2
        assert len(result.losses) == 5
        # replay from scratch on a restored world is still bitwise exact
        reference = make_trainer(world=2)
        ref_loop = TrainingLoop(reference, make_dataset(),
                                global_batch_size=8, eval_every=100)
        ref_result = ref_loop.run(5)
        assert result.losses == ref_result.losses
        assert_trainers_bitwise_equal(loop.trainer, reference)

    def test_without_recovery_manager_failure_propagates(self):
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=0,
                                            iteration=1)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        loop = TrainingLoop(make_trainer(world=2, pg_factory=pg_factory),
                            make_dataset(), global_batch_size=8,
                            eval_every=100)
        with pytest.raises(RankFailure):
            loop.run(4)


class TestSchedulerRecovery:
    def _sched_factory(self, trainer):
        return [WarmupLinearDecay(trainer.dense_opt, base_lr=0.05,
                                  warmup_steps=4, total_steps=20)]

    def test_schedulers_without_factory_is_an_error(self, tmp_path):
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=0,
                                            iteration=3)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr)
        trainer = make_trainer(world=2, pg_factory=pg_factory)
        loop = TrainingLoop(
            trainer, make_dataset(), global_batch_size=8, eval_every=100,
            checkpoint_manager=mgr, checkpoint_every=2, recovery=recovery,
            lr_schedulers=self._sched_factory(trainer))
        with pytest.raises(RecoveryError):
            loop.run(6)

    def test_scheduler_factory_fast_forwards_lr(self, tmp_path):
        schedule = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=0,
                                            iteration=5)])
        pg_factory = faulty_process_group_factory(schedule=schedule)
        mgr = CheckpointManager(str(tmp_path))
        recovery = RecoveryManager(
            trainer_factory=lambda w: make_trainer(w, pg_factory=pg_factory),
            checkpoint_manager=mgr,
            scheduler_factory=self._sched_factory)
        trainer = make_trainer(world=2, pg_factory=pg_factory)
        loop = TrainingLoop(
            trainer, make_dataset(), global_batch_size=8, eval_every=100,
            checkpoint_manager=mgr, checkpoint_every=2, recovery=recovery,
            lr_schedulers=self._sched_factory(trainer))
        loop.run(8)

        reference = make_trainer(world=2)
        ref_loop = TrainingLoop(
            reference, make_dataset(), global_batch_size=8, eval_every=100,
            lr_schedulers=self._sched_factory(reference))
        ref_loop.run(8)
        assert loop.trainer.dense_opt.lr == \
            pytest.approx(reference.dense_opt.lr)


class TestRecoveryManagerBudget:
    def test_budget_exhaustion_raises(self):
        recovery = RecoveryManager(trainer_factory=make_trainer,
                                   max_recoveries=1)
        recovery.recover(RankFailure(0, 1), current_world=2)
        with pytest.raises(RecoveryError):
            recovery.recover(RankFailure(1, 2), current_world=2)

    def test_factory_world_mismatch_rejected(self):
        recovery = RecoveryManager(trainer_factory=lambda w: make_trainer(2))
        with pytest.raises(RecoveryError):
            recovery.recover(RankFailure(0, 1), current_world=3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryManager(trainer_factory=make_trainer, max_recoveries=0)

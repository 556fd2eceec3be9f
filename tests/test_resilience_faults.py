"""Tests for deterministic fault injection: schedules, retry math,
health tracking, and FaultyProcessGroup semantics (including the
zero-fault bit-parity guarantee against SimProcessGroup)."""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology, SimProcessGroup
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRMConfig
from repro.obs import MetricRegistry
from repro.resilience import (FaultKind, FaultSchedule, FaultSpec,
                              FaultyProcessGroup, HealthTracker, RankFailure,
                              RetryPolicy, faulty_process_group_factory)
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

WORLD = 4
TOPO = ClusterTopology(num_nodes=1, gpus_per_node=WORLD)


def _payload(value=1.0):
    return np.full((WORLD, 8), value, dtype=np.float32)


def _baseline_seconds():
    pg = SimProcessGroup(TOPO)
    pg.all_reduce(_payload())
    return pg.log.modeled_seconds["all_reduce"]


class TestFaultSchedule:
    def test_random_is_seed_deterministic(self):
        a = FaultSchedule.random(seed=7, num_iterations=20, world_size=8)
        b = FaultSchedule.random(seed=7, num_iterations=20, world_size=8)
        assert a.faults == b.faults
        c = FaultSchedule.random(seed=8, num_iterations=20, world_size=8)
        assert a.faults != c.faults

    def test_one_shot_consumed_persistent_not(self):
        one_shot = FaultSpec(FaultKind.DROP, rank=0, iteration=3)
        persistent = FaultSpec(FaultKind.DELAY, rank=1, iteration=None,
                               delay_seconds=0.1)
        sched = FaultSchedule([one_shot, persistent])
        assert sched.take(3, "all_reduce") == (one_shot, persistent)
        # one-shot gone, persistent still firing
        assert sched.take(3, "all_reduce") == (persistent,)
        assert sched.take(4, "all_gather") == (persistent,)
        sched.reset()
        assert sched.take(3, "all_reduce") == (one_shot, persistent)

    def test_collective_matching(self):
        spec = FaultSpec(FaultKind.DROP, rank=0, iteration=1,
                         collective="all_to_all")
        # base name matches every flavour; other collectives don't fire
        assert spec.matches(1, "all_to_all/forward_alltoall")
        assert spec.matches(1, "all_to_all/index")
        assert not spec.matches(1, "all_reduce")
        assert not spec.matches(2, "all_to_all/index")
        exact = FaultSpec(FaultKind.DROP, rank=0, iteration=1,
                          collective="all_to_all/index")
        assert exact.matches(1, "all_to_all/index")
        assert not exact.matches(1, "all_to_all/forward_alltoall")

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DELAY, rank=0, delay_seconds=0.0)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DROP, rank=-1)
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DROP, rank=0, failures=0)
        with pytest.raises(ValueError):
            FaultSchedule.random(seed=0, num_iterations=0, world_size=4)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        p = RetryPolicy(timeout_seconds=1.0, backoff_seconds=0.1,
                        backoff_multiplier=2.0, max_attempts=3)
        assert p.backoff(0) == pytest.approx(0.1)
        assert p.backoff(1) == pytest.approx(0.2)
        assert p.backoff(2) == pytest.approx(0.4)

    def test_penalty_sums_timeouts_and_backoffs(self):
        p = RetryPolicy(timeout_seconds=1.0, backoff_seconds=0.1,
                        backoff_multiplier=2.0, max_attempts=3)
        assert p.penalty(0) == 0.0
        assert p.penalty(1) == pytest.approx(1.1)
        assert p.penalty(3) == pytest.approx(3.0 + 0.1 + 0.2 + 0.4)
        # exponent resets after each exhausted window of max_attempts
        assert p.penalty(4) == pytest.approx(p.penalty(3) + 1.1)
        assert p.strikes(2) == 0
        assert p.strikes(3) == 1
        assert p.strikes(7) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_seconds=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy().backoff(-1)


class TestHealthTracker:
    def test_straggler_detection_from_ewma(self):
        h = HealthTracker(world_size=4, alpha=0.5, straggler_factor=2.0)
        for _ in range(8):
            h.observe([0.1, 0.1, 0.1, 0.5])
        assert h.stragglers() == [3]
        # uniform latencies: nobody is a straggler
        h2 = HealthTracker(world_size=4)
        h2.observe_uniform(0.2)
        assert h2.stragglers() == []

    def test_timeout_strikes_kill_rank(self):
        h = HealthTracker(world_size=4, dead_after=2)
        assert not h.record_timeout(2)
        assert not h.is_dead(2)
        assert h.record_timeout(2)
        assert h.is_dead(2)
        assert h.dead_ranks == [2]

    def test_dead_ranks_excluded_from_stragglers(self):
        h = HealthTracker(world_size=4, alpha=1.0, straggler_factor=2.0)
        h.observe([0.1, 0.1, 0.1, 0.9])
        h.mark_dead(3)
        assert h.stragglers() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            HealthTracker(world_size=0)
        with pytest.raises(ValueError):
            HealthTracker(world_size=4, alpha=0.0)
        with pytest.raises(ValueError):
            HealthTracker(world_size=4).observe([0.1, 0.2])


class TestFaultyProcessGroup:
    def test_delay_fault_stalls_the_collective(self):
        base = _baseline_seconds()
        sched = FaultSchedule([FaultSpec(FaultKind.DELAY, rank=1,
                                         iteration=0, delay_seconds=0.25)])
        reg = MetricRegistry()
        pg = FaultyProcessGroup(TOPO, registry=reg, schedule=sched)
        pg.on_iteration_start(0)
        result = pg.all_reduce(_payload())
        # synchronous collective: one straggler stalls everyone
        assert result.modeled_seconds == pytest.approx(base + 0.25)
        assert result.per_rank_seconds[1] == pytest.approx(base + 0.25)
        assert result.per_rank_seconds[0] == pytest.approx(base)
        assert reg.counter("resilience.faults_injected",
                           kind="delay").value == 1
        assert reg.counter("resilience.fault_seconds").value == \
            pytest.approx(0.25)
        # outputs are still the correct reduction
        np.testing.assert_array_equal(result.output[0],
                                      np.full(8, WORLD, dtype=np.float32))

    def test_fault_only_fires_on_its_iteration(self):
        base = _baseline_seconds()
        sched = FaultSchedule([FaultSpec(FaultKind.DELAY, rank=0,
                                         iteration=5, delay_seconds=1.0)])
        pg = FaultyProcessGroup(TOPO, schedule=sched)
        pg.on_iteration_start(4)
        assert pg.all_reduce(_payload()).modeled_seconds == \
            pytest.approx(base)
        pg.on_iteration_start(5)
        assert pg.all_reduce(_payload()).modeled_seconds == \
            pytest.approx(base + 1.0)
        # consumed: replaying iteration 5 is clean
        pg.on_iteration_start(5)
        assert pg.all_reduce(_payload()).modeled_seconds == \
            pytest.approx(base)

    def test_drop_fault_bills_retry_penalty(self):
        base = _baseline_seconds()
        policy = RetryPolicy(timeout_seconds=0.5, backoff_seconds=0.05)
        sched = FaultSchedule([FaultSpec(FaultKind.DROP, rank=2,
                                         iteration=0, failures=2)])
        reg = MetricRegistry()
        pg = FaultyProcessGroup(TOPO, registry=reg, schedule=sched,
                                policy=policy)
        pg.on_iteration_start(0)
        result = pg.all_reduce(_payload())
        assert result.modeled_seconds == pytest.approx(
            base + policy.penalty(2))
        assert reg.counter("resilience.retries").value == 2
        assert reg.counter("resilience.faults_injected",
                           kind="drop").value == 1

    def test_corrupt_fault_detected_and_retried(self):
        sched = FaultSchedule([FaultSpec(FaultKind.CORRUPT, rank=0,
                                         iteration=0, failures=1)])
        reg = MetricRegistry()
        pg = FaultyProcessGroup(TOPO, registry=reg, schedule=sched)
        pg.on_iteration_start(0)
        result = pg.all_reduce(_payload())
        assert reg.counter("resilience.corruptions_detected").value == 1
        assert reg.counter("resilience.retries").value == 1
        # the payload that reached the reduction was pristine
        np.testing.assert_array_equal(result.output[0],
                                      np.full(8, WORLD, dtype=np.float32))

    @pytest.mark.parametrize("rank, detected", [(2, 1), (0, 0)])
    def test_corruption_is_checked_on_the_faulted_ranks_rows(self, rank,
                                                            detected):
        """An AlltoAll where only rank 2 sends rows: a corruption on rank
        2 is caught in its rows; rank 0 sends nothing to corrupt."""
        sched = FaultSchedule([FaultSpec(FaultKind.CORRUPT, rank=rank,
                                         iteration=0, failures=1)])
        reg = MetricRegistry()
        pg = FaultyProcessGroup(TOPO, registry=reg, schedule=sched)
        pg.on_iteration_start(0)
        splits = np.zeros((WORLD, WORLD), dtype=np.int64)
        splits[2] = 3
        send = np.arange(3 * WORLD * 2, dtype=np.float32).reshape(-1, 2)
        result = pg.all_to_all(send, splits)
        assert reg.counter("resilience.retries").value == 1
        assert reg.counter("resilience.corruptions_detected").value == \
            detected
        np.testing.assert_array_equal(result.output, send)

    def test_crash_fault_raises_rank_failure(self):
        sched = FaultSchedule([FaultSpec(FaultKind.CRASH, rank=3,
                                         iteration=2)])
        reg = MetricRegistry()
        pg = FaultyProcessGroup(TOPO, registry=reg, schedule=sched)
        pg.on_iteration_start(2)
        with pytest.raises(RankFailure) as exc:
            pg.all_reduce(_payload())
        assert exc.value.rank == 3
        assert exc.value.iteration == 2
        assert exc.value.collective == "all_reduce"
        assert pg.health.is_dead(3)
        assert reg.counter("resilience.ranks_dead").value == 1

    def test_repeated_timeouts_declare_rank_dead(self):
        # 6 failures under max_attempts=3 is two exhausted windows; with
        # dead_after=2 the rank dies inside a single collective
        policy = RetryPolicy(max_attempts=3)
        sched = FaultSchedule([FaultSpec(FaultKind.DROP, rank=1,
                                         iteration=0, failures=6)])
        pg = FaultyProcessGroup(
            TOPO, schedule=sched, policy=policy,
            health=HealthTracker(WORLD, dead_after=2))
        pg.on_iteration_start(0)
        with pytest.raises(RankFailure) as exc:
            pg.all_reduce(_payload())
        assert exc.value.rank == 1
        assert pg.health.timeout_strikes[1] == 2

    def test_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FaultyProcessGroup(TOPO, health=HealthTracker(WORLD + 1))


def _tiny_trainer(pg_factory=None, seed=0):
    tables = tuple(EmbeddingTableConfig(f"t{i}", 64, 8, avg_pooling=2.0)
                   for i in range(2))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8,), tables=tables,
                        top_mlp=(8,))
    plan = ShardingPlan(world_size=2)
    plan.tables["t0"] = shard_table(tables[0], ShardingScheme.TABLE_WISE, [0])
    plan.tables["t1"] = shard_table(tables[1], ShardingScheme.ROW_WISE,
                                    [0, 1])
    plan.validate()
    topo = ClusterTopology(num_nodes=1, gpus_per_node=2)
    trainer = NeoTrainer(
        config, plan, topo,
        dense_optimizer=lambda p: nn.SGD(p, lr=0.1),
        sparse_optimizer=SparseSGD(lr=0.1), seed=seed,
        process_group_factory=pg_factory)
    dataset = SyntheticCTRDataset(tables, dense_dim=4, seed=1)
    return trainer, dataset


class TestZeroFaultParity:
    """An empty schedule makes FaultyProcessGroup bit-identical to
    SimProcessGroup — losses, weights, bytes and modeled seconds."""

    def test_training_is_bit_identical(self):
        plain, dataset = _tiny_trainer()
        faulty, _ = _tiny_trainer(
            pg_factory=faulty_process_group_factory())
        assert isinstance(faulty.pg, FaultyProcessGroup)
        for batch in dataset.batches(8, 5):
            loss_a = plain.train_step(batch.split(2))
            loss_b = faulty.train_step(batch.split(2))
            assert loss_a == loss_b  # bitwise, not approx
        for t in ("t0", "t1"):
            np.testing.assert_array_equal(plain.gather_table(t),
                                          faulty.gather_table(t))
        for pa, pb in zip(plain.ranks[0].dense_parameters(),
                          faulty.ranks[0].dense_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert plain.pg.log.wire_bytes == faulty.pg.log.wire_bytes
        assert plain.pg.log.modeled_seconds == faulty.pg.log.modeled_seconds
        assert plain.pg.log.calls == faulty.pg.log.calls

    def test_trainer_announces_iterations_to_the_group(self):
        trainer, dataset = _tiny_trainer(
            pg_factory=faulty_process_group_factory())
        for batch in dataset.batches(8, 3):
            trainer.train_step(batch.split(2))
        # after 3 steps the group saw iterations 0, 1, 2
        assert trainer.pg.iteration == 2

    def test_persistent_straggler_visible_in_health(self):
        sched = FaultSchedule([FaultSpec(FaultKind.DELAY, rank=1,
                                         iteration=None,
                                         delay_seconds=0.05)])
        trainer, dataset = _tiny_trainer(
            pg_factory=faulty_process_group_factory(schedule=sched,
                                                    straggler_factor=1.5))
        for batch in dataset.batches(8, 4):
            trainer.train_step(batch.split(2))
        assert trainer.pg.health.stragglers() == [1]
        assert trainer.metrics.counter(
            "resilience.faults_injected", kind="delay").value > 0

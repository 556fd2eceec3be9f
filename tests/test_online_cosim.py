"""Golden regression for the train-while-serving co-simulation.

The seeded co-sim is a measurement instrument, so its curve is pinned
*bitwise*: staleness, NE, goodput per cadence must reproduce exactly.
The degenerate cadences anchor the two ends of the design space against
independently-run references:

* swap-every-step must reproduce the pure-serving
  :class:`~repro.serving.LoadReport` bit for bit (swaps never touch the
  schedule), and
* never-swap must reproduce the pure-training losses bit for bit and
  answer every request with version 0, bitwise equal to a plain serve
  of the initial snapshot.

The pinned constants are tied to the repo's seeded synthetic pipeline;
a change here means the co-simulation's observable behavior changed and
the goldens must be consciously re-derived.
"""

import numpy as np
import pytest

from repro.core import TrainingLoop
from repro.models.zoo import full_spec
from repro.obs import MetricRegistry
from repro.online import (CoSimulation, OnlineConfig, cadence_from_sizing,
                          run_cadence_sweep)
from repro.online.cosim import HELD_OUT_OFFSET
from repro.serving import (BatchingPolicy, InferenceServer, LoadReport,
                           PoissonLoadGen, ServingPerfModel, freeze)
from repro.serving.loadgen import summarize

from .helpers import tiny_config, tiny_dataset, tiny_trainer
from .reference_serving import (assert_same_columns, plan_lanes_reference,
                                price_requests, serve_reference)

CONFIG = tiny_config(num_tables=2, rows=96, dim=8, dense_dim=4,
                     avg_pooling=2.0, bottom_mlp=(8,), top_mlp=(8,))
COSIM_CONFIG = OnlineConfig(num_steps=8, swap_every_steps=1,
                            train_step_time_s=0.01, qps=800, slo_s=5e-3,
                            seed=0, eval_batch_size=128)
CADENCES = [1, 2, 4, 0]

# the pinned curve: (cadence, swaps, stale-steps mean/max, stale-s mean,
# serving NE, NE gap, goodput qps, p99 s) per cadence, bitwise
GOLDEN_FRESH_NE = 0.9308283130292521
GOLDEN_CURVE = [
    (1, 8, 0.0, 0, 0.005334451591984732,
     0.9944286337809038, 0.06360032075165178,
     781.3208070687332, 0.00223657782894358),
    (2, 4, 0.484375, 1, 0.010178201591984733,
     0.9992253242710346, 0.06839701124178255,
     781.3208070687332, 0.00223657782894358),
    (4, 2, 1.609375, 3, 0.021428201591984733,
     1.017511980920316, 0.08668366789106385,
     781.3208070687332, 0.00223657782894358),
    (0, 0, 3.609375, 8, 0.04142820159198474,
     1.0526147851821217, 0.12178647215286964,
     781.3208070687332, 0.00223657782894358),
]


def make_loop():
    trainer = tiny_trainer(CONFIG, world=2, seed=0, scheme="table_wise")
    return TrainingLoop(trainer, tiny_dataset(CONFIG, seed=1, noise=0.2),
                        global_batch_size=8, eval_every=100)


@pytest.fixture(scope="module")
def sweep():
    results = []
    report = run_cadence_sweep(make_loop, CADENCES, COSIM_CONFIG,
                               results_out=results)
    return report, results


class TestPinnedCurve:
    def test_curve_is_bitwise_stable(self, sweep):
        report, _ = sweep
        assert report.fresh_ne == GOLDEN_FRESH_NE
        assert len(report.points) == len(GOLDEN_CURVE)
        for p, (cad, swaps, ss_mean, ss_max, sec_mean, ne, gap, goodput,
                p99) in zip(report.points, GOLDEN_CURVE):
            assert p.swap_every_steps == cad
            assert p.num_swaps == swaps
            assert p.staleness_steps_mean == ss_mean
            assert p.staleness_steps_max == ss_max
            assert p.staleness_s_mean == sec_mean
            assert p.serving_ne == ne
            assert p.ne_gap == gap
            assert p.goodput_qps == goodput
            assert p.p99_s == p99

    def test_ne_gap_monotone_in_staleness(self, sweep):
        report, _ = sweep
        assert report.ne_gap_monotone_in_staleness()
        means = [p.staleness_steps_mean for p in report.points]
        assert means == sorted(means)  # slower cadence -> staler answers

    def test_schedule_identical_across_cadences(self, sweep):
        """Hot-swap is free for the request path: every cadence prices
        and schedules the identical batch plan, bit for bit."""
        _, results = sweep
        columns = ("request_id", "dispatch_s", "completion_s",
                   "batch_samples")
        ref = [getattr(results[0].serve, c).tobytes() for c in columns]
        for r in results[1:]:
            assert [getattr(r.serve, c).tobytes() for c in columns] == ref

    def test_no_requests_lost_to_swaps(self, sweep):
        _, results = sweep
        for r in results:
            assert r.shed_during_swap == 0
            assert r.serve.num_completed + r.serve.num_shed == \
                r.report.num_offered
        # most-frequent cadence really did publish after every step
        assert results[0].num_swaps == COSIM_CONFIG.num_steps
        assert sorted(results[0].serve.requests_per_version()) == \
            list(range(COSIM_CONFIG.num_steps + 1))


class TestDegenerateCadences:
    def test_swap_every_step_matches_pure_serving_report(self, sweep):
        """Cadence-1 co-sim LoadReport == an independent pure-serving
        load test over the same trace and the initial snapshot: the swap
        machinery adds exactly nothing to the schedule."""
        _, results = sweep
        cosim = results[0]
        loop = make_loop()
        servable = freeze(loop.trainer)
        horizon = COSIM_CONFIG.num_steps * COSIM_CONFIG.train_step_time_s
        gen = PoissonLoadGen.for_duration(COSIM_CONFIG.qps, horizon,
                                          seed=COSIM_CONFIG.seed)
        server = InferenceServer(servable)
        result = server.serve(gen.requests(loop.dataset))
        report = summarize(result, offered_qps=COSIM_CONFIG.qps,
                           num_offered=gen.num_requests,
                           slo_s=COSIM_CONFIG.slo_s)
        assert cosim.report == report  # dataclass equality: bitwise

    def test_never_swap_matches_pure_training(self, sweep):
        """Cadence-0 co-sim trains the identical trajectory as a plain
        loop: serving traffic cannot perturb training."""
        _, results = sweep
        cosim = results[-1]
        assert cosim.config.swap_every_steps == 0
        ref = make_loop().run(COSIM_CONFIG.num_steps)
        assert cosim.training.losses == ref.losses
        assert cosim.training.eval_steps == ref.eval_steps
        assert cosim.training.eval_ne == ref.eval_ne

    def test_never_swap_serves_only_version_zero(self, sweep):
        _, results = sweep
        cosim = results[-1]
        assert len(cosim.snapshots) == 1
        assert (cosim.serve.version == 0).all()
        # and the answers are bitwise a plain serve of snapshot v0
        loop = make_loop()
        horizon = COSIM_CONFIG.num_steps * COSIM_CONFIG.train_step_time_s
        gen = PoissonLoadGen.for_duration(COSIM_CONFIG.qps, horizon,
                                          seed=COSIM_CONFIG.seed)
        plain = InferenceServer(freeze(loop.trainer)).serve(
            gen.requests(loop.dataset))
        assert set(plain.responses) == set(cosim.serve.responses)
        for rid, resp in plain.responses.items():
            np.testing.assert_array_equal(cosim.serve.responses[rid], resp)


class TestCoSimPlumbing:
    def test_staleness_metrics_recorded(self):
        metrics = MetricRegistry()
        cfg = OnlineConfig(num_steps=2, swap_every_steps=1,
                           train_step_time_s=0.01, qps=300,
                           eval_batch_size=64)
        CoSimulation(make_loop(), cfg, metrics=metrics).run()
        snap = metrics.snapshot()
        assert snap["serving.swaps"] == 2
        assert snap["online.requests"] > 0
        assert snap["online.shed_during_swap"] == 0
        assert "online.serving_ne" in snap
        assert "online.ne_gap" in snap

    def test_replicas_partition_traffic(self):
        cfg = OnlineConfig(num_steps=2, swap_every_steps=1,
                           train_step_time_s=0.01, qps=300,
                           eval_batch_size=64, replicas=2)
        result = CoSimulation(make_loop(), cfg).run()
        assert len(result.replica_results) == 2
        per_replica = [r.num_completed + r.num_shed
                       for r in result.replica_results]
        assert sum(per_replica) == result.report.num_offered
        assert result.shed_during_swap == 0
        assert (np.diff(result.serve.request_id) > 0).all()

    def test_held_out_eval_is_disjoint_from_training(self):
        assert HELD_OUT_OFFSET > TrainingLoop.EVAL_OFFSET

    def test_config_validation(self):
        good = dict(num_steps=2, swap_every_steps=1,
                    train_step_time_s=0.01, qps=300)
        OnlineConfig(**good)
        for bad in (dict(num_steps=0), dict(swap_every_steps=-1),
                    dict(train_step_time_s=0.0), dict(qps=0.0),
                    dict(slo_s=0.0), dict(replicas=0),
                    dict(eval_batch_size=0), dict(num_requests=0)):
            with pytest.raises(ValueError):
                OnlineConfig(**{**good, **bad})

    @pytest.mark.parametrize("field,value", [
        ("num_steps", 2.5), ("num_steps", True), ("swap_every_steps", 1.5),
        ("swap_every_steps", 0.0), ("replicas", 1.5), ("replicas", 2.0),
        ("eval_batch_size", 3.5), ("num_requests", 10.5),
        ("num_requests", "10")])
    def test_non_integer_counts_are_rejected(self, field, value):
        """Regression: non-integer counts constructed, and the run
        failed later with a bare TypeError (``range(cfg.replicas)``)
        after training had already run."""
        good = dict(num_steps=2, swap_every_steps=1,
                    train_step_time_s=0.01, qps=300)
        with pytest.raises(ValueError, match=field):
            OnlineConfig(**{**good, field: value})

    @pytest.mark.parametrize("field", ["train_step_time_s", "qps",
                                       "slo_s"])
    def test_nan_is_rejected(self, field):
        """Regression: ``x <= 0`` let NaN through, so a NaN step time or
        SLO reached the virtual clock and the SLO count unchecked."""
        good = dict(num_steps=2, swap_every_steps=1,
                    train_step_time_s=0.01, qps=300)
        with pytest.raises(ValueError, match=field):
            OnlineConfig(**{**good, field: float("nan")})

    def test_numpy_integer_counts_are_accepted(self):
        OnlineConfig(num_steps=np.int64(2), swap_every_steps=np.int64(0),
                     train_step_time_s=0.01, qps=300,
                     replicas=np.int32(2), num_requests=np.int64(5))

    def test_cadence_from_sizing(self):
        spec = full_spec("A1")
        swap_every, step_time, sizing = cadence_from_sizing(
            spec, target_qps=2e6, freshness_budget_s=30.0)
        assert swap_every >= 1
        assert step_time == pytest.approx(4096 / sizing.achieved_qps)
        assert swap_every == max(1, round(30.0 / step_time))
        with pytest.raises(ValueError):
            cadence_from_sizing(spec, target_qps=2e6,
                                freshness_budget_s=0.0)


class History:
    """``snapshot_at`` over a finished run's snapshots, answered as the
    slot answered it: the last snapshot published at or before ``t``."""

    def __init__(self, snapshots):
        self.snapshots = snapshots

    def snapshot_at(self, t):
        return [s for s in self.snapshots if s.publish_s <= t][-1]


def oracle_records(result):
    """``(records, shed_ids, offered)`` of a co-simulation from the
    per-request oracle: each replica's round-robin share planned and
    served by ``reference_serving``, the records merged by one sort."""
    cfg = result.config
    initial = result.snapshots[0].model
    dt = cfg.train_step_time_s
    trace = PoissonLoadGen.for_duration(
        cfg.qps, max(dt, result.completed_steps * dt),
        seed=cfg.seed).requests(make_loop().dataset)
    perf, policy = ServingPerfModel(), BatchingPolicy()
    records, shed = [], []
    for r in range(cfg.replicas):
        share = trace[r::cfg.replicas]
        plan = plan_lanes_reference(
            [share[i] for i in range(len(share))], lambda _: 0, [policy],
            [lambda reqs: price_requests(perf, initial, reqs)])[0]
        _, outcomes, shed_ids = serve_reference(
            initial, plan, slot=History(result.snapshots))
        records += outcomes
        shed += shed_ids
    return sorted(records), sorted(shed), len(trace)


def loop_summary(records, num_offered, num_shed, cfg):
    """The SLO report of ``records``, one loop per field."""
    lat = np.array([o.completion_s - o.arrival_s for o in records])
    first = min(o.arrival_s for o in records)
    last = max(o.completion_s for o in records)
    makespan = last - first
    within = int(np.sum(lat <= cfg.slo_s))
    return LoadReport(
        offered_qps=cfg.qps, num_offered=num_offered,
        num_completed=len(records), num_shed=num_shed, slo_s=cfg.slo_s,
        p50_s=float(np.percentile(lat, 50)),
        p95_s=float(np.percentile(lat, 95)),
        p99_s=float(np.percentile(lat, 99)),
        mean_s=float(lat.mean()), max_s=float(lat.max()),
        goodput_qps=within / makespan,
        completed_qps=len(records) / makespan,
        slo_attainment=within / num_offered, makespan_s=makespan,
        mean_batch_samples=float(np.mean([o.batch_samples
                                          for o in records])),
        first_arrival_s=first, last_completion_s=last)


class TestMergedColumns:
    """A multi-replica co-simulation's merged columns and the statistics
    drawn from them, against per-request loops over the oracle's
    records."""

    @pytest.mark.parametrize("replicas", [2, 3])
    def test_merge_matches_per_request_loops(self, replicas):
        cfg = OnlineConfig(num_steps=4, swap_every_steps=1,
                           train_step_time_s=0.01, qps=800,
                           eval_batch_size=64, replicas=replicas)
        result = CoSimulation(make_loop(), cfg).run()
        serve = result.serve
        assert (np.diff(serve.request_id) > 0).all()
        assert len(set(serve.version.tolist())) > 1

        records, shed, offered = oracle_records(result)
        assert_same_columns(serve, records, shed)
        assert result.report == loop_summary(records, offered, len(shed),
                                             cfg)

        by_version = {s.version: s for s in result.snapshots}
        dt = cfg.train_step_time_s
        steps = [max(0, min(result.completed_steps,
                            int(np.floor(o.dispatch_s / dt + 1e-9)))
                     - by_version[o.version].step) for o in records]
        seconds = [o.dispatch_s - by_version[o.version].publish_s
                   for o in records]
        ne = sum(result.snapshot_ne[o.version] for o in records) \
            / len(records)
        assert result.staleness_steps().dtype == np.int64
        assert result.staleness_steps().tolist() == steps
        assert result.staleness_seconds().tobytes() == \
            np.array(seconds, dtype=np.float64).tobytes()
        assert result.serving_ne() == ne

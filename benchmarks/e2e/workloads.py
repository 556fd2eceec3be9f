"""The four end-to-end workloads.

Every workload is the same path — train, export, serve — with the
weight on a different layer, and drives the product only through its
public API. A workload object is built once per set-up:

* ``setup()`` builds model, trainer, dataset, fleet and traffic from the
  seed and warms up (timed by the runner as ``setup_s``);
* ``run(seconds)`` is the closed-loop timed phase: a fixed minimum of
  work whose results are deterministic for the seed (losses, served
  probabilities, wire bytes: the *horizon*), then more of the same work
  until ``seconds`` have been measured;
* the returned :class:`Outcome` carries the measurements, the
  correctness-gate failures and the raw counts the per-layer metrics
  are derived from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro import nn
from repro.comms import ClusterTopology
from repro.core import CheckpointManager, NeoTrainer, TrainingLoop
from repro.data import (DataIngestionService, FrequencyStats, MiniBatch,
                        SyntheticCTRDataset)
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
from repro.fleet import (DayCurve, FleetRouter, FleetTraffic, RouterPolicy,
                         ServingFleet)
from repro.metrics import normalized_entropy
from repro.models import DLRM, DLRMConfig, zoo_config
from repro.obs import as_tracer
from repro.online import ModelSlot
from repro.planner import PlanBudget, plan_representation
from repro.serving import (BatchingPolicy, FreezeConfig, InferenceServer,
                           LoadReport, PoissonLoadGen, ServingPerfModel,
                           freeze)
from repro.serving.loadgen import summarize
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from trace import timed_perf_model, wrap_method

SLO_S = 10e-3
NEVER = 10 ** 9
# bench_fleet's sharp-peaked 12-"hour" day (peak ~2.8x the mean)
DAY_HOURLY = (0.2, 0.2, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 2.6, 1.6, 0.8, 0.4)
# The task is fixed: one planted teacher (dataset seed 0) and one
# architecture for every run. ``--seed`` feeds model init, the traffic
# generators, and which stretch of the dataset's sample stream is read:
# training starts at batch ``_train_start(seed)``, served requests and
# frequency statistics come from index ranges training and eval never
# reach (eval lives at TrainingLoop.EVAL_OFFSET = 1 000 000).
DATASET_SEED = 0
FREQ_OFFSET = 3_000_000
SERVE_OFFSET = 2_000_000


def _train_start(seed: int) -> int:
    return (seed % 1000) * 1000


def _dataset(config: DLRMConfig) -> SyntheticCTRDataset:
    return SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=DATASET_SEED)


def _scaled(n: int, smoke: bool) -> int:
    return max(2, n // 20) if smoke else n


@dataclass
class Outcome:
    """What one timed phase measured."""

    items: int = 0                    # work items in the timed window
    wall_s: float = 0.0               # the timed window, host clock
    unit_s: List[float] = field(default_factory=list)
    report: Optional[LoadReport] = None   # virtual-clock serve report
    served_ne: float = 0.0
    peak_rss_mb: float = 0.0          # ru_maxrss when the horizon ended
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    counts: Dict[str, float] = field(default_factory=dict)
    detail: Dict[str, object] = field(default_factory=dict)

    def gate(self, ok: bool, message: str) -> None:
        """One correctness check; a failure fails the run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def _nnz_per_sample(config: DLRMConfig) -> float:
    return sum(t.avg_pooling for t in config.tables)


def _perf_calls(perf: ServingPerfModel) -> int:
    """Pricing calls so far (the traced run's counting perf model)."""
    return getattr(perf, "calls", [0])[0]


def _conservation(out: Outcome, reports: Sequence[LoadReport],
                  merged: LoadReport, offered: int, what: str) -> None:
    for i, r in enumerate(reports):
        out.gate(r.num_offered == r.num_completed + r.num_shed,
                 f"{what}: replica {i} offered {r.num_offered} != "
                 f"completed {r.num_completed} + shed {r.num_shed}")
    out.gate(merged.num_offered == offered
             and merged.num_offered == merged.num_completed
             + merged.num_shed,
             f"{what}: merged offered {merged.num_offered} of {offered}, "
             f"completed {merged.num_completed}, shed {merged.num_shed}")


def _served(results) -> tuple:
    """(probabilities, labels) of every completed request, id order."""
    rows = []
    for result in results:
        by_id = {r.request_id: r for b in result.plan.batches
                 for r in b.requests}
        rows.extend((rid, probs, by_id[rid].batch.labels)
                    for rid, probs in result.responses.items())
    rows.sort(key=lambda row: row[0])
    return (np.concatenate([p for _, p, _ in rows]),
            np.concatenate([lab for _, _, lab in rows]))


def _parity(out: Outcome, result, model_of, what: str,
            samples: int = 4) -> None:
    """A sample of dispatched batches, replayed directly through
    ``ServableModel.predict`` on the same rows, must match bitwise."""
    batches = result.plan.batches
    for i in sorted({int(k * (len(batches) - 1) / max(samples - 1, 1))
                     for k in range(samples)} if batches else ()):
        b = batches[i]
        direct = model_of(b).predict(
            MiniBatch.concat([r.batch for r in b.requests]))
        served = np.concatenate([result.responses[r.request_id]
                                 for r in b.requests])
        out.gate(np.array_equal(direct, served),
                 f"{what}: batch {i} differs from a direct predict")


def _train_counts(loop: TrainingLoop) -> Dict[str, float]:
    """Running totals of the counters the trainer and reader expose."""
    snap = loop.trainer.metrics.snapshot("embedding.")
    log = loop.trainer.pg.log
    stats = loop.ingestion.stats
    return {
        "lookup_rows": sum(v for k, v in snap.items()
                           if k.startswith("embedding.lookup_rows")),
        "update_rows": sum(v for k, v in snap.items()
                           if k.startswith("embedding.update_rows")),
        "kernel_launches": snap.get("embedding.kernel_launches", 0),
        "comm_calls": sum(log.calls.values()),
        "wire_bytes": log.total_bytes,
        "modeled_s": log.total_seconds,
        "ingest_batches": stats.batches_produced,
        "ingest_bytes": stats.frontend_bytes,
    }


def _cache_counts(servable) -> Dict[str, float]:
    """Running totals of a frozen model's cache and dedup counters."""
    cold = list(servable.cold_tables.values())
    return {"cache_accesses": sum(t.cache.stats.accesses for t in cold),
            "cache_hits": sum(t.cache.stats.hits for t in cold),
            "cache_fills": sum(t.cache.stats.fills for t in cold),
            "dedup_requested": servable.dedup_rows_requested
            + sum(t.rows_requested for t in cold),
            "dedup_read": servable.dedup_rows_read
            + sum(t.rows_read for t in cold)}


def _loss_gates(out: Outcome, losses: Sequence[float]) -> None:
    bad = sum(1 for v in losses if not math.isfinite(v))
    out.attempted += len(losses)
    out.failed += bad
    if bad:
        out.errors.append(f"{bad} non-finite losses")
    k = max(1, min(10, len(losses) // 2))
    out.gate(float(np.mean(losses[-k:])) < float(np.mean(losses[:k])),
             f"loss did not decrease: first {np.mean(losses[:k]):.4f} "
             f"last {np.mean(losses[-k:]):.4f}")


class Workload:
    """Shared plumbing: seed, smoke scaling, tracing hooks."""

    name = ""
    #: product spans a traced run must contain
    expected_spans: Sequence[str] = ()

    def __init__(self, seed: int, smoke: bool, tracer=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tracer = as_tracer(tracer)

    def perf_model(self, **fields) -> ServingPerfModel:
        if self.tracer.enabled:
            return timed_perf_model(self.tracer, **fields)
        return ServingPerfModel(**fields)

    def server(self, model, policy: Optional[BatchingPolicy] = None,
               perf: Optional[ServingPerfModel] = None,
               name: str = "") -> InferenceServer:
        server = InferenceServer(
            model, policy, perf if perf is not None else self.perf_model(),
            tracer=self.tracer, name=name)
        if self.tracer.enabled:
            wrap_method(server, "serve", self.tracer, "bench.server_serve")
        return server

    def span(self, name: str):
        return self.tracer.span(name, cat="bench")

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up left on disk."""


# ----------------------------------------------------------------------
# training workloads
# ----------------------------------------------------------------------
class _TrainWorkload(Workload):
    """Time-boxed ``TrainingLoop.run`` plus an export-and-serve probe."""

    batch = 0
    warmup = 3
    min_steps = 0
    chunk = 10
    probe_requests = 6000
    expected_spans = ("loop.iteration", "loop.ingest", "trainer.iteration",
                      "trainer.embedding_lookup", "trainer.embedding_update",
                      "trainer.dense_bwd", "trainer.optimizer",
                      "comms.all_reduce", "serving.forward")

    def model(self):
        """(config, sharding plan, topology, dense optimizer factory)."""
        raise NotImplementedError

    def setup(self) -> None:
        config, plan, topology, dense_optimizer = self.model()
        self.trainer = NeoTrainer(
            config, plan, topology, dense_optimizer=dense_optimizer,
            sparse_optimizer=SparseAdaGrad(lr=0.1), seed=self.seed,
            trace=self.tracer)
        self.dataset = _dataset(config)
        self.loop = TrainingLoop(self.trainer, self.dataset, self.batch,
                                 eval_every=NEVER)
        self.loop.ingestion.seek(_train_start(self.seed))
        self.loop.run(self.warmup)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        min_steps = _scaled(self.min_steps, self.smoke)
        chunk = _scaled(self.chunk, self.smoke)
        losses: List[float] = []

        def train(steps: int) -> float:
            stamps = [time.perf_counter()]
            with self.span("bench.train"):
                result = self.loop.run(
                    steps,
                    on_step=lambda _: stamps.append(time.perf_counter()))
            losses.extend(result.losses)
            out.unit_s.extend(np.diff(stamps).tolist())
            return stamps[-1] - stamps[0]

        base = _train_counts(self.loop)
        out.wall_s = train(min_steps)
        # the horizon: everything deterministic for the seed is read
        # here, before the time box adds a machine-dependent step count
        counts = _train_counts(self.loop)
        out.counts = {k: counts[k] - base[k] for k in counts}
        out.counts["steps"] = min_steps
        wire = dict(sorted(self.trainer.pg.log.wire_bytes.items()))
        out.gate(self.trainer.replicas_in_sync(),
                 "dense replicas out of sync at the horizon")
        with self.span("bench.freeze"):
            servable = freeze(self.trainer)
        out.peak_rss_mb = _peak_rss_mb()
        while out.wall_s < seconds:
            out.wall_s += train(chunk)
        out.items = self.batch * len(losses)

        _loss_gates(out, losses)
        out.gate(self.trainer.replicas_in_sync(),
                 "dense replicas out of sync after training")
        k = min(10, min_steps)
        out.counts["loss_final"] = float(
            np.mean(losses[min_steps - k:min_steps]))
        probs = self._probe(out, servable)
        out.digest = _digest(np.asarray(losses[:min_steps]), probs, wire)
        out.detail.update(steps=len(losses), horizon_steps=min_steps,
                          loss_first=losses[0],
                          loss_final=out.counts["loss_final"])
        return out

    def _probe(self, out: Outcome, servable) -> np.ndarray:
        """Serve a short flat-Poisson trace at half capacity from the
        horizon snapshot: quality and latency as a user would see them."""
        server = self.server(servable)
        n = _scaled(self.probe_requests, self.smoke)
        qps = 0.5 * server.perf.capacity_qps(
            servable, server.policy.max_batch_size,
            _nnz_per_sample(servable.config))
        with self.span("bench.traffic_gen"):
            requests = PoissonLoadGen(
                qps=qps, num_requests=n,
                seed=SERVE_OFFSET + self.seed).requests(self.dataset)
        result = server.serve(requests)
        out.counts["perf_calls"] = _perf_calls(server.perf)
        with self.span("bench.report"):
            out.report = summarize(result, offered_qps=qps, num_offered=n,
                                   slo_s=SLO_S, keep_samples=True)
        _conservation(out, [out.report], out.report, n, "probe")
        out.attempted += n
        out.counts.update(
            requests=n, batches=len(result.plan.batches),
            mean_batch=out.report.mean_batch_samples,
            artifact_bytes=servable.storage_bytes(),
            shed_late_frac=1.0 - out.report.slo_attainment,
            **_cache_counts(servable))
        probs, labels = _served([result])
        out.served_ne = float(normalized_entropy(probs, labels))
        _parity(out, result, lambda b: servable, "probe")
        return probs


class TrainSparse(_TrainWorkload):
    """R=4 hybrid-sharded trainer: 16 tables x 20 000 rows x D16."""

    name = "train_sparse"
    batch = 512
    min_steps = 100
    expected_spans = _TrainWorkload.expected_spans + (
        "trainer.table_fwd", "comms.reduce_scatter", "comms.all_gather",
        "comms.all_to_all/index")

    def model(self):
        world = 4
        tables = tuple(EmbeddingTableConfig(f"t{i}", 20_000, 16,
                                            avg_pooling=10.0)
                       for i in range(16))
        config = DLRMConfig(dense_dim=8, bottom_mlp=(32, 16), tables=tables,
                            top_mlp=(32,))
        plan = ShardingPlan(world_size=world)
        everyone = list(range(world))
        for i, t in enumerate(tables):  # 8 row-, 6 table-, 2 column-wise
            if i < 8:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.ROW_WISE, everyone)
            elif i < 14:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.TABLE_WISE, [i % world])
            else:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.COLUMN_WISE, everyone)
        return (config, plan,
                ClusterTopology(num_nodes=1, gpus_per_node=world),
                lambda params: nn.Adam(params, lr=0.01))


class TrainDense(_TrainWorkload):
    """R=16 deep-MLP trainer: one tiny data-parallel table, 6x256 MLPs."""

    name = "train_dense"
    batch = 1024
    min_steps = 30
    chunk = 5

    def model(self):
        tables = (EmbeddingTableConfig("t0", 64, 256, avg_pooling=2.0),)
        config = DLRMConfig(dense_dim=16, bottom_mlp=(256,) * 6,
                            tables=tables, top_mlp=(256,) * 6)
        plan = ShardingPlan(world_size=16)
        plan.tables["t0"] = shard_table(
            tables[0], ShardingScheme.DATA_PARALLEL, list(range(16)))
        return (config, plan, ClusterTopology(num_nodes=2, gpus_per_node=8),
                lambda params: nn.Adam(params, lr=0.001))


# ----------------------------------------------------------------------
# serve_day
# ----------------------------------------------------------------------
class ServeDay(Workload):
    """A 4-replica fleet replays a diurnal Zipf-user day, then a rate
    ladder; the trainer is never built."""

    name = "serve_day"
    replicas = 4
    day_requests = 12_000
    rung_requests = 2_000
    users = 100_000
    rungs = (0.5, 0.7, 0.9, 1.1)
    # dispatch-overhead-dominated replicas (bench_fleet's arrangement):
    # a 32-wide batch costs ~4.4 ms of the 10 ms SLO, so a few thousand
    # requests are enough virtual time for overload to reach the SLO
    overhead_s = 4e-3
    expected_spans = ("serving.batch", "serving.forward",
                      "bench.perf_model", "bench.route",
                      "bench.server_serve")

    def setup(self) -> None:
        config = zoo_config("large")
        model = DLRM(config, seed=self.seed)
        self.dataset = _dataset(config)
        stats = FrequencyStats()
        for i in range(8):
            stats.update(self.dataset.batch(
                512, FREQ_OFFSET + 8 * self.seed + i))
        fp32_bytes = 4 * sum(t.num_parameters for t in config.tables)
        with self.span("bench.freeze"):
            self.servable = freeze(
                model,
                FreezeConfig(precision="fp16", hot_bytes=0.25 * fp32_bytes,
                             cache_kind="freq_aware", cache_fraction=0.1),
                frequency_stats=stats)
        policy = BatchingPolicy(32, 2e-3, admission="predicted",
                                deadline_s=SLO_S)
        perf = self.perf_model(overhead_s=self.overhead_s)
        self.fleet = ServingFleet(
            self.servable, policy=policy, perfs=[perf] * self.replicas,
            router=RouterPolicy("power_of_two", seed=self.seed),
            tracer=self.tracer)
        if self.tracer.enabled:
            wrap_method(self.fleet.router, "route", self.tracer,
                        "bench.route")
            for replica in self.fleet.replicas:
                wrap_method(replica, "serve", self.tracer,
                            "bench.server_serve")
        self.capacity = self.fleet.capacity_qps(
            policy.max_batch_size, _nnz_per_sample(config))
        hourly = np.asarray(DAY_HOURLY)
        # the peak hour sits at 1.1x the modeled fleet capacity
        self.mean_qps = 1.1 * self.capacity * hourly.mean() / hourly.max()
        n_day = _scaled(self.day_requests, self.smoke)
        duration = n_day / self.mean_qps
        with self.span("bench.traffic_gen"):
            self.day = FleetTraffic(
                mean_qps=self.mean_qps, duration_s=duration,
                curve=DayCurve(hourly=DAY_HOURLY, day_s=duration),
                num_users=_scaled(self.users, self.smoke),
                seed=SERVE_OFFSET + self.seed).requests(self.dataset)
            self.ladder = {
                x: PoissonLoadGen(
                    qps=x * self.capacity,
                    num_requests=_scaled(self.rung_requests, self.smoke),
                    seed=SERVE_OFFSET + self.seed).requests(self.dataset)
                for x in self.rungs}
        self._serve(self.day[:_scaled(320, self.smoke)], self.mean_qps)

    def _serve(self, requests, qps: float):
        with self.span("bench.fleet_serve"):
            return self.fleet.serve(requests, slo_s=SLO_S, offered_qps=qps)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()

        def replay():
            t0 = time.perf_counter()
            result = self._serve(self.day, self.mean_qps)
            out.unit_s.append(time.perf_counter() - t0)
            out.attempted += len(self.day)
            return result

        perf = self.fleet.replicas[0].perf
        base = dict(_cache_counts(self.servable),
                    perf_calls=_perf_calls(perf))
        first = replay()
        # the horizon: the first replay is the day every count, virtual
        # latency and probability is taken from
        counts = dict(_cache_counts(self.servable),
                      perf_calls=_perf_calls(perf))
        out.counts = {k: counts[k] - base[k] for k in counts}
        out.report = first.merged
        _conservation(out, first.per_replica, first.merged, len(self.day),
                      "day")
        out.gate(sum(first.routing.counts) == len(self.day),
                 "routing lost requests")
        probs, labels = _served(first.results)
        out.served_ne = float(normalized_entropy(probs, labels))
        out.counts.update(
            requests=len(self.day),
            batches=sum(len(r.plan.batches) for r in first.results),
            mean_batch=first.merged.mean_batch_samples,
            route_imbalance=first.routing.imbalance(),
            artifact_bytes=self.servable.storage_bytes(),
            shed_late_frac=1.0 - first.merged.slo_attainment)

        ladder = {}
        for x, requests in self.ladder.items():
            rung = self._serve(requests, x * self.capacity)
            out.attempted += len(requests)
            _conservation(out, rung.per_replica, rung.merged, len(requests),
                          f"rung {x}")
            ladder[x] = rung.merged
        passing = [x for x, r in ladder.items()
                   if r.p99_s <= SLO_S and r.shed_fraction <= 0.01]
        out.counts["max_rate_x"] = max(passing, default=0.0)
        out.peak_rss_mb = _peak_rss_mb()

        while sum(out.unit_s) < seconds:
            again = replay()
            out.gate(again.merged == first.merged,
                     "a replay of the same day changed the virtual report")
        out.wall_s = sum(out.unit_s)
        out.items = len(self.day) * len(out.unit_s)

        for result in first.results:
            _parity(out, result, lambda b: self.servable, "day", samples=2)
        out.digest = _digest(probs, list(first.routing.counts),
                             [[x, r.p99_s, r.num_shed]
                              for x, r in ladder.items()])
        out.detail.update(
            replays=len(out.unit_s), capacity_qps=self.capacity,
            shed=first.merged.num_shed,
            hot_tables=len(self.servable.hot_table_names),
            cold_tables=len(self.servable.cold_table_names),
            ladder={str(x): {"p99_ms": r.p99_s * 1e3,
                             "shed_frac": r.shed_fraction}
                    for x, r in ladder.items()})
        return out


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class Lifecycle(Workload):
    """Ingest with frequency tracking, train, evaluate, checkpoint,
    restore, plan, freeze, and serve through a hot-swapping slot."""

    name = "lifecycle"
    world = 4
    batch = 512
    every = 50            # eval and checkpoint cadence; 3 rounds of it
    requests = 12_000
    replicas = 2
    expected_spans = ("loop.ingest", "loop.eval", "loop.checkpoint",
                      "trainer.iteration", "trainer.embedding_lookup",
                      "serving.swap", "serving.forward", "bench.plan",
                      "bench.freeze", "bench.ckpt_load", "bench.route")

    def __init__(self, seed: int, smoke: bool, tracer=None) -> None:
        super().__init__(seed, smoke, tracer)
        self._dirs: List[str] = []

    def _trainer(self, tracer=None) -> NeoTrainer:
        plan = ShardingPlan(world_size=self.world)
        for i, t in enumerate(self.config.tables):
            if i % 2 == 0:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.ROW_WISE, list(range(self.world)))
            else:
                plan.tables[t.name] = shard_table(
                    t, ShardingScheme.TABLE_WISE, [i % self.world])
        return NeoTrainer(
            self.config, plan,
            ClusterTopology(num_nodes=1, gpus_per_node=self.world),
            dense_optimizer=lambda params: nn.Adam(params, lr=0.01),
            sparse_optimizer=SparseAdaGrad(lr=0.1), seed=self.seed,
            trace=tracer)

    def setup(self) -> None:
        self.config = zoo_config("large")
        self.trainer = self._trainer(self.tracer)
        self.dataset = _dataset(self.config)
        scratch = os.path.join(os.getcwd(), ".bench_build", "e2e")
        os.makedirs(scratch, exist_ok=True)
        self._dirs.append(tempfile.mkdtemp(prefix="ckpt-", dir=scratch))
        self.checkpoints = CheckpointManager(self._dirs[-1])
        every = _scaled(self.every, self.smoke)
        self.loop = TrainingLoop(
            self.trainer, self.dataset, self.batch, eval_every=every,
            checkpoint_manager=self.checkpoints, checkpoint_every=every)
        self.loop.ingestion = DataIngestionService(
            self.dataset, world_size=self.world,
            global_batch_size=self.batch, track_frequencies=True)
        self.loop.ingestion.seek(_train_start(self.seed))
        # traffic is exogenous: its rate is half the modeled capacity of
        # this architecture at the serving precision, known before training
        self.perf = self.perf_model()
        self.policy = BatchingPolicy()
        shape = freeze(DLRM(self.config, seed=self.seed),
                       FreezeConfig(precision="fp16"))
        self.qps = 0.5 * self.replicas * self.perf.capacity_qps(
            shape, self.policy.max_batch_size,
            _nnz_per_sample(self.config))
        with self.span("bench.traffic_gen"):
            self.traffic = PoissonLoadGen(
                qps=self.qps,
                num_requests=_scaled(self.requests, self.smoke),
                seed=SERVE_OFFSET + self.seed).requests(self.dataset)

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def _export(self):
        """Plan a representation per table, then freeze under it."""
        stats = self.loop.ingestion.frequency_stats
        fp32_bytes = 4 * sum(t.num_parameters for t in self.config.tables)
        with self.span("bench.plan"):
            plan = plan_representation(
                self.trainer,
                PlanBudget(hot_bytes=0.25 * fp32_bytes, quality_floor=2e-3),
                frequency_stats=stats)
        with self.span("bench.freeze"):
            servable = freeze(
                self.trainer,
                FreezeConfig(cache_kind="freq_aware", cache_fraction=0.1),
                plan=plan, frequency_stats=stats)
        return plan, servable

    def run(self, seconds: float) -> Outcome:
        passes: List[Outcome] = []
        while True:
            passes.append(self._one_pass())
            if sum(p.wall_s for p in passes) >= seconds:
                break
            self.setup()
        out = passes[0]   # the horizon: every pass repeats the first
        for later in passes[1:]:
            out.gate(later.digest == out.digest,
                     "a repeated lifecycle pass changed the result digest")
            out.attempted += later.attempted
            out.failed += later.failed
            out.errors.extend(later.errors)
            out.unit_s.extend(later.unit_s)
        # every pass does the same work: report the median pass
        out.wall_s = float(np.median([p.wall_s for p in passes]))
        out.detail["passes"] = len(passes)
        return out

    def _one_pass(self) -> Outcome:
        out = Outcome()
        every = _scaled(self.every, self.smoke)
        steps = 3 * every
        swap_step = steps // 2
        snapshots = {}
        stamps = [time.perf_counter()]

        def on_step(step: int) -> None:
            stamps.append(time.perf_counter())
            if step + 1 == swap_step:
                snapshots["mid"] = self._export()[1]

        with self.span("bench.train"):
            training = self.loop.run(steps, on_step=on_step)
        out.unit_s = np.diff(stamps).tolist()
        with self.span("bench.ckpt_load"):
            restored = self._trainer()
            self.checkpoints.load(restored)
        plan, final = self._export()
        slot = ModelSlot(snapshots["mid"], step=swap_step, publish_s=0.0,
                         tracer=self.tracer)
        slot.publish(final, step=steps,
                     publish_s=self.traffic[len(self.traffic) // 2].arrival_s)
        routing, results, reports = self._serve(slot)
        out.report = LoadReport.merge(reports)
        out.wall_s = time.perf_counter() - stamps[0]
        out.items = self.batch * steps + len(self.traffic)
        out.peak_rss_mb = _peak_rss_mb()

        losses = training.losses
        k = min(10, steps)
        out.counts = dict(
            _train_counts(self.loop), steps=steps,
            loss_final=float(np.mean(losses[-k:])),
            ckpt_bytes=sum(h.payload_bytes
                           for h in self.checkpoints.history),
            hot_bytes=plan.hot_bytes(),
            artifact_bytes=final.storage_bytes(),
            requests=len(self.traffic),
            batches=sum(len(r.plan.batches) for r in results),
            mean_batch=out.report.mean_batch_samples,
            route_imbalance=routing.imbalance(), swaps=slot.num_swaps,
            perf_calls=_perf_calls(self.perf),
            shed_late_frac=1.0 - out.report.slo_attainment)
        for snapshot in slot.history:
            for key, value in _cache_counts(snapshot.model).items():
                out.counts[key] = out.counts.get(key, 0) + value

        _loss_gates(out, losses)
        out.gate(self.trainer.replicas_in_sync(),
                 "dense replicas out of sync after training")
        out.gate(len(training.checkpoints) == 3,
                 f"expected a checkpoint every {every} steps, "
                 f"got {len(training.checkpoints)}")
        out.gate(all(
            np.array_equal(self.trainer.gather_table(t.name),
                           restored.gather_table(t.name))
            for t in self.config.tables) and all(
            np.array_equal(a.data, b.data) for a, b in zip(
                self.trainer.ranks[0].dense_parameters(),
                restored.ranks[0].dense_parameters())),
            "checkpoint round trip is not bitwise")
        out.attempted += len(self.traffic)
        _conservation(out, reports, out.report, len(self.traffic), "serve")
        versions = {}
        for r in results:
            for v, n in r.requests_per_version().items():
                versions[v] = versions.get(v, 0) + n
        out.gate(sorted(versions) == [0, 1],
                 f"expected both snapshots to answer, got {versions}")
        probs, labels = _served(results)
        out.served_ne = float(normalized_entropy(probs, labels))
        for r in results:
            _parity(out, r, lambda b: slot.snapshot_at(b.dispatch_s).model,
                    "serve", samples=2)
        out.digest = _digest(
            np.asarray(losses), np.asarray(training.eval_ne), probs,
            dict(sorted(self.trainer.pg.log.wire_bytes.items())),
            list(routing.counts))
        out.detail.update(
            steps=steps, eval_ne=training.eval_ne,
            loss_first=losses[0], loss_final=out.counts["loss_final"],
            plan=plan.counts_by_kind(), versions=versions)
        return out

    def _serve(self, slot: ModelSlot):
        """Round-robin the trace over the replicas; every replica answers
        through the slot, so all see the same swap."""
        servers = [self.server(slot.history[0].model, self.policy,
                               self.perf, name=f"replica{i}")
                   for i in range(self.replicas)]
        estimators = [
            (lambda r, s=s: s.perf.service_time(
                s.model, r.num_samples, s.model.nnz(r.batch)))
            for s in servers]
        with self.span("bench.route"):
            routing = FleetRouter(RouterPolicy("round_robin")).route(
                self.traffic, estimators)
        results = [s.serve(sub, slot=slot)
                   for s, sub in zip(servers, routing.assignments)]
        with self.span("bench.report"):
            reports = [summarize(
                r, offered_qps=self.qps * len(sub) / len(self.traffic),
                num_offered=len(sub), slo_s=SLO_S, keep_samples=True)
                for r, sub in zip(results, routing.assignments)]
        return routing, results, reports


WORKLOADS = {w.name: w for w in (TrainSparse, TrainDense, ServeDay,
                                 Lifecycle)}

"""Deterministic train-while-serving co-simulation.

The paper's stated purpose for Neo is *continuous* retraining: a
recommendation model is never done training, it is perpetually refreshed
while a serving fleet answers traffic from the last published snapshot.
This module closes that loop in simulation. One
:class:`repro.core.TrainingLoop` keeps training while one or more
:class:`repro.serving.InferenceServer` replicas answer seeded Poisson
traffic (Zipf-skewed ids, the same synthetic CTR distribution training
consumes) — all on a **shared virtual clock**:

* training step ``k`` (1-based) completes at ``k * train_step_time_s``
  virtual seconds;
* at the refresh cadence the trainer is :func:`~repro.serving.freeze`-d
  and the snapshot hot-swapped into the serving fleet through the
  double-buffered :class:`~repro.online.ModelSlot`;
* requests arrive by their own Poisson process and each dispatched batch
  is answered by the snapshot active at its *dispatch* time.

Determinism is what makes the co-simulation a measurement instrument
rather than a demo. Training is closed-loop-free (serving reads frozen
copies, never trainer state), so the training trajectory is bitwise
independent of traffic; and the batcher's schedule is priced against the
model *shape*, which hot-swap keeps invariant, so the serving schedule
is bitwise independent of the refresh cadence. The two halves interleave
on the virtual clock but cannot perturb each other — exactly the
isolation a production train/serve split buys, and the property the
pinned tests hold: swap-every-step reproduces the pure-serving
:class:`~repro.serving.LoadReport` bitwise, never-swap reproduces the
pure-training losses bitwise.

What *does* change with cadence is staleness: how many steps (and
virtual seconds) the answering snapshot trails the trainer, and through
it the held-out NE of the answers served. :class:`CoSimResult` carries
the full joint record — per-request staleness, per-snapshot NE, the SLO
report — from which :mod:`repro.online.report` draws the
staleness-vs-NE-vs-goodput curve the paper only gestures at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .. import check
from ..core.loop import TrainingLoop, TrainingResult
from ..metrics import normalized_entropy
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..serving.batcher import BatchingPolicy, RequestTrace
from ..serving.export import FreezeConfig, ServableModel, freeze
from ..serving.loadgen import LoadReport, PoissonLoadGen, summarize
from ..serving.server import InferenceServer, ServeResult, ServingPerfModel
from .slot import ModelSlot, Snapshot

__all__ = ["OnlineConfig", "CoSimResult", "CoSimulation"]

# held-out batch indices for snapshot NE, far from both training's range
# and TrainingLoop.EVAL_OFFSET so online eval never sees loop-eval data
HELD_OUT_OFFSET = 2_000_000


@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of one train-while-serving run.

    ``swap_every_steps`` is the refresh cadence: freeze + hot-swap after
    every N completed training steps (1 = swap-every-step, 0 = never
    swap — the fleet serves the initial snapshot forever). Use
    :func:`repro.online.report.cadence_from_sizing` to derive the
    cadence and ``train_step_time_s`` from a :mod:`repro.perf.online`
    cluster sizing instead of picking them by hand.
    """

    num_steps: int
    swap_every_steps: int
    train_step_time_s: float
    qps: float
    slo_s: float = 5e-3
    seed: int = 0
    replicas: int = 1
    eval_batch_size: int = 512
    num_requests: Optional[int] = None
    freeze_config: FreezeConfig = FreezeConfig()

    def __post_init__(self) -> None:
        check.count("num_steps", self.num_steps)
        check.count("swap_every_steps", self.swap_every_steps, low=0)
        check.positive("train_step_time_s", self.train_step_time_s)
        check.positive("qps", self.qps)
        check.positive("slo_s", self.slo_s)
        check.count("seed", self.seed, low=0)
        check.count("replicas", self.replicas)
        check.count("eval_batch_size", self.eval_batch_size)
        if self.num_requests is not None:
            check.count("num_requests", self.num_requests)


@dataclass
class CoSimResult:
    """The complete joint record of one co-simulation run."""

    config: OnlineConfig
    training: TrainingResult
    serve: ServeResult                   # merged across replicas
    replica_results: List[ServeResult]
    report: LoadReport
    snapshots: List[Snapshot]
    snapshot_ne: Dict[int, float]        # version -> held-out NE
    fresh_ne: float                      # NE of the final trained model
    completed_steps: int

    @property
    def num_swaps(self) -> int:
        """Completed hot-swaps (publishes after the initial install)."""
        return len(self.snapshots) - 1

    @property
    def shed_during_swap(self) -> int:
        """The requests lost to swapping — the conservation residual.

        Every offered request must be either completed or shed by
        admission control; a hot-swap implementation that dropped
        in-flight or queued requests would leak them here. Always 0 for
        the atomic double-buffered slot.
        """
        offered = self.report.num_offered
        return offered - self.serve.num_completed - self.serve.num_shed

    # ------------------------------------------------------------------
    def staleness_steps(self) -> np.ndarray:
        """Per completed request: training steps the answering snapshot
        trailed the trainer at dispatch time. ``snapshots`` is the slot
        history, so version ``v`` is entry ``v``."""
        trained = np.floor(self.serve.dispatch_s
                           / self.config.train_step_time_s + 1e-9)
        trained = np.minimum(self.completed_steps, trained.astype(np.int64))
        step = np.array([s.step for s in self.snapshots])
        return np.maximum(0, trained - step[self.serve.version])

    def staleness_seconds(self) -> np.ndarray:
        """Per completed request: virtual seconds since the answering
        snapshot was published."""
        publish = np.array([s.publish_s for s in self.snapshots])
        return self.serve.dispatch_s - publish[self.serve.version]

    def serving_ne(self) -> float:
        """Traffic-weighted held-out NE of the answers actually served:
        each completed request contributes its answering snapshot's NE,
        summed left to right in request-id order."""
        if not self.serve.num_completed:
            return float("nan")
        total = sum(self.snapshot_ne[v] for v in self.serve.version.tolist())
        return total / self.serve.num_completed

    def ne_gap(self) -> float:
        """How much NE the fleet gave up to staleness vs serving the
        fully fresh final model on every request."""
        return self.serving_ne() - self.fresh_ne


class CoSimulation:
    """Runs one train-while-serving co-simulation to completion.

    The loop's own dataset doubles as the traffic source (single-sample
    Zipf-skewed requests) and the held-out NE source (batch indices far
    outside both the training range and the loop's eval range).
    """

    def __init__(self, loop: TrainingLoop, config: OnlineConfig,
                 policy: Optional[BatchingPolicy] = None,
                 perf: Optional[ServingPerfModel] = None,
                 tracer=None,
                 metrics: Optional[MetricRegistry] = None) -> None:
        self.loop = loop
        self.config = config
        self.policy = policy if policy is not None else BatchingPolicy()
        self.perf = perf if perf is not None else ServingPerfModel()
        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricRegistry()

    # ------------------------------------------------------------------
    def _freeze(self) -> ServableModel:
        return freeze(self.loop.trainer, self.config.freeze_config)

    def _held_out_batch(self):
        return self.loop.dataset.batch(self.config.eval_batch_size,
                                       HELD_OUT_OFFSET + self.config.seed)

    def _snapshot_ne(self, model: ServableModel, batch) -> float:
        return normalized_entropy(model.predict(batch), batch.labels)

    def run(self) -> CoSimResult:
        cfg = self.config
        dt = cfg.train_step_time_s
        start_step = self.loop.trainer.steps
        slot = ModelSlot(self._freeze(), step=start_step, publish_s=0.0,
                         tracer=self.tracer, metrics=self.metrics)

        # -- train, hot-swapping at the refresh cadence ----------------
        def on_step(_step: int) -> None:
            completed = self.loop.trainer.steps - start_step
            if cfg.swap_every_steps and \
                    completed % cfg.swap_every_steps == 0:
                slot.publish(self._freeze(), step=self.loop.trainer.steps,
                             publish_s=completed * dt)

        with self.tracer.span("online.train", cat="online",
                              num_steps=cfg.num_steps):
            training = self.loop.run(cfg.num_steps, on_step=on_step)
        completed_steps = self.loop.trainer.steps - start_step

        # -- held-out NE per snapshot + the fully fresh reference ------
        batch = self._held_out_batch()
        snapshot_ne = {s.version: self._snapshot_ne(s.model, batch)
                       for s in slot.history}
        final = slot.history[-1]
        if final.step == self.loop.trainer.steps:
            fresh_ne = snapshot_ne[final.version]
        else:
            fresh_ne = self._snapshot_ne(self._freeze(), batch)

        # -- serve the traffic against the swap timeline ---------------
        horizon = max(dt, completed_steps * dt)
        if cfg.num_requests is not None:
            gen = PoissonLoadGen(qps=cfg.qps, num_requests=cfg.num_requests,
                                 seed=cfg.seed)
        else:
            gen = PoissonLoadGen.for_duration(cfg.qps, horizon,
                                              seed=cfg.seed)
        requests = gen.requests(self.loop.dataset)
        replica_results = self._serve_replicas(requests, slot)
        serve = self._merge(replica_results)
        report = summarize(serve, offered_qps=cfg.qps,
                           num_offered=len(requests), slo_s=cfg.slo_s)

        result = CoSimResult(
            config=cfg, training=training, serve=serve,
            replica_results=replica_results, report=report,
            snapshots=list(slot.history), snapshot_ne=snapshot_ne,
            fresh_ne=fresh_ne, completed_steps=completed_steps)
        self._record_metrics(result)
        return result

    # ------------------------------------------------------------------
    def _serve_replicas(self, requests: RequestTrace,
                        slot: ModelSlot) -> List[ServeResult]:
        """Round-robin the trace across the fleet; every replica shares
        the slot (and therefore sees the same swap timeline)."""
        cfg = self.config
        results = []
        for r in range(cfg.replicas):
            server = InferenceServer(slot.history[0].model, self.policy,
                                     self.perf, tracer=self.tracer,
                                     metrics=self.metrics)
            share = requests[r::cfg.replicas]
            with self.tracer.span("online.serve", cat="online", replica=r,
                                  requests=len(share)):
                results.append(server.serve(share, slot=slot))
        return results

    @staticmethod
    def _merge(results: List[ServeResult]) -> ServeResult:
        columns = [np.concatenate([getattr(r, name) for r in results])
                   for name in ServeResult.COLUMNS]
        order = np.argsort(columns[0])
        merged = ServeResult(
            *(c[order] for c in columns),
            shed_ids=np.sort(np.concatenate([r.shed_ids for r in results])))
        for res in results:
            merged.responses.update(res.responses)
        return merged

    def _record_metrics(self, result: CoSimResult) -> None:
        scope = self.metrics.scope("online")
        steps = result.staleness_steps()
        seconds = result.staleness_seconds()
        scope.histogram("staleness_steps").record_many(steps.tolist())
        scope.histogram("staleness_seconds").record_many(seconds.tolist())
        if len(steps):
            scope.gauge("last_staleness_steps").set(float(steps[-1]))
            scope.gauge("last_staleness_seconds").set(float(seconds[-1]))
        scope.gauge("serving_ne").set(result.serving_ne())
        scope.gauge("ne_gap").set(result.ne_gap())
        scope.counter("requests").inc(result.report.num_offered)
        scope.counter("shed_during_swap").inc(result.shed_during_swap)

"""The serving fleet: N inference replicas behind one router.

``ServingFleet`` composes the pieces this package adds — a
:class:`~repro.fleet.router.FleetRouter` assignment plane and N
:class:`~repro.serving.server.InferenceServer` replicas of one frozen
model — into a single ``serve(trace)`` call. Replicas may be
heterogeneous: each can sit on its own
:class:`~repro.serving.server.ServingPerfModel` (and therefore its own
:class:`~repro.perf.PlatformSpec` placement), and the router's backlog
estimates use each replica's own prices, so platform differences shape
the routing instead of being averaged away.

Observability: all replicas share the fleet's tracer and metric
registry, but each replica is *named* (``replica0``, ``replica1``, …)
so its spans carry a ``replica=`` attribute and its metrics live under
``replicaN.serving.*`` — per-replica series out of one registry.

Everything runs on the shared virtual clock: route, batch, serve,
merge are all deterministic functions of (trace, policies, seed), so a
whole fleet sweep is bitwise-repeatable, and an N=1 round-robin fleet
reproduces the single-server load test exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .. import check
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..serving.batcher import BatchingPolicy, RequestTrace
from ..serving.export import ServableModel
from ..serving.loadgen import LoadReport, summarize
from ..serving.server import InferenceServer, ServeResult, ServingPerfModel
from .router import FleetRouter, RouterPolicy, RoutingPlan

__all__ = ["FleetResult", "ServingFleet"]


@dataclass
class FleetResult:
    """Everything one fleet serve produced.

    ``merged`` is the fleet-level :class:`LoadReport` (exact pooled
    percentiles via :meth:`LoadReport.merge`); ``per_replica`` the
    replica reports it was merged from (indexed by fleet replica id —
    inactive replicas report zeros); ``results`` the raw per-replica
    :class:`ServeResult`\\ s and ``routing`` the assignment plan.
    """

    merged: LoadReport
    per_replica: List[LoadReport]
    results: List[ServeResult] = field(default_factory=list)
    routing: Optional[RoutingPlan] = None

    @property
    def num_replicas(self) -> int:
        return len(self.per_replica)


class ServingFleet:
    """N replicas of one frozen model behind a routing policy.

    ``perfs`` gives each replica its own service-time model (defaults to
    one shared :class:`ServingPerfModel`); ``num_replicas`` is implied
    by its length. ``policy`` (batching/admission) is shared — it is a
    fleet-wide serving contract, not a placement property.
    """

    def __init__(self, model: ServableModel, num_replicas: int = 1,
                 policy: Optional[BatchingPolicy] = None,
                 perfs: Optional[Sequence[ServingPerfModel]] = None,
                 router: Optional[RouterPolicy] = None,
                 tracer=None,
                 metrics: Optional[MetricRegistry] = None) -> None:
        if perfs is not None:
            perfs = list(perfs)
            if num_replicas not in (1, len(perfs)) :
                raise ValueError(
                    f"num_replicas={num_replicas} conflicts with "
                    f"{len(perfs)} per-replica perf models")
            num_replicas = len(perfs)
        check.count("num_replicas", num_replicas)
        self.model = model
        self.policy = policy if policy is not None else BatchingPolicy()
        self.router = FleetRouter(router)
        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        if perfs is None:
            perfs = [ServingPerfModel() for _ in range(num_replicas)]
        self.replicas = [
            InferenceServer(model, self.policy, perf, tracer=self.tracer,
                            metrics=self.metrics, name=f"replica{i}")
            for i, perf in enumerate(perfs)]

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    def _estimators(self):
        """Per-replica single-request service predictors for the router,
        each priced by that replica's own perf model."""
        return [
            (lambda r, srv=server: srv.perf.service_time(
                srv.model, r.num_samples, r.nnz))
            for server in self.replicas]

    def capacity_qps(self, batch_size: int, nnz_per_sample: float,
                     active: Optional[Sequence[int]] = None) -> float:
        """Summed saturated throughput of the (active) replicas at a
        fixed dispatch width — the ceiling the fleet's goodput curve
        approaches under perfect balance."""
        active = range(self.num_replicas) if active is None else active
        return sum(self.replicas[i].perf.capacity_qps(
            self.model, batch_size, nnz_per_sample) for i in active)

    def serve(self, trace: RequestTrace, slo_s: float,
              offered_qps: float,
              active: Optional[Sequence[int]] = None,
              keep_samples: bool = True) -> FleetResult:
        """Route and serve one :class:`RequestTrace`; merge the reports.

        ``offered_qps`` is the fleet-level offered rate the reports are
        labeled with; each replica's report carries its proportional
        share so the merged report sums back to the fleet rate.
        ``active`` restricts routing to a replica subset (autoscaling);
        inactive replicas serve nothing and report zeros.
        """
        check.positive("slo_s", slo_s)
        plan = self.router.route(trace, self._estimators(), active)
        total = sum(plan.counts) or 1
        results: List[ServeResult] = []
        reports: List[LoadReport] = []
        for server, sub in zip(self.replicas, plan.assignments):
            result = server.serve(sub) if sub else ServeResult()
            results.append(result)
            reports.append(summarize(
                result, offered_qps=offered_qps * (len(sub) / total),
                num_offered=len(sub), slo_s=slo_s, keep_samples=True))
        merged = LoadReport.merge(reports)
        if not keep_samples:
            merged = merged.without_samples()
            reports = [r.without_samples() for r in reports]
        return FleetResult(merged=merged, per_replica=reports,
                           results=results, routing=plan)

"""Multi-tenant serving: a model zoo sharing one fleet's capacity.

Production recommendation fleets host a *zoo* — many models of very
different sizes and SLOs (Section 2 of the paper; the A/F model families
differ by orders of magnitude) — and the capacity question is how to
split shared replicas between them. This module adds the tenancy plane:

* :class:`TenantSpec` — one zoo entry: a frozen model, its latency SLO
  and its share of the traffic;
* :class:`MultiTenantServer` — one replica hosting several tenants'
  models over a *single* device timeline, batched per tenant by
  :class:`~repro.serving.batcher.MultiTenantBatcher`. This is the naive
  "shared" deployment: a heavy tenant's dispatch head-of-line blocks
  everyone else, and co-resident model storage can overflow HBM and
  degrade lookup bandwidth for all tenants at once
  (:meth:`~repro.perf.PlatformSpec.hierarchy_bw_fraction`);
* :class:`MultiTenantFleet` — the fleet, in two deployment modes:
  ``"shared"`` (every replica hosts every model, tenant-blind
  round-robin routing) and ``"partitioned"`` (each tenant gets a
  dedicated replica subset sized by :func:`partition_replicas` from its
  demand share — per-tenant isolation at the cost of pooling).

``benchmarks/bench_planner.py`` gates the punchline: a 3-tenant zoo
whose SLOs all hold under planner-partitioned replicas while the naive
shared fleet misses at least one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import check
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..serving.batcher import BatchingPolicy, MultiTenantBatcher, RequestTrace
from ..serving.export import ServableModel
from ..serving.loadgen import LoadReport, summarize
from ..serving.server import ServeResult, ServingPerfModel, execute_plan
from .fleet import ServingFleet

__all__ = ["TENANCY_MODES", "TenantSpec", "MultiTenantServer",
           "TenantLoadSummary", "FleetTenancyReport", "MultiTenantFleet",
           "partition_replicas"]

TENANCY_MODES = ("partitioned", "shared")


@dataclass(frozen=True)
class TenantSpec:
    """One zoo entry: a frozen model plus its serving contract.

    ``traffic_share`` is the tenant's fraction of fleet-offered load
    (need not sum to 1 across tenants — shares are normalized where
    used); ``policy`` is the tenant's own batching/admission knobs
    (defaults to the stock :class:`BatchingPolicy`).
    """

    name: str
    model: ServableModel
    slo_s: float
    traffic_share: float = 1.0
    policy: BatchingPolicy = field(default_factory=BatchingPolicy)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        check.positive("slo_s", self.slo_s)
        check.positive("traffic_share", self.traffic_share)


def partition_replicas(weights: Dict[str, float], num_replicas: int
                       ) -> Dict[str, int]:
    """Split ``num_replicas`` across tenants by demand weight.

    Largest-remainder apportionment with a floor of one replica per
    tenant: every tenant first gets 1, the rest go by the normalized
    weights' integer parts, and leftover replicas land on the largest
    fractional remainders (ties broken by tenant name, so the split is
    deterministic). Raises when there are fewer replicas than tenants.
    """
    if not weights:
        raise ValueError("need at least one tenant weight")
    for name, w in weights.items():
        check.positive(f"the weight of {name}", w)
    names = sorted(weights)
    if num_replicas < len(names):
        raise ValueError(f"{num_replicas} replicas cannot cover "
                         f"{len(names)} tenants at one replica each")
    spare = num_replicas - len(names)
    total = sum(weights.values())
    quotas = {n: spare * weights[n] / total for n in names}
    out = {n: 1 + int(quotas[n]) for n in names}
    remaining = num_replicas - sum(out.values())
    by_remainder = sorted(names, key=lambda n: (-(quotas[n] - int(quotas[n])),
                                                n))
    for n in by_remainder[:remaining]:
        out[n] += 1
    return out


class MultiTenantServer:
    """One replica hosting several tenants' models on a shared timeline.

    The naive shared deployment: all tenant models are co-resident, and
    one :class:`MultiTenantBatcher` interleaves their dispatches over a
    single device. Consequences the perf model captures:

    * **head-of-line blocking** — a long batch from a heavy tenant
      pushes ``server_free`` out for every tenant;
    * **hierarchy congestion** — ``bw_fraction`` is computed from the
      *combined* storage of all hosted models, so overflowing HBM slows
      every tenant's lookups. The congestion ratio (solo fraction over
      shared fraction) is applied to the whole dispatch — a conservative
      bound, since only the lookup term is bandwidth-bound.
    """

    def __init__(self, tenants: Sequence[TenantSpec],
                 perf: Optional[ServingPerfModel] = None,
                 tracer=None,
                 metrics: Optional[MetricRegistry] = None,
                 name: str = "") -> None:
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.tenants = {t.name: t for t in tenants}
        self.perf = perf if perf is not None else ServingPerfModel()
        self.batcher = MultiTenantBatcher(
            {t.name: t.policy for t in tenants})
        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self.name = name
        self._span_attrs = {"replica": name} if name else {}
        combined = sum(t.model.embedding_storage_bytes() for t in tenants)
        shared_fraction = self.perf.platform.hierarchy_bw_fraction(
            self.perf.platform.hbm_fraction(combined, self.perf.nodes),
            self.perf.cache_hit_boost)
        self._congestion = {
            t.name: self.perf.bw_fraction(t.model) / shared_fraction
            for t in tenants}

    def congestion(self, tenant: str) -> float:
        """>= 1 slowdown factor from co-resident model storage."""
        return self._congestion[tenant]

    def _service_time(self, tenant: str, batch_size: int,
                      nnz: int) -> float:
        return self.perf.service_time(self.tenants[tenant].model,
                                      batch_size, nnz) \
            * self._congestion[tenant]

    def serve(self, trace: RequestTrace) -> Dict[str, ServeResult]:
        """Serve a mixed-tenant :class:`RequestTrace`; one result per
        tenant (every tenant reports, even with no traffic), each with
        the metric catalogue of a single-model server under the scope
        ``[<replica>.]<tenant>.serving``."""
        plans = self.batcher.plan(trace, self._service_time)
        prefix = f"{self.name}." if self.name else ""
        return {
            tenant: execute_plan(
                plan, self.tenants[tenant].model, self.tracer,
                self.metrics.scope(f"{prefix}{tenant}.serving"),
                {"tenant": tenant, **self._span_attrs})
            for tenant, plan in plans.items()}


@dataclass(frozen=True)
class TenantLoadSummary:
    """One tenant's fleet-level outcome: merged report vs its SLO."""

    tenant: str
    slo_s: float
    replicas: int
    report: LoadReport

    @property
    def slo_held(self) -> bool:
        return self.report.p99_s <= self.slo_s

    def row(self) -> List[str]:
        return [self.tenant, str(self.replicas),
                f"{self.slo_s * 1e3:.1f}",
                f"{self.report.p99_s * 1e3:.2f}",
                f"{self.report.shed_fraction * 100:.1f}%",
                "yes" if self.slo_held else "NO"]

    ROW_HEADER = ["tenant", "replicas", "SLO ms", "p99 ms", "shed", "held"]


@dataclass
class FleetTenancyReport:
    """Per-tenant merged reports of one multi-tenant fleet run."""

    mode: str
    num_replicas: int
    per_tenant: Dict[str, TenantLoadSummary]

    @property
    def all_slos_held(self) -> bool:
        return all(s.slo_held for s in self.per_tenant.values())

    def violations(self) -> List[str]:
        return sorted(t for t, s in self.per_tenant.items()
                      if not s.slo_held)

    def render(self) -> str:
        from ..online.report import render_table
        rows = [self.per_tenant[t].row()
                for t in sorted(self.per_tenant)]
        return render_table(TenantLoadSummary.ROW_HEADER, rows)


class MultiTenantFleet:
    """N replicas serving a tenant zoo, partitioned or naively shared.

    ``mode="partitioned"``: each tenant runs on a dedicated replica
    subset sized by :func:`partition_replicas` from
    ``traffic_share x single-request service time`` (its demand in
    device-seconds), each subset an ordinary single-model
    :class:`~repro.fleet.fleet.ServingFleet` — full isolation, no
    cross-tenant blocking, per-tenant storage only.

    ``mode="shared"``: every replica is a :class:`MultiTenantServer`
    hosting *all* models, and requests are routed tenant-blind
    round-robin in arrival order — the deployment that pools perfectly
    but lets heavy tenants blocking light ones and co-resident storage
    degrade everyone.
    """

    def __init__(self, tenants: Sequence[TenantSpec], num_replicas: int,
                 mode: str = "partitioned",
                 perf: Optional[ServingPerfModel] = None,
                 tracer=None,
                 metrics: Optional[MetricRegistry] = None) -> None:
        if mode not in TENANCY_MODES:
            raise ValueError(f"mode must be one of {TENANCY_MODES}, "
                             f"got {mode!r}")
        check.count("num_replicas", num_replicas)
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.tenants = {t.name: t for t in tenants}
        self.mode = mode
        self.num_replicas = num_replicas
        self.perf = perf if perf is not None else ServingPerfModel()
        self.tracer = as_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        if mode == "partitioned":
            self.partition = partition_replicas(
                {t.name: self._demand_weight(t) for t in tenants},
                num_replicas)
            self.fleets = {
                t.name: ServingFleet(
                    t.model, num_replicas=self.partition[t.name],
                    policy=t.policy,
                    perfs=[self.perf] * self.partition[t.name],
                    tracer=self.tracer, metrics=self.metrics)
                for t in tenants}
            self.replicas = []
        else:
            self.partition = {t.name: num_replicas for t in tenants}
            self.fleets = {}
            self.replicas = [
                MultiTenantServer(tenants, perf=self.perf,
                                  tracer=self.tracer, metrics=self.metrics,
                                  name=f"replica{i}")
                for i in range(num_replicas)]

    def _demand_weight(self, t: TenantSpec) -> float:
        """Demand in device-seconds per fleet-second: traffic share x
        the model's single-sample service time (its per-request cost),
        so a heavy model earns proportionally more replicas."""
        svc = self.perf.service_time(
            t.model, 1, max(1, int(round(sum(
                tc.avg_pooling for tc in t.model.config.tables)))))
        return t.traffic_share * svc

    def serve(self, trace: RequestTrace,
              offered_qps: Dict[str, float]) -> FleetTenancyReport:
        """Serve one mixed-tenant :class:`RequestTrace`; per-tenant merged
        reports (exact pooled percentiles) against each tenant's SLO.

        ``offered_qps`` labels each tenant's report with its offered
        rate; every request must carry a known ``tenant`` tag.
        """
        lane = trace.tenant_index(list(self.tenants))
        by_tenant = {name: trace[lane == k]
                     for k, name in enumerate(self.tenants)}
        missing = sorted(set(self.tenants) - set(offered_qps))
        if missing:
            raise ValueError(f"offered_qps missing tenants {missing}")
        if self.mode == "partitioned":
            per_tenant = {
                name: TenantLoadSummary(
                    tenant=name, slo_s=self.tenants[name].slo_s,
                    replicas=self.partition[name],
                    report=self.fleets[name].serve(
                        by_tenant[name], slo_s=self.tenants[name].slo_s,
                        offered_qps=offered_qps[name]).merged)
                for name in self.tenants}
            return FleetTenancyReport(mode=self.mode,
                                      num_replicas=self.num_replicas,
                                      per_tenant=per_tenant)
        # shared: tenant-blind round-robin in global arrival order
        sub = [trace[i::self.num_replicas] for i in range(self.num_replicas)]
        results = [replica.serve(share)
                   for replica, share in zip(self.replicas, sub)]
        per_tenant: Dict[str, TenantLoadSummary] = {}
        for name, spec in self.tenants.items():
            offered = len(by_tenant[name])
            reports = []
            for i, result in enumerate(results):
                n = int(np.count_nonzero(sub[i].tenant == name))
                share = n / offered if offered else 0.0
                reports.append(summarize(
                    result[name], offered_qps=offered_qps[name] * share,
                    num_offered=n, slo_s=spec.slo_s, keep_samples=True))
            per_tenant[name] = TenantLoadSummary(
                tenant=name, slo_s=spec.slo_s, replicas=self.num_replicas,
                report=LoadReport.merge(reports))
        return FleetTenancyReport(mode=self.mode,
                                  num_replicas=self.num_replicas,
                                  per_tenant=per_tenant)

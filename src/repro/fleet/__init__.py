"""The serving fleet: scale-out of :mod:`repro.serving` to N replicas.

One :class:`~repro.serving.server.InferenceServer` is a node;
production capacity planning happens at the *fleet* — the unit the
scale-out companion work (Naumov et al.) plans in. This package adds
the three planes a fleet needs on top of the single-server stack, all
on the shared virtual clock so whole-fleet sweeps stay bitwise
deterministic:

* :mod:`repro.fleet.traffic` — million-user-shaped load: a seeded
  diurnal day-curve (NHPP by inversion over the flat Poisson substrate)
  and a Zipf user population whose hot users resubmit identical
  samples;
* :mod:`repro.fleet.router` — deterministic virtual-time request
  routing (round-robin / least-loaded / power-of-two-choices) with
  per-replica perf-model backlog estimates, so heterogeneous
  :class:`~repro.perf.PlatformSpec` placements route accordingly;
* :mod:`repro.fleet.autoscaler` — a windowed p99-vs-SLO control loop
  with hysteresis, cooldown and export-priced replica warm-up, plus
  the static peak-provisioned baseline it must beat on replica-hours;
* :mod:`repro.fleet.fleet` / :mod:`repro.fleet.report` — the
  ``ServingFleet`` orchestrator and the capacity-vs-replicas /
  goodput-under-overload / day-report curves, merged with *exact*
  percentiles through :meth:`repro.serving.LoadReport.merge`.

* :mod:`repro.fleet.tenancy` — the multi-tenant plane: a
  :class:`TenantSpec` zoo served either by planner-partitioned replica
  subsets or a naive shared deployment, with per-tenant SLO reports
  (``MultiTenantFleet``).

``benchmarks/bench_fleet.py`` regenerates the curves and gates them
(``benchmarks/bench_planner.py`` for tenancy).
"""

from .autoscaler import (Autoscaler, AutoscalerConfig, replica_warmup_s,
                         run_autoscaled_day, run_static_day,
                         smallest_static_fleet)
from .fleet import FleetResult, ServingFleet
from .report import (CapacityPoint, FleetDayReport, ScaleEvent,
                     WindowRecord, capacity_sweep, overload_sweep)
from .router import ROUTING_POLICIES, FleetRouter, RouterPolicy, RoutingPlan
from .tenancy import (TENANCY_MODES, FleetTenancyReport, MultiTenantFleet,
                      MultiTenantServer, TenantLoadSummary, TenantSpec,
                      partition_replicas)
from .traffic import DEFAULT_DAY_CURVE, DayCurve, FleetTraffic

__all__ = [
    "DayCurve",
    "DEFAULT_DAY_CURVE",
    "FleetTraffic",
    "ROUTING_POLICIES",
    "RouterPolicy",
    "RoutingPlan",
    "FleetRouter",
    "ServingFleet",
    "FleetResult",
    "AutoscalerConfig",
    "Autoscaler",
    "replica_warmup_s",
    "run_autoscaled_day",
    "run_static_day",
    "smallest_static_fleet",
    "WindowRecord",
    "ScaleEvent",
    "FleetDayReport",
    "CapacityPoint",
    "capacity_sweep",
    "overload_sweep",
    "TENANCY_MODES",
    "TenantSpec",
    "MultiTenantServer",
    "TenantLoadSummary",
    "FleetTenancyReport",
    "MultiTenantFleet",
    "partition_replicas",
]

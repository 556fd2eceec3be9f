"""SLO-driven fleet autoscaling with hysteresis, cooldown and warm-up.

The control loop every serving platform runs: watch the tail latency of
a trailing window, add a replica when the window's p99 crowds the SLO
(or admission control starts shedding — the overload signal p99 over
*completed* requests hides), drop one when the fleet is so cold the
p99 sits far below it. Three standard stabilizers keep the loop from
thrashing:

* **hysteresis** — the scale-up threshold (``up_p99_frac * slo``) sits
  well above the scale-down threshold (``down_p99_frac * slo``), so a
  fleet bouncing around one operating point takes no action;
* **cooldown** — after any action the controller holds off for
  ``cooldown_s`` so the previous action's effect is *in* the window it
  judges next;
* **warm-up** — a new replica is billed from the moment it is
  requested but serves only after ``warmup_s``: the price of shipping
  the frozen artifact to a fresh node. By default that cost is derived
  from the export path itself — ``ServableModel.storage_bytes()``
  pushed over the platform's host link — so a bigger or lower-precision
  model literally changes how fast the fleet can react.

The day simulation (:func:`run_autoscaled_day`) is windowed: the
diurnal trace is partitioned into ``window_s`` slices, each served by
the currently-active replicas, and scale decisions fire on window
boundaries. Replica-hours are billed per window, which is exact because
every provision/deprovision lands on a boundary. A static
peak-provisioned fleet (:func:`smallest_static_fleet`) is the baseline
the autoscaler must beat on replica-hours while holding the same SLO.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .. import check
from ..perf.platform import ZIONEX_PLATFORM, PlatformSpec
from ..serving.batcher import RequestTrace
from ..serving.export import ServableModel
from ..serving.loadgen import LoadReport
from .fleet import ServingFleet
from .report import FleetDayReport, ScaleEvent, WindowRecord

__all__ = ["AutoscalerConfig", "Autoscaler", "replica_warmup_s",
           "run_autoscaled_day", "run_static_day", "smallest_static_fleet"]


def replica_warmup_s(model: ServableModel,
                     platform: PlatformSpec = ZIONEX_PLATFORM,
                     overhead_s: float = 0.05) -> float:
    """Seconds to bring a fresh replica online: fixed provision overhead
    plus the frozen artifact crossing the host link into device memory.

    This is the freeze/export path pricing the autoscaler's reaction
    time: ``storage_bytes()`` already accounts for the storage precision
    (int8 artifacts warm up ~4x faster than fp32 ones).
    """
    check.nonnegative("overhead_s", overhead_s)
    return overhead_s + model.storage_bytes() / platform.dram_link_bw_per_node


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop knobs (see module docstring for the semantics)."""

    slo_s: float
    window_s: float
    min_replicas: int = 1
    max_replicas: int = 8
    up_p99_frac: float = 0.9
    down_p99_frac: float = 0.45
    up_shed_frac: float = 0.0
    cooldown_s: float = 0.0
    warmup_s: Optional[float] = None   # None -> price from the artifact
    initial_replicas: Optional[int] = None   # None -> min_replicas

    def __post_init__(self) -> None:
        check.positive("slo_s", self.slo_s)
        check.positive("window_s", self.window_s)
        check.count("min_replicas", self.min_replicas)
        check.count("max_replicas", self.max_replicas, low=self.min_replicas)
        # the hysteresis band: 0 < down_p99_frac < up_p99_frac
        check.positive("down_p99_frac", self.down_p99_frac)
        check.positive("up_p99_frac", self.up_p99_frac,
                       low=self.down_p99_frac)
        check.nonnegative("up_shed_frac", self.up_shed_frac)
        check.nonnegative("cooldown_s", self.cooldown_s)
        if self.warmup_s is not None:
            check.nonnegative("warmup_s", self.warmup_s)
        if self.initial_replicas is not None:
            check.count("initial_replicas", self.initial_replicas,
                        low=self.min_replicas)
            if self.initial_replicas > self.max_replicas:
                raise ValueError("initial_replicas outside [min, max]")


class Autoscaler:
    """The windowed p99-vs-SLO decision rule, with hysteresis+cooldown.

    :meth:`decide` maps one window's observation to a replica delta
    (-1, 0 or +1); the caller applies it. Pure bookkeeping — no clock,
    no randomness — so the control trajectory is deterministic.
    """

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._last_action_s = -float("inf")

    def decide(self, now_s: float, provisioned: int, p99_s: float,
               shed_fraction: float) -> int:
        cfg = self.config
        if now_s - self._last_action_s < cfg.cooldown_s:
            return 0
        overloaded = p99_s > cfg.up_p99_frac * cfg.slo_s \
            or shed_fraction > cfg.up_shed_frac
        if overloaded and provisioned < cfg.max_replicas:
            self._last_action_s = now_s
            return 1
        idle = p99_s < cfg.down_p99_frac * cfg.slo_s \
            and shed_fraction == 0.0
        if idle and provisioned > cfg.min_replicas:
            self._last_action_s = now_s
            return -1
        return 0


def _run_windowed_day(fleet: ServingFleet,
                      trace: RequestTrace,
                      config: AutoscalerConfig,
                      scaler: Optional[Autoscaler]) -> FleetDayReport:
    """Shared windowed loop over ``trace``'s arrival order:
    ``scaler=None`` keeps the initial fleet static, otherwise applies its
    decisions on window boundaries."""
    if config.max_replicas > fleet.num_replicas:
        raise ValueError(
            f"config.max_replicas={config.max_replicas} exceeds the "
            f"fleet's {fleet.num_replicas} replicas")
    if not len(trace):
        raise ValueError("need at least one request")
    horizon = float(trace.arrival_s[-1])
    num_windows = max(1, int(horizon // config.window_s) + 1)
    warmup = replica_warmup_s(fleet.model) if config.warmup_s is None \
        else config.warmup_s
    start = config.initial_replicas if config.initial_replicas is not None \
        else config.min_replicas
    # per-replica lifecycle: bill_from/active_from None = deprovisioned.
    # The initial set is warm at t=0 (the day starts with a running
    # fleet, as a real one would).
    bill_from: List[Optional[float]] = [
        0.0 if i < start else None for i in range(fleet.num_replicas)]
    active_from: List[Optional[float]] = list(bill_from)
    windows: List[WindowRecord] = []
    events: List[ScaleEvent] = []
    merged_inputs: List[LoadReport] = []
    replica_seconds = 0.0
    i = 0
    for w in range(num_windows):
        t0 = w * config.window_s
        t1 = t0 + config.window_s
        active = [r for r in range(fleet.num_replicas)
                  if active_from[r] is not None and active_from[r] <= t0]
        billed = sum(1 for b in bill_from if b is not None)
        replica_seconds += billed * config.window_s
        j = int(np.searchsorted(trace.arrival_s, t1))
        window_reqs = trace[i:j]
        i = j
        if len(window_reqs):
            result = fleet.serve(window_reqs, config.slo_s,
                                 offered_qps=len(window_reqs)
                                 / config.window_s,
                                 active=active)
            merged_inputs.append(result.merged)
            rep = result.merged
            record = WindowRecord(
                index=w, start_s=t0, num_offered=rep.num_offered,
                num_completed=rep.num_completed, num_shed=rep.num_shed,
                p99_s=rep.p99_s, shed_fraction=rep.shed_fraction,
                active_replicas=len(active), billed_replicas=billed)
        else:
            record = WindowRecord(index=w, start_s=t0, num_offered=0,
                                  num_completed=0, num_shed=0, p99_s=0.0,
                                  shed_fraction=0.0,
                                  active_replicas=len(active),
                                  billed_replicas=billed)
        windows.append(record)
        if scaler is None:
            continue
        delta = scaler.decide(t1, billed, record.p99_s,
                              record.shed_fraction)
        if delta > 0:
            # provision the lowest-index free slot; it serves from the
            # first window boundary past its warm-up
            free = [r for r in range(fleet.num_replicas)
                    if bill_from[r] is None]
            if free:
                r = free[0]
                bill_from[r] = t1
                active_from[r] = t1 + warmup
                events.append(ScaleEvent(t_s=t1, delta=1,
                                         replicas_after=billed + 1,
                                         reason="p99" if record.p99_s
                                         > config.up_p99_frac * config.slo_s
                                         else "shed"))
        elif delta < 0:
            live = [r for r in range(fleet.num_replicas)
                    if bill_from[r] is not None]
            r = live[-1]
            bill_from[r] = None
            active_from[r] = None
            events.append(ScaleEvent(t_s=t1, delta=-1,
                                     replicas_after=billed - 1,
                                     reason="idle"))
    merged = LoadReport.merge(merged_inputs)
    # per-window offered rates sum to nonsense at day level; relabel
    # with the day-average offered rate over the actual horizon
    merged = replace(merged, offered_qps=len(trace)
                     / (num_windows * config.window_s))
    return FleetDayReport(windows=windows, events=events, merged=merged,
                          replica_seconds=replica_seconds,
                          slo_s=config.slo_s, warmup_s=warmup)


def run_autoscaled_day(fleet: ServingFleet,
                       trace: RequestTrace,
                       config: AutoscalerConfig) -> FleetDayReport:
    """Serve a (diurnal) :class:`RequestTrace` under the autoscaler."""
    return _run_windowed_day(fleet, trace, config, Autoscaler(config))


def run_static_day(fleet: ServingFleet,
                   trace: RequestTrace,
                   config: AutoscalerConfig,
                   num_replicas: int) -> FleetDayReport:
    """Serve the :class:`RequestTrace` with a fixed ``num_replicas`` fleet (the
    provisioning baseline: what you pay without elasticity)."""
    static = replace(config, min_replicas=num_replicas,
                     max_replicas=max(num_replicas, config.max_replicas),
                     initial_replicas=num_replicas)
    return _run_windowed_day(fleet, trace, static, None)


def smallest_static_fleet(fleet: ServingFleet,
                          trace: RequestTrace,
                          config: AutoscalerConfig,
                          min_attainment: float = 0.99
                          ) -> FleetDayReport:
    """The cheapest *static* fleet that holds the SLO all day — i.e.
    peak-provisioned — on ``trace`` (a :class:`RequestTrace`). Scans
    replica counts upward until day-level p99 fits the SLO with at least
    ``min_attainment`` of offered requests inside it; returns the
    largest candidate's report if none qualifies (an honest "even N_max
    couldn't" answer for the comparison)."""
    report = None
    for n in range(1, fleet.num_replicas + 1):
        report = run_static_day(fleet, trace, config, n)
        if report.merged.p99_s <= config.slo_s and \
                report.merged.slo_attainment >= min_attainment:
            return report
    return report

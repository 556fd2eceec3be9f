"""The staleness-vs-quality-vs-goodput curve, and sizing-driven cadences.

The paper motivates online training but never shows the operating curve
an online system actually navigates: refresh faster and the fleet serves
fresher (lower-NE) answers at the cost of more freeze/publish work;
refresh slower and quality decays while serving throughput is untouched
(swaps are free for the request path — that is the hot-swap contract).
:func:`run_cadence_sweep` traces that curve by running the same seeded
co-simulation at several refresh cadences, and :class:`OnlineReport`
reduces it to one row per cadence: mean/max staleness in steps and
virtual seconds, traffic-weighted serving NE and its gap to the fresh
model, goodput/p99/shed from the SLO report, and the conservation
residual (``shed_during_swap``) that must stay zero.

:func:`cadence_from_sizing` closes the loop with the paper's sizing
story: :mod:`repro.perf.online` picks the smallest cluster that meets an
online-training throughput target; the achieved QPS of that cluster sets
the virtual step time, and a freshness budget (seconds of acceptable
staleness) divides into it to give the swap cadence in steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .. import check
from ..core.loop import TrainingLoop
from ..models.zoo import ModelSpec
from ..perf.online import NodeSizing, min_nodes_for
from ..serving.batcher import BatchingPolicy
from ..serving.server import ServingPerfModel
from .cosim import CoSimResult, CoSimulation, OnlineConfig

__all__ = ["CadencePoint", "OnlineReport", "run_cadence_sweep",
           "cadence_from_sizing"]


def cadence_from_sizing(spec: ModelSpec, target_qps: float,
                        freshness_budget_s: float,
                        global_batch: int = 4096,
                        **sizing_kwargs) -> Tuple[int, float, NodeSizing]:
    """Derive ``(swap_every_steps, train_step_time_s, sizing)`` from a
    :func:`repro.perf.online.min_nodes_for` cluster sizing.

    The smallest cluster meeting ``target_qps`` trains one global batch
    every ``global_batch / achieved_qps`` seconds; a snapshot may go
    ``freshness_budget_s`` stale before it must be republished, which
    fixes the cadence in whole steps (at least 1).
    """
    check.positive("freshness_budget_s", freshness_budget_s)
    sizing = min_nodes_for(spec, target_qps, **sizing_kwargs)
    if sizing is None:
        raise ValueError(
            f"no cluster size meets {target_qps} qps for {spec.name}")
    step_time_s = global_batch / sizing.achieved_qps
    swap_every = max(1, int(round(freshness_budget_s / step_time_s)))
    return swap_every, step_time_s, sizing


@dataclass(frozen=True)
class CadencePoint:
    """One refresh cadence's row on the staleness curve."""

    swap_every_steps: int        # 0 = never swapped
    num_swaps: int
    staleness_steps_mean: float
    staleness_steps_max: int
    staleness_s_mean: float
    serving_ne: float
    ne_gap: float
    goodput_qps: float
    p99_s: float
    slo_attainment: float
    shed_fraction: float
    shed_during_swap: int

    def row(self) -> List[str]:
        cadence = "never" if self.swap_every_steps == 0 \
            else str(self.swap_every_steps)
        return [cadence, str(self.num_swaps),
                f"{self.staleness_steps_mean:.2f}",
                str(self.staleness_steps_max),
                f"{self.staleness_s_mean * 1e3:.2f}",
                f"{self.serving_ne:.5f}",
                f"{self.ne_gap:+.5f}",
                f"{self.goodput_qps:.0f}",
                f"{self.p99_s * 1e3:.2f}",
                f"{100 * self.slo_attainment:.1f}%",
                f"{100 * self.shed_fraction:.1f}%",
                str(self.shed_during_swap)]


@dataclass
class OnlineReport:
    """The cadence sweep reduced to the curve the benchmark exports."""

    points: List[CadencePoint]
    fresh_ne: float

    ROW_HEADER = ["swap every", "swaps", "stale steps", "max", "stale ms",
                  "serving NE", "NE gap", "goodput qps", "p99 ms",
                  "SLO att.", "shed", "swap-shed"]

    def rows(self) -> List[List[str]]:
        return [p.row() for p in self.points]

    def total_swaps(self) -> int:
        return sum(p.num_swaps for p in self.points)

    def max_shed_during_swap(self) -> int:
        return max(p.shed_during_swap for p in self.points)

    def ne_gap_monotone_in_staleness(self) -> bool:
        """The headline shape: ordering cadences by mean staleness must
        order their NE gaps the same way (stale answers cost quality)."""
        ordered = sorted(self.points,
                         key=lambda p: p.staleness_steps_mean)
        gaps = [p.ne_gap for p in ordered]
        return all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def to_json(self) -> dict:
        return {
            "fresh_ne": self.fresh_ne,
            "ne_gap_monotone_in_staleness":
                self.ne_gap_monotone_in_staleness(),
            "total_swaps": self.total_swaps(),
            "max_shed_during_swap": self.max_shed_during_swap(),
            "points": [dict(p.__dict__) for p in self.points],
        }


def point_from_result(result: CoSimResult) -> CadencePoint:
    """Reduce one co-simulation run to its row on the curve."""
    steps = result.staleness_steps()
    seconds = result.staleness_seconds()
    return CadencePoint(
        swap_every_steps=result.config.swap_every_steps,
        num_swaps=result.num_swaps,
        staleness_steps_mean=float(steps.mean()) if len(steps) else 0.0,
        staleness_steps_max=int(steps.max()) if len(steps) else 0,
        staleness_s_mean=float(seconds.mean()) if len(seconds) else 0.0,
        serving_ne=result.serving_ne(),
        ne_gap=result.ne_gap(),
        goodput_qps=result.report.goodput_qps,
        p99_s=result.report.p99_s,
        slo_attainment=result.report.slo_attainment,
        shed_fraction=result.report.shed_fraction,
        shed_during_swap=result.shed_during_swap)


def run_cadence_sweep(loop_factory: Callable[[], TrainingLoop],
                      cadences: List[int],
                      config: OnlineConfig,
                      policy: Optional[BatchingPolicy] = None,
                      perf: Optional[ServingPerfModel] = None,
                      results_out: Optional[list] = None) -> OnlineReport:
    """Run the same seeded co-simulation once per refresh cadence.

    ``loop_factory`` must build a *fresh* loop (fresh trainer, fresh
    ingestion) each call so every cadence trains the identical
    trajectory; ``config.swap_every_steps`` is overridden per point.
    ``results_out``, if given, receives the raw :class:`CoSimResult` per
    cadence for callers that need more than the reduced rows.
    """
    if not cadences:
        raise ValueError("need at least one cadence")
    points = []
    fresh_ne = None
    for cadence in cadences:
        cfg = OnlineConfig(
            num_steps=config.num_steps, swap_every_steps=cadence,
            train_step_time_s=config.train_step_time_s, qps=config.qps,
            slo_s=config.slo_s, seed=config.seed,
            replicas=config.replicas,
            eval_batch_size=config.eval_batch_size,
            num_requests=config.num_requests,
            freeze_config=config.freeze_config)
        sim = CoSimulation(loop_factory(), cfg, policy=policy, perf=perf)
        result = sim.run()
        points.append(point_from_result(result))
        if results_out is not None:
            results_out.append(result)
        if fresh_ne is None:
            fresh_ne = result.fresh_ne
        elif result.fresh_ne != fresh_ne:  # bitwise: same seed, same runs
            raise RuntimeError(
                "loop_factory is not deterministic: fresh NE differs "
                f"across cadences ({fresh_ne} vs {result.fresh_ne})")
    return OnlineReport(points=points, fresh_ne=fresh_ne)


def render_table(header: List[str], rows: List[List[str]]) -> str:
    """Right-aligned fixed-width table (shared by benches and reports)."""
    widths = [max(len(str(header[c])), *(len(str(r[c])) for r in rows))
              for c in range(len(header))]
    lines = ["  ".join(str(h).rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(str(v).rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)

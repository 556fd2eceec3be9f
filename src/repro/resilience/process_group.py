"""A fault-injecting process group over the simulated collectives.

:class:`FaultyProcessGroup` subclasses
:class:`repro.comms.SimProcessGroup` and intercepts its single
``_execute`` funnel, so every collective — AllReduce, the three
AlltoAll flavours, ReduceScatter, AllGather — passes through
the fault machinery with no per-collective code. For each call it asks
the :class:`repro.resilience.FaultSchedule` which faults fire, then:

* **DELAY** adds the straggler's extra seconds to that rank's modeled
  latency (the synchronous collective finishes at the *max* over ranks,
  so one slow rank stalls everyone — the pathology the paper's ZionEX
  design works around);
* **DROP** and **CORRUPT** burn whole retry windows under the
  :class:`repro.resilience.RetryPolicy` — timeout plus exponential
  backoff per failed attempt — and charge timeout strikes to the
  offending rank when a window is exhausted;
* **CRASH**, or a rank crossing the :class:`HealthTracker` strike
  threshold, raises :class:`repro.resilience.RankFailure` so the
  training loop can run checkpoint recovery.

Numerics are never touched: corruption is detected on a scratch copy
of the faulted rank's send rows (a real bit is flipped and caught,
modeling the link CRC; a rank that sends nothing has nothing to
detect) and the payload that reaches the reduction is pristine. With
an empty schedule the group is bit-identical to ``SimProcessGroup`` and
adds only a cheap health observation per collective.

Everything is published to the ``resilience`` metric scope:
``faults_injected`` (labelled by kind), ``retries``,
``corruptions_detected``, ``timeout_strikes``, ``ranks_dead`` and
``fault_seconds`` (modeled seconds added by faults).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..comms.collectives import rank_rows
from ..comms.process_group import CollectiveResult, SimProcessGroup
from ..comms.quantization import QuantizedCommsConfig
from ..comms.topology import ClusterTopology
from ..obs.metrics import MetricRegistry
from .faults import FaultKind, FaultSchedule, FaultSpec, RankFailure
from .retry import HealthTracker, RetryPolicy

__all__ = ["FaultyProcessGroup", "faulty_process_group_factory"]


class FaultyProcessGroup(SimProcessGroup):
    """``SimProcessGroup`` plus deterministic fault injection.

    Drop-in replacement: same constructor signature plus ``schedule``,
    ``policy`` and ``health`` keywords, so it can be handed to
    ``NeoTrainer(process_group_factory=...)`` (or built via
    :func:`faulty_process_group_factory`). With an empty schedule the
    collectives' outputs, byte accounting and modeled seconds are
    bit-identical to the base class.
    """

    def __init__(self, topology: ClusterTopology,
                 comms_config: Optional[QuantizedCommsConfig] = None,
                 registry: Optional[MetricRegistry] = None,
                 tracer=None, *,
                 schedule: Optional[FaultSchedule] = None,
                 policy: Optional[RetryPolicy] = None,
                 health: Optional[HealthTracker] = None) -> None:
        super().__init__(topology, comms_config, registry, tracer)
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.policy = policy if policy is not None else RetryPolicy()
        self.health = health if health is not None \
            else HealthTracker(topology.world_size)
        if self.health.world_size != topology.world_size:
            raise ValueError(
                f"health tracker sized for {self.health.world_size} ranks, "
                f"topology has {topology.world_size}")
        self._iteration = 0
        self._bind_scope()

    def _bind_scope(self) -> None:
        self._res = self.registry.scope("resilience")

    def instrument(self, tracer=None,
                   registry: Optional[MetricRegistry] = None) -> None:
        super().instrument(tracer, registry)
        if registry is not None:
            self._bind_scope()

    def on_iteration_start(self, step: int) -> None:
        self._iteration = step

    @property
    def iteration(self) -> int:
        """The logical step faults are currently keyed on."""
        return self._iteration

    # ------------------------------------------------------------------
    @staticmethod
    def _detect_corruption(rows: np.ndarray) -> bool:
        """Flip a real bit in a scratch copy of one rank's send rows and
        check the CRC catches it.

        Models an on-the-wire corruption + link-level checksum: the
        corrupted copy must differ from the original payload. The
        payload actually handed to the reduction is never touched.
        """
        if rows.size == 0:
            return False
        scratch = np.array(rows, copy=True)
        scratch.view(np.uint8).reshape(-1)[0] ^= 0x01
        return not np.array_equal(scratch, rows)

    def _apply_fault(self, spec: FaultSpec, name: str,
                     per_rank: List[float], send: np.ndarray,
                     splits: Optional[np.ndarray]) -> None:
        """Fold one firing fault into the per-rank latency vector."""
        self._res.counter("faults_injected", kind=spec.kind.value).inc(1)
        if spec.kind is FaultKind.CRASH:
            self.health.mark_dead(spec.rank)
            self._res.counter("ranks_dead").inc(1)
            raise RankFailure(spec.rank, self._iteration, name)
        if spec.kind is FaultKind.DELAY:
            per_rank[spec.rank] += spec.delay_seconds
            return
        # DROP / CORRUPT: spec.failures attempts fail, then one succeeds
        if spec.kind is FaultKind.CORRUPT:
            # a stack's row per rank, or the rank's AlltoAll send rows
            rows = send[spec.rank] if splits is None else \
                rank_rows(send, splits.sum(axis=1), spec.rank)
            if self._detect_corruption(rows):
                self._res.counter("corruptions_detected").inc(spec.failures)
        self._res.counter("retries").inc(spec.failures)
        per_rank[spec.rank] += self.policy.penalty(spec.failures)
        strikes = self.policy.strikes(spec.failures)
        if strikes:
            self._res.counter("timeout_strikes").inc(strikes)
            if self.health.record_timeout(spec.rank, strikes):
                self._res.counter("ranks_dead").inc(1)
                raise RankFailure(spec.rank, self._iteration, name)

    def _execute(self, name: str, send: np.ndarray, total_wire: float,
                 seconds: float, fn: Callable[[], np.ndarray],
                 splits: Optional[np.ndarray] = None) -> CollectiveResult:
        if not self.schedule.pending:
            # zero-fault fast path: bit-identical to SimProcessGroup,
            # only a health observation on top
            self.health.observe_uniform(seconds)
            return super()._execute(name, send, total_wire, seconds, fn,
                                    splits)

        faults = self.schedule.take(self._iteration, name)
        if not faults:
            self.health.observe_uniform(seconds)
            return super()._execute(name, send, total_wire, seconds, fn,
                                    splits)

        per_rank = [seconds] * self.world_size
        for spec in faults:
            self._apply_fault(spec, name, per_rank, send, splits)
        # a synchronous collective completes when its slowest rank does
        effective = max(per_rank)
        self._res.counter("fault_seconds").inc(effective - seconds)
        self.health.observe(per_rank)
        result = super()._execute(name, send, total_wire, effective, fn,
                                  splits)
        result.per_rank_seconds = list(per_rank)
        return result


def faulty_process_group_factory(
        schedule: Optional[FaultSchedule] = None,
        policy: Optional[RetryPolicy] = None,
        dead_after: int = 2,
        straggler_factor: float = 2.0,
) -> Callable[..., FaultyProcessGroup]:
    """A ``process_group_factory`` for ``NeoTrainer`` with faults baked in.

    The returned callable matches the trainer's factory signature
    ``(topology, comms_config, registry=..., tracer=...)``. The
    *schedule* object is shared across every group the factory builds,
    so faults consumed before a recovery do not re-fire in the replayed
    iterations of the post-recovery trainer; the health tracker is
    fresh per group (a replacement host starts with a clean record).
    """
    shared = schedule if schedule is not None else FaultSchedule()

    def factory(topology: ClusterTopology,
                comms_config: Optional[QuantizedCommsConfig] = None,
                registry: Optional[MetricRegistry] = None,
                tracer=None) -> FaultyProcessGroup:
        return FaultyProcessGroup(
            topology, comms_config, registry=registry, tracer=tracer,
            schedule=shared, policy=policy,
            health=HealthTracker(topology.world_size,
                                 straggler_factor=straggler_factor,
                                 dead_after=dead_after))

    return factory

"""Deterministic virtual-time request routing across fleet replicas.

The router is the fleet's admission plane: every request is assigned to
exactly one replica *at its arrival time*, using only information a real
front-end would have (the arrival clock and a per-replica backlog
estimate), and the assignment is a pure function of (trace, policy,
seed). Three classic policies:

* ``round_robin`` — cyclic assignment; perfectly balanced for
  homogeneous replicas and uniform requests, oblivious otherwise;
* ``least_loaded`` — route to the replica with the smallest estimated
  backlog (outstanding predicted work in seconds). Backlog is tracked
  with the same perf-model service predictions the batcher prices
  dispatches with, so a slower `PlatformSpec` replica *looks* slower to
  the router and receives proportionally less traffic;
* ``power_of_two`` — sample two distinct replicas from a seeded rng
  sub-stream and route to the less loaded. The classic
  balls-into-bins result: two choices collapse the max/mean imbalance
  of random single-choice from Θ(log n / log log n) to Θ(log log n),
  at 2 backlog probes per request instead of N.

Backlog bookkeeping is an O(1)-per-request fluid approximation:
``busy_until[r] = max(busy_until[r], t) + predicted_service`` — the
replica's micro-batcher will actually coalesce queued requests and
finish earlier, but the *relative* ordering of replica backlogs (all
estimated the same way) is what load balancing needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import check
from ..check import service_seconds
from ..serving.batcher import InferenceRequest, RequestTrace
from ..serving.loadgen import ROUTER_STREAM

__all__ = ["ROUTING_POLICIES", "RouterPolicy", "RoutingPlan", "FleetRouter"]

ROUTING_POLICIES = ("round_robin", "least_loaded", "power_of_two")


@dataclass(frozen=True)
class RouterPolicy:
    """Routing policy knob: the algorithm and its rng sub-stream seed."""

    kind: str = "power_of_two"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ROUTING_POLICIES:
            raise ValueError(f"kind must be one of {ROUTING_POLICIES}, "
                             f"got {self.kind!r}")
        check.count("seed", self.seed, low=0)


@dataclass
class RoutingPlan:
    """The complete assignment of one trace onto replica sub-traces.

    ``assignments[i]`` is replica ``i``'s sub-trace (a
    :class:`RequestTrace` over the routed trace's stores) in arrival order
    (indexed by *fleet* replica id, inactive replicas get an empty one);
    ``replica[i]`` is the replica id of the routed trace's request ``i``.
    Backlog diagnostics are the router's own fluid estimates, recorded
    for the imbalance tests and the report.
    """

    assignments: List[RequestTrace]
    replica: np.ndarray
    final_backlog_s: List[float]

    @property
    def counts(self) -> List[int]:
        return [len(a) for a in self.assignments]

    def imbalance(self, active: Optional[Sequence[int]] = None) -> float:
        """max/mean assigned-request ratio over the replicas that
        received the trace (1.0 = perfectly balanced)."""
        counts = [self.counts[i] for i in active] if active is not None \
            else list(self.counts)
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 1.0


class FleetRouter:
    """Routes an arrival trace across replicas under a
    :class:`RouterPolicy` (see module docstring for the policies)."""

    def __init__(self, policy: Optional[RouterPolicy] = None) -> None:
        self.policy = policy if policy is not None else RouterPolicy()

    def route(self, trace: RequestTrace,
              est_service: Sequence[Callable[[InferenceRequest], float]],
              active: Optional[Sequence[int]] = None) -> RoutingPlan:
        """Assign the :class:`RequestTrace` ``trace``, in its arrival
        order, over the ``active`` subset of replicas.

        ``est_service[r]`` predicts one request's service seconds on
        replica ``r`` — the fleet wires in each replica's own
        :class:`~repro.serving.server.ServingPerfModel`, which is how
        per-replica platform placement reaches the router. It is called
        once per request, on the chosen replica's estimator, with the
        trace's :class:`InferenceRequest` view, and must return a finite
        value >= 0.
        """
        num_replicas = len(est_service)
        if num_replicas < 1:
            raise ValueError("need at least one replica")
        active = list(range(num_replicas)) if active is None else list(active)
        if not active:
            raise ValueError("need at least one active replica")
        if any(not 0 <= a < num_replicas for a in active):
            raise ValueError(f"active indices {active} out of range for "
                             f"{num_replicas} replicas")
        if len(set(active)) != len(active):
            raise ValueError("active indices must be unique")
        arrival = trace.arrival_s.tolist()
        chosen_of: List[int] = []
        busy_until = [0.0] * num_replicas
        kind = self.policy.kind
        n_active = len(active)
        if kind == "power_of_two" and n_active > 1:
            rng = np.random.default_rng((self.policy.seed, ROUTER_STREAM))
            first = rng.integers(0, n_active, size=len(trace))
            # distinct second choice via the shift trick
            second = (first + 1
                      + rng.integers(0, n_active - 1, size=len(trace))) \
                % n_active
        for i, t in enumerate(arrival):
            if kind == "round_robin" or n_active == 1:
                chosen = active[i % n_active]
            elif kind == "least_loaded":
                chosen = min(active,
                             key=lambda a: (max(busy_until[a] - t, 0.0), a))
            else:  # power_of_two
                a, b = active[int(first[i])], active[int(second[i])]
                backlog_a = max(busy_until[a] - t, 0.0)
                backlog_b = max(busy_until[b] - t, 0.0)
                # ties go to the first sample — itself uniform — so an
                # idle fleet spreads instead of piling onto low indices
                chosen = b if backlog_b < backlog_a else a
            chosen_of.append(chosen)
            busy_until[chosen] = max(busy_until[chosen], t) \
                + service_seconds(est_service[chosen](trace[i]))
        replica = np.asarray(chosen_of, dtype=np.int64)
        return RoutingPlan(
            assignments=[trace[replica == r] for r in range(num_replicas)],
            replica=replica, final_backlog_s=busy_until)

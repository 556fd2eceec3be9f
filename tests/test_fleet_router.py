"""Fleet router tests: conservation, determinism, balance.

The hypothesis suite is the routing contract: over arbitrary arrival
traces, policies and replica counts, every request lands on exactly one
replica (conservation), the assignment is a pure function of
(trace, policy, seed) (bitwise determinism), and power-of-two-choices
keeps the max/mean load imbalance bounded — the balls-into-bins
property that justifies paying only two backlog probes per request.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (ROUTING_POLICIES, FleetRouter, RouterPolicy,
                         RoutingPlan)

from .helpers import single_sample_request as req
from .helpers import trace_of


def const_estimators(num_replicas, seconds=1e-3):
    return [(lambda r, s=seconds: s) for _ in range(num_replicas)]


def uniform_trace(n, gap_s=1e-3):
    return trace_of([req(i, i * gap_s) for i in range(n)])


class TestValidation:
    def test_policy_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RouterPolicy(kind="random")
        for kind in ROUTING_POLICIES:
            RouterPolicy(kind=kind)

    def test_route_rejects_bad_replica_sets(self):
        router = FleetRouter()
        with pytest.raises(ValueError):
            router.route(uniform_trace(2), [])
        est = const_estimators(3)
        with pytest.raises(ValueError):
            router.route(uniform_trace(2), est, active=[])
        with pytest.raises(ValueError):
            router.route(uniform_trace(2), est, active=[0, 3])
        with pytest.raises(ValueError):
            router.route(uniform_trace(2), est, active=[1, 1])


class TestRoundRobin:
    def test_cyclic_assignment_in_arrival_order(self):
        router = FleetRouter(RouterPolicy(kind="round_robin"))
        plan = router.route(uniform_trace(10), const_estimators(3))
        assert plan.counts == [4, 3, 3]
        assert [r.request_id for r in plan.assignments[0]] == [0, 3, 6, 9]
        assert plan.replica.tolist() == [0, 1, 2] * 3 + [0]
        assert plan.imbalance() == pytest.approx(4 / (10 / 3))

    def test_arrival_order_not_input_order(self):
        router = FleetRouter(RouterPolicy(kind="round_robin"))
        trace = trace_of([req(i, i * 1e-3) for i in reversed(range(6))])
        plan = router.route(trace, const_estimators(2))
        # sorted by arrival first: evens to replica 0, odds to replica 1
        assert [r.request_id for r in plan.assignments[0]] == [0, 2, 4]

    def test_active_subset_only(self):
        router = FleetRouter(RouterPolicy(kind="round_robin"))
        plan = router.route(uniform_trace(9), const_estimators(4),
                            active=[1, 3])
        assert plan.counts[0] == 0 and plan.counts[2] == 0
        assert plan.counts[1] + plan.counts[3] == 9

    def test_single_active_replica_gets_everything(self):
        for kind in ROUTING_POLICIES:
            router = FleetRouter(RouterPolicy(kind=kind))
            plan = router.route(uniform_trace(7), const_estimators(4),
                                active=[2])
            assert plan.counts == [0, 0, 7, 0]


class TestLeastLoaded:
    def test_slow_replica_receives_less_under_load(self):
        router = FleetRouter(RouterPolicy(kind="least_loaded"))
        # overloaded fleet: per-request work far exceeds the arrival gap,
        # so backlogs grow and the 4x-slower replica 1 looks 4x costlier
        est = [lambda r: 1e-3, lambda r: 4e-3]
        plan = router.route(uniform_trace(400, gap_s=1e-4), est)
        assert plan.counts[0] > 2 * plan.counts[1]
        assert sum(plan.counts) == 400

    def test_final_backlogs_roughly_level_under_overload(self):
        router = FleetRouter(RouterPolicy(kind="least_loaded"))
        plan = router.route(uniform_trace(300, gap_s=1e-4),
                            const_estimators(3, 2e-3))
        lo, hi = min(plan.final_backlog_s), max(plan.final_backlog_s)
        assert hi - lo <= 2 * 2e-3  # within one service quantum per replica


class TestPowerOfTwo:
    def test_light_load_spreads_instead_of_piling_low(self):
        # with zero backlog everywhere every probe ties; the tie-break
        # must fall to the uniform first sample, not the lowest index
        router = FleetRouter(RouterPolicy(kind="power_of_two", seed=0))
        plan = router.route(uniform_trace(400, gap_s=1.0),
                            const_estimators(4, 1e-6))
        assert min(plan.counts) > 0
        assert plan.imbalance() < 1.35

    def test_seed_changes_assignment(self):
        est = const_estimators(4)
        trace = uniform_trace(200)
        a = FleetRouter(RouterPolicy(kind="power_of_two", seed=0)) \
            .route(trace, est)
        b = FleetRouter(RouterPolicy(kind="power_of_two", seed=1)) \
            .route(trace, est)
        assert a.replica.tolist() != b.replica.tolist()


class TestRoutingPlan:
    def test_imbalance_degenerate_cases(self):
        plan = RoutingPlan(assignments=[[], []],
                           replica=np.zeros(0, dtype=np.int64),
                           final_backlog_s=[0.0, 0.0])
        assert plan.imbalance() == 1.0
        plan = FleetRouter(RouterPolicy(kind="round_robin")).route(
            uniform_trace(8), const_estimators(2))
        assert plan.imbalance() == 1.0
        assert plan.imbalance(active=[0]) == 1.0


class TestRoutingProperties:
    """The hypothesis contract over all policies."""

    @given(kind=st.sampled_from(ROUTING_POLICIES),
           num_replicas=st.integers(min_value=1, max_value=5),
           arrivals=st.lists(st.floats(min_value=0.0, max_value=1.0,
                                       allow_nan=False),
                             min_size=1, max_size=60),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_every_request_routed_exactly_once(self, kind, num_replicas,
                                               arrivals, seed):
        trace = trace_of([req(i, t) for i, t in enumerate(arrivals)])
        router = FleetRouter(RouterPolicy(kind=kind, seed=seed))
        plan = router.route(trace, const_estimators(num_replicas))
        routed = sorted(r.request_id for a in plan.assignments for r in a)
        assert routed == list(range(len(trace)))
        assert len(plan.replica) == len(trace)
        for rep, assigned in enumerate(plan.assignments):
            assert assigned.request_id.tolist() \
                == trace.request_id[plan.replica == rep].tolist()
        assert sum(plan.counts) == len(trace)

    @given(kind=st.sampled_from(ROUTING_POLICIES),
           num_replicas=st.integers(min_value=2, max_value=4),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_bitwise_determinism(self, kind, num_replicas, seed):
        trace = uniform_trace(50)
        est = const_estimators(num_replicas)
        a = FleetRouter(RouterPolicy(kind=kind, seed=seed)).route(trace, est)
        b = FleetRouter(RouterPolicy(kind=kind, seed=seed)).route(trace, est)
        assert a.replica.tolist() == b.replica.tolist()
        assert a.counts == b.counts
        assert a.final_backlog_s == b.final_backlog_s

    @given(num_replicas=st.integers(min_value=2, max_value=8),
           seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_imbalance_bounded(self, num_replicas, seed):
        # saturated fleet (service >> arrival gap x replicas): the two
        # backlog probes differentiate and the assignment stays within a
        # modest factor of perfectly balanced — far from the
        # Θ(log n / log log n) max of random single choice
        n = 60 * num_replicas
        router = FleetRouter(RouterPolicy(kind="power_of_two", seed=seed))
        plan = router.route(uniform_trace(n, gap_s=1e-5),
                            const_estimators(num_replicas, 1e-3))
        assert plan.imbalance() <= 1.30
        assert min(plan.counts) > 0

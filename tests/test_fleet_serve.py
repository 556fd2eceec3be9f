"""ServingFleet tests: parity with the single server, conservation,
heterogeneous placement and per-replica observability.

The anchor invariant is bitwise parity: an N=1 round-robin fleet is the
single-server load test — same trace, same schedule, same report, bit
for bit. Everything the fleet adds (routing, merging, per-replica
naming) must vanish exactly at N=1.
"""

import numpy as np
import pytest

from repro.fleet import FleetTraffic, RouterPolicy, ServingFleet
from repro.obs.metrics import MetricRegistry
from repro.serving import (BatchingPolicy, InferenceServer, ServingPerfModel,
                           run_load_test)

from .helpers import tiny_system


def make_fleet(sys, num_replicas, kind="round_robin", policy=None,
               perfs=None, metrics=None, overhead_s=1e-3):
    if perfs is None:
        perfs = [ServingPerfModel(overhead_s=overhead_s)
                 for _ in range(num_replicas)]
    return ServingFleet(sys.servable, policy=policy or BatchingPolicy(),
                        perfs=perfs, router=RouterPolicy(kind=kind),
                        metrics=metrics)


class TestSingleReplicaParity:
    def test_n1_round_robin_reproduces_the_load_test_bitwise(self):
        sys = tiny_system()
        qps, n, slo = 600.0, 150, 5e-3
        single = run_load_test(
            InferenceServer(sys.servable, BatchingPolicy(),
                            ServingPerfModel(overhead_s=1e-3)),
            sys.dataset, qps=qps, num_requests=n, slo_s=slo, seed=2)
        traffic = FleetTraffic(mean_qps=qps, duration_s=n / qps, seed=2)
        assert traffic.num_requests == n
        fleet = make_fleet(sys, 1)
        result = fleet.serve(traffic.requests(sys.dataset), slo_s=slo,
                             offered_qps=qps)
        assert result.merged.without_samples() == single
        assert result.num_replicas == 1
        assert result.routing.counts == [n]

    def test_every_policy_collapses_at_n1(self):
        sys = tiny_system()
        traffic = FleetTraffic(mean_qps=500.0, duration_s=0.1, seed=0)
        requests = traffic.requests(sys.dataset)
        reports = [
            make_fleet(sys, 1, kind=kind)
            .serve(requests, slo_s=5e-3, offered_qps=500.0).merged
            for kind in ("round_robin", "least_loaded", "power_of_two")]
        assert reports[0] == reports[1] == reports[2]


class TestFleetServe:
    def test_conservation_across_replicas(self):
        sys = tiny_system()
        fleet = make_fleet(
            sys, 3, kind="power_of_two",
            policy=BatchingPolicy(max_batch_size=4, max_queue_depth=8),
            overhead_s=5e-3)
        requests = FleetTraffic(mean_qps=2000.0, duration_s=0.1,
                                seed=1).requests(sys.dataset)
        result = fleet.serve(requests, slo_s=5e-3, offered_qps=2000.0)
        merged = result.merged
        assert merged.num_offered == len(requests)
        assert merged.num_completed + merged.num_shed == len(requests)
        assert sum(r.num_offered for r in result.per_replica) \
            == len(requests)
        # replica shares of the offered rate sum back to the fleet rate
        assert sum(r.offered_qps for r in result.per_replica) \
            == pytest.approx(2000.0)
        assert len(merged.samples_s) == merged.num_completed

    def test_fleet_is_deterministic(self):
        sys = tiny_system()
        requests = FleetTraffic(mean_qps=1000.0, duration_s=0.1,
                                seed=3).requests(sys.dataset)
        a = make_fleet(sys, 4, kind="power_of_two") \
            .serve(requests, slo_s=5e-3, offered_qps=1000.0)
        b = make_fleet(sys, 4, kind="power_of_two") \
            .serve(requests, slo_s=5e-3, offered_qps=1000.0)
        assert a.merged == b.merged
        assert a.routing.replica.tolist() == b.routing.replica.tolist()

    def test_active_subset_leaves_inactive_replicas_idle(self):
        sys = tiny_system()
        fleet = make_fleet(sys, 4)
        requests = FleetTraffic(mean_qps=400.0, duration_s=0.1,
                                seed=0).requests(sys.dataset)
        result = fleet.serve(requests, slo_s=5e-3, offered_qps=400.0,
                             active=[0, 2])
        assert result.per_replica[1].num_offered == 0
        assert result.per_replica[3].num_offered == 0
        assert result.routing.counts[1] == result.routing.counts[3] == 0
        assert result.merged.num_offered == len(requests)

    def test_keep_samples_false_strips_samples(self):
        sys = tiny_system()
        fleet = make_fleet(sys, 2)
        requests = FleetTraffic(mean_qps=300.0, duration_s=0.05,
                                seed=0).requests(sys.dataset)
        result = fleet.serve(requests, slo_s=5e-3, offered_qps=300.0,
                             keep_samples=False)
        assert result.merged.samples_s is None
        assert all(r.samples_s is None for r in result.per_replica)

    def test_responses_match_the_single_server(self):
        # routing moves requests between replicas of the *same* frozen
        # model: every response must be identical to serving alone
        sys = tiny_system()
        requests = FleetTraffic(mean_qps=300.0, duration_s=0.05,
                                seed=5).requests(sys.dataset)
        fleet = make_fleet(sys, 3, kind="power_of_two")
        result = fleet.serve(requests, slo_s=5e-3, offered_qps=300.0)
        solo = InferenceServer(sys.servable, BatchingPolicy(),
                               ServingPerfModel(overhead_s=1e-3)) \
            .serve(requests)
        fleet_responses = {}
        for res in result.results:
            fleet_responses.update(res.responses)
        assert set(fleet_responses) == set(solo.responses)
        for rid, resp in solo.responses.items():
            np.testing.assert_allclose(fleet_responses[rid], resp,
                                       rtol=1e-6, atol=1e-7)


class TestHeterogeneousFleet:
    def test_least_loaded_favors_the_faster_platform(self):
        sys = tiny_system()
        perfs = [ServingPerfModel(overhead_s=1e-3),
                 ServingPerfModel(overhead_s=8e-3)]
        fleet = make_fleet(sys, 2, kind="least_loaded", perfs=perfs)
        requests = FleetTraffic(mean_qps=3000.0, duration_s=0.2,
                                seed=0).requests(sys.dataset)
        result = fleet.serve(requests, slo_s=0.05, offered_qps=3000.0)
        counts = result.routing.counts
        assert counts[0] > 2 * counts[1] > 0

    def test_capacity_sums_active_replicas(self):
        sys = tiny_system()
        perfs = [ServingPerfModel(overhead_s=1e-3),
                 ServingPerfModel(overhead_s=1e-3)]
        fleet = make_fleet(sys, 2, perfs=perfs)
        both = fleet.capacity_qps(batch_size=16, nnz_per_sample=9.0)
        one = fleet.capacity_qps(batch_size=16, nnz_per_sample=9.0,
                                 active=[0])
        assert both == pytest.approx(2 * one)


class TestObservability:
    def test_replicas_scope_their_metrics(self):
        sys = tiny_system()
        registry = MetricRegistry()
        fleet = make_fleet(sys, 2, metrics=registry)
        requests = FleetTraffic(mean_qps=500.0, duration_s=0.1,
                                seed=0).requests(sys.dataset)
        fleet.serve(requests, slo_s=5e-3, offered_qps=500.0)
        names = {m.name for m in registry.metrics()}
        assert "replica0.serving.requests" in names
        assert "replica1.serving.requests" in names
        # an anonymous (unnamed) server still uses the bare prefix
        assert not any(n.startswith("serving.") for n in names)


class TestFleetValidation:
    def test_replica_count_conflicts(self):
        sys = tiny_system()
        with pytest.raises(ValueError):
            ServingFleet(sys.servable, num_replicas=3,
                         perfs=[ServingPerfModel(), ServingPerfModel()])
        with pytest.raises(ValueError):
            ServingFleet(sys.servable, num_replicas=0)

    def test_serve_rejects_bad_slo(self):
        sys = tiny_system()
        fleet = make_fleet(sys, 1)
        with pytest.raises(ValueError):
            fleet.serve([], slo_s=0.0, offered_qps=1.0)

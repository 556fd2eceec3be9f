"""Tests for multi-tenant serving (`repro.fleet.tenancy` + the
multi-tenant batcher).

Core guarantees: per-tenant batches never mix models, admission is
evaluated against a tenant's own queue only, the shared timeline is the
one head-of-line channel between tenants, replica partitioning is exact
largest-remainder apportionment, and every request in a fleet serve is
either completed or shed — never lost.
"""

import numpy as np
import pytest

from repro.fleet import (FleetTenancyReport, MultiTenantFleet,
                         MultiTenantServer, TenantSpec, partition_replicas)
from repro.models import DLRM, zoo_config
from repro.obs import MetricRegistry
from repro.serving import (BatchingPolicy, InferenceRequest, InferenceServer,
                           MultiTenantBatcher, ServeResult, freeze)

from .helpers import tiny_config, tiny_dataset, trace_of


def make_request(i, t, tenant, batch):
    return InferenceRequest(request_id=i, arrival_s=t, batch=batch,
                            tenant=tenant)


def make_tenants(slo_small=0.01, slo_large=0.05):
    cfg_a = zoo_config("small")
    cfg_b = zoo_config("medium")
    model_a = freeze(DLRM(cfg_a, seed=0))
    model_b = freeze(DLRM(cfg_b, seed=1))
    a = TenantSpec(name="a", model=model_a, slo_s=slo_small,
                   traffic_share=0.7,
                   policy=BatchingPolicy(max_batch_size=8,
                                         max_wait_s=0.002))
    b = TenantSpec(name="b", model=model_b, slo_s=slo_large,
                   traffic_share=0.3,
                   policy=BatchingPolicy(max_batch_size=8,
                                         max_wait_s=0.004))
    return [a, b], cfg_a, cfg_b


def make_trace(cfg_a, cfg_b, n_a=60, n_b=30, gap=0.001):
    ds_a = tiny_dataset(cfg_a, seed=0)
    ds_b = tiny_dataset(cfg_b, seed=1)
    bulk_a = ds_a.batch(n_a, 0)
    bulk_b = ds_b.batch(n_b, 0)
    reqs = [make_request(i, i * gap, "a", bulk_a.slice(i, i + 1))
            for i in range(n_a)]
    reqs += [make_request(1000 + i, i * gap * 2, "b",
                          bulk_b.slice(i, i + 1)) for i in range(n_b)]
    return trace_of(reqs)


class TestPartitionReplicas:
    def test_exact_apportionment(self):
        out = partition_replicas({"a": 1.0, "b": 1.0, "c": 2.0}, 8)
        assert out == {"a": 2, "b": 2, "c": 4}
        assert sum(out.values()) == 8

    def test_floor_of_one_replica(self):
        out = partition_replicas({"a": 100.0, "b": 0.001}, 4)
        assert out["b"] >= 1
        assert sum(out.values()) == 4

    def test_deterministic_tie_break(self):
        a = partition_replicas({"x": 1.0, "y": 1.0, "z": 1.0}, 5)
        b = partition_replicas({"x": 1.0, "y": 1.0, "z": 1.0}, 5)
        assert a == b
        assert sum(a.values()) == 5

    def test_too_few_replicas_raises(self):
        with pytest.raises(ValueError):
            partition_replicas({"a": 1.0, "b": 1.0}, 1)

    def test_nonpositive_weight_raises(self):
        with pytest.raises(ValueError):
            partition_replicas({"a": 0.0}, 2)


class TestTenantSpec:
    def test_validation(self):
        model = freeze(DLRM(zoo_config("small"), seed=0))
        with pytest.raises(ValueError):
            TenantSpec(name="", model=model, slo_s=0.01)
        with pytest.raises(ValueError):
            TenantSpec(name="t", model=model, slo_s=0.0)
        with pytest.raises(ValueError):
            TenantSpec(name="t", model=model, slo_s=0.01,
                       traffic_share=0.0)


class TestMultiTenantBatcher:
    def _reqs(self, cfg, spec):
        ds = tiny_dataset(cfg, seed=0)
        bulk = ds.batch(12, 0)
        return [make_request(i, i * 0.001, spec,
                             bulk.slice(i % 12, i % 12 + 1))
                for i in range(12)]

    def test_batches_never_mix_tenants(self):
        cfg = tiny_config(2, 32, 8)
        pols = {"a": BatchingPolicy(max_batch_size=4, max_wait_s=0.002),
                "b": BatchingPolicy(max_batch_size=2, max_wait_s=0.001)}
        reqs = [r for i, r in enumerate(self._reqs(cfg, "a"))]
        reqs = [InferenceRequest(request_id=r.request_id,
                                 arrival_s=r.arrival_s, batch=r.batch,
                                 tenant="a" if r.request_id % 2 else "b")
                for r in reqs]
        plans = MultiTenantBatcher(pols).plan(
            trace_of(reqs), lambda tenant, batch_size, nnz: 0.0005)
        for tenant, plan in plans.items():
            for b in plan.batches:
                assert all(r.tenant == tenant for r in b.requests)

    def test_conservation_and_determinism(self):
        cfg = tiny_config(2, 32, 8)
        pols = {"a": BatchingPolicy(max_batch_size=4, max_wait_s=0.002)}
        reqs = trace_of(self._reqs(cfg, "a"))
        svc = lambda tenant, batch_size, nnz: 0.0005 * batch_size
        p1 = MultiTenantBatcher(pols).plan(reqs, svc)
        p2 = MultiTenantBatcher(pols).plan(reqs, svc)
        done = sum(len(b.requests) for b in p1["a"].batches)
        assert done + len(p1["a"].shed_index) == len(reqs)
        assert [b.dispatch_s for b in p1["a"].batches] == \
            [b.dispatch_s for b in p2["a"].batches]

    def test_shared_timeline_blocks_other_tenant(self):
        """A heavy tenant's dispatch delays the light tenant's batch
        past its own trigger — the head-of-line signature."""
        cfg = tiny_config(2, 32, 8)
        pols = {"heavy": BatchingPolicy(max_batch_size=4,
                                        max_wait_s=0.0001),
                "light": BatchingPolicy(max_batch_size=4,
                                        max_wait_s=0.0001)}
        ds = tiny_dataset(cfg, seed=0)
        bulk = ds.batch(8, 0)
        reqs = [make_request(0, 0.0, "heavy", bulk.slice(0, 1)),
                make_request(1, 0.00005, "light", bulk.slice(1, 2))]
        svc = lambda tenant, batch_size, nnz: \
            0.1 if tenant == "heavy" else 0.001
        plans = MultiTenantBatcher(pols).plan(trace_of(reqs), svc)
        light = plans["light"].batches[0]
        # trigger was arrival+max_wait = 0.00015; dispatch waited for
        # the heavy batch to clear the shared server
        assert light.dispatch_s >= plans["heavy"].batches[0].completion_s

    def test_admission_sees_own_queue_only(self):
        """Tenant b's depth-based shedding is untouched by a's backlog."""
        cfg = tiny_config(2, 32, 8)
        pols = {"a": BatchingPolicy(max_batch_size=64, max_wait_s=1.0,
                                    max_queue_depth=1000),
                "b": BatchingPolicy(max_batch_size=64, max_wait_s=1.0,
                                    max_queue_depth=2)}
        ds = tiny_dataset(cfg, seed=0)
        bulk = ds.batch(16, 0)
        reqs = [make_request(i, 0.0001 * i, "a", bulk.slice(0, 1))
                for i in range(10)]
        reqs += [make_request(100 + i, 0.0001 * i, "b", bulk.slice(1, 2))
                 for i in range(5)]
        plans = MultiTenantBatcher(pols).plan(
            trace_of(reqs), lambda tenant, batch_size, nnz: 0.001)
        # b sheds beyond its own depth of 2 even though a's queue is 10
        assert len(plans["b"].shed_index) == 3
        assert len(plans["a"].shed_index) == 0

    def test_unknown_and_missing_tenant_raise(self):
        cfg = tiny_config(2, 32, 8)
        pols = {"a": BatchingPolicy()}
        ds = tiny_dataset(cfg, seed=0)
        bulk = ds.batch(2, 0)
        with pytest.raises(ValueError, match="unknown tenant"):
            MultiTenantBatcher(pols).plan(
                trace_of([make_request(0, 0.0, "zzz", bulk.slice(0, 1))]),
                lambda t, b, z: 0.001)
        with pytest.raises(ValueError, match="unknown tenant"):
            MultiTenantBatcher(pols).plan(
                trace_of([InferenceRequest(request_id=0, arrival_s=0.0,
                                           batch=bulk.slice(0, 1))]),
                lambda t, b, z: 0.001)

    def test_empty_policies_raise(self):
        with pytest.raises(ValueError):
            MultiTenantBatcher({})


class TestMultiTenantServer:
    def test_responses_match_single_model_forward(self):
        tenants, cfg_a, cfg_b = make_tenants()
        server = MultiTenantServer(tenants)
        reqs = make_trace(cfg_a, cfg_b, n_a=10, n_b=6)
        results = server.serve(reqs)
        model_a = tenants[0].model
        for rid, probs in results["a"].responses.items():
            r = next(r for r in reqs if r.request_id == rid)
            np.testing.assert_array_equal(probs,
                                          model_a.predict(r.batch))

    def test_all_requests_accounted(self):
        tenants, cfg_a, cfg_b = make_tenants()
        server = MultiTenantServer(tenants)
        reqs = make_trace(cfg_a, cfg_b)
        results = server.serve(reqs)
        n = sum(r.num_completed + r.num_shed for r in results.values())
        assert n == len(reqs)

    def test_metric_catalogue_matches_single_model_server(self):
        """Both servers record through one executor: every tenant scope
        carries exactly the series a single-model server's scope does."""
        tenants, cfg_a, cfg_b = make_tenants()
        reqs = make_trace(cfg_a, cfg_b, n_a=20, n_b=10)
        solo = MetricRegistry()
        InferenceServer(tenants[0].model, tenants[0].policy,
                        metrics=solo).serve(reqs[reqs.tenant == "a"])
        catalogue = set(solo.snapshot("serving."))
        assert {"serving.requests", "serving.samples", "serving.batch_size",
                "serving.latency_s"} <= catalogue
        shared = MetricRegistry()
        MultiTenantServer(tenants, metrics=shared,
                          name="replica0").serve(reqs)
        for tenant, offered in (("a", 20), ("b", 10)):
            prefix = f"replica0.{tenant}.serving."
            snap = shared.snapshot(prefix)
            assert {"serving." + key.removeprefix(prefix)
                    for key in snap} == catalogue
            assert snap[prefix + "requests"] == offered
            assert snap[prefix + "completed"] + snap[prefix + "shed"] \
                == offered
            assert snap[prefix + "latency_s"]["count"] \
                == snap[prefix + "completed"]

    def test_one_tenant_server_is_the_single_model_server(self):
        """Alone on a replica a tenant sees congestion exactly 1.0, so
        schedule, answers and every metric value equal the single-model
        server's on the same (tenant-tagged) trace."""
        tenants, cfg_a, cfg_b = make_tenants()
        trace = make_trace(cfg_a, cfg_b)
        reqs = trace[trace.tenant == "a"]
        solo_metrics, shared_metrics = MetricRegistry(), MetricRegistry()
        solo = InferenceServer(tenants[0].model, tenants[0].policy,
                               metrics=solo_metrics).serve(reqs)
        server = MultiTenantServer(tenants[:1], metrics=shared_metrics)
        assert server.congestion("a") == 1.0
        shared = server.serve(reqs)["a"]
        for name in ServeResult.COLUMNS + ("shed_ids",):
            assert getattr(shared, name).tobytes() \
                == getattr(solo, name).tobytes(), name
        for rid, probs in solo.responses.items():
            np.testing.assert_array_equal(shared.responses[rid], probs)
        assert {key.removeprefix("a."): value for key, value
                in shared_metrics.snapshot().items()} \
            == solo_metrics.snapshot()

    def test_congestion_at_least_one(self):
        tenants, _, _ = make_tenants()
        server = MultiTenantServer(tenants)
        for t in ("a", "b"):
            assert server.congestion(t) >= 1.0

    def test_duplicate_tenant_names_raise(self):
        tenants, _, _ = make_tenants()
        with pytest.raises(ValueError):
            MultiTenantServer([tenants[0], tenants[0]])


class TestMultiTenantFleet:
    def test_partitioned_covers_all_replicas(self):
        tenants, cfg_a, cfg_b = make_tenants()
        fleet = MultiTenantFleet(tenants, num_replicas=4,
                                 mode="partitioned")
        assert sum(fleet.partition.values()) == 4
        assert all(v >= 1 for v in fleet.partition.values())

    @pytest.mark.parametrize("mode", ["partitioned", "shared"])
    def test_serve_reports_every_tenant(self, mode):
        tenants, cfg_a, cfg_b = make_tenants()
        fleet = MultiTenantFleet(tenants, num_replicas=4, mode=mode)
        reqs = make_trace(cfg_a, cfg_b)
        report = fleet.serve(reqs, offered_qps={"a": 1000.0, "b": 500.0})
        assert isinstance(report, FleetTenancyReport)
        assert set(report.per_tenant) == {"a", "b"}
        total = sum(s.report.num_completed + s.report.num_shed
                    for s in report.per_tenant.values())
        assert total == len(reqs)
        assert report.render()  # table renders

    def test_unknown_tenant_request_raises(self):
        tenants, cfg_a, cfg_b = make_tenants()
        fleet = MultiTenantFleet(tenants, num_replicas=2)
        reqs = make_trace(cfg_a, cfg_b, n_a=2, n_b=1)
        bad = InferenceRequest(request_id=9, arrival_s=0.0,
                               batch=reqs[0].batch, tenant="zzz")
        with pytest.raises(ValueError, match="unknown"):
            fleet.serve(trace_of(list(reqs) + [bad]),
                        offered_qps={"a": 1.0, "b": 1.0})

    def test_missing_offered_qps_raises(self):
        tenants, cfg_a, cfg_b = make_tenants()
        fleet = MultiTenantFleet(tenants, num_replicas=2)
        with pytest.raises(ValueError, match="offered_qps"):
            fleet.serve(make_trace(cfg_a, cfg_b, n_a=2, n_b=1),
                        offered_qps={"a": 1.0})

    def test_invalid_mode_raises(self):
        tenants, _, _ = make_tenants()
        with pytest.raises(ValueError):
            MultiTenantFleet(tenants, num_replicas=2, mode="hybrid")

    def test_violations_listed_when_slo_missed(self):
        # an absurdly tight SLO must be reported as a violation
        tenants, cfg_a, cfg_b = make_tenants(slo_small=1e-9,
                                             slo_large=0.05)
        fleet = MultiTenantFleet(tenants, num_replicas=2,
                                 mode="partitioned")
        report = fleet.serve(make_trace(cfg_a, cfg_b, n_a=20, n_b=10),
                             offered_qps={"a": 1000.0, "b": 500.0})
        assert not report.all_slos_held
        assert "a" in report.violations()

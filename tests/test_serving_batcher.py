"""Micro-batcher tests: deterministic unit schedules plus hypothesis fuzz.

The fuzz suite is the real contract: over arbitrary arrival traces,
policies and service-time models, every offered request is completed or
shed exactly once (conservation), batches never exceed the size cap,
no request dispatches before it arrives, shedding only happens against
a full queue, and no batch is cut later than
``max(previous completion, oldest member arrival + max_wait)`` — the
no-starvation invariant separating bounded batching delay from honest
queueing delay. The same suites take 1-3-tenant traces through
``MultiTenantBatcher`` as one more input: both entries run one event
loop, so every invariant holds per tenant, with "previous completion"
read off the shared timeline.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import MiniBatch
from repro.models import DLRM, zoo_config
from repro.perf import PlatformSpec
from repro.serving import (BatchingPolicy, InferenceRequest, MicroBatcher,
                           MultiTenantBatcher, ServingPerfModel, freeze)

from .helpers import trace_of
from .reference_serving import service_time_reference


def req(request_id, arrival_s, samples=1, tenant=None):
    """A minimal single-feature request (ids are irrelevant to planning)."""
    return InferenceRequest(
        request_id=request_id, arrival_s=arrival_s,
        batch=MiniBatch(
            dense=np.zeros((samples, 2), dtype=np.float32),
            keys=("t0",), lengths=np.ones((1, samples), dtype=np.int64),
            ids=np.zeros(samples, dtype=np.int64),
            labels=np.zeros(samples, dtype=np.float32)),
        tenant=tenant)


def const_service(seconds):
    return lambda batch_size, nnz: seconds


def shed_ids(plan):
    """The shed requests' ids, in shed order."""
    return plan.trace.request_id[plan.shed_index].tolist()


class TestDispatchRules:
    def test_full_batch_dispatches_immediately(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=2,
                                              max_wait_s=1.0))
        plan = batcher.plan(trace_of([req(0, 0.0), req(1, 0.1), req(2, 0.2)]),
                            const_service(0.01))
        assert [b.trigger for b in plan.batches] == ["full", "drain"]
        assert plan.batches[0].dispatch_s == pytest.approx(0.1)

    def test_deadline_bounds_oldest_wait(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=100,
                                              max_wait_s=0.05))
        plan = batcher.plan(trace_of([req(0, 0.0), req(1, 0.01), req(2, 1.0)]),
                            const_service(0.001))
        first = plan.batches[0]
        assert first.num_requests == 2
        assert first.dispatch_s == pytest.approx(0.05)

    def test_drain_flushes_tail(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=100,
                                              max_wait_s=10.0))
        plan = batcher.plan(trace_of([req(0, 0.0)]), const_service(0.001))
        assert len(plan.batches) == 1
        assert plan.batches[0].trigger == "drain"

    def test_arrivals_during_service_queue_up(self):
        # first request dispatches alone after its 0.01 wait and holds
        # the server until 1.01; arrivals at 0.1..0.4 must coalesce
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=10,
                                              max_wait_s=0.01))
        requests = trace_of([req(0, 0.0)]
                            + [req(i, i / 10) for i in range(1, 5)])
        plan = batcher.plan(requests, const_service(1.0))
        assert len(plan.batches) == 2
        assert plan.batches[1].num_requests == 4
        assert plan.batches[1].dispatch_s == pytest.approx(1.01)

    def test_sheds_when_queue_full(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=10,
                                              max_wait_s=10.0,
                                              max_queue_depth=3))
        requests = trace_of([req(i, 0.0 + i * 1e-6) for i in range(6)])
        plan = batcher.plan(requests, const_service(100.0))
        assert len(plan.completed_index()) == 3
        assert shed_ids(plan) == [3, 4, 5]

    def test_zero_wait_serves_singly_when_sparse(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=64,
                                              max_wait_s=0.0))
        plan = batcher.plan(trace_of([req(i, i * 1.0) for i in range(3)]),
                            const_service(0.01))
        assert all(b.num_requests == 1 for b in plan.batches)

    def test_duplicate_ids_rejected(self):
        batcher = MicroBatcher()
        with pytest.raises(ValueError):
            batcher.plan(trace_of([req(1, 0.0), req(1, 0.5)]),
                         const_service(0.01))

    @pytest.mark.parametrize("field", ["max_batch_size", "max_queue_depth"])
    @pytest.mark.parametrize("bad", [0, 2.5, 1.5, 2.0, True])
    def test_sizes_must_be_positive_integers(self, field, bad):
        # a float size used to pass, then fail deep inside the event loop
        # (max_batch_size) or act as its ceiling (max_queue_depth)
        with pytest.raises(ValueError, match=field):
            BatchingPolicy(**{field: bad})
        assert getattr(BatchingPolicy(**{field: np.int64(3)}), field) == 3

    def test_negative_service_time_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher().plan(trace_of([req(0, 0.0)]), const_service(-1.0))

    def test_empty_trace(self):
        plan = MicroBatcher().plan(trace_of([]), const_service(0.01))
        assert plan.batches == [] and len(plan.shed_index) == 0
        assert len(plan.completed_index()) == 0

    def test_latencies_in_id_order(self):
        batcher = MicroBatcher(BatchingPolicy(max_batch_size=2,
                                              max_wait_s=0.5))
        plan = batcher.plan(trace_of([req(1, 0.0), req(0, 0.1)]),
                            const_service(0.2))
        latency = {r.request_id: b.completion_s - r.arrival_s
                   for b in plan.batches for r in b.requests}
        # id 0 arrived later into the same batch, so waited less
        assert len(latency) == 2 and latency[0] < latency[1]


POLICIES = st.builds(
    BatchingPolicy,
    max_batch_size=st.integers(1, 8),
    max_wait_s=st.floats(0.0, 0.05),
    max_queue_depth=st.integers(1, 12))

TRACES = st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40)

SERVICE_S = st.floats(1e-5, 0.2)


@st.composite
def workloads(draw):
    """``(requests, {tenant: policy})``: the untagged trace of the
    one-tenant entry (tenant ``None``) or a 1-3-tenant tagged trace."""
    arrivals = sorted(draw(TRACES))
    names = draw(st.sampled_from(
        [(None,), ("a",), ("a", "b"), ("a", "b", "c")]))
    policies = {name: draw(POLICIES) for name in names}
    tags = draw(st.lists(st.sampled_from(names), min_size=len(arrivals),
                         max_size=len(arrivals)))
    return ([req(i, t, tenant=tag)
             for i, (t, tag) in enumerate(zip(arrivals, tags))], policies)


def plan_workload(requests, policies, service_s):
    """One plan per tenant, through the entry the trace is drawn for."""
    if list(policies) == [None]:
        return {None: MicroBatcher(policies[None]).plan(
            trace_of(requests), const_service(service_s))}
    return MultiTenantBatcher(policies).plan(
        trace_of(requests), lambda tenant, batch_size, nnz: service_s)


@settings(max_examples=120, deadline=None)
@given(workload=workloads(), service_s=SERVICE_S)
def test_fuzz_batcher_invariants(workload, service_s):
    requests, policies = workload
    plans = plan_workload(requests, policies, service_s)

    for tenant, plan in plans.items():
        # conservation per tenant: every request completed or shed,
        # exactly once, and batches never mix tenants
        completed_ids = [r.request_id
                         for b in plan.batches for r in b.requests]
        assert sorted(completed_ids + shed_ids(plan)) == sorted(
            r.request_id for r in requests if r.tenant == tenant)
        assert len(set(completed_ids)) == len(completed_ids)

        # FIFO within a tenant: batches dispatch in arrival order of
        # their oldest members
        oldest_arrivals = [min(r.arrival_s for r in b.requests)
                           for b in plan.batches]
        assert oldest_arrivals == sorted(oldest_arrivals)

    prev_completion = 0.0
    for tenant, b in sorted(((t, b) for t, plan in plans.items()
                             for b in plan.batches),
                            key=lambda tb: tb[1].dispatch_s):
        policy = policies[tenant]
        # size cap and causality
        assert 1 <= b.num_requests <= policy.max_batch_size
        assert all(b.dispatch_s >= r.arrival_s for r in b.requests)
        # non-overlapping service on the single virtual server
        assert b.dispatch_s >= prev_completion
        assert b.completion_s == pytest.approx(b.dispatch_s + service_s)
        # no starvation: a batch is cut no later than the moment the
        # server frees up or the oldest member's wait bound expires,
        # whichever is later (full-trigger cuts happen even earlier)
        oldest = min(r.arrival_s for r in b.requests)
        bound = max(prev_completion, oldest + policy.max_wait_s)
        assert b.dispatch_s <= bound + 1e-9
        prev_completion = b.completion_s


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), service_s=SERVICE_S)
def test_fuzz_shed_only_when_queue_full(workload, service_s):
    """Replaying the event loop: at each shed instant the shed request's
    own tenant queue must hold exactly max_queue_depth requests that
    arrived earlier and had not yet been dispatched."""
    requests, policies = workload
    plans = plan_workload(requests, policies, service_s)
    for tenant, plan in plans.items():
        for shed in (plan.trace[i] for i in plan.shed_index.tolist()):
            waiting = 0
            for r in requests:
                if r.tenant != tenant or r.request_id == shed.request_id:
                    continue
                if r.arrival_s > shed.arrival_s or (
                        r.arrival_s == shed.arrival_s
                        and r.request_id > shed.request_id):
                    continue
                dispatched_by_then = any(
                    r.request_id in [x.request_id for x in b.requests]
                    and b.dispatch_s <= shed.arrival_s
                    for b in plan.batches)
                shed_before = r.request_id in shed_ids(plan)
                if not dispatched_by_then and not shed_before:
                    waiting += 1
            assert waiting >= policies[tenant].max_queue_depth


@settings(max_examples=60, deadline=None)
@given(workload=workloads(), service_s=SERVICE_S)
def test_fuzz_determinism(workload, service_s):
    requests, policies = workload
    plans_a = plan_workload(requests, policies, service_s)
    plans_b = plan_workload(list(reversed(requests)), policies, service_s)
    for tenant, a in plans_a.items():
        b = plans_b[tenant]
        assert [[r.request_id for r in x.requests] for x in a.batches] == \
            [[r.request_id for r in x.requests] for x in b.batches]
        assert [x.dispatch_s for x in a.batches] == \
            [x.dispatch_s for x in b.batches]
        assert shed_ids(a) == shed_ids(b)


class TestPredictedAdmission:
    """admission="predicted": shed exactly what would miss its deadline."""

    def policy(self, deadline_s=0.1, **kw):
        # max_wait > 0 so simultaneous arrivals coalesce into full-width
        # batches (at zero wait the dispatch/arrival tie-break serves
        # the first arrival alone)
        kw.setdefault("max_batch_size", 4)
        kw.setdefault("max_wait_s", 5e-3)
        return BatchingPolicy(admission="predicted", deadline_s=deadline_s,
                              **kw)

    def test_validation_requires_a_deadline(self):
        with pytest.raises(ValueError):
            BatchingPolicy(admission="predicted")
        with pytest.raises(ValueError):
            BatchingPolicy(admission="predicted", deadline_s=0.0)
        with pytest.raises(ValueError):
            BatchingPolicy(admission="banana")

    def test_default_depth_policy_is_unchanged_bitwise(self):
        # the flag defaults off: plans under the depth policy must be
        # identical to a policy that never mentions admission at all
        requests = trace_of([req(i, i * 1e-3) for i in range(40)])
        old = MicroBatcher(BatchingPolicy(max_batch_size=4,
                                          max_queue_depth=8))
        new = MicroBatcher(BatchingPolicy(max_batch_size=4,
                                          max_queue_depth=8,
                                          admission="depth"))
        a = old.plan(requests, const_service(5e-3))
        b = new.plan(requests, const_service(5e-3))
        assert [x.dispatch_s for x in a.batches] == \
            [x.dispatch_s for x in b.batches]
        assert shed_ids(a) == shed_ids(b)

    def test_admits_everything_when_capacity_suffices(self):
        batcher = MicroBatcher(self.policy(deadline_s=1.0))
        plan = batcher.plan(trace_of([req(i, i * 0.1) for i in range(10)]),
                            const_service(1e-3))
        assert len(plan.shed_index) == 0
        assert len(plan.completed_index()) == 10

    def test_sheds_the_request_that_would_miss(self):
        # service 0.05 s per batch, all arrive at once, deadline 0.12:
        # batch k completes at (k+1)*0.05; requests 1-8 land in the first
        # two batches (<= 0.10), 9-12's predicted 0.15 misses
        batcher = MicroBatcher(self.policy(deadline_s=0.12))
        plan = batcher.plan(trace_of([req(i, 0.0) for i in range(12)]),
                            const_service(0.05))
        assert len(plan.completed_index()) == 8
        assert sorted(shed_ids(plan)) == list(range(8, 12))

    def test_impossible_deadline_sheds_everything(self):
        # even an empty-queue arrival completes one service time after
        # it arrives; a deadline below that is predicted infeasible for
        # every request, so admission sheds the whole trace
        batcher = MicroBatcher(self.policy(deadline_s=0.04))
        plan = batcher.plan(trace_of([req(i, i * 1e-3) for i in range(20)]),
                            const_service(0.05))
        assert len(plan.completed_index()) == 0
        assert len(plan.shed_index) == 20

    def test_depth_cap_still_applies_on_top(self):
        # queue depth is a second, independent shed reason
        batcher = MicroBatcher(self.policy(deadline_s=10.0,
                                           max_queue_depth=2))
        plan = batcher.plan(trace_of([req(i, 0.0) for i in range(8)]),
                            const_service(0.5))
        assert len(plan.shed_index) > 0

    def test_goodput_plateaus_instead_of_collapsing(self):
        # 3x overload: predicted admission trades completions for
        # within-deadline completions; depth admission completes more
        # requests but blows the deadline on most of them
        requests = trace_of([req(i, i * 2e-3) for i in range(200)])
        deadline = 0.05
        depth = MicroBatcher(BatchingPolicy(max_batch_size=4,
                                            max_wait_s=0.0)) \
            .plan(requests, const_service(0.024))
        pred = MicroBatcher(self.policy(deadline_s=deadline)) \
            .plan(requests, const_service(0.024))

        def within(plan):
            return sum(1 for b in plan.batches for r in b.requests
                       if b.completion_s - r.arrival_s <= deadline)

        assert within(pred) > 2 * within(depth)
        assert len(pred.shed_index) > 0


def schedule_digest(plan):
    rows = [(b.dispatch_s.hex(), b.completion_s.hex(), b.trigger,
             [r.request_id for r in b.requests]) for b in plan.batches]
    rows.append(shed_ids(plan))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def pinned_policy(admission, **kw):
    if admission == "predicted":
        kw["deadline_s"] = 0.015
    return BatchingPolicy(admission=admission, **kw)


def pinned_trace(tenants=(None,), n=400):
    """Seeded overload with lulls: all three triggers and both shed
    reasons occur."""
    rng = np.random.default_rng(7)
    gaps = rng.exponential(5e-4, size=n)
    gaps[::50] += 0.02
    arrivals = np.cumsum(gaps)
    sizes = rng.integers(1, 4, size=n)
    picks = rng.integers(0, len(tenants), size=n)
    return trace_of([req(i, float(arrivals[i]), int(sizes[i]),
                         tenants[picks[i]]) for i in range(n)])


def samples_service(batch_size, nnz):
    return 1e-3 + 4e-4 * batch_size


class TestPinnedSchedules:
    """Exact schedules — dispatch and completion bits, triggers, batch
    membership, shed order — recorded at the commit before the two event
    loops were merged. Any reordering of the loop fails here."""

    WIDE = dict(max_batch_size=8, max_wait_s=2e-3, max_queue_depth=24)
    NARROW = dict(max_batch_size=4, max_wait_s=1e-3, max_queue_depth=12)

    @pytest.mark.parametrize("admission,digest", [
        ("depth", "ab6c3c1cdbec642b"), ("predicted", "0ca4f99257ac243b")])
    def test_one_tenant(self, admission, digest):
        policy = pinned_policy(admission, **self.WIDE)
        plan = MicroBatcher(policy).plan(pinned_trace(), samples_service)
        assert schedule_digest(plan) == digest
        # the one-tenant entry ignores tenant tags ...
        tagged = MicroBatcher(policy).plan(
            pinned_trace(tenants=("a", "b")), samples_service)
        assert schedule_digest(tagged) == digest
        # ... and is the one-lane case of the multi-tenant batcher
        plans = MultiTenantBatcher({"a": policy}).plan(
            pinned_trace(tenants=("a",)),
            lambda tenant, batch_size, nnz: samples_service(batch_size, nnz))
        assert schedule_digest(plans["a"]) == digest

    def test_none_is_a_tenant_key(self):
        """Regression: ``None`` — the default ``InferenceRequest.tenant``
        — doubled as the loop's "nobody dispatches" sentinel, so a
        ``{None: policy}`` batcher never cut a batch and ran off the end
        of the trace with an IndexError."""
        policy = pinned_policy("depth", **self.WIDE)
        plans = MultiTenantBatcher({None: policy}).plan(
            pinned_trace(),
            lambda tenant, batch_size, nnz: samples_service(batch_size, nnz))
        assert schedule_digest(plans[None]) == "ab6c3c1cdbec642b"

    @pytest.mark.parametrize("admission,digests", [
        ("depth", {"a": "b83324b67eef5422", "b": "5e2b20f178d79d2a"}),
        ("predicted", {"a": "3055a0712f84f380", "b": "7997b94fffba8471"})])
    def test_two_tenants(self, admission, digests):
        plans = MultiTenantBatcher({
            "a": pinned_policy(admission, **self.WIDE),
            "b": pinned_policy(admission, **self.NARROW)}).plan(
            pinned_trace(tenants=("a", "b")),
            lambda tenant, batch_size, nnz:
                samples_service(batch_size, nnz)
                * (2.0 if tenant == "b" else 1.0))
        assert {t: schedule_digest(p) for t, p in plans.items()} == digests


class TestPinnedPrices:
    """Every price over a grid of perf models, precisions, batch sizes
    and id counts: bit for bit the reference formula
    (``service_time_reference``) and a digest recorded before the lookup
    bandwidth became a per-model constant. Any reordering of the sum
    fails here."""

    DIGEST = "a819415355a555e9"

    def test_grid(self):
        spilling = PlatformSpec(name="spilling", hbm_per_node_bytes=40e3,
                                dram_per_node_bytes=1e12,
                                hbm_bw_per_node=850e9,
                                dram_link_bw_per_node=12e9)
        perfs = (ServingPerfModel(),
                 ServingPerfModel(platform=spilling, nodes=2,
                                  overhead_s=4e-3),
                 ServingPerfModel(platform=spilling, cache_hit_boost=0.0,
                                  overhead_s=0.0))
        rows = []
        for size in ("small", "large"):
            base = freeze(DLRM(zoo_config(size), seed=0))
            for precision in ("fp32", "fp16", "bf16", "int8", "mixed"):
                model = dataclasses.replace(base, precision=precision)
                for perf in perfs:
                    for batch_size in (1, 2, 3, 7, 64, 128, 1000):
                        for nnz in (0, 1, 17, 40 * batch_size, 10 ** 7,
                                    2 ** 40):
                            price = perf.service_time(model, batch_size,
                                                      nnz)
                            assert price.hex() == service_time_reference(
                                perf, model, batch_size, nnz).hex()
                            rows.append(price.hex())
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert digest == self.DIGEST

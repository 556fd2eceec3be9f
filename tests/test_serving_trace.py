"""Traces as columns against the list path, bit for bit.

A :class:`RequestTrace` stores a trace as columns over one sample store
per feature set, in arrival order; the batcher prices dispatches and
predicted admissions from running sums over it, the executor gathers
each window out of the store (:meth:`MiniBatch.take`) and the router
assigns index arrays. The list path each of them replaced lives in
``tests/reference_serving.py``. Over hypothesis-drawn traces —
multi-sample requests, recurring users that share store rows, one or two
tenants, both admission rules, a mid-trace hot swap — the column path
must produce the same schedule, the same ``service_time`` calls, the
same responses (bitwise), outcomes and shed ids, and the same routing as
that oracle. :meth:`RequestTrace.merge` must build the trace the
hand-built oracle builds, and a trace whose columns arrive shuffled must
plan, serve and route as the sorted one. The trace's own input checks
and the finite-knob checks of the serving entry points close the file.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import MiniBatch
from repro.embedding import lengths_to_offsets
from repro.fleet import ROUTING_POLICIES, FleetRouter, RouterPolicy
from repro.fleet.tenancy import MultiTenantServer, TenantSpec
from repro.models import DLRM
from repro.online import ModelSlot
from repro.serving import (BatchingPolicy, FreezeConfig, InferenceRequest,
                           InferenceServer, MicroBatcher, MultiTenantBatcher,
                           PoissonLoadGen, RequestTrace, ServeResult,
                           ServingPerfModel, freeze)
from repro.serving.loadgen import requests_from_arrivals

from .helpers import tiny_config, tiny_dataset
from .reference_batch import assert_same_batch
from .reference_serving import (ReferencePlan, assert_same_columns,
                                concat_reference, plan_lanes_reference,
                                price_requests, route_reference,
                                serve_reference, trace_of_reference)

CONFIG = tiny_config(num_tables=4, rows=64, dim=4, dense_dim=3,
                     avg_pooling=1.5)
#: a second feature set (two tables), for tenant "b" of merged traces
CONFIG_B = tiny_config(num_tables=2, rows=64, dim=4, dense_dim=3,
                       avg_pooling=1.5)
FREEZE = FreezeConfig(hot_bytes=600, cache_kind="freq_aware",
                      cache_fraction=0.25)
PERF = ServingPerfModel(overhead_s=1e-3)


def twins(seed: int):
    """Two independent frozen copies of one model: one serves the column
    path, the other the oracle, so their caches evolve side by side."""
    model = DLRM(CONFIG, seed=seed)
    return freeze(model, FREEZE), freeze(model, FREEZE)


@st.composite
def traces(draw, tenants=(None,)):
    """``(trace, requests)``: a column trace and the hand-built request
    list the oracle reads, with the same contents."""
    n = draw(st.integers(1, 40))
    users = draw(st.integers(1, 12))
    store = tiny_dataset(CONFIG, seed=1).batch(
        users + 3, batch_index=draw(st.integers(0, 50)))
    num_samples = np.array(draw(st.lists(
        st.sampled_from([1, 1, 1, 2, 3]), min_size=n, max_size=n)))
    start = np.array([draw(st.integers(0, users + 3 - k))
                      for k in num_samples])
    arrivals = np.round(np.sort(np.array(draw(st.lists(
        st.floats(0.0, 0.05), min_size=n, max_size=n)))), 4)
    ids = draw(st.permutations(range(100, 100 + n)))
    tags = draw(st.lists(st.sampled_from(tenants), min_size=n,
                         max_size=n))
    batches = [store.slice(s, s + k) for s, k in zip(start, num_samples)]
    requests = [InferenceRequest(rid, float(t), b, user_id=int(s),
                                 tenant=tag)
                for rid, t, b, s, tag in zip(ids, arrivals, batches, start,
                                             tags)]
    trace = RequestTrace(
        request_id=ids, arrival_s=arrivals, stores=[store], start=start,
        num_samples=num_samples, nnz=[b.nnz for b in batches],
        user_id=start, tenant=tags)
    return trace, requests


POLICIES = st.builds(
    BatchingPolicy,
    max_batch_size=st.integers(1, 6),
    max_wait_s=st.sampled_from([0.0, 1e-3, 5e-3]),
    max_queue_depth=st.integers(2, 12),
    admission=st.sampled_from(["depth", "predicted"]),
    deadline_s=st.sampled_from([4e-3, 1e-2]))


def digest(plan):
    """Everything a schedule decides, in comparable plain values."""
    return ([(b.dispatch_s.hex(), b.completion_s.hex(), b.trigger,
              [r.request_id for r in b.requests]) for b in plan.batches],
            shed_ids(plan))


def shed_ids(plan):
    """A plan's shed ids in shed order: the product's index column or
    the oracle's request list."""
    if isinstance(plan, ReferencePlan):
        return [r.request_id for r in plan.shed]
    return plan.trace.request_id[plan.shed_index].tolist()


class Counted:
    """A service-time callable recording every call it prices."""

    def __init__(self, price):
        self.price = price
        self.calls = []

    def __call__(self, *args):
        self.calls.append(args)
        return self.price(*args)


def assert_same_responses(got, expected):
    assert list(got) == list(expected)
    for rid, probs in expected.items():
        assert got[rid].dtype == probs.dtype
        assert got[rid].tobytes() == probs.tobytes()


class TestTake:
    @settings(max_examples=60, deadline=None)
    @given(size=st.integers(1, 12), pooling=st.sampled_from([0.3, 2.0]),
           data=st.data())
    def test_take_is_concat_of_row_slices(self, size, pooling, data):
        config = tiny_config(num_tables=3, rows=50, avg_pooling=pooling)
        store = tiny_dataset(config).batch(size, batch_index=size)
        rows = data.draw(st.lists(st.integers(0, size - 1), min_size=1,
                                  max_size=20))
        assert_same_batch(store.take(np.array(rows)), concat_reference(
            [store.slice(r, r + 1) for r in rows]))

    def test_empty_bags_and_no_rows(self):
        store = MiniBatch(
            dense=np.arange(6, dtype=np.float32).reshape(3, 2),
            keys=("a",), lengths=np.array([[0, 2, 0]]), ids=np.array([7, 8]),
            labels=np.zeros(3, dtype=np.float32))
        got = store.take(np.array([2, 0, 1, 1]))
        assert np.array_equal(got.feature("a")[0], [7, 8, 7, 8])
        assert np.array_equal(got.feature("a")[1], [0, 0, 0, 2, 4])
        empty = store.take(np.zeros(0, dtype=np.int64))
        assert empty.batch_size == 0
        assert np.array_equal(empty.feature("a")[1], [0])

    def test_rows_out_of_range(self):
        store = tiny_dataset(CONFIG).batch(3)
        with pytest.raises(IndexError):
            store.take(np.array([3]))
        with pytest.raises(IndexError):
            store.take(np.array([-1]))


class TestPlanParity:
    @settings(max_examples=80, deadline=None)
    @given(case=traces(), policy=POLICIES)
    def test_one_tenant(self, case, policy):
        trace, requests = case
        model = twins(0)[0]
        column = Counted(lambda size, nnz: PERF.service_time(
            model, size, nnz))
        oracle = Counted(lambda reqs: price_requests(PERF, model, reqs))
        plan = MicroBatcher(policy).plan(trace, column)
        expected = plan_lanes_reference(requests, lambda r: 0, [policy],
                                        [oracle])[0]
        assert digest(plan) == digest(expected)
        assert column.calls == [
            (sum(r.num_samples for r in reqs), sum(r.nnz for r in reqs))
            for (reqs,) in oracle.calls]

    @settings(max_examples=60, deadline=None)
    @given(case=traces(tenants=("a", "b")), a=POLICIES, b=POLICIES)
    def test_two_tenants(self, case, a, b):
        trace, requests = case
        model = twins(0)[0]
        column = Counted(lambda tenant, size, nnz: PERF.service_time(
            model, size, nnz) * (2.0 if tenant == "b" else 1.0))
        oracle = Counted(lambda reqs: price_requests(PERF, model, reqs)
                         * (2.0 if reqs[0].tenant == "b" else 1.0))
        plans = MultiTenantBatcher({"a": a, "b": b}).plan(trace, column)
        expected = plan_lanes_reference(
            requests, lambda r: 0 if r.tenant == "a" else 1, [a, b],
            [oracle, oracle])
        assert [digest(plans[t]) for t in "ab"] == \
            [digest(p) for p in expected]
        assert len(column.calls) == len(oracle.calls)


class TestServeParity:
    @settings(max_examples=30, deadline=None)
    @given(case=traces(), policy=POLICIES, swap_s=st.floats(0.0, 0.06))
    def test_server_with_a_hot_swap(self, case, policy, swap_s):
        trace, requests = case
        served, oracle = zip(twins(0), twins(1))
        slots = []
        for models in (served, oracle):
            slot = ModelSlot(models[0], step=0, publish_s=0.0)
            slot.publish(models[1], step=1, publish_s=swap_s)
            slots.append(slot)
        result = InferenceServer(served[0], policy, PERF).serve(
            trace, slot=slots[0])
        plan = plan_lanes_reference(
            requests, lambda r: 0, [policy],
            [lambda reqs: price_requests(PERF, oracle[0], reqs)])[0]
        responses, outcomes, shed = serve_reference(oracle[0], plan,
                                                    slot=slots[1])
        assert digest(result.plan) == digest(plan)
        assert_same_responses(result.responses, responses)
        assert_same_columns(result, outcomes, shed)

    @settings(max_examples=20, deadline=None)
    @given(case=traces(tenants=("a", "b")), a=POLICIES, b=POLICIES)
    def test_multi_tenant_server(self, case, a, b):
        trace, requests = case
        served, oracle = zip(twins(0), twins(1))
        server = MultiTenantServer(
            [TenantSpec("a", served[0], 0.01, policy=a),
             TenantSpec("b", served[1], 0.01, policy=b)], perf=PERF)
        results = server.serve(trace)
        plans = plan_lanes_reference(
            requests, lambda r: 0 if r.tenant == "a" else 1, [a, b],
            [lambda reqs, m=m, t=t: price_requests(PERF, m, reqs)
             * server.congestion(t) for m, t in zip(oracle, "ab")])
        for tenant, model, plan in zip("ab", oracle, plans):
            responses, outcomes, shed = serve_reference(model, plan)
            assert digest(results[tenant].plan) == digest(plan)
            assert_same_responses(results[tenant].responses, responses)
            assert_same_columns(results[tenant], outcomes, shed)


class TestRouteParity:
    @settings(max_examples=60, deadline=None)
    @given(case=traces(), kind=st.sampled_from(
        ["round_robin", "least_loaded", "power_of_two"]),
        replicas=st.integers(1, 4), seed=st.integers(0, 3), data=st.data())
    def test_route(self, case, kind, replicas, seed, data):
        trace, requests = case
        model = twins(0)[0]
        active = data.draw(st.one_of(st.none(), st.lists(
            st.integers(0, replicas - 1), min_size=1, unique=True)))
        estimators = [Counted(lambda r, k=k: PERF.service_time(
            model, r.num_samples, r.nnz) * (1 + k)) for k in range(replicas)]
        routing = FleetRouter(RouterPolicy(kind, seed=seed)).route(
            trace, estimators, active)
        calls = [len(e.calls) for e in estimators]
        assignments, replica, busy = route_reference(
            requests, estimators, kind, seed=seed, active=active)
        assert calls == [len(e.calls) - c for e, c in zip(estimators, calls)]
        assert [[r.request_id for r in sub] for sub in routing.assignments] \
            == [[r.request_id for r in sub] for sub in assignments]
        assert routing.replica.dtype == np.int64
        assert routing.replica.tolist() == replica
        assert [b.hex() for b in routing.final_backlog_s] == \
            [b.hex() for b in busy]


class TestTraceInputs:
    """Inputs are checked once, when a trace is built."""

    def dataset(self):
        return tiny_dataset(CONFIG)

    def test_negative_user_row(self):
        with pytest.raises(ValueError, match="user_rows"):
            requests_from_arrivals(self.dataset(), np.array([0.0, 0.1]),
                                   batch_index=0,
                                   user_rows=np.array([-1, 0]))

    def test_empty_arrivals_give_an_empty_trace(self):
        for rows in (None, np.zeros(0, dtype=np.int64)):
            trace = requests_from_arrivals(self.dataset(), np.zeros(0),
                                           batch_index=0, user_rows=rows)
            assert len(trace) == 0
            plan = MicroBatcher().plan(trace, lambda size, nnz: 1e-3)
            assert plan.batches == [] and len(plan.shed_index) == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival(self, bad):
        with pytest.raises(ValueError, match="finite"):
            requests_from_arrivals(self.dataset(), np.array([0.0, bad]),
                                   batch_index=0)

    def test_rows_outside_the_store(self):
        store = self.dataset().batch(4)
        with pytest.raises(ValueError, match="rows"):
            RequestTrace([0], [0.0], [store], start=[3], num_samples=[2],
                         nnz=[1])
        with pytest.raises(ValueError, match="sample"):
            RequestTrace([0], [0.0], [store], start=[0], num_samples=[0],
                         nnz=[0])

    def test_duplicate_ids(self):
        store = self.dataset().batch(4)
        with pytest.raises(ValueError, match="duplicate request id 5"):
            RequestTrace([5, 5], [0.0, 0.1], [store], start=[0, 1],
                         num_samples=[1, 1], nnz=[1, 1])

    def test_views_and_subsets(self):
        trace = requests_from_arrivals(
            self.dataset(), np.array([0.0, 0.1, 0.2, 0.3]), batch_index=2,
            start_id=10, user_rows=np.array([1, 0, 1, 2]))
        bulk = self.dataset().batch(3, batch_index=2)
        assert trace[0] is trace[0]
        assert [r.request_id for r in trace] == [10, 11, 12, 13]
        assert trace[2].user_id == 1 and trace[2].num_samples == 1
        row = bulk.slice(1, 2)
        assert trace[2].nnz == row.nnz
        assert trace[2].batch.dense.tobytes() == row.dense.tobytes()
        assert trace[2].batch.labels.tobytes() == row.labels.tobytes()
        for name in row.keys:
            ids, offsets = row.feature(name)
            got_ids, got_offsets = trace[2].batch.feature(name)
            assert np.array_equal(got_ids, ids)
            assert np.array_equal(got_offsets, offsets)
        with pytest.raises(ValueError, match="increasing"):
            trace[np.array([3, 1])]
        sub = trace[np.array([1, 3])]
        assert [r.request_id for r in sub] == [11, 13]
        assert sub[0] is trace[1]
        assert [r.request_id for r in trace[:2]] == [10, 11]
        mask = np.array([True, False, True, False])
        assert [r.request_id for r in trace[mask]] == [10, 12]
        assert np.array_equal(trace.batch(np.array([2, 0])).dense,
                              bulk.take(np.array([1, 1])).dense)

    @pytest.mark.parametrize("positions", [[0, 0, 1], [3, 1], [0, 2, 1]])
    def test_sub_trace_positions_must_increase(self, positions):
        """Repeated or decreasing positions would break the arrival
        order; a repeated one also served one request twice."""
        trace = requests_from_arrivals(
            self.dataset(), np.array([0.0, 0.1, 0.2, 0.3]), batch_index=0)
        with pytest.raises(ValueError, match="increasing"):
            trace[np.array(positions)]
        with pytest.raises(ValueError, match="increasing"):
            trace[::-1]

    def test_columns_are_put_in_arrival_order(self):
        store = self.dataset().batch(3)
        trace = RequestTrace([7, 3, 5], [0.2, 0.1, 0.1], [store],
                             start=[0, 1, 2], num_samples=[1, 1, 1],
                             nnz=[4, 5, 6], tenant=["x", "y", "z"])
        assert trace.request_id.tolist() == [3, 5, 7]
        assert trace.start.tolist() == [1, 2, 0]
        assert trace.nnz.tolist() == [5, 6, 4]
        assert trace.tenant.tolist() == ["y", "z", "x"]

    def test_merge_keeps_one_store_per_feature_set(self):
        bulk = self.dataset().batch(5)
        own = self.dataset().batch(3, batch_index=1)
        other = tiny_dataset(CONFIG_B).batch(2)

        def trace(ids, arrivals, store, start, sizes):
            return RequestTrace(
                ids, arrivals, [store], start=start, num_samples=sizes,
                nnz=[store.slice(a, a + k).nnz for a, k in zip(start, sizes)])

        first = trace([0, 2], [0.0, 0.2], bulk, [0, 2], [2, 3])
        merged = RequestTrace.merge(
            [first, trace([1], [0.1], other, [0], [1]),
             trace([3], [0.3], bulk, [4], [1])], tenants=[None, "x", None])
        assert merged.stores[0] is bulk and merged.stores[1] is other
        assert merged.part.tolist() == [0, 1, 0, 0]
        assert merged.tenant.tolist() == [None, "x", None, None]
        assert np.array_equal(merged.batch(np.array([2, 0])).dense,
                              np.concatenate([bulk.dense[2:5],
                                              bulk.dense[0:2]]))
        with pytest.raises(ValueError, match="feature sets"):
            merged.batch(np.array([0, 1]))
        coalesced = RequestTrace.merge(
            [first, trace([4], [0.4], own, [1], [2])])
        assert [s.batch_size for s in coalesced.stores] == [8]
        assert coalesced.batch(np.array([2])).dense.tobytes() \
            == own.dense[1:3].tobytes()
        with pytest.raises(ValueError, match="tenants"):
            RequestTrace.merge([first], tenants=["x", "y"])


@st.composite
def merge_cases(draw):
    """``(traces, tenants, tags)`` for :meth:`RequestTrace.merge`: two to
    four traces of multi-sample requests, tenant ``tags[j]`` ("a" on
    ``CONFIG``'s feature set, "b" on ``CONFIG_B``'s) for trace ``j``. A
    trace reads either its set's one shared store or a store of its own;
    ``tenants`` is ``tags`` (merge tags the traces) or ``None`` (they
    carry their own tags)."""
    configs = {"a": CONFIG, "b": CONFIG_B}
    shared = {t: tiny_dataset(c, seed=1).batch(
        8, batch_index=draw(st.integers(0, 20))) for t, c in configs.items()}
    tags = ["a", "b"] + draw(st.lists(st.sampled_from("ab"), max_size=2))
    by_merge = draw(st.booleans())
    ids = iter(draw(st.permutations(range(100, 124))))
    traces = []
    for j, tag in enumerate(tags):
        store = shared[tag] if draw(st.booleans()) else tiny_dataset(
            configs[tag], seed=2).batch(6, batch_index=j)
        n = draw(st.integers(1, 6))
        sizes = draw(st.lists(st.sampled_from([1, 1, 2, 3]), min_size=n,
                              max_size=n))
        start = [draw(st.integers(0, store.batch_size - k)) for k in sizes]
        arrivals = np.round(draw(st.lists(st.floats(0.0, 0.02), min_size=n,
                                          max_size=n)), 3)
        traces.append(RequestTrace(
            [next(ids) for _ in range(n)], arrivals, [store], start=start,
            num_samples=sizes,
            nnz=[store.slice(a, a + k).nnz for a, k in zip(start, sizes)],
            user_id=draw(st.lists(st.integers(-1, 5), min_size=n,
                                  max_size=n)),
            tenant=None if by_merge else [tag] * n))
    return traces, tags if by_merge else None, tags


def hand_built(traces, tenants):
    """The requests of ``traces`` as hand-built objects, for the oracle."""
    return [InferenceRequest(
        int(t.request_id[i]), float(t.arrival_s[i]),
        t.stores[t.part[i]].slice(t.start[i], t.start[i] + t.num_samples[i]),
        user_id=None if t.user_id[i] < 0 else int(t.user_id[i]),
        tenant=t.tenant[i] if tenants is None else tenants[j])
        for j, t in enumerate(traces) for i in range(len(t))]


class TestMerge:
    @settings(max_examples=60, deadline=None)
    @given(case=merge_cases(), data=st.data())
    def test_merge_matches_the_oracle(self, case, data):
        traces, tenants, tags = case
        merged = RequestTrace.merge(traces, tenants)
        oracle = trace_of_reference(hand_built(traces, tenants))
        for name in ("request_id", "arrival_s", "num_samples", "nnz",
                     "user_id", "tenant"):
            assert getattr(merged, name).tolist() \
                == getattr(oracle, name).tolist()
        for tag in "ab":
            inputs = {id(t.stores[0]): t.stores[0]
                      for t, t_tag in zip(traces, tags) if t_tag == tag}
            if len(inputs) == 1:   # a lone store is used uncopied
                lone, = inputs.values()
                assert sum(s is lone for s in merged.stores) == 1
            index = np.array(data.draw(st.permutations(
                np.flatnonzero(merged.tenant == tag).tolist())))
            assert_same_batch(merged.batch(index), oracle.batch(index))
        assert len(merged.stores) == 2

    @settings(max_examples=25, deadline=None)
    @given(case=merge_cases(), a=POLICIES, b=POLICIES, data=st.data(),
           kind=st.sampled_from(ROUTING_POLICIES))
    def test_shuffled_columns_plan_serve_and_route_alike(self, case, a, b,
                                                         data, kind):
        trace = RequestTrace.merge(*case[:2])
        perm = np.array(data.draw(st.permutations(range(len(trace)))))
        shuffled = RequestTrace(
            trace.request_id[perm], trace.arrival_s[perm], trace.stores,
            start=trace.start[perm], num_samples=trace.num_samples[perm],
            nnz=trace.nnz[perm], user_id=trace.user_id[perm],
            tenant=trace.tenant[perm], part=trace.part[perm])
        served, routed = [], []
        for t in (trace, shuffled):
            models = [freeze(DLRM(c, seed=0), FREEZE)
                      for c in (CONFIG, CONFIG_B)]
            served.append(MultiTenantServer(
                [TenantSpec("a", models[0], 0.01, policy=a),
                 TenantSpec("b", models[1], 0.01, policy=b)],
                perf=PERF).serve(t))
            routed.append(FleetRouter(RouterPolicy(kind, seed=1)).route(
                t, [lambda r, k=k: PERF.service_time(
                    models["ab".index(r.tenant)], r.num_samples, r.nnz) * k
                    for k in (1, 2, 3)]))
        for tag in "ab":
            got, expected = served[1][tag], served[0][tag]
            assert digest(got.plan) == digest(expected.plan)
            assert_same_responses(got.responses, expected.responses)
            for name in ServeResult.COLUMNS + ("shed_ids",):
                assert getattr(got, name).tobytes() \
                    == getattr(expected, name).tobytes(), name
        got, expected = routed[1], routed[0]
        assert [s.request_id.tolist() for s in got.assignments] \
            == [s.request_id.tolist() for s in expected.assignments]
        # the columns follow the trace order, which the shuffle restores
        assert got.replica.tolist() == expected.replica.tolist()
        assert [x.hex() for x in got.final_backlog_s] \
            == [x.hex() for x in expected.final_backlog_s]


class TestFiniteKnobs:
    @pytest.mark.parametrize("qps", [math.nan, math.inf])
    def test_loadgen_qps(self, qps):
        with pytest.raises(ValueError, match="finite"):
            PoissonLoadGen(qps=qps, num_requests=4)

    def test_max_wait(self):
        with pytest.raises(ValueError, match="finite"):
            BatchingPolicy(max_wait_s=math.nan)

    @pytest.mark.parametrize("deadline", [math.nan, math.inf])
    def test_predicted_deadline(self, deadline):
        with pytest.raises(ValueError, match="finite"):
            BatchingPolicy(admission="predicted", deadline_s=deadline)

    @pytest.mark.parametrize("overhead", [math.nan, math.inf])
    def test_perf_overhead(self, overhead):
        with pytest.raises(ValueError, match="finite"):
            ServingPerfModel(overhead_s=overhead)

    def trace(self):
        return requests_from_arrivals(tiny_dataset(CONFIG),
                                      np.array([0.0, 1e-3, 2e-3]),
                                      batch_index=0)

    @pytest.mark.parametrize("admission", ["depth", "predicted"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_batcher_service_estimate(self, bad, admission):
        policy = BatchingPolicy(admission=admission, deadline_s=1.0)
        with pytest.raises(ValueError, match=f"finite and >= 0, got {bad}"):
            MicroBatcher(policy).plan(self.trace(), lambda size, nnz: bad)

    @pytest.mark.parametrize("kind", ROUTING_POLICIES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_router_service_estimate(self, bad, kind):
        with pytest.raises(ValueError, match=f"finite and >= 0, got {bad}"):
            FleetRouter(RouterPolicy(kind)).route(self.trace(),
                                                  [lambda r: bad] * 2)


def test_window_gather_matches_a_direct_predict():
    """A served trace with multi-sample requests: each dispatch's
    responses are one ``predict`` on the concatenated request rows."""
    model, oracle = twins(2)
    store = tiny_dataset(CONFIG).batch(30, batch_index=9)
    sizes = np.array([1, 2, 3, 1] * 5)
    start = lengths_to_offsets(sizes)[:-1] % 27
    trace = RequestTrace(
        request_id=np.arange(20), arrival_s=np.arange(20) * 2e-4,
        stores=[store], start=start, num_samples=sizes,
        nnz=[store.slice(s, s + k).nnz for s, k in zip(start, sizes)])
    result = InferenceServer(model, BatchingPolicy(4, 1e-3), PERF).serve(
        trace)
    for b in result.plan.batches:
        direct = oracle.predict(MiniBatch.concat([r.batch
                                                  for r in b.requests]))
        served = np.concatenate([result.responses[r.request_id]
                                 for r in b.requests])
        assert served.tobytes() == direct.tobytes()

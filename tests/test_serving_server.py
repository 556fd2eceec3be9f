"""Inference-server tests: real forwards behind the batcher, modeled time.

Served responses must equal direct single-request predictions exactly
(batching is a scheduling decision, never a numerics decision), the
perf model must price batches sensibly (amortized overhead, hierarchy
slowdown when the model spills HBM), and the obs wiring must account
for every request.
"""

import numpy as np
import pytest

from repro.obs import MetricRegistry, Tracer
from repro.perf import PlatformSpec
from repro.serving import (BatchingPolicy, InferenceServer,
                           ServingPerfModel)

from .helpers import tiny_system


class TestServe:
    def test_responses_match_unbatched_predict(self):
        sys = tiny_system()
        requests = sys.requests(20)
        server = InferenceServer(sys.servable,
                                 BatchingPolicy(max_batch_size=8,
                                                max_wait_s=1e-3))
        result = server.serve(requests)
        assert result.num_completed == 20
        # coalesced forward == per-request forward up to BLAS kernel
        # selection (matmul blocking differs by batch shape, so bitwise
        # equality across batch sizes is not guaranteed)
        for r in requests:
            np.testing.assert_allclose(result.responses[r.request_id],
                                       sys.servable.predict(r.batch),
                                       rtol=1e-6, atol=1e-6)

    def test_outcomes_sorted_and_accounted(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        result = server.serve(sys.requests(12))
        assert result.request_id.tolist() == list(range(12))
        assert (result.completion_s > result.dispatch_s).all()
        assert (result.dispatch_s >= result.arrival_s).all()
        assert (result.latencies_s() > 0).all()

    def test_shed_requests_have_no_response(self):
        sys = tiny_system()
        requests = sys.requests(10, spacing_s=0.0)
        server = InferenceServer(
            sys.servable, BatchingPolicy(max_batch_size=2, max_wait_s=10.0,
                                         max_queue_depth=2),
            ServingPerfModel(overhead_s=1.0))  # huge service time
        result = server.serve(requests)
        assert result.num_shed > 0
        assert result.num_completed + result.num_shed == 10
        for rid in result.shed_ids.tolist():
            assert rid not in result.responses

    def test_metrics_and_spans_recorded(self):
        sys = tiny_system()
        registry = MetricRegistry()
        tracer = Tracer(clock="logical")
        server = InferenceServer(sys.servable, tracer=tracer,
                                 metrics=registry)
        server.serve(sys.requests(8))
        snap = registry.snapshot()
        assert snap["serving.requests"] == 8
        assert snap["serving.completed"] == 8
        assert snap["serving.shed"] == 0
        assert snap["serving.samples"] == 8
        assert snap["serving.batches"] >= 1
        names = {e.name for e in tracer.trace.closed_events()}
        assert {"serving.batch", "serving.forward"} <= names

    def test_deterministic_replay(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        a = server.serve(sys.requests(15))
        b = server.serve(sys.requests(15))
        assert a.completion_s.tolist() == b.completion_s.tolist()


class TestServingPerfModel:
    def test_batched_amortizes_overhead(self):
        model = tiny_system().servable
        perf = ServingPerfModel()
        t1 = perf.service_time(model, 1, 10)
        t64 = perf.service_time(model, 64, 640)
        assert t64 < 64 * t1  # batching must be cheaper than 64 singles
        assert t64 > t1       # but not free

    def test_capacity_grows_with_batch(self):
        model = tiny_system().servable
        perf = ServingPerfModel()
        q1 = perf.capacity_qps(model, 1, 10.0)
        q64 = perf.capacity_qps(model, 64, 10.0)
        assert q64 > 2 * q1

    def test_hbm_overflow_degrades_bandwidth(self):
        model = tiny_system().servable
        tiny = PlatformSpec(name="tiny",
                            hbm_per_node_bytes=model.storage_bytes() / 4,
                            dram_per_node_bytes=1e12,
                            hbm_bw_per_node=850e9, dram_link_bw_per_node=12e9)
        fits = ServingPerfModel()
        spills = ServingPerfModel(platform=tiny)
        assert fits.bw_fraction(model) == 1.0
        assert spills.bw_fraction(model) < 1.0
        assert spills.service_time(model, 32, 320) > \
            fits.service_time(model, 32, 320)

    def test_validation(self):
        with pytest.raises(ValueError):
            ServingPerfModel(nodes=0)
        with pytest.raises(ValueError):
            ServingPerfModel(overhead_s=-1.0)
        model = tiny_system().servable
        perf = ServingPerfModel()
        with pytest.raises(ValueError):
            perf.service_time(model, 0, 1)
        with pytest.raises(ValueError):
            perf.service_time(model, 1, -1)

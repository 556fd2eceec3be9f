"""Property tests for the hot-swap slot: losslessness under fuzzing.

Hypothesis drives random swap timelines against random arrival/dispatch
timelines and random batching policies. Whatever the interleaving:

* every offered request is either completed or shed by admission
  control — a swap never drops or duplicates a request;
* every response is answered by exactly one snapshot — the one active
  at its batch's dispatch time;
* the swap timeline itself is monotone (versions strictly increase,
  publish times never run backwards), and so is the version sequence
  observed by dispatch order;
* the *schedule* (dispatch/completion times, batch shapes, sheds) is
  bitwise independent of the swap timeline — hot-swap never re-prices
  or delays an in-flight request.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import DLRM
from repro.online import ModelSlot
from repro.serving import (BatchingPolicy, FreezeConfig, InferenceRequest,
                           InferenceServer, ServingPerfModel, freeze)

from .helpers import tiny_system, trace_of

SYS = tiny_system()
# one frozen artifact per publish: same architecture (the slot demands
# it) but *different* weights, so binding the wrong version to a batch
# would produce visibly different predictions
SNAPSHOT_POOL = [freeze(DLRM(SYS.config, seed=k)) for k in range(9)]
BULK = SYS.dataset.batch(32, batch_index=0)


def make_requests(arrivals):
    return trace_of([InferenceRequest(request_id=i, arrival_s=t,
                                      batch=BULK.slice(i % 32, i % 32 + 1))
                     for i, t in enumerate(arrivals)])


def make_slot(publish_times):
    slot = ModelSlot(SNAPSHOT_POOL[0], step=0, publish_s=0.0)
    for i, t in enumerate(sorted(publish_times)):
        slot.publish(SNAPSHOT_POOL[(i + 1) % len(SNAPSHOT_POOL)],
                     step=i + 1, publish_s=t)
    return slot


# strategy pieces: virtual times within a few service times of t=0 so
# swaps genuinely interleave with queueing and dispatch
times = st.floats(min_value=0.0, max_value=0.03,
                  allow_nan=False, allow_infinity=False)
swap_timelines = st.lists(times, min_size=0, max_size=8)
arrival_lists = st.lists(times, min_size=1, max_size=24).map(sorted)
policies = st.builds(
    BatchingPolicy,
    max_batch_size=st.sampled_from([1, 2, 4, 8]),
    max_wait_s=st.sampled_from([0.0, 1e-4, 2e-3]))


class TestSwapProperties:
    @settings(max_examples=30, deadline=None)
    @given(publishes=swap_timelines, arrivals=arrival_lists,
           policy=policies)
    def test_conservation_no_drop_no_dup(self, publishes, arrivals, policy):
        requests = make_requests(arrivals)
        slot = make_slot(publishes)
        result = InferenceServer(slot.active.model, policy).serve(
            requests, slot=slot)
        completed = result.request_id.tolist()
        shed = result.shed_ids.tolist()
        assert len(set(completed)) == len(completed)  # no duplicates
        assert set(completed) | set(shed) == \
            {r.request_id for r in requests}          # no drops
        assert not set(completed) & set(shed)
        assert result.num_completed + result.num_shed == len(requests)
        assert set(result.responses) == set(completed)

    @settings(max_examples=30, deadline=None)
    @given(publishes=swap_timelines, arrivals=arrival_lists,
           policy=policies)
    def test_each_response_binds_one_version(self, publishes, arrivals,
                                             policy):
        requests = make_requests(arrivals)
        slot = make_slot(publishes)
        result = InferenceServer(slot.active.model, policy).serve(
            requests, slot=slot)
        for rid, dispatch_s, version in zip(result.request_id.tolist(),
                                            result.dispatch_s.tolist(),
                                            result.version.tolist()):
            snap = slot.snapshot_at(dispatch_s)
            assert version == snap.version
            # and the response is the bound snapshot's answer (up to
            # BLAS kernel selection across batch shapes, as in the
            # server suite — never a different snapshot's answer)
            np.testing.assert_allclose(
                result.responses[rid],
                snap.model.predict(requests[rid].batch), rtol=1e-6,
                atol=1e-6)
        per_version = result.requests_per_version()
        assert sum(per_version.values()) == result.num_completed
        assert all(0 <= v < len(slot.history) for v in per_version)

    @settings(max_examples=30, deadline=None)
    @given(publishes=swap_timelines, arrivals=arrival_lists,
           policy=policies)
    def test_versions_monotone(self, publishes, arrivals, policy):
        requests = make_requests(arrivals)
        slot = make_slot(publishes)
        versions = [s.version for s in slot.history]
        assert versions == list(range(len(slot.history)))
        pub = [s.publish_s for s in slot.history]
        assert all(a <= b for a, b in zip(pub, pub[1:]))
        result = InferenceServer(slot.active.model, policy).serve(
            requests, slot=slot)
        by_dispatch = np.lexsort((result.request_id, result.dispatch_s))
        seen = result.version[by_dispatch]
        assert (np.diff(seen) >= 0).all()

    @settings(max_examples=30, deadline=None)
    @given(publishes=swap_timelines, arrivals=arrival_lists,
           policy=policies)
    def test_schedule_is_swap_invariant(self, publishes, arrivals, policy):
        """The batch plan priced with swaps must equal the plan without:
        same dispatches, same completions, same sheds — bit for bit."""
        requests = make_requests(arrivals)
        slot = make_slot(publishes)
        server = InferenceServer(slot.history[0].model, policy)
        with_swaps = server.serve(requests, slot=slot)
        without = server.serve(make_requests(arrivals))
        for name in ("request_id", "arrival_s", "dispatch_s",
                     "completion_s", "batch_samples", "shed_ids"):
            assert getattr(with_swaps, name).tobytes() == \
                getattr(without, name).tobytes(), name

    @settings(max_examples=20, deadline=None)
    @given(publishes=swap_timelines, arrivals=arrival_lists)
    def test_conservation_holds_under_shedding(self, publishes, arrivals):
        """Swaps racing an overloaded queue still never leak a request:
        everything not completed was shed by admission, not by the swap."""
        requests = make_requests(arrivals)
        slot = make_slot(publishes)
        server = InferenceServer(
            slot.active.model,
            BatchingPolicy(max_batch_size=2, max_wait_s=0.0,
                           max_queue_depth=2),
            ServingPerfModel(overhead_s=5e-3))  # queue must overflow
        result = server.serve(requests, slot=slot)
        assert result.num_completed + result.num_shed == len(requests)
        assert set(result.request_id.tolist()) | \
            set(result.shed_ids.tolist()) == {r.request_id for r in requests}


class TestSlotValidation:
    def test_initial_install_is_version_zero(self):
        slot = ModelSlot(SNAPSHOT_POOL[0], step=3, publish_s=1.5)
        assert slot.version == 0
        assert slot.num_swaps == 0
        assert slot.active.step == 3
        assert slot.standby is None

    def test_publish_flips_active_and_keeps_standby(self):
        slot = make_slot([0.5])
        assert slot.version == 1
        assert slot.num_swaps == 1
        assert slot.standby is not None
        assert slot.standby.version == 0
        assert slot.active.publish_s == 0.5

    def test_snapshot_at_resolves_boundaries(self):
        slot = make_slot([0.5, 1.0])
        assert slot.snapshot_at(0.0).version == 0
        assert slot.snapshot_at(0.49).version == 0
        assert slot.snapshot_at(0.5).version == 1   # inclusive at publish
        assert slot.snapshot_at(0.99).version == 1
        assert slot.snapshot_at(5.0).version == 2
        with pytest.raises(ValueError):
            ModelSlot(SNAPSHOT_POOL[0], publish_s=1.0).snapshot_at(0.5)

    def test_snapshot_lookup_by_version(self):
        slot = make_slot([0.5])
        assert slot.snapshot(0).version == 0
        assert slot.snapshot(1) is slot.active
        with pytest.raises(KeyError):
            slot.snapshot(2)
        with pytest.raises(KeyError):
            slot.snapshot(-1)

    def test_rejects_architecture_change(self):
        other = tiny_system(num_tables=2).servable
        slot = ModelSlot(SNAPSHOT_POOL[0])
        with pytest.raises(ValueError, match="architecture"):
            slot.publish(other, step=1, publish_s=1.0)

    def test_rejects_precision_change(self):
        quant = freeze(SYS.model, FreezeConfig(precision="fp16"))
        slot = ModelSlot(SNAPSHOT_POOL[0])
        with pytest.raises(ValueError, match="precision"):
            slot.publish(quant, step=1, publish_s=1.0)

    def test_rejects_time_or_step_regression(self):
        slot = ModelSlot(SNAPSHOT_POOL[0], step=5, publish_s=2.0)
        with pytest.raises(ValueError, match="step"):
            slot.publish(SNAPSHOT_POOL[1], step=4, publish_s=3.0)
        with pytest.raises(ValueError, match="publish time"):
            slot.publish(SNAPSHOT_POOL[1], step=6, publish_s=1.0)

    def test_metrics_and_spans_on_publish(self):
        from repro.obs import MetricRegistry, Tracer
        registry = MetricRegistry()
        tracer = Tracer(clock="logical")
        slot = ModelSlot(SNAPSHOT_POOL[0], tracer=tracer, metrics=registry)
        slot.publish(SNAPSHOT_POOL[1], step=1, publish_s=0.1)
        slot.publish(SNAPSHOT_POOL[2], step=2, publish_s=0.2)
        snap = registry.snapshot()
        assert snap["serving.swaps"] == 2
        assert snap["serving.model_version"] == 2
        swaps = [e for e in tracer.trace.closed_events()
                 if e.name == "serving.swap"]
        assert [e.args["version"] for e in swaps] == [1, 2]

"""The window pass against the per-dispatch oracle, bit for bit.

``ServableModel.embed`` pools every table once for a window of
dispatches, and ``ServableModel.predict_window`` runs the dense half once
per row count, on ``(k, m, .)`` stacks of the dispatches with ``m`` rows.
``predict_many`` (and the executor, which runs the same two halves) must
return exactly what one ``predict`` per coalesced dispatch returned
(``tests/reference_serving.py``), and leave every counter where that path
left it: the dedup counters, each cold table's rows requested/read, and
each cache's stats, residency and backing-store bytes. A ``freq_aware``
cache decides admission once per read, so its counters are held instead
to one read per window through the window-policy loop oracle
(``tests/reference_cache.py``); its rows stay bitwise either way.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cache import CACHE_KINDS, FreqAwareCache
from repro.data import MiniBatch
from repro.embedding import EmbeddingTableConfig, lengths_to_offsets
from repro.models import DLRM, DLRMConfig
from repro.online import ModelSlot
from repro.serving import (BatchingPolicy, FreezeConfig, InferenceRequest,
                           InferenceServer, RequestTrace, ServingPerfModel,
                           freeze)
from repro.serving import server as server_module
from repro.serving.server import _windows

from .helpers import cache_state, tiny_dataset, trace_of
from .reference_cache import WindowLoopCache
from .reference_serving import (assert_same_columns, cold_reads_reference,
                                forward_reference, plan_lanes_reference,
                                predict_reference, predict_window_reference,
                                price_requests, serve_reference)


def _config(kind: str) -> DLRMConfig:
    """``projected``: mixed widths behind per-feature projections;
    ``mean``: mean pooling with many empty bags."""
    if kind == "projected":
        dims = (12, 8, 20, 6, 16)
        return DLRMConfig(
            dense_dim=5, bottom_mlp=(16, 8), top_mlp=(16,),
            project_features=True,
            tables=tuple(EmbeddingTableConfig(f"t{i}", 96, d,
                                              avg_pooling=2.5)
                         for i, d in enumerate(dims)))
    return DLRMConfig(
        dense_dim=5, bottom_mlp=(16, 8), top_mlp=(16,),
        tables=tuple(EmbeddingTableConfig(f"t{i}", 96, 8, avg_pooling=0.8,
                                          pooling_mode="mean")
                     for i in range(4)))


def _plan(config: DLRMConfig) -> SimpleNamespace:
    kinds = ("full", "int8", "tt", "cold", "fp16")
    return SimpleNamespace(assignments={
        t.name: SimpleNamespace(kind=kinds[i % len(kinds)], tt_ranks=(4, 4))
        for i, t in enumerate(config.tables)})


# export name -> (config kind, storage precision; None = planned export)
EXPORTS = {
    "fp32": ("projected", "fp32"),
    "fp16": ("projected", "fp16"),
    "int8": ("projected", "int8"),
    "planned": ("projected", None),
    "mean": ("mean", "fp32"),
}


def twins(export: str, cache_kind: str, seed: int = 0, copies: int = 2):
    """Identical frozen artifacts: the first runs the window pass, the
    second the per-dispatch oracle (a third, when asked for, serves
    :func:`window_oracle`)."""
    config_kind, precision = EXPORTS[export]
    config = _config(config_kind)
    model = DLRM(config, seed=seed)
    # half the tables' stored bytes: some tables hot, the rest cold
    per_element = {"fp32": 4, "fp16": 2, "int8": 1}.get(precision, 0)
    hot_bytes = 0.5 * per_element * sum(t.num_parameters
                                        for t in config.tables)
    fc = FreezeConfig(precision=precision or "fp32", hot_bytes=hot_bytes,
                      cache_kind=cache_kind, cache_fraction=0.2)
    plan = _plan(config) if precision is None else None
    made = [freeze(model, fc, plan=plan) for _ in range(copies)]
    assert made[0].cold_tables and made[0].hot_tables is not None
    if plan is not None:
        assert made[0].tt_tables
    return (config, *made)


def counters(model) -> dict:
    out = {"dedup": (model.dedup_rows_requested, model.dedup_rows_read)}
    for name, table in model.cold_tables.items():
        out[name] = (table.rows_requested, table.rows_read,
                     cache_state(table.cache, table.backing))
    return out


def window_oracle(model):
    """``model`` with each ``freq_aware`` cache turned, warm state and
    all, into the window-policy loop oracle; driven by
    :func:`cold_reads_reference`, one read per window."""
    for table in model.cold_tables.values():
        assert type(table.cache) is FreqAwareCache
        table.cache.__class__ = WindowLoopCache
    return model


def expected_counters(oracle, windowed=None) -> dict:
    """The per-dispatch oracle's counters, the cold tables' taken from
    ``windowed`` (a :func:`window_oracle`) when given."""
    out = counters(oracle)
    if windowed is not None:
        out.update((name, value) for name, value
                   in counters(windowed).items() if name != "dedup")
    return out


def empty_request(config: DLRMConfig) -> MiniBatch:
    """One sample whose every bag is empty."""
    return MiniBatch(
        dense=np.full((1, config.dense_dim), 0.5, dtype=np.float32),
        keys=[t.name for t in config.tables],
        lengths=np.zeros((len(config.tables), 1), dtype=np.int64),
        ids=np.zeros(0, dtype=np.int64),
        labels=np.zeros(1, dtype=np.float32))


def dispatches(config: DLRMConfig, seed: int, count: int = 8):
    """Random dispatches of 1-4 request batches of 1-3 samples each,
    with a one-sample dispatch and an all-empty-bags request."""
    rng = np.random.default_rng(seed)
    bulk = tiny_dataset(config, seed=seed).batch(200, batch_index=seed)
    out, start = [], 0
    for _ in range(count):
        dispatch = []
        for _ in range(int(rng.integers(1, 5))):
            size = int(rng.integers(1, 4))
            dispatch.append(bulk.slice(start, start + size))
            start += size
        out.append(dispatch)
    out.insert(int(rng.integers(0, count)), [bulk.slice(start, start + 1)])
    out[int(rng.integers(0, count))].append(empty_request(config))
    return out


def assert_bitwise(got: np.ndarray, expected: np.ndarray) -> None:
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestPredictMany:
    @pytest.mark.parametrize("cache_kind", CACHE_KINDS)
    @pytest.mark.parametrize("export", sorted(EXPORTS))
    def test_matches_per_dispatch_reference(self, export, cache_kind):
        windowed = cache_kind == "freq_aware"
        config, model, oracle, *loop = twins(export, cache_kind,
                                             copies=3 if windowed else 2)
        loop = window_oracle(loop[0]) if windowed else None
        for seed in range(3):
            window = dispatches(config, seed)
            got = model.predict_many(window)
            expected = [predict_reference(oracle, MiniBatch.concat(d))
                        for d in window]
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                assert_bitwise(g, e)
            if windowed:
                cold_reads_reference(loop, window)
            assert counters(model) == expected_counters(oracle, loop)

    @pytest.mark.parametrize("export", sorted(EXPORTS))
    def test_forward_and_predict_are_the_one_dispatch_case(self, export):
        config, model, oracle = twins(export, "freq_aware")
        batch = MiniBatch.concat(dispatches(config, 5)[0])
        assert_bitwise(model.forward(batch), forward_reference(oracle, batch))
        assert_bitwise(model.predict(batch), predict_reference(oracle, batch))
        assert counters(model) == counters(oracle)

    def test_one_sample_dispatches(self):
        config, model, oracle = twins("fp32", "set_associative")
        bulk = tiny_dataset(config).batch(12, batch_index=3)
        window = [[bulk.slice(i, i + 1)] for i in range(12)]
        for g, d in zip(model.predict_many(window), window):
            assert_bitwise(g, predict_reference(oracle, d[0]))
        assert counters(model) == counters(oracle)

    def test_only_empty_bags(self):
        config, model, oracle = twins("mean", "uvm")
        window = [[empty_request(config)], [empty_request(config)] * 2]
        for g, d in zip(model.predict_many(window), window):
            assert_bitwise(g, predict_reference(oracle, MiniBatch.concat(d)))
        assert counters(model) == counters(oracle)

    def test_no_dispatches(self):
        _, model, _ = twins("fp32", "freq_aware")
        assert model.predict_many([]) == []

    def test_empty_dispatch_rejected(self):
        config, model, _ = twins("fp32", "freq_aware")
        with pytest.raises(ValueError, match="at least one batch"):
            model.predict_many([dispatches(config, 0)[0], []])


# a window's dispatch row counts: empty, one-row, repeated and full-width
MIXED_COUNTS = [3, 0, 1, 3, 64, 1, 3, 2, 0, 64, 17]


class TestDenseHalf:
    @pytest.mark.parametrize("export", sorted(EXPORTS))
    def test_mixed_row_counts_match_per_dispatch_oracle(self, export):
        config, model, oracle = twins(export, "freq_aware")
        bulk = tiny_dataset(config, seed=2).batch(sum(MIXED_COUNTS),
                                                  batch_index=2)
        bounds = lengths_to_offsets(MIXED_COUNTS)
        got = model.predict_window(model.embed(bulk, bounds))
        expected = predict_window_reference(
            oracle, oracle.embed(bulk, bounds))
        assert len(got) == len(MIXED_COUNTS)
        for g, e, m in zip(got, expected, MIXED_COUNTS):
            assert g.shape == (m,)
            assert_bitwise(g, e)
        for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:  # the whole per-dispatch path, embedding included
                assert_bitwise(got[i], predict_reference(
                    oracle, bulk.slice(int(lo), int(hi))))

    def test_one_dense_pass_per_row_count(self, monkeypatch):
        config, model, _ = twins("fp32", "freq_aware")
        bulk = tiny_dataset(config).batch(sum(MIXED_COUNTS), batch_index=1)
        window = model.embed(bulk, lengths_to_offsets(MIXED_COUNTS))
        calls = []
        forward_list = model.interaction.forward_list
        monkeypatch.setattr(model.interaction, "forward_list",
                            lambda feats: calls.append(feats[0].shape)
                            or forward_list(feats))
        model.predict_window(window)
        assert sorted(calls) == sorted(
            (MIXED_COUNTS.count(m), m, config.embedding_dim)
            for m in set(MIXED_COUNTS))

    @pytest.mark.parametrize("cache_kind", CACHE_KINDS)
    def test_wrong_dense_width_rejected_before_any_read(self, cache_kind):
        config, model, _ = twins("fp32", cache_kind)
        batch = MiniBatch.concat(dispatches(config, 1)[0])
        before = counters(model)
        for dense in (batch.dense[:, :-1], batch.dense[:, 0]):
            bad = MiniBatch(dense=dense, keys=batch.keys,
                            lengths=batch.lengths, ids=batch.ids,
                            labels=batch.labels)
            with pytest.raises(ValueError,
                               match=rf"\(batch, {config.dense_dim}\)"):
                model.predict(bad)
            assert counters(model) == before


def swap_slot(served):
    """v0 -> v1 -> v2, where v2 republishes v1's artifact: a window must
    split on the version even when the model object stays."""
    slot = ModelSlot(served[0], step=0, publish_s=0.0)
    slot.publish(served[1], step=1, publish_s=2e-3)
    slot.publish(served[1], step=2, publish_s=4e-3)
    return slot


class TestExecutor:
    def _requests(self, config, n=48):
        bulk = tiny_dataset(config, seed=4).batch(3 * n, batch_index=4)
        requests, start = [], 0
        for i in range(n):
            size = 1 + i % 3
            requests.append(InferenceRequest(
                request_id=i, arrival_s=i * 1.5e-4,
                batch=bulk.slice(start, start + size)))
            start += size
        return trace_of(requests)

    @pytest.mark.parametrize("budget", [1, 7, 512])
    def test_served_equals_reference_across_swaps(self, monkeypatch,
                                                  budget):
        monkeypatch.setattr(server_module, "_WINDOW_SAMPLES", budget)
        config = _config("projected")
        fc = FreezeConfig(hot_bytes=2e3, cache_kind="freq_aware",
                          cache_fraction=0.2)
        sources = [DLRM(config, seed=k) for k in range(2)]
        served = [freeze(m, fc) for m in sources]
        oracle = {id(s): freeze(m, fc) for s, m in zip(served, sources)}
        loop = {id(s): window_oracle(freeze(m, fc))
                for s, m in zip(served, sources)}
        slot = swap_slot(served)
        result = InferenceServer(
            served[0], BatchingPolicy(max_batch_size=6, max_wait_s=5e-4)
        ).serve(self._requests(config), slot=slot)
        assert set(result.requests_per_version()) == {0, 1, 2}
        for b in result.plan.batches:
            snapshot = slot.snapshot_at(b.dispatch_s)
            expected = predict_reference(
                oracle[id(snapshot.model)],
                MiniBatch.concat([r.batch for r in b.requests]))
            assert_bitwise(np.concatenate(
                [result.responses[r.request_id] for r in b.requests]),
                expected)
        for model, _, window in _windows(result.plan, served[0], slot):
            cold_reads_reference(loop[id(model)],
                                 [[r.batch for r in b.requests]
                                  for b in window])
        for s in served:
            assert counters(s) == expected_counters(oracle[id(s)],
                                                    loop[id(s)])

    @pytest.mark.parametrize("swaps", [False, True])
    @pytest.mark.parametrize("budget", [1, 7, 512])
    def test_columns_equal_reference_records(self, monkeypatch, budget,
                                             swaps):
        """The result's six columns and shed ids, against one record per
        request from the per-request loop, for a fixed model and across
        slot swaps. Ids are shuffled against arrival order, so dispatch
        order is not id order; a slow server and a short queue make
        sheds too."""
        monkeypatch.setattr(server_module, "_WINDOW_SAMPLES", budget)
        config = _config("projected")
        served = [freeze(DLRM(config, seed=k)) for k in range(2)]
        slot = swap_slot(served) if swaps else None
        perf = ServingPerfModel(overhead_s=1.5e-3)
        policy = BatchingPolicy(max_batch_size=6, max_wait_s=5e-4,
                                max_queue_depth=8)
        trace = self._requests(config)
        trace = RequestTrace(
            np.random.default_rng(0).permutation(len(trace)),
            trace.arrival_s, trace.stores, start=trace.start,
            num_samples=trace.num_samples, nnz=trace.nnz)
        result = InferenceServer(served[0], policy, perf).serve(trace,
                                                                slot=slot)
        plan = plan_lanes_reference(
            [trace[i] for i in range(len(trace))], lambda r: 0, [policy],
            [lambda reqs: price_requests(perf, served[0], reqs)])[0]
        _, outcomes, shed = serve_reference(served[0], plan, slot=slot)
        assert result.num_shed > 0
        assert len(set(result.version.tolist())) == (3 if swaps else 1)
        assert_same_columns(result, outcomes, shed)

    @pytest.mark.parametrize("budget", [1, 7, 512])
    def test_one_dense_call_per_window(self, budget, monkeypatch):
        monkeypatch.setattr(server_module, "_WINDOW_SAMPLES", budget)
        config = _config("projected")
        model = freeze(DLRM(config, seed=0))
        calls = []
        predict_window = model.predict_window
        monkeypatch.setattr(model, "predict_window",
                            lambda window: calls.append(window.bounds)
                            or predict_window(window))
        result = InferenceServer(
            model, BatchingPolicy(max_batch_size=6, max_wait_s=5e-4)
        ).serve(self._requests(config))
        windows = [w for _, _, w in _windows(result.plan, model, None)]
        assert len(calls) == len(windows)
        for bounds, window in zip(calls, windows):
            assert np.diff(bounds).tolist() == [b.num_samples
                                                for b in window]

    @pytest.mark.parametrize("budget", [1, 7, 20, 512])
    def test_windows_partition_the_plan(self, budget, monkeypatch):
        monkeypatch.setattr(server_module, "_WINDOW_SAMPLES", budget)
        config = _config("projected")
        served = [freeze(DLRM(config, seed=k)) for k in range(2)]
        slot = swap_slot(served)
        plan = InferenceServer(
            served[0], BatchingPolicy(max_batch_size=6, max_wait_s=5e-4)
        ).batcher.plan(self._requests(config), lambda size, nnz: 4e-4)
        windows = list(_windows(plan, served[0], slot))
        assert [b for _, _, w in windows for b in w] == plan.batches
        for model, version, window in windows:
            for b in window:
                snapshot = slot.snapshot_at(b.dispatch_s)
                assert snapshot.model is model
                assert snapshot.version == version
            assert len(window) == 1 or \
                sum(b.num_samples for b in window) <= budget
        fixed = list(_windows(plan, served[0], None))
        assert all(m is served[0] and v == 0 for m, v, _ in fixed)
        assert len(fixed) <= len(windows)

"""Load-generator and SLO-report tests: seeded determinism and accounting.

An open-loop Poisson trace must be exactly reproducible from its seed,
statistically honest about its offered rate, and the report derived
from a serve run must account for every offered request.
"""

import numpy as np
import pytest

from repro.serving import (BatchingPolicy, InferenceServer, LoadReport,
                           PoissonLoadGen, ServingPerfModel, run_load_test)
from repro.serving.loadgen import summarize

from .helpers import tiny_system


class TestPoissonLoadGen:
    def test_same_seed_same_trace(self):
        a = PoissonLoadGen(qps=1000, num_requests=50, seed=7)
        b = PoissonLoadGen(qps=1000, num_requests=50, seed=7)
        np.testing.assert_array_equal(a.arrival_times(), b.arrival_times())

    def test_different_seed_different_trace(self):
        a = PoissonLoadGen(qps=1000, num_requests=50, seed=7)
        b = PoissonLoadGen(qps=1000, num_requests=50, seed=8)
        assert not np.array_equal(a.arrival_times(), b.arrival_times())

    def test_mean_rate_approximates_qps(self):
        gen = PoissonLoadGen(qps=500, num_requests=4000, seed=0)
        arrivals = gen.arrival_times()
        measured = len(arrivals) / arrivals[-1]
        assert measured == pytest.approx(500, rel=0.1)

    def test_arrivals_increase_from_start(self):
        gen = PoissonLoadGen(qps=100, num_requests=20, seed=1, start_s=5.0)
        arrivals = gen.arrival_times()
        assert arrivals[0] > 5.0
        assert np.all(np.diff(arrivals) > 0)

    def test_requests_slice_the_bulk_batch(self):
        ds = tiny_system().dataset
        gen = PoissonLoadGen(qps=100, num_requests=10, seed=2)
        requests = gen.requests(ds)
        bulk = ds.batch(10, batch_index=2)
        assert [r.request_id for r in requests] == list(range(10))
        for i, r in enumerate(requests):
            assert r.num_samples == 1
            np.testing.assert_array_equal(r.batch.dense, bulk.dense[i:i + 1])

    def test_for_duration_sizes_to_expected_arrivals(self):
        gen = PoissonLoadGen.for_duration(qps=250, duration_s=2.0, seed=5)
        assert gen.num_requests == 500
        assert gen.qps == 250
        assert gen.seed == 5
        # degenerate horizon still produces at least one request
        assert PoissonLoadGen.for_duration(qps=1, duration_s=1e-6) \
            .num_requests == 1
        with pytest.raises(ValueError):
            PoissonLoadGen.for_duration(qps=100, duration_s=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonLoadGen(qps=0, num_requests=10)
        with pytest.raises(ValueError):
            PoissonLoadGen(qps=10, num_requests=0)
        # a size is a whole number: no float (even an integral one), no
        # bool; numpy integers are fine
        for bad in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="num_requests"):
                PoissonLoadGen(qps=100, num_requests=bad)
        assert len(PoissonLoadGen(qps=100, num_requests=np.int64(3))
                   .arrival_times()) == 3


class TestLoadReport:
    def test_accounting_conserves_requests(self):
        sys = tiny_system()
        # tiny queue + slow server forces sheds
        server = InferenceServer(
            sys.servable, BatchingPolicy(max_batch_size=4, max_wait_s=1e-4,
                                         max_queue_depth=4),
            ServingPerfModel(overhead_s=5e-3))
        report = run_load_test(server, sys.dataset, qps=5000,
                               num_requests=200, slo_s=5e-3, seed=0)
        assert report.num_offered == 200
        assert report.num_completed + report.num_shed == 200
        assert report.num_shed > 0
        assert 0 < report.shed_fraction < 1

    def test_seeded_report_is_exactly_reproducible(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        a = run_load_test(server, sys.dataset, qps=2000, num_requests=150,
                          slo_s=5e-3, seed=4)
        b = run_load_test(server, sys.dataset, qps=2000, num_requests=150,
                          slo_s=5e-3, seed=4)
        assert a == b

    def test_percentiles_ordered(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        report = run_load_test(server, sys.dataset, qps=2000,
                               num_requests=150, slo_s=5e-3, seed=0)
        assert 0 < report.p50_s <= report.p95_s <= report.p99_s \
            <= report.max_s
        assert report.makespan_s > 0

    def test_goodput_counts_only_within_slo(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        out = []
        report = run_load_test(server, sys.dataset, qps=2000,
                               num_requests=100, slo_s=5e-3, seed=0,
                               result_out=out)
        result = out[0]
        within = int(np.sum(result.latencies_s() <= report.slo_s))
        makespan = result.completion_s.max() - result.arrival_s.min()
        assert report.goodput_qps == pytest.approx(within / makespan)
        assert report.slo_attainment == pytest.approx(within / 100)
        # under light load everything meets a 5 ms SLO
        assert report.slo_attainment == 1.0
        assert report.goodput_qps == pytest.approx(report.completed_qps)

    def test_impossible_slo_zeroes_goodput(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        report = run_load_test(server, sys.dataset, qps=2000,
                               num_requests=100, slo_s=1e-9, seed=0)
        assert report.goodput_qps == 0.0
        assert report.slo_attainment == 0.0
        assert report.completed_qps > 0  # work still happened

    def test_row_matches_header(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        report = run_load_test(server, sys.dataset, qps=2000,
                               num_requests=50, slo_s=5e-3, seed=0)
        assert len(report.row()) == len(LoadReport.ROW_HEADER)

    def test_summarize_empty_result(self):
        from repro.serving import ServeResult
        report = summarize(ServeResult(), offered_qps=100, num_offered=0,
                           slo_s=1e-3)
        assert report.num_completed == 0
        assert report.goodput_qps == 0.0
        assert report.shed_fraction == 0.0

    def test_rejects_bad_slo(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        with pytest.raises(ValueError):
            run_load_test(server, sys.dataset, qps=100, num_requests=10,
                          slo_s=0.0)


class TestStreamsAndSamples:
    """Fleet-facing extensions: named rng sub-streams and raw samples."""

    def test_default_stream_preserves_the_historical_trace(self):
        from repro.serving.loadgen import ARRIVAL_STREAM
        a = PoissonLoadGen(qps=1000, num_requests=50, seed=7)
        b = PoissonLoadGen(qps=1000, num_requests=50, seed=7,
                           stream=ARRIVAL_STREAM)
        np.testing.assert_array_equal(a.arrival_times(), b.arrival_times())

    def test_streams_decorrelate_under_one_seed(self):
        from repro.serving.loadgen import (ARRIVAL_STREAM, ROUTER_STREAM,
                                           USER_STREAM)
        assert len({ARRIVAL_STREAM, USER_STREAM, ROUTER_STREAM}) == 3
        a = PoissonLoadGen(qps=1000, num_requests=50, seed=7,
                           stream=ARRIVAL_STREAM)
        b = PoissonLoadGen(qps=1000, num_requests=50, seed=7,
                           stream=USER_STREAM)
        assert not np.array_equal(a.arrival_times(), b.arrival_times())

    def test_keep_samples_carries_the_latencies(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        out = []
        report = run_load_test(server, sys.dataset, qps=500,
                               num_requests=60, slo_s=5e-3, seed=1,
                               result_out=out, keep_samples=True)
        np.testing.assert_array_equal(np.array(report.samples_s),
                                      out[0].latencies_s())
        assert report.without_samples() == run_load_test(
            InferenceServer(sys.servable), sys.dataset, qps=500,
            num_requests=60, slo_s=5e-3, seed=1)

    def test_report_bounds_match_the_outcomes(self):
        sys = tiny_system()
        server = InferenceServer(sys.servable)
        out = []
        report = run_load_test(server, sys.dataset, qps=500,
                               num_requests=40, slo_s=5e-3, seed=0,
                               result_out=out)
        result = out[0]
        assert report.first_arrival_s == result.arrival_s.min()
        assert report.last_completion_s == result.completion_s.max()
        assert report.makespan_s == pytest.approx(
            report.last_completion_s - report.first_arrival_s)

    def test_requests_from_arrivals_user_rows(self):
        from repro.serving.loadgen import requests_from_arrivals
        ds = tiny_system().dataset
        arrivals = np.array([0.0, 0.1, 0.2, 0.3])
        rows = np.array([1, 0, 1, 1])
        requests = requests_from_arrivals(ds, arrivals, batch_index=0,
                                          user_rows=rows)
        assert [r.user_id for r in requests] == [1, 0, 1, 1]
        # shared rows mean byte-identical recurring samples
        np.testing.assert_array_equal(requests[0].batch.dense,
                                      requests[2].batch.dense)
        bulk = ds.batch(2, batch_index=0)
        np.testing.assert_array_equal(requests[1].batch.dense,
                                      bulk.dense[0:1])
        with pytest.raises(ValueError):
            requests_from_arrivals(ds, arrivals, batch_index=0,
                                   user_rows=np.array([0, 1]))

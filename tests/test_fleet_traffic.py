"""Fleet traffic tests: diurnal NHPP shaping and the Zipf user population.

The contract has three legs: a flat curve must reproduce the historical
flat-Poisson trace *bitwise* (the fleet rides on the serving substrate,
it does not fork it); a diurnal curve must actually move arrivals toward
the peak hours while conserving their count and order; and a Zipf user
population must make hot users recur with byte-identical sample
contents, since recurrence is what replica-local caches measure.
"""

import numpy as np
import pytest

from repro.fleet import DEFAULT_DAY_CURVE, DayCurve, FleetTraffic
from repro.serving import PoissonLoadGen
from repro.serving.loadgen import ARRIVAL_STREAM, USER_STREAM

from .helpers import tiny_system


class TestDayCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            DayCurve(hourly=(1.0,))
        with pytest.raises(ValueError):
            DayCurve(hourly=(1.0, 0.0))
        with pytest.raises(ValueError):
            DayCurve(day_s=0.0)
        with pytest.raises(ValueError):
            DayCurve().cumulative_rate(0.0)

    def test_is_flat(self):
        assert DayCurve(hourly=(2.0, 2.0, 2.0)).is_flat
        assert not DayCurve().is_flat

    def test_multiplier_normalizes_to_mean_one(self):
        curve = DayCurve()  # DEFAULT_DAY_CURVE does not sum to exactly 24
        t = np.linspace(0.0, curve.day_s, 100001)
        assert np.mean(curve.multiplier_at(t)) == pytest.approx(1.0,
                                                                rel=1e-3)
        # an already-normalized flat curve maps to exactly 1.0 everywhere
        flat = DayCurve(hourly=(3.0, 3.0))
        np.testing.assert_allclose(flat.multiplier_at(t), 1.0)

    def test_multiplier_is_periodic(self):
        curve = DayCurve(day_s=60.0)
        t = np.linspace(0.0, 60.0, 977)
        np.testing.assert_allclose(curve.multiplier_at(t),
                                   curve.multiplier_at(t + 60.0))
        np.testing.assert_allclose(curve.multiplier_at(t),
                                   curve.multiplier_at(t + 3 * 60.0))

    def test_multiplier_interpolates_hour_centers(self):
        curve = DayCurve(hourly=(1.0, 3.0), day_s=2.0)
        # hour centers at t=0.5 and t=1.5 carry the normalized values
        assert curve.multiplier_at(0.5) == pytest.approx(0.5)
        assert curve.multiplier_at(1.5) == pytest.approx(1.5)
        # midpoint between centers is the average; midnight wraps
        assert curve.multiplier_at(1.0) == pytest.approx(1.0)
        assert curve.multiplier_at(0.0) == pytest.approx(1.0)

    def test_cumulative_rate_monotone_and_mean_preserving(self):
        curve = DayCurve(day_s=60.0)
        t, cum = curve.cumulative_rate(60.0)
        assert cum[0] == 0.0
        assert np.all(np.diff(cum) >= 0)
        # mean-1 multiplier integrates to the horizon over a whole day
        assert cum[-1] == pytest.approx(60.0, rel=1e-3)


class TestFlatParity:
    """curve=None (and any flat curve) must be the old trace bitwise."""

    def test_arrivals_match_poisson_loadgen_bitwise(self):
        traffic = FleetTraffic(mean_qps=800.0, duration_s=0.5, seed=11)
        gen = PoissonLoadGen(qps=800.0, num_requests=traffic.num_requests,
                             seed=11)
        np.testing.assert_array_equal(traffic.arrival_times(),
                                      gen.arrival_times())

    def test_flat_curve_skips_the_warp(self):
        flat = FleetTraffic(mean_qps=500.0, duration_s=0.5, seed=3,
                            curve=DayCurve(hourly=(2.0, 2.0, 2.0),
                                           day_s=0.5))
        none = FleetTraffic(mean_qps=500.0, duration_s=0.5, seed=3)
        np.testing.assert_array_equal(flat.arrival_times(),
                                      none.arrival_times())

    def test_requests_match_poisson_loadgen_bitwise(self):
        ds = tiny_system().dataset
        traffic = FleetTraffic(mean_qps=200.0, duration_s=0.2, seed=7)
        gen = PoissonLoadGen(qps=200.0, num_requests=traffic.num_requests,
                             seed=7)
        ours, theirs = traffic.requests(ds), gen.requests(ds)
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert a.request_id == b.request_id
            assert a.arrival_s == b.arrival_s
            assert a.user_id is None
            np.testing.assert_array_equal(a.batch.dense, b.batch.dense)


class TestDiurnalArrivals:
    def _diurnal(self, seed=0, qps=500.0):
        return FleetTraffic(mean_qps=qps, duration_s=60.0,
                            curve=DayCurve(day_s=60.0), seed=seed)

    def test_count_order_and_range_preserved(self):
        traffic = self._diurnal()
        arrivals = traffic.arrival_times()
        assert len(arrivals) == traffic.num_requests
        assert np.all(np.diff(arrivals) >= 0)
        assert arrivals[0] >= 0.0
        assert arrivals[-1] <= 60.0 + 1e-9

    def test_peak_hour_denser_than_trough(self):
        arrivals = self._diurnal().arrival_times()
        hour = 60.0 / 24
        # DEFAULT_DAY_CURVE: hour 18 peaks at 1.70, hour 3 troughs at 0.27
        peak = np.sum((arrivals >= 18 * hour) & (arrivals < 19 * hour))
        trough = np.sum((arrivals >= 3 * hour) & (arrivals < 4 * hour))
        assert peak > 3 * trough

    def test_seed_determinism(self):
        np.testing.assert_array_equal(self._diurnal(seed=5).arrival_times(),
                                      self._diurnal(seed=5).arrival_times())
        assert not np.array_equal(self._diurnal(seed=5).arrival_times(),
                                  self._diurnal(seed=6).arrival_times())

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetTraffic(mean_qps=0.0, duration_s=1.0)
        with pytest.raises(ValueError):
            FleetTraffic(mean_qps=1.0, duration_s=0.0)
        with pytest.raises(ValueError):
            FleetTraffic(mean_qps=1.0, duration_s=1.0, num_users=-1)


class TestUserPopulation:
    def test_anonymous_by_default(self):
        traffic = FleetTraffic(mean_qps=100.0, duration_s=0.5)
        assert traffic.user_ids() is None
        ds = tiny_system().dataset
        assert all(r.user_id is None for r in traffic.requests(ds))

    def test_user_ids_in_range_and_skewed(self):
        traffic = FleetTraffic(mean_qps=2000.0, duration_s=1.0,
                               num_users=50, zipf_alpha=1.2, seed=0)
        users = traffic.user_ids()
        assert len(users) == traffic.num_requests
        assert users.min() >= 0 and users.max() < 50
        counts = np.bincount(users, minlength=50)
        # Zipf rank order: user 0 is the hottest, the tail is cold
        assert counts[0] == counts.max()
        assert counts[0] > 5 * counts[25:].mean()

    def test_hot_users_resubmit_identical_samples(self):
        ds = tiny_system().dataset
        traffic = FleetTraffic(mean_qps=1000.0, duration_s=0.5,
                               num_users=20, seed=4)
        requests = traffic.requests(ds)
        by_user = {}
        for r in requests:
            assert r.user_id is not None
            if r.user_id in by_user:
                first = by_user[r.user_id]
                np.testing.assert_array_equal(r.batch.dense,
                                              first.batch.dense)
                np.testing.assert_array_equal(r.batch.lengths,
                                              first.batch.lengths)
                np.testing.assert_array_equal(r.batch.ids, first.batch.ids)
            else:
                by_user[r.user_id] = r
        # the population is small enough that recurrence must happen
        assert len(by_user) < len(requests)
        # distinct users carry distinct samples (rows of one bulk draw)
        users = sorted(by_user)
        assert not np.array_equal(by_user[users[0]].batch.dense,
                                  by_user[users[1]].batch.dense)

    def test_user_stream_independent_of_arrival_stream(self):
        base = FleetTraffic(mean_qps=300.0, duration_s=1.0, num_users=30,
                            seed=9)
        shifted = FleetTraffic(mean_qps=300.0, duration_s=1.0, num_users=30,
                               seed=9, stream=ARRIVAL_STREAM + 100)
        # different arrival sub-stream, same seed: arrivals differ but the
        # user population draw is untouched
        assert not np.array_equal(base.arrival_times(),
                                  shifted.arrival_times())
        np.testing.assert_array_equal(base.user_ids(), shifted.user_ids())
        assert USER_STREAM != ARRIVAL_STREAM

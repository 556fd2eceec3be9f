"""Diurnal day-curve + Zipf-user traffic for the serving fleet.

Production recommendation traffic is neither flat nor anonymous: the
offered rate follows a day curve (trough at night, evening peak — the
reason autoscaling pays at all), and the user population is heavily
Zipf-skewed, so a small set of hot users accounts for a large share of
requests. Both matter to the systems above this module: the day curve is
what the autoscaler tracks, and recurring hot users are what make
replica-local caches (and the frequency-aware cache arc after this one)
measurable — the same user always resubmits the *identical* sample.

Everything is a deterministic function of one seed, layered on the flat
Poisson substrate of :mod:`repro.serving.loadgen`:

* the arrival process is a non-homogeneous Poisson process built by
  *time-warping* a homogeneous trace through the inverse cumulative
  rate function of the :class:`DayCurve` (the standard inversion
  construction), so a flat curve degenerates to the historical
  flat-Poisson trace **bitwise** — the warp is skipped entirely;
* user draws come from the named ``USER_STREAM`` sub-stream of the same
  seed, so arrivals and user identities never correlate;
* request contents funnel through the shared
  :func:`repro.serving.loadgen.requests_from_arrivals`, one bulk
  dataset generation per trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .. import check
from ..data.datagen import SyntheticCTRDataset
from ..serving.batcher import RequestTrace
from ..serving.loadgen import (ARRIVAL_STREAM, USER_STREAM, PoissonLoadGen,
                               requests_from_arrivals)

__all__ = ["DayCurve", "DEFAULT_DAY_CURVE", "FleetTraffic"]

# Hourly rate multipliers of a typical consumer-app day: overnight
# trough, morning ramp, evening peak around 18:00-19:00. Normalized to
# mean 1.0 at use, so ``mean_qps`` stays the daily average whatever the
# shape. Peak-to-trough ratio ~6x — wide enough that a peak-provisioned
# static fleet wastes most of its replica-hours overnight.
DEFAULT_DAY_CURVE = (0.35, 0.30, 0.28, 0.27, 0.30, 0.38,
                     0.50, 0.65, 0.80, 0.92, 1.00, 1.05,
                     1.10, 1.15, 1.20, 1.30, 1.45, 1.60,
                     1.70, 1.65, 1.50, 1.20, 0.80, 0.50)


@dataclass(frozen=True)
class DayCurve:
    """A periodic diurnal rate-multiplier curve.

    ``hourly`` gives one multiplier per hour of the (virtual) day;
    :meth:`multiplier_at` interpolates linearly between hour centers and
    wraps around midnight. ``day_s`` is the virtual length of a day —
    benchmarks compress it (e.g. a 60 s "day") because virtual-time cost
    scales with request count, not simulated seconds.
    """

    hourly: Tuple[float, ...] = DEFAULT_DAY_CURVE
    day_s: float = 86400.0

    def __post_init__(self) -> None:
        if len(self.hourly) < 2:
            raise ValueError("need at least 2 hourly points")
        for h in self.hourly:
            check.positive("an hourly multiplier", h)
        check.positive("day_s", self.day_s)

    @property
    def is_flat(self) -> bool:
        return len(set(self.hourly)) == 1

    def _normalized(self) -> np.ndarray:
        h = np.asarray(self.hourly, dtype=np.float64)
        return h / h.mean()

    def multiplier_at(self, t_s) -> np.ndarray:
        """Mean-1 rate multiplier at virtual time ``t_s`` (vectorized,
        periodic in ``day_s``)."""
        h = self._normalized()
        n = len(h)
        # hour centers, with wrap points on both sides for periodic interp
        phase = (np.asarray(t_s, dtype=np.float64) % self.day_s) \
            / self.day_s * n
        # hour centers at 0.5..n-0.5, plus the wrapped neighbors on
        # either side (previous day's last hour, next day's first)
        grid = np.concatenate(([-0.5], np.arange(n) + 0.5, [n + 0.5]))
        values = np.concatenate(([h[-1]], h, [h[0]]))
        return np.interp(phase, grid, values)

    def cumulative_rate(self, duration_s: float, grid_points: int = 4096
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """``(t_grid, integral of multiplier over [0, t])`` on a uniform
        grid — the Λ(t) (per unit mean rate) the NHPP inversion warps
        through."""
        check.positive("duration_s", duration_s)
        t = np.linspace(0.0, duration_s, grid_points)
        m = self.multiplier_at(t)
        dt = t[1] - t[0]
        # trapezoid cumulative integral, anchored at Λ(0) = 0
        cum = np.concatenate(([0.0], np.cumsum((m[1:] + m[:-1]) * 0.5 * dt)))
        return t, cum


@dataclass(frozen=True)
class FleetTraffic:
    """Seeded fleet arrival trace: diurnal rate, Zipf user population.

    ``mean_qps`` is the day-average offered rate; ``curve=None`` (or a
    flat curve) yields the historical flat Poisson trace bitwise.
    ``num_users=0`` keeps the pre-fleet anonymous behavior (every
    request a fresh sample); ``num_users>0`` draws each request's user
    from a Zipf(``zipf_alpha``) population of that size, and every
    request from one user carries the identical sample.
    """

    mean_qps: float
    duration_s: float
    curve: Optional[DayCurve] = None
    num_users: int = 0
    zipf_alpha: float = 1.05
    seed: int = 0
    stream: int = ARRIVAL_STREAM

    def __post_init__(self) -> None:
        check.positive("mean_qps", self.mean_qps)
        check.positive("duration_s", self.duration_s)
        check.count("num_users", self.num_users, low=0)
        check.nonnegative("zipf_alpha", self.zipf_alpha)
        check.count("seed", self.seed, low=0)
        check.count("stream", self.stream, low=0)

    @property
    def num_requests(self) -> int:
        return max(1, int(round(self.mean_qps * self.duration_s)))

    def arrival_times(self) -> np.ndarray:
        """NHPP arrivals over ``[0, duration_s]`` via inversion.

        A homogeneous Poisson trace at the mean rate becomes unit-rate
        by scaling, then warps through Λ⁻¹ of the day curve; where the
        curve runs above mean the warp compresses inter-arrival gaps
        (peak), below mean it stretches them (trough). Flat curves skip
        the warp so the trace is bit-identical to the plain generator.
        """
        gen = PoissonLoadGen(qps=self.mean_qps,
                             num_requests=self.num_requests,
                             seed=self.seed, stream=self.stream)
        homogeneous = gen.arrival_times()
        if self.curve is None or self.curve.is_flat:
            return homogeneous
        t_grid, cum = self.curve.cumulative_rate(self.duration_s)
        # unit-rate event times; Λ here is per unit mean rate, so scale
        # arrivals by mean_qps to match its units
        unit = homogeneous * self.mean_qps
        return np.interp(unit, cum * self.mean_qps, t_grid)

    def user_ids(self) -> Optional[np.ndarray]:
        """Zipf-ranked user id per request (hot user = low id), or
        ``None`` when the population is disabled."""
        if self.num_users == 0:
            return None
        rng = np.random.default_rng((self.seed, USER_STREAM))
        from ..data.datagen import zipf_indices
        return zipf_indices(self.num_users, self.num_requests, rng,
                            alpha=self.zipf_alpha)

    def requests(self, dataset: SyntheticCTRDataset) -> RequestTrace:
        """Materialize the trace over ``dataset``.

        With a user population, sample contents are generated once per
        *user* (bulk draw over the users that actually appear, densely
        re-indexed so the draw is sized to the active population) and
        shared by all of that user's requests.
        """
        arrivals = self.arrival_times()
        users = self.user_ids()
        if users is None:
            return requests_from_arrivals(dataset, arrivals,
                                          batch_index=self.seed)
        # dense re-index: row k of the bulk draw = k-th hottest active
        # user, so the draw covers exactly the users that occur
        unique, rows = np.unique(users, return_inverse=True)
        return requests_from_arrivals(dataset, arrivals,
                                      batch_index=self.seed,
                                      user_rows=rows)

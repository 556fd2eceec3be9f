"""Seedable open-loop Poisson load generation and SLO reporting.

An *open-loop* generator emits arrivals from a Poisson process at the
offered rate regardless of how the server keeps up — the honest way to
measure tail latency (closed-loop generators self-throttle and hide
queueing collapse). Each request is a single-user sample drawn from
the synthetic CTR distribution training uses, so embedding id
popularity keeps its Zipf skew and the serving cache tier sees
realistic hot sets.

The report answers the SLO question directly: latency percentiles over
completed requests, goodput (completed-within-SLO per second of
makespan), shed rate from admission control, and SLO attainment. Same
seed, same policy, same report — bit for bit.

This module is also the trace-generation substrate of the multi-replica
fleet (:mod:`repro.fleet`): every arrival process there — the diurnal
day-curve, per-replica sub-streams, the Zipf user population — is built
from the same seeded primitives (``stream`` sub-streams of one seed,
:func:`requests_from_arrivals`), and per-replica results merge back into
one fleet-level report through :meth:`LoadReport.merge` with *exact*
percentiles over the pooled latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import check
from ..data.datagen import SyntheticCTRDataset
from .batcher import RequestTrace
from .server import InferenceServer, ServeResult

__all__ = ["PoissonLoadGen", "LoadReport", "run_load_test",
           "requests_from_arrivals", "ARRIVAL_STREAM", "USER_STREAM",
           "ROUTER_STREAM"]

# Named rng sub-streams derived from one user-facing seed. The arrival
# stream value predates the naming (it was the loadgen's inline
# constant), so the default-config Poisson trace is bitwise-identical to
# every report shipped before the fleet existed.
ARRIVAL_STREAM = 0xA881   # inter-arrival gaps
USER_STREAM = 0xA882      # fleet Zipf user-population draws
ROUTER_STREAM = 0xA883    # fleet power-of-two-choices picks


def requests_from_arrivals(dataset: SyntheticCTRDataset,
                           arrivals: np.ndarray, batch_index: int,
                           start_id: int = 0,
                           user_rows: Optional[np.ndarray] = None
                           ) -> RequestTrace:
    """One single-sample request per arrival time, contents drawn from
    ``dataset`` in a single bulk generation (deterministic in
    ``batch_index``), returned as the columns of a :class:`RequestTrace`
    whose one store is that bulk draw.

    This is the one place requests are materialized — the flat Poisson
    generator and the fleet's diurnal/Zipf traffic both funnel through
    it, so their sample-content arithmetic cannot drift apart.

    ``user_rows``, if given, maps request ``i`` to row ``user_rows[i]``
    of the bulk draw (sized to ``max(user_rows) + 1`` samples) instead of
    the identity mapping — this is how a Zipf user population makes hot
    users *recur*: the same user always resubmits the identical sample,
    which is exactly what makes replica-local caches measurable.
    ``user_id`` on each request records the row. A negative row or a
    non-finite arrival is a ``ValueError``; no arrivals give an empty
    trace.
    """
    arrivals = np.asarray(arrivals, dtype=np.float64)
    if arrivals.ndim != 1:
        raise ValueError("arrivals must be one-dimensional")
    if not np.isfinite(arrivals).all():
        raise ValueError("arrivals must be finite")
    n = len(arrivals)
    rows = np.arange(n, dtype=np.int64) if user_rows is None \
        else np.asarray(user_rows, dtype=np.int64)
    if rows.shape != (n,):
        raise ValueError(f"user_rows has {len(rows)} entries for "
                         f"{n} arrivals")
    if n == 0:
        return RequestTrace.merge([])
    if rows.min() < 0:
        raise ValueError(f"user_rows must be >= 0, got {rows.min()}")
    bulk = dataset.batch(int(rows.max()) + 1, batch_index=batch_index)
    nnz = bulk.lengths.sum(axis=0)
    return RequestTrace(
        request_id=start_id + np.arange(n), arrival_s=arrivals, stores=[bulk],
        start=rows, num_samples=np.ones(n, dtype=np.int64), nnz=nnz[rows],
        user_id=None if user_rows is None else rows)


@dataclass(frozen=True)
class PoissonLoadGen:
    """Open-loop Poisson arrival generator over a synthetic CTR dataset.

    ``stream`` selects a named rng sub-stream of ``seed`` so several
    independent traces (per fleet replica, per traffic component) can
    share one seed without correlating; the default is the historical
    arrival stream, preserving every pre-fleet trace bitwise.
    """

    qps: float
    num_requests: int
    seed: int = 0
    start_s: float = 0.0
    stream: int = ARRIVAL_STREAM

    def __post_init__(self) -> None:
        check.positive("qps", self.qps)
        check.count("num_requests", self.num_requests)
        check.count("seed", self.seed, low=0)
        check.finite("start_s", self.start_s)
        check.count("stream", self.stream, low=0)

    @classmethod
    def for_duration(cls, qps: float, duration_s: float, seed: int = 0,
                     start_s: float = 0.0,
                     stream: int = ARRIVAL_STREAM) -> "PoissonLoadGen":
        """A generator sized to cover ``duration_s`` of virtual time at
        the offered rate (expected arrival count, at least one request).

        The co-simulation uses this to stretch serving traffic over a
        training run's makespan; being a Poisson process, the actual
        last arrival lands near — not exactly at — the horizon.
        """
        check.positive("duration_s", duration_s)
        return cls(qps=qps, num_requests=max(1, int(round(qps * duration_s))),
                   seed=seed, start_s=start_s, stream=stream)

    def arrival_times(self) -> np.ndarray:
        """Cumulative exponential inter-arrival gaps at rate ``qps``."""
        rng = np.random.default_rng((self.seed, self.stream))
        gaps = rng.exponential(1.0 / self.qps, size=self.num_requests)
        return self.start_s + np.cumsum(gaps)

    def requests(self, dataset: SyntheticCTRDataset) -> RequestTrace:
        """One single-sample request per arrival, ids drawn Zipf-skewed
        from ``dataset`` (deterministic in ``seed``), from one bulk
        draw."""
        return requests_from_arrivals(dataset, self.arrival_times(),
                                      batch_index=self.seed)


@dataclass(frozen=True)
class LoadReport:
    """SLO-facing summary of one load-test run.

    ``first_arrival_s``/``last_completion_s`` bound the run on the
    virtual clock (so reports merge with exact makespans);
    ``samples_s``, populated under ``keep_samples``, carries the
    completed-request latency samples :meth:`merge` pools for exact
    fleet-level percentiles.
    """

    offered_qps: float
    num_offered: int
    num_completed: int
    num_shed: int
    slo_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    max_s: float
    goodput_qps: float       # completed-within-SLO per second of makespan
    completed_qps: float     # all completions per second of makespan
    slo_attainment: float    # fraction of *offered* requests inside SLO
    makespan_s: float
    mean_batch_samples: float
    first_arrival_s: float = 0.0
    last_completion_s: float = 0.0
    samples_s: Optional[Tuple[float, ...]] = None

    @property
    def shed_fraction(self) -> float:
        return self.num_shed / self.num_offered if self.num_offered else 0.0

    def without_samples(self) -> "LoadReport":
        """A copy with the raw latency samples dropped — every derived
        statistic untouched. The fleet's N=1 parity gate compares one of
        these against the sample-free single-server report."""
        return replace(self, samples_s=None)

    @classmethod
    def merge(cls, reports: Sequence["LoadReport"]) -> "LoadReport":
        """Aggregate per-replica (or per-window) reports exactly.

        Percentiles/mean/max come from the *pooled* latency samples —
        every input must have been summarized with ``keep_samples`` —
        so the merged report is identical to summarizing one combined
        run, not an approximation from per-replica quantiles. Counts and
        offered rates sum; the makespan spans the earliest first arrival
        to the latest last completion; ``mean_batch_samples`` is
        completion-weighted. All inputs must share one SLO.
        """
        reports = list(reports)
        if not reports:
            raise ValueError("need at least one report to merge")
        slo_s = reports[0].slo_s
        if any(r.slo_s != slo_s for r in reports):
            raise ValueError("cannot merge reports with different SLOs")
        if any(r.samples_s is None for r in reports):
            raise ValueError("merge needs keep_samples=True reports "
                             "(samples_s missing)")
        samples: Tuple[float, ...] = tuple(
            s for r in reports for s in r.samples_s)
        lat = np.array(samples, dtype=np.float64)
        num_offered = sum(r.num_offered for r in reports)
        num_completed = sum(r.num_completed for r in reports)
        if num_completed != len(samples):
            raise ValueError(
                f"sample count {len(samples)} != completed {num_completed}")
        num_shed = sum(r.num_shed for r in reports)
        active = [r for r in reports if r.num_completed]
        first = min((r.first_arrival_s for r in active), default=0.0)
        last = max((r.last_completion_s for r in active), default=0.0)
        makespan = last - first
        within = int(np.sum(lat <= slo_s)) if len(lat) else 0
        # completion-weighted mean batch width; taken verbatim from a
        # sole contributor so a single-replica merge is bitwise (the
        # weighted round trip (m*n)/n can perturb the last ulp)
        if len(active) == 1:
            mean_batch = active[0].mean_batch_samples
        elif num_completed:
            mean_batch = sum(r.mean_batch_samples * r.num_completed
                             for r in reports) / num_completed
        else:
            mean_batch = 0.0
        return cls(
            offered_qps=sum(r.offered_qps for r in reports),
            num_offered=num_offered,
            num_completed=num_completed,
            num_shed=num_shed,
            slo_s=slo_s,
            p50_s=float(np.percentile(lat, 50)) if len(lat) else 0.0,
            p95_s=float(np.percentile(lat, 95)) if len(lat) else 0.0,
            p99_s=float(np.percentile(lat, 99)) if len(lat) else 0.0,
            mean_s=float(lat.mean()) if len(lat) else 0.0,
            max_s=float(lat.max()) if len(lat) else 0.0,
            goodput_qps=within / makespan if makespan > 0 else 0.0,
            completed_qps=num_completed / makespan if makespan > 0 else 0.0,
            slo_attainment=within / num_offered if num_offered else 0.0,
            makespan_s=makespan,
            mean_batch_samples=mean_batch,
            first_arrival_s=first,
            last_completion_s=last,
            samples_s=samples)

    def row(self) -> List[str]:
        """Compact table row for CLI / bench output."""
        return [f"{self.offered_qps:.0f}",
                f"{self.completed_qps:.0f}",
                f"{self.goodput_qps:.0f}",
                f"{self.p50_s * 1e3:.2f}",
                f"{self.p99_s * 1e3:.2f}",
                f"{100 * self.slo_attainment:.1f}%",
                f"{self.shed_fraction * 100:.1f}%",
                f"{self.mean_batch_samples:.1f}"]

    ROW_HEADER = ["offered qps", "completed qps", "goodput qps",
                  "p50 ms", "p99 ms", "SLO att.", "shed", "avg batch"]


def summarize(result: ServeResult, offered_qps: float, num_offered: int,
              slo_s: float, keep_samples: bool = False) -> LoadReport:
    """Reduce a :class:`ServeResult` to the SLO-facing report.

    ``keep_samples`` stores the per-request latency samples on the
    report so fleet-level :meth:`LoadReport.merge` can compute exact
    pooled percentiles; the default drops them (scalar-only reports,
    as before).
    """
    lat = result.latencies_s()
    first = float(result.arrival_s.min()) if len(lat) else 0.0
    last = float(result.completion_s.max()) if len(lat) else 0.0
    makespan = last - first
    within = int(np.sum(lat <= slo_s)) if len(lat) else 0

    def percentile(q: float) -> float:
        return float(np.percentile(lat, q)) if len(lat) else 0.0

    return LoadReport(
        offered_qps=offered_qps,
        num_offered=num_offered,
        num_completed=result.num_completed,
        num_shed=result.num_shed,
        slo_s=slo_s,
        p50_s=percentile(50),
        p95_s=percentile(95),
        p99_s=percentile(99),
        mean_s=float(lat.mean()) if len(lat) else 0.0,
        max_s=float(lat.max()) if len(lat) else 0.0,
        goodput_qps=within / makespan if makespan > 0 else 0.0,
        completed_qps=result.num_completed / makespan
        if makespan > 0 else 0.0,
        slo_attainment=within / num_offered if num_offered else 0.0,
        makespan_s=makespan,
        mean_batch_samples=float(result.batch_samples.mean())
        if len(lat) else 0.0,
        first_arrival_s=first,
        last_completion_s=last,
        samples_s=tuple(lat.tolist()) if keep_samples else None)


def run_load_test(server: InferenceServer, dataset: SyntheticCTRDataset,
                  qps: float, num_requests: int, slo_s: float,
                  seed: int = 0,
                  result_out: Optional[list] = None,
                  keep_samples: bool = False) -> LoadReport:
    """Generate a Poisson trace, serve it, and report against the SLO.

    ``result_out``, if given, receives the raw :class:`ServeResult` as
    its single element (for callers that also want its responses or
    columns).
    """
    check.positive("slo_s", slo_s)
    gen = PoissonLoadGen(qps=qps, num_requests=num_requests, seed=seed)
    requests = gen.requests(dataset)
    result = server.serve(requests)
    if result_out is not None:
        result_out.append(result)
    return summarize(result, offered_qps=qps, num_offered=num_requests,
                     slo_s=slo_s, keep_samples=keep_samples)

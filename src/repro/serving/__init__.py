"""The serving subsystem: frozen models on the request path.

Everything upstream of this package trains; this package serves. The
pipeline is freeze -> batch -> serve -> measure:

* :mod:`repro.serving.export` — :func:`freeze` a trained
  :class:`~repro.core.NeoTrainer`/:class:`~repro.models.DLRM` into an
  immutable :class:`ServableModel` (optional fp16/bf16/int8 embedding
  storage, cold tables behind the software cache);
* :mod:`repro.serving.batcher` — deterministic dynamic micro-batching
  (max-batch / max-wait / admission control with load shedding);
* :mod:`repro.serving.server` — :class:`InferenceServer` running real
  forwards with latencies priced by the shared perf/platform models,
  returning a :class:`ServeResult` of per-request columns;
* :mod:`repro.serving.loadgen` — seedable open-loop Poisson load and
  p50/p95/p99/goodput SLO reports.

The online-training story of Section 4.1.3 is the motivation: the
recurrent trainer exists to keep a serving fleet fresh, and
``repro.perf.online`` sizes that fleet — this package is the fleet.
"""

from .batcher import (ADMISSION_KINDS, BatchingPolicy, BatchPlan,
                      InferenceRequest, MicroBatcher, MultiTenantBatcher,
                      RequestTrace, ScheduledBatch)
from .export import FreezeConfig, ServableModel, freeze
from .loadgen import (ARRIVAL_STREAM, ROUTER_STREAM, USER_STREAM,
                      LoadReport, PoissonLoadGen, requests_from_arrivals,
                      run_load_test)
from .server import InferenceServer, ServeResult, ServingPerfModel

__all__ = [
    "FreezeConfig",
    "ServableModel",
    "freeze",
    "ADMISSION_KINDS",
    "BatchingPolicy",
    "InferenceRequest",
    "RequestTrace",
    "ScheduledBatch",
    "BatchPlan",
    "MicroBatcher",
    "MultiTenantBatcher",
    "ServingPerfModel",
    "InferenceServer",
    "ServeResult",
    "PoissonLoadGen",
    "LoadReport",
    "run_load_test",
    "requests_from_arrivals",
    "ARRIVAL_STREAM",
    "USER_STREAM",
    "ROUTER_STREAM",
]

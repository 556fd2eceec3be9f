"""repro: a from-scratch reproduction of Neo/ZionEX — high-performance
distributed training of large-scale deep learning recommendation models
(Mudigere et al., ISCA 2022).

Layering (bottom-up):

* :mod:`repro.nn` — dense layers/optimizers (the PyTorch stand-in)
* :mod:`repro.embedding` — embedding operators + exact sparse optimizers
* :mod:`repro.cache` — software cache / memory hierarchy
* :mod:`repro.sharding` — hybrid sharding schemes, cost model, planner
* :mod:`repro.comms` — simulated collectives + latency model
* :mod:`repro.data` — synthetic CTR data + ingestion pipeline
* :mod:`repro.models` — DLRM assembly + the A1/A2/A3/F1 model zoo
* :mod:`repro.core` — the Neo trainer and the Eq. 1 pipeline model
* :mod:`repro.resilience` — fault injection, retries, crash recovery
* :mod:`repro.perf` — device rooflines and end-to-end throughput model
* :mod:`repro.baselines` — async parameter-server and Zion comparisons
* :mod:`repro.serving` — frozen-model export, micro-batching, SLO serving
* :mod:`repro.planner` — per-table representation planning under budgets
* :mod:`repro.fleet` — multi-replica serving: routing, autoscaling,
  traffic, multi-tenant hosting
* :mod:`repro.metrics` — normalized entropy et al.
* :mod:`repro.check` — the scalar argument contracts every layer uses
"""

__version__ = "1.0.0"

__all__ = [
    "nn",
    "embedding",
    "cache",
    "sharding",
    "comms",
    "data",
    "models",
    "core",
    "resilience",
    "perf",
    "baselines",
    "serving",
    "planner",
    "fleet",
    "metrics",
    "lowp",
    "check",
]

"""Platform-demand derivation (paper Table 1).

Table 1 states what a DLRM training platform must provision; this module
*derives* those rows from a model spec and a target throughput, closing
the loop: the paper's headline requirements follow from the model zoo's
characteristics at around a million queries per second.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import check
from ..models.zoo import ModelSpec

__all__ = ["PlatformDemand", "derive_demand", "TABLE1_REFERENCE"]

# Table 1 verbatim (lower bounds)
TABLE1_REFERENCE = {
    "total_compute_flops": 1e15,            # 1+ PF/s
    "total_memory_bytes": 1e12,             # 1+ TB
    "total_memory_bw": 100e12,              # 100+ TB/s
    "injection_bw_per_worker": 100e9,       # 100+ GB/s
    "bisection_bw": 1e12,                   # 1+ TB/s
}


@dataclass(frozen=True)
class PlatformDemand:
    """Derived demand for training ``spec`` at ``target_qps``."""

    total_compute_flops: float
    total_memory_bytes: float
    total_memory_bw: float
    injection_bw_per_worker: float
    bisection_bw: float


def derive_demand(spec: ModelSpec, target_qps: float = 1e6,
                  num_workers: int = 128) -> PlatformDemand:
    """Work backwards from throughput to platform requirements.

    * compute: MLP FLOPs/sample (fwd+bwd) x QPS;
    * memory capacity: FP32 embedding weights;
    * memory bandwidth: embedding rows touched/s x 3 (read, read-modify-
      write on update);
    * injection: each worker's share of the pooled-embedding AlltoAll both
      directions plus gradient AllReduce;
    * bisection: half the workers' injection crossing the cut.
    """
    check.positive("target_qps", target_qps)
    check.count("num_workers", num_workers)
    compute = spec.mlp_flops_per_sample() * target_qps
    memory = float(spec.embedding_bytes())
    total_l = sum(t.avg_pooling for t in spec.tables)
    avg_d = spec.avg_embedding_dim
    memory_bw = target_qps * total_l * avg_d * 4 * 3
    sum_d = sum(t.embedding_dim for t in spec.tables)
    # pooled fwd + bwd alltoall per sample, plus amortized allreduce
    alltoall_rate = 2 * target_qps * sum_d * 4 / num_workers
    iterations_per_s = target_qps / 65536.0
    allreduce_rate = 2 * spec.num_mlp_parameters * 4 * iterations_per_s
    injection = alltoall_rate + allreduce_rate
    bisection = injection * num_workers / 2
    return PlatformDemand(
        total_compute_flops=compute,
        total_memory_bytes=memory,
        total_memory_bw=memory_bw,
        injection_bw_per_worker=injection,
        bisection_bw=bisection,
    )

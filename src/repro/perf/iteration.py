"""End-to-end training throughput model (Table 4, Figs. 11-13).

Combines the operator models (GEMM/MLP, embedding bandwidth), the comms
latency model and the Eq. 1 pipeline into per-iteration latency and QPS
for a full-scale :class:`repro.models.ModelSpec` on a modelled cluster.

The model is built from first principles with Table 2 platform constants;
it is *not* fitted to Table 4. Benchmarks compare its output against the
paper's reported numbers to validate shape (who wins, scaling efficiency,
which optimization helps how much).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

import numpy as np

from .. import check
from ..comms import ClusterTopology, QuantizedCommsConfig
from ..comms import perf_model as cpm
from ..core.pipeline import ComponentTimes, LatencyBreakdown, breakdown, \
    iteration_latency
from ..data.formats import host_transfer_time
from ..models.zoo import ModelSpec
from .devices import DeviceSpec, V100
from .embedding_bw import embedding_lookup_time, embedding_update_time

__all__ = ["TrainingSetup", "component_times", "iteration_time", "qps",
           "latency_breakdown", "weak_scaling_curve", "plan_imbalance"]


@dataclass(frozen=True)
class TrainingSetup:
    """Everything the throughput model needs for one configuration."""

    spec: ModelSpec
    topology: ClusterTopology
    global_batch: int = 65536
    device: DeviceSpec = V100
    embedding_precision: str = "fp32"
    comms: QuantizedCommsConfig = field(
        default_factory=QuantizedCommsConfig)
    # max/mean per-GPU embedding load; 1.0 is perfect balance. Feed the
    # measured value from a ShardingPlan via plan_imbalance().
    load_imbalance: float = 1.0
    mlp_precision: str = "fp32"
    # fraction of the model's total embedding width (sum of dims) that is
    # row-wise sharded: those tables communicate via ReduceScatter whose
    # per-GPU payload is the *global* batch times their width (Sec 4.2.2),
    # instead of the table-wise AlltoAll's local-batch payload.
    row_wise_dim_fraction: float = 0.0
    # effective embedding bandwidth relative to HBM; < 1 when tables live
    # behind UVM / the software cache in DRAM (Sections 4.1.3, 5.3.3)
    memory_hierarchy_bw_fraction: float = 1.0
    # fixed per-iteration host/framework overhead (op dispatch, python,
    # optimizer bookkeeping) — exposed, not overlappable
    framework_overhead: float = 2e-3

    def __post_init__(self) -> None:
        check.count("global_batch", self.global_batch)
        if self.global_batch % self.topology.world_size:
            raise ValueError(
                f"global batch {self.global_batch} not divisible by world "
                f"size {self.topology.world_size}")
        # load_imbalance is max/mean
        check.nonnegative("load_imbalance", self.load_imbalance, low=1)
        check.fraction("row_wise_dim_fraction", self.row_wise_dim_fraction)
        check.fraction("memory_hierarchy_bw_fraction",
                       self.memory_hierarchy_bw_fraction, zero=False)
        check.nonnegative("framework_overhead", self.framework_overhead)

    @property
    def local_batch(self) -> int:
        return self.global_batch // self.topology.world_size


def plan_imbalance(loads) -> float:
    """max/mean of per-rank loads (from sharding.plan_cost_per_rank)."""
    loads = np.asarray(list(loads), dtype=np.float64)
    if loads.size == 0 or loads.mean() == 0:
        return 1.0
    return float(loads.max() / loads.mean())


def component_times(setup: TrainingSetup) -> ComponentTimes:
    """Per-iteration serialized component latencies for Eq. 1."""
    from .gemm import mlp_time

    spec = setup.spec
    topo = setup.topology
    w = topo.world_size
    b_loc = setup.local_batch
    b_glob = setup.global_batch

    # --- MLPs: bottom ~40% of the stack, top ~60% (interaction sits
    # between them; DLRM top MLPs are deeper/wider in practice)
    sizes = (spec.dense_dim,) + spec.mlp_layer_sizes
    cut = max(1, len(sizes) * 2 // 5)
    bottom_sizes, top_sizes = sizes[:cut + 1], sizes[cut:]
    bot_fwd = mlp_time(b_loc, bottom_sizes, setup.device,
                       setup.mlp_precision)
    top_fwd = mlp_time(b_loc, top_sizes, setup.device, setup.mlp_precision)
    bot_bwd = mlp_time(b_loc, bottom_sizes, setup.device,
                       setup.mlp_precision, backward=True)
    top_bwd = mlp_time(b_loc, top_sizes, setup.device, setup.mlp_precision,
                       backward=True)

    # --- embeddings: each GPU holds ~1/W of tables but sees the *global*
    # batch for them (model parallelism); imbalance scales the slowest GPU
    total_l = sum(t.avg_pooling for t in spec.tables)
    nnz_per_gpu = int(b_glob * total_l / w * setup.load_imbalance)
    avg_dim = max(int(spec.avg_embedding_dim), 1)
    hierarchy = setup.memory_hierarchy_bw_fraction
    lookup = embedding_lookup_time(nnz_per_gpu, avg_dim, setup.device,
                                   setup.embedding_precision) / hierarchy
    update = embedding_update_time(nnz_per_gpu, avg_dim, setup.device,
                                   setup.embedding_precision) / hierarchy
    # per-table kernel bookkeeping that fusion cannot remove entirely
    tables_per_gpu = max(1.0, len(spec.tables) / w)
    table_overhead = tables_per_gpu * setup.device.kernel_launch_overhead
    lookup += table_overhead
    update += table_overhead

    # --- pooled-embedding exchange. Table/column-wise tables use an
    # AlltoAll whose per-GPU payload scales with the *local* batch;
    # row-wise tables use a ReduceScatter (fwd) / AllGather (bwd) whose
    # per-GPU payload is their width times the *global* batch (Sec 4.2.2).
    sum_d = sum(t.embedding_dim for t in spec.tables)
    rw_d = sum_d * setup.row_wise_dim_fraction
    tw_d = sum_d - rw_d
    fwd_factor = setup.comms.volume_factor("forward_alltoall")
    bwd_factor = setup.comms.volume_factor("backward_alltoall")
    a2a_fwd = cpm.all_to_all_time(
        b_loc * tw_d * 4 * fwd_factor * setup.load_imbalance, topo)
    a2a_bwd = cpm.all_to_all_time(
        b_loc * tw_d * 4 * bwd_factor * setup.load_imbalance, topo)
    if rw_d > 0:
        a2a_fwd += cpm.reduce_scatter_time(b_glob * rw_d * 4 * fwd_factor,
                                           topo)
        a2a_bwd += cpm.all_gather_time(b_glob * rw_d * 4 * bwd_factor, topo)

    # --- index AlltoAll for batch i+1 (8-byte ids, never quantized)
    input_bytes = b_glob * total_l * 8 / w
    input_a2a = cpm.all_to_all_time(input_bytes, topo)

    # --- gradient AllReduce over the replicated MLPs
    mlp_bytes = spec.num_mlp_parameters * 4 * setup.comms.volume_factor(
        "allreduce")
    allreduce = cpm.all_reduce_time(mlp_bytes, topo)

    # --- interaction: memory-bound pairwise dots
    f = len(spec.tables) + 1
    inter_bytes = b_loc * (f * avg_dim * 4 * 2 + f * f * 4)
    inter_fwd = inter_bytes / setup.device.hbm_achievable_bw \
        + setup.device.kernel_launch_overhead

    # --- host-to-device copy of the local batch (pinned, combined format)
    h2d_bytes = b_loc * (total_l * 8 + spec.dense_dim * 4)
    h2d = host_transfer_time(4, h2d_bytes, pinned=True)

    return ComponentTimes(
        bottom_mlp_fwd=bot_fwd, embedding_lookup=lookup,
        alltoall_fwd=a2a_fwd, interaction_fwd=inter_fwd,
        top_mlp_fwd=top_fwd, alltoall_bwd=a2a_bwd,
        embedding_update=update, allreduce=allreduce,
        input_alltoall=input_a2a, h2d=h2d,
        bottom_mlp_bwd=bot_bwd, interaction_bwd=2 * inter_fwd,
        top_mlp_bwd=top_bwd)


def iteration_time(setup: TrainingSetup) -> float:
    """Per-iteration latency: Eq. 1 plus the framework overhead.

    The discrete-event schedule of :mod:`repro.core.schedule`
    (``steady_state_iteration_time``) models the same step with stream
    contention and inter-batch pipelining explicit.
    """
    return iteration_latency(component_times(setup)) + \
        setup.framework_overhead


def latency_breakdown(setup: TrainingSetup) -> LatencyBreakdown:
    return breakdown(component_times(setup))


def qps(setup: TrainingSetup) -> float:
    """Training throughput in queries (samples) per second."""
    return setup.global_batch / iteration_time(setup)


def weak_scaling_curve(setup: TrainingSetup,
                       node_counts: List[int]) -> Dict[int, float]:
    """Fig. 11: fixed per-GPU batch, growing cluster; returns QPS per
    node count. Relative efficiency = qps[n] / (n * qps[1])."""
    per_gpu_batch = setup.local_batch
    out = {}
    for n in node_counts:
        topo = replace(setup.topology, num_nodes=n)
        scaled = replace(setup, topology=topo,
                         global_batch=per_gpu_batch * topo.world_size)
        out[n] = qps(scaled)
    return out

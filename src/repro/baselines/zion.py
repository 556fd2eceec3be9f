"""Zion hybrid CPU+GPU training cost model (paper Section 3.1).

The original Zion node offloads MLPs to its 8 GPUs while embeddings stay
in CPU DRAM. Its structural problems, each modelled here:

* pooled embeddings cross PCIe to the GPUs every iteration (the
  CPU<->GPU traffic overhead);
* embedding lookups run at CPU DRAM bandwidth, not HBM;
* NICs hang off the CPUs, so gradient synchronization is host-mediated
  TCP on the shared datacenter network — :func:`repro.comms.ZION_TOPOLOGY`
  — which is what makes Zion "not able to scale well".

The headline reproduction is :func:`zion_vs_zionex_scaling`: Zion's
multi-node scaling collapses while ZionEX keeps climbing (the motivation
for the dedicated RoCE fabric).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from .. import check
from ..comms import ZION_TOPOLOGY
from ..comms import perf_model as cpm
from ..models.zoo import ModelSpec
from ..perf.devices import CPU_SKYLAKE, V100, DeviceSpec
from ..perf.gemm import mlp_time

__all__ = ["ZionSetup", "zion_iteration_time", "zion_qps",
           "zion_vs_zionex_scaling"]

_PCIE_BW = 12e9  # bytes/s per GPU, host to device


@dataclass(frozen=True)
class ZionSetup:
    """One Zion training configuration."""

    spec: ModelSpec
    num_nodes: int = 1
    gpus_per_node: int = 8
    global_batch: int = 65536
    gpu: DeviceSpec = V100
    cpu: DeviceSpec = CPU_SKYLAKE

    def __post_init__(self) -> None:
        check.count("num_nodes", self.num_nodes)
        check.count("gpus_per_node", self.gpus_per_node)
        check.count("global_batch", self.global_batch)
        world = self.num_nodes * self.gpus_per_node
        if self.global_batch % world:
            raise ValueError("global batch must divide evenly")

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node


def zion_iteration_time(setup: ZionSetup) -> float:
    """Per-iteration latency of hybrid CPU+GPU training on Zion."""
    spec = setup.spec
    w = setup.world_size
    b_loc = setup.global_batch // w
    sizes = (spec.dense_dim,) + spec.mlp_layer_sizes
    t_mlp = mlp_time(b_loc, sizes, setup.gpu) \
        + mlp_time(b_loc, sizes, setup.gpu, backward=True)
    # embeddings on CPU DRAM: each node handles its share of the batch
    node_batch = b_loc * setup.gpus_per_node
    total_l = sum(t.avg_pooling for t in spec.tables)
    emb_bytes = 3 * node_batch * total_l * spec.avg_embedding_dim * 4
    t_emb = emb_bytes / setup.cpu.hbm_achievable_bw
    # pooled vectors + gradients over PCIe, per GPU
    sum_d = sum(t.embedding_dim for t in spec.tables)
    pcie_bytes = 2 * b_loc * sum_d * 4
    t_pcie = pcie_bytes / _PCIE_BW
    # multi-node: both the pooled-embedding AlltoAll and the gradient
    # AllReduce go through the host TCP NICs (no GPUDirect), with CPU
    # intervention on the shared datacenter network
    t_sync = 0.0
    if setup.num_nodes > 1:
        topo = replace(ZION_TOPOLOGY(setup.num_nodes),
                       gpus_per_node=setup.gpus_per_node)
        t_sync = cpm.all_reduce_time(spec.num_mlp_parameters * 4, topo) \
            + 2 * cpm.all_to_all_time(b_loc * sum_d * 4, topo)
    # hybrid pipelining hides some CPU work under GPU compute, but the
    # PCIe hop and host-mediated sync stay serialized
    return max(t_mlp, t_emb) + t_pcie + t_sync


def zion_qps(setup: ZionSetup) -> float:
    """Training throughput of the Zion configuration, samples/second."""
    return setup.global_batch / zion_iteration_time(setup)


def zion_vs_zionex_scaling(spec: ModelSpec,
                           node_counts: List[int],
                           per_gpu_batch: int = 512) -> Dict[str, Dict[int, float]]:
    """Weak-scaling comparison (Section 3.1's motivation).

    Returns QPS per node count for both platforms with fixed per-GPU
    batch. Zion flattens once host-NIC sync dominates; ZionEX keeps
    scaling on the dedicated RoCE fabric.
    """
    from ..comms import PROTOTYPE_TOPOLOGY
    from ..perf.iteration import TrainingSetup, qps as zionex_qps

    out: Dict[str, Dict[int, float]] = {"zion": {}, "zionex": {}}
    for n in node_counts:
        world = n * 8
        batch = per_gpu_batch * world
        out["zion"][n] = zion_qps(ZionSetup(
            spec=spec, num_nodes=n, global_batch=batch))
        out["zionex"][n] = zionex_qps(TrainingSetup(
            spec=spec, topology=PROTOTYPE_TOPOLOGY(n), global_batch=batch,
            load_imbalance=1.1))
    return out

"""Cluster topology: ZionEX / prototype HGX-2 network model (Table 2).

Two network planes matter for DLRM training:

* **scale-up** — NVLink/NVSwitch within a node (1.2 TB/s unidirectional
  aggregate per node on the prototype);
* **scale-out** — one dedicated RoCE NIC per GPU (8 x 100 Gbps per node),
  isolated from the datacenter network, carrying RDMA/GPUDirect traffic.

Plus the **frontend** host NICs (2 x 100 Gbps) used only for data
ingestion — the paper's key topology decision is that training traffic
never touches them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import check

__all__ = ["ClusterTopology", "PROTOTYPE_TOPOLOGY", "ZION_TOPOLOGY"]


@dataclass(frozen=True)
class ClusterTopology:
    """Bandwidths in bytes/s (unidirectional), latencies in seconds."""

    num_nodes: int
    gpus_per_node: int = 8
    # per-GPU NVLink bandwidth within the node
    scaleup_bw: float = 150e9
    # per-GPU dedicated RoCE NIC bandwidth (100 Gbps = 12.5 GB/s)
    scaleout_bw: float = 12.5e9
    # achievable fraction of scale-out line rate (paper: 10.5 of 12.5 GB/s)
    scaleout_efficiency: float = 0.84
    scaleup_latency: float = 2e-6
    scaleout_latency: float = 5e-6
    # frontend (data ingestion) NICs per node, bytes/s aggregate
    frontend_bw: float = 25e9
    # does inter-node traffic bypass the host (GPUDirect RDMA)?
    rdma: bool = True

    def __post_init__(self) -> None:
        check.count("num_nodes", self.num_nodes)
        check.count("gpus_per_node", self.gpus_per_node)
        check.positive("scaleup_bw", self.scaleup_bw)
        check.positive("scaleout_bw", self.scaleout_bw)
        check.fraction("scaleout_efficiency", self.scaleout_efficiency,
                       zero=False)
        check.nonnegative("scaleup_latency", self.scaleup_latency)
        check.nonnegative("scaleout_latency", self.scaleout_latency)
        check.positive("frontend_bw", self.frontend_bw)

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    @property
    def achievable_scaleout_bw(self) -> float:
        return self.scaleout_bw * self.scaleout_efficiency

    @property
    def node_scaleout_bw(self) -> float:
        """Aggregate achievable scale-out bandwidth of one node."""
        return self.achievable_scaleout_bw * self.gpus_per_node

    @property
    def bisection_bw(self) -> float:
        """Cluster bisection bandwidth (full-bisection fabric assumed)."""
        return self.node_scaleout_bw * self.num_nodes / 2

    def is_single_node(self) -> bool:
        return self.num_nodes == 1


def PROTOTYPE_TOPOLOGY(num_nodes: int = 16) -> ClusterTopology:
    """The HGX-2 prototype cluster of Section 5.2 (Table 2 numbers)."""
    return ClusterTopology(num_nodes=num_nodes)


def ZION_TOPOLOGY(num_nodes: int = 16) -> ClusterTopology:
    """Previous-generation Zion: NICs attached to CPUs, no GPUDirect, and
    training traffic competes on the shared datacenter network (TCP/IP).
    The effective scale-out rate collapses accordingly (Section 3.1)."""
    return ClusterTopology(
        num_nodes=num_nodes,
        scaleout_bw=12.5e9,
        # host-mediated TCP/IP on a shared network: ~30% of line rate
        scaleout_efficiency=0.3,
        scaleout_latency=50e-6,
        rdma=False,
    )

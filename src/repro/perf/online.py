"""Cluster sizing for online training (paper Sections 1, 4.1.3).

Online (recurrent/continuous) training has a *lower* throughput
requirement than offline pre-training, so it should run on
proportionally fewer nodes — which only works if the model still *fits*
on the smaller cluster, the exact situation that motivates hierarchical
memory: fewer nodes means less aggregate HBM, so tables spill to DRAM
behind the software cache and lookups slow down.

:func:`min_nodes_for` finds the smallest cluster that satisfies both the
capacity constraint (model fits in HBM+DRAM) and the throughput target,
accounting for the hierarchy slowdown when the model overflows HBM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import check
from ..comms import PROTOTYPE_TOPOLOGY
from ..models.zoo import ModelSpec
from .capacity import model_footprint
from .iteration import TrainingSetup, qps
from .platform import ZIONEX_PLATFORM, PlatformSpec

__all__ = ["NodeSizing", "min_nodes_for"]


@dataclass(frozen=True)
class NodeSizing:
    """Evaluation of one candidate node count."""

    nodes: int
    fits: bool
    hbm_fraction: float        # fraction of model bytes resident in HBM
    bw_fraction: float         # effective lookup bw vs pure-HBM
    achieved_qps: float
    meets_target: bool


def _evaluate(spec: ModelSpec, nodes: int, target_qps: float,
              precision: str, optimizer: str, per_gpu_batch: int,
              platform: PlatformSpec = ZIONEX_PLATFORM) -> NodeSizing:
    footprint = model_footprint(spec, precision, optimizer)
    fits = platform.fits(footprint.total_bytes, nodes)
    hbm_fraction = platform.hbm_fraction(footprint.total_bytes, nodes)
    bw_fraction = platform.hierarchy_bw_fraction(hbm_fraction)
    achieved = 0.0
    if fits:
        topo = PROTOTYPE_TOPOLOGY(nodes)
        setup = TrainingSetup(
            spec=spec, topology=topo,
            global_batch=per_gpu_batch * topo.world_size,
            embedding_precision="fp16" if precision == "fp16" else "fp32",
            memory_hierarchy_bw_fraction=max(bw_fraction, 1e-3),
            load_imbalance=1.1)
        achieved = qps(setup)
    return NodeSizing(nodes=nodes, fits=fits, hbm_fraction=hbm_fraction,
                      bw_fraction=bw_fraction, achieved_qps=achieved,
                      meets_target=fits and achieved >= target_qps)


def min_nodes_for(spec: ModelSpec, target_qps: float,
                  precision: str = "fp16",
                  optimizer: str = "rowwise_adagrad",
                  per_gpu_batch: int = 512,
                  max_nodes: int = 64,
                  platform: PlatformSpec = ZIONEX_PLATFORM
                  ) -> Optional[NodeSizing]:
    """Smallest node count meeting capacity + throughput, or None."""
    check.positive("target_qps", target_qps)
    for nodes in range(1, max_nodes + 1):
        sizing = _evaluate(spec, nodes, target_qps, precision, optimizer,
                           per_gpu_batch, platform=platform)
        if sizing.meets_target:
            return sizing
    return None

"""Per-node platform memory specification (paper Table 2).

One source of truth for "what does a node look like": HBM and DRAM
capacity, the aggregate achievable HBM bandwidth and the rate at which
the GPUs can pull embedding rows out of host DRAM. Training-side cluster
sizing (:mod:`repro.perf.online`) and serving-side capacity planning
(:mod:`repro.serving`) both read the same :class:`PlatformSpec`, so a
platform change propagates to both answers at once — previously these
numbers were private constants of the online-training module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import check

__all__ = ["PlatformSpec", "ZIONEX_PLATFORM"]


@dataclass(frozen=True)
class PlatformSpec:
    """Per-node memory capacities and bandwidths of one training/serving
    platform (Table 2 for ZionEX).

    ``hbm_bw_per_node`` is the *aggregate achieved* HBM bandwidth of all
    GPUs in a node; ``dram_link_bw_per_node`` is what those GPUs can
    sustain when pulling rows out of host DRAM (PCIe-limited).
    """

    name: str
    hbm_per_node_bytes: float
    dram_per_node_bytes: float
    hbm_bw_per_node: float
    dram_link_bw_per_node: float
    gpus_per_node: int = 8

    def __post_init__(self) -> None:
        for field_name in ("hbm_per_node_bytes", "dram_per_node_bytes",
                           "hbm_bw_per_node", "dram_link_bw_per_node"):
            check.positive(field_name, getattr(self, field_name))
        check.count("gpus_per_node", self.gpus_per_node)

    @property
    def node_memory_bytes(self) -> float:
        """Total per-node capacity across both tiers."""
        return self.hbm_per_node_bytes + self.dram_per_node_bytes

    def fits(self, model_bytes: float, nodes: int) -> bool:
        """Does the model fit in ``nodes`` worth of HBM+DRAM?"""
        return model_bytes <= nodes * self.node_memory_bytes

    def hbm_fraction(self, model_bytes: float, nodes: int) -> float:
        """Fraction of the model resident in HBM under waterfall placement
        (HBM fills first, the overflow spills to DRAM)."""
        check.count("nodes", nodes)
        check.nonnegative("model_bytes", model_bytes)
        if model_bytes == 0:
            return 1.0
        return min(1.0, nodes * self.hbm_per_node_bytes / model_bytes)

    def hierarchy_bw_fraction(self, hbm_fraction: float,
                              cache_hit_boost: float = 0.5) -> float:
        """Effective lookup bandwidth (relative to pure HBM) when only
        ``hbm_fraction`` of the model is HBM-resident.

        Accesses to the DRAM-resident part mostly *hit the software
        cache* (hot rows get cached in HBM); ``cache_hit_boost`` is the
        fraction of DRAM-part accesses served by the cache under Zipf
        traffic. The rest crawl over the DRAM link.
        """
        check.fraction("hbm_fraction", hbm_fraction)
        check.fraction("cache_hit_boost", cache_hit_boost, one=False)
        hbm_served = hbm_fraction + (1 - hbm_fraction) * cache_hit_boost
        link_served = 1.0 - hbm_served
        time_per_byte = hbm_served / self.hbm_bw_per_node \
            + link_served / self.dram_link_bw_per_node
        pure_hbm_time = 1.0 / self.hbm_bw_per_node
        return pure_hbm_time / time_per_byte


# The Table 2 prototype: 8 GPUs x 32 GB HBM per node, 1.5 TB host DRAM,
# 850 GB/s achieved HBM per GPU, ~12 GB/s per GPU over PCIe to DRAM.
ZIONEX_PLATFORM = PlatformSpec(
    name="ZionEX",
    hbm_per_node_bytes=256e9,
    dram_per_node_bytes=1.5e12,
    hbm_bw_per_node=850e9 * 8,
    dram_link_bw_per_node=12e9 * 8,
    gpus_per_node=8,
)

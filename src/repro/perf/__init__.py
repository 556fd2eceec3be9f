"""Performance models: device rooflines, operator benchmarks, the
end-to-end throughput model, capacity arithmetic and platform demand
(paper Section 5 and Appendix A)."""

from .capacity import (PROTOTYPE_CLUSTER_MEMORY, ClusterMemory,
                       MemoryFootprint, capacity_ladder, model_footprint)
from .crossover import (CrossoverPoint, crossover_sweep, dp_vs_tw_cost,
                        find_dp_crossover)
from .devices import A100, CPU_SKYLAKE, DEVICES, V100, DeviceSpec
from .embedding_bw import (embedding_achieved_bw, embedding_lookup_time,
                           embedding_update_time, fused_lookup_time,
                           fused_speedup, unfused_lookup_time)
from .gemm import MLPBenchResult, gemm_tflops, gemm_time, mlp_benchmark, \
    mlp_time
from .online import NodeSizing, min_nodes_for
from .platform import ZIONEX_PLATFORM, PlatformSpec
from .iteration import (TrainingSetup, component_times, iteration_time,
                        latency_breakdown, plan_imbalance, qps,
                        weak_scaling_curve)
from .requirements import TABLE1_REFERENCE, PlatformDemand, derive_demand
from .sensitivity import (KNOBS, SweepPoint, elasticity,
                          sensitivity_report, sweep_knob)
from .timeline import render_timeline

__all__ = [
    "DeviceSpec",
    "V100",
    "A100",
    "CPU_SKYLAKE",
    "DEVICES",
    "gemm_time",
    "gemm_tflops",
    "mlp_time",
    "mlp_benchmark",
    "MLPBenchResult",
    "embedding_achieved_bw",
    "embedding_lookup_time",
    "embedding_update_time",
    "fused_lookup_time",
    "unfused_lookup_time",
    "fused_speedup",
    "TrainingSetup",
    "component_times",
    "iteration_time",
    "latency_breakdown",
    "qps",
    "weak_scaling_curve",
    "plan_imbalance",
    "MemoryFootprint",
    "model_footprint",
    "ClusterMemory",
    "PROTOTYPE_CLUSTER_MEMORY",
    "capacity_ladder",
    "PlatformDemand",
    "derive_demand",
    "TABLE1_REFERENCE",
    "CrossoverPoint",
    "dp_vs_tw_cost",
    "find_dp_crossover",
    "crossover_sweep",
    "PlatformSpec",
    "ZIONEX_PLATFORM",
    "NodeSizing",
    "min_nodes_for",
    "render_timeline",
    "SweepPoint",
    "sweep_knob",
    "elasticity",
    "sensitivity_report",
    "KNOBS",
]

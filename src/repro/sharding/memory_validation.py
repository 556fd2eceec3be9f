"""Per-rank memory validation for sharding plans (paper Section 5.3.2).

The sharder's placement freedom is bounded by each GPU's usable HBM
"after discounting for memory reserved by PyTorch framework and NCCL".
This module checks a plan against that budget — weights plus optimizer
state plus a framework reserve — and reports the overflowing ranks with
enough detail to act on (which tables, how much over).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import check, lowp
from ..embedding.optim import optimizer_state_bytes
from .schemes import ShardingPlan

__all__ = ["RankMemoryReport", "plan_memory_report", "validate_plan_memory"]


@dataclass(frozen=True)
class RankMemoryReport:
    """Memory demand of one rank under a plan."""

    rank: int
    weight_bytes: int
    optimizer_bytes: int
    num_shards: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.optimizer_bytes


def plan_memory_report(plan: ShardingPlan, precision: str = "fp32",
                       optimizer: str = "rowwise_adagrad"
                       ) -> List[RankMemoryReport]:
    """Weights + optimizer state per rank.

    Optimizer state is computed per *shard* (a row-wise AdaGrad moment is
    one scalar per shard row — including the Sec 4.2.3 caveat that
    column-wise shards each carry their own row moments).
    """
    bytes_per_elem = lowp.bytes_per_element(precision)
    weights: Dict[int, int] = {r: 0 for r in range(plan.world_size)}
    states: Dict[int, int] = {r: 0 for r in range(plan.world_size)}
    counts: Dict[int, int] = {r: 0 for r in range(plan.world_size)}
    for table_plan in plan.tables.values():
        for shard in table_plan.shards:
            weights[shard.rank] += shard.num_parameters * bytes_per_elem
            states[shard.rank] += optimizer_state_bytes(
                optimizer, shard.num_rows, shard.num_cols)
            counts[shard.rank] += 1
    return [RankMemoryReport(rank=r, weight_bytes=weights[r],
                             optimizer_bytes=states[r],
                             num_shards=counts[r])
            for r in range(plan.world_size)]


def validate_plan_memory(plan: ShardingPlan, device_memory_bytes: float,
                         precision: str = "fp32",
                         optimizer: str = "rowwise_adagrad",
                         framework_reserve_bytes: float = 4e9) -> None:
    """Raise ``ValueError`` naming every rank whose demand exceeds the
    usable budget (device memory minus the framework/NCCL reserve)."""
    check.positive("device_memory_bytes", device_memory_bytes)
    check.nonnegative("framework_reserve_bytes", framework_reserve_bytes)
    if device_memory_bytes <= framework_reserve_bytes:
        raise ValueError(
            f"device memory {device_memory_bytes:.3g} B does not even "
            f"cover the framework reserve {framework_reserve_bytes:.3g} B")
    budget = device_memory_bytes - framework_reserve_bytes
    offenders = []
    for report in plan_memory_report(plan, precision, optimizer):
        if report.total_bytes > budget:
            offenders.append(
                f"rank {report.rank}: {report.total_bytes / 1e9:.1f} GB "
                f"({report.num_shards} shards) > budget "
                f"{budget / 1e9:.1f} GB")
    if offenders:
        raise ValueError(
            "plan exceeds per-rank memory budget:\n  "
            + "\n  ".join(offenders))

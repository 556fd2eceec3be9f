"""Hybrid embedding-table sharding: schemes, cost model, placement
algorithms and the planner (paper Section 4.2)."""

from .cost_model import CostModelParams, ShardCost, shard_cost, table_cost
from .partitioners import (Assignment, greedy_partition, ldm_partition,
                           partition_quality, round_robin_partition)
from .memory_validation import (RankMemoryReport, plan_memory_report,
                                validate_plan_memory)
from .planner import EmbeddingShardingPlanner, PlannerConfig, plan_cost_per_rank
from .schemes import (Shard, ShardingPlan, ShardingScheme, TableShardingPlan,
                      shard_table)

__all__ = [
    "ShardingScheme",
    "Shard",
    "TableShardingPlan",
    "ShardingPlan",
    "shard_table",
    "CostModelParams",
    "ShardCost",
    "shard_cost",
    "table_cost",
    "Assignment",
    "greedy_partition",
    "ldm_partition",
    "round_robin_partition",
    "partition_quality",
    "PlannerConfig",
    "EmbeddingShardingPlanner",
    "plan_cost_per_rank",
    "RankMemoryReport",
    "plan_memory_report",
    "validate_plan_memory",
]

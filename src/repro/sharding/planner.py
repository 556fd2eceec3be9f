"""Sharding planner: choose a scheme per table and place shards on ranks
(paper Sections 3.0.1 and 4.2.5).

The planner mirrors the paper's practice:

1. Pick a scheme per table — small tables replicate (DP), tables that
   exceed a single device's memory split by rows (RW, or TWRW within a
   node), wide tables can split by columns (CW), everything else stays
   table-wise (TW).
2. Compute each shard's scalar cost with the Section 3.0.1 cost model.
3. Balance shards across ranks with the greedy or Karmarkar-Karp (LDM)
   heuristic.

The planner is deliberately topology-aware only at the level the paper
describes: TWRW keeps a table's row shards within one node's ranks to
exploit NVLink over the scale-out network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import check
from ..embedding.table import EmbeddingTableConfig
from .cost_model import CostModelParams, shard_cost
from .partitioners import (Assignment, greedy_partition, ldm_partition,
                           round_robin_partition)
from .schemes import (Shard, ShardingPlan, ShardingScheme, TableShardingPlan,
                      shard_table)

__all__ = ["PlannerConfig", "EmbeddingShardingPlanner", "plan_cost_per_rank"]


@dataclass(frozen=True)
class PlannerConfig:
    """Planner policy knobs.

    ``dp_threshold_rows`` — tables with fewer rows replicate (Sec 4.2.4
    says small tables are good DP candidates).
    ``cw_min_dim``/``cw_shards`` — wide-table column split policy.
    ``device_memory_bytes`` — per-rank HBM budget; tables whose shards
    would exceed it are forced row-wise across more ranks.
    """

    world_size: int = 8
    ranks_per_node: int = 8
    dp_threshold_rows: int = 10_000
    cw_min_dim: int = 256
    cw_shards: int = 4
    device_memory_bytes: float = 32e9
    bytes_per_element: int = 4
    partitioner: str = "ldm"
    allow_data_parallel: bool = True
    allow_column_wise: bool = True

    def __post_init__(self) -> None:
        check.count("world_size", self.world_size)
        check.count("ranks_per_node", self.ranks_per_node)
        check.count("dp_threshold_rows", self.dp_threshold_rows, low=0)
        check.count("cw_min_dim", self.cw_min_dim)
        check.count("cw_shards", self.cw_shards)
        check.positive("device_memory_bytes", self.device_memory_bytes)
        check.count("bytes_per_element", self.bytes_per_element)
        if self.partitioner not in ("round_robin", "greedy", "ldm"):
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.world_size % self.ranks_per_node and \
                self.world_size > self.ranks_per_node:
            raise ValueError("world_size must be a multiple of ranks_per_node")


class EmbeddingShardingPlanner:
    """Produces a validated :class:`ShardingPlan` for a set of tables."""

    def __init__(self, config: PlannerConfig,
                 cost_params: Optional[CostModelParams] = None) -> None:
        self.config = config
        self.cost_params = cost_params or CostModelParams(
            world_size=config.world_size)

    # ------------------------------------------------------------------
    # scheme selection
    # ------------------------------------------------------------------
    def choose_scheme(self, table: EmbeddingTableConfig) -> ShardingScheme:
        cfg = self.config
        table_bytes = table.num_parameters * cfg.bytes_per_element
        if cfg.allow_data_parallel and \
                table.num_embeddings <= cfg.dp_threshold_rows:
            return ShardingScheme.DATA_PARALLEL
        if table_bytes > cfg.device_memory_bytes:
            # cannot live on one device: row-wise, hierarchically if the
            # table fits within one node's aggregate HBM
            node_bytes = cfg.device_memory_bytes * cfg.ranks_per_node
            if table_bytes <= node_bytes and \
                    cfg.world_size > cfg.ranks_per_node:
                return ShardingScheme.TABLE_ROW_WISE
            return ShardingScheme.ROW_WISE
        if cfg.allow_column_wise and table.embedding_dim >= cfg.cw_min_dim:
            return ShardingScheme.COLUMN_WISE
        return ShardingScheme.TABLE_WISE

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, tables: Sequence[EmbeddingTableConfig],
             schemes: Optional[Dict[str, ShardingScheme]] = None
             ) -> ShardingPlan:
        """Build and validate a plan. ``schemes`` overrides per-table."""
        names = [t.name for t in tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names in {names}")
        schemes = schemes or {}
        cfg = self.config
        plan = ShardingPlan(world_size=cfg.world_size)

        # Partitionable units: TW tables are placed whole; CW/RW/TWRW
        # tables are pre-split and their shard units placed independently
        # (CW) or on fixed rank groups (RW spans all ranks, TWRW spans one
        # node chosen by load).
        unit_costs: List[float] = []
        unit_shards: List[List] = []  # parallel: list of (table, proto) units
        deferred: List[tuple] = []    # (table, scheme) needing group placement

        for table in tables:
            scheme = schemes.get(table.name) or self.choose_scheme(table)
            if scheme == ShardingScheme.DATA_PARALLEL:
                plan.tables[table.name] = shard_table(
                    table, scheme, list(range(cfg.world_size)))
            elif scheme == ShardingScheme.ROW_WISE:
                plan.tables[table.name] = shard_table(
                    table, scheme, list(range(cfg.world_size)))
            elif scheme == ShardingScheme.TABLE_ROW_WISE:
                deferred.append((table, scheme))
            elif scheme == ShardingScheme.COLUMN_WISE:
                n_shards = min(cfg.cw_shards, table.embedding_dim,
                               cfg.world_size)
                proto = shard_table(table, scheme, list(range(n_shards)))
                for s in proto.shards:
                    unit_costs.append(shard_cost(
                        table, s, scheme, self.cost_params).total_seconds)
                    unit_shards.append((table, scheme, s))
            else:  # TABLE_WISE
                proto = shard_table(table, scheme, [0])
                s = proto.shards[0]
                unit_costs.append(shard_cost(
                    table, s, scheme, self.cost_params).total_seconds)
                unit_shards.append((table, scheme, s))

        assignment = self._partition(unit_costs, cfg.world_size)
        placed: Dict[str, List[Shard]] = {}
        placed_scheme: Dict[str, ShardingScheme] = {}
        for rank, bin_items in enumerate(assignment.bins):
            for item in bin_items:
                table, scheme, proto = unit_shards[item]
                shard = Shard(table.name, rank, proto.row_range,
                              proto.col_range)
                placed.setdefault(table.name, []).append(shard)
                placed_scheme[table.name] = scheme
        for table in tables:
            if table.name in placed:
                plan.tables[table.name] = TableShardingPlan(
                    config=table, scheme=placed_scheme[table.name],
                    shards=placed[table.name])

        # hierarchical TWRW: assign each table to the currently
        # lightest node, then split rows across that node's local ranks
        if deferred:
            node_loads = self._rank_loads_by_node(plan)
            for table, scheme in sorted(
                    deferred,
                    key=lambda ts: ts[0].num_parameters, reverse=True):
                node = min(range(len(node_loads)),
                           key=lambda n: node_loads[n])
                local = list(range(node * cfg.ranks_per_node,
                                   (node + 1) * cfg.ranks_per_node))
                plan.tables[table.name] = shard_table(table, scheme, local)
                for s in plan.tables[table.name].shards:
                    node_loads[node] += shard_cost(
                        table, s, scheme, self.cost_params).total_seconds
        plan.validate()
        return plan

    def _partition(self, costs: Sequence[float],
                   num_bins: int) -> Assignment:
        if self.config.partitioner == "round_robin":
            return round_robin_partition(costs, num_bins)
        if self.config.partitioner == "greedy":
            return greedy_partition(costs, num_bins)
        return ldm_partition(costs, num_bins)

    def _rank_loads_by_node(self, plan: ShardingPlan) -> List[float]:
        cfg = self.config
        num_nodes = max(1, cfg.world_size // cfg.ranks_per_node)
        loads = [0.0] * num_nodes
        for table_plan in plan.tables.values():
            for s in table_plan.shards:
                node = s.rank // cfg.ranks_per_node
                loads[node] += shard_cost(
                    table_plan.config, s, table_plan.scheme,
                    self.cost_params).total_seconds
        return loads


def plan_cost_per_rank(plan: ShardingPlan,
                       params: CostModelParams) -> List[float]:
    """Per-rank summed shard cost — the load-balance metric of Fig. 13."""
    loads = [0.0] * plan.world_size
    for table_plan in plan.tables.values():
        for s in table_plan.shards:
            loads[s.rank] += shard_cost(table_plan.config, s,
                                        table_plan.scheme,
                                        params).total_seconds
    return loads

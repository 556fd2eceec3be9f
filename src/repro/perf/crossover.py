"""Scheme crossover analysis: where does data-parallel replication stop
paying off? (paper Section 4.2.4)

"Small embedding tables with fewer rows are good candidates for
data-parallel sharding" — because a replicated table trades the pooled
AlltoAll for a gradient AllReduce over the whole table, the break-even
point is where AllReduce bytes (~ table size) overtake AlltoAll bytes
(~ batch * dim). This module computes that crossover explicitly, giving
planner policies (like ``dp_threshold_rows``) a principled value instead
of a magic number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .. import check
from ..embedding.table import EmbeddingTableConfig
from ..sharding.cost_model import CostModelParams, shard_cost
from ..sharding.schemes import Shard, ShardingScheme

__all__ = ["CrossoverPoint", "dp_vs_tw_cost", "find_dp_crossover",
           "crossover_sweep"]


@dataclass(frozen=True)
class CrossoverPoint:
    """DP-vs-TW break-even for one (dim, pooling) table family."""

    embedding_dim: int
    avg_pooling: float
    crossover_rows: int     # largest H where DP still wins
    dp_cost_at_crossover: float
    tw_cost_at_crossover: float


def dp_vs_tw_cost(num_rows: int, embedding_dim: int, avg_pooling: float,
                  params: CostModelParams) -> Tuple[float, float]:
    """(data-parallel cost, table-wise cost) for one table shape."""
    cfg = EmbeddingTableConfig("probe", num_rows, embedding_dim,
                               avg_pooling=avg_pooling)
    shard = Shard("probe", 0, (0, num_rows), (0, embedding_dim))
    dp = shard_cost(cfg, shard, ShardingScheme.DATA_PARALLEL,
                    params).total_seconds
    tw = shard_cost(cfg, shard, ShardingScheme.TABLE_WISE,
                    params).total_seconds
    return dp, tw


def find_dp_crossover(embedding_dim: int, avg_pooling: float,
                      params: CostModelParams,
                      max_rows: int = 10 ** 9) -> CrossoverPoint:
    """Binary-search the largest row count where DP beats TW.

    DP cost grows linearly in H (AllReduce over the table) while TW cost
    is H-independent (up to the mild locality factor), so the cost
    difference crosses zero exactly once.
    """
    check.count("embedding_dim", embedding_dim)
    check.positive("avg_pooling", avg_pooling)
    lo, hi = 1, max_rows
    dp_lo, tw_lo = dp_vs_tw_cost(lo, embedding_dim, avg_pooling, params)
    if dp_lo >= tw_lo:
        # DP never wins, even for a 1-row table
        return CrossoverPoint(embedding_dim, avg_pooling, 0, dp_lo, tw_lo)
    dp_hi, tw_hi = dp_vs_tw_cost(hi, embedding_dim, avg_pooling, params)
    if dp_hi < tw_hi:
        return CrossoverPoint(embedding_dim, avg_pooling, hi, dp_hi, tw_hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        dp, tw = dp_vs_tw_cost(mid, embedding_dim, avg_pooling, params)
        if dp < tw:
            lo = mid
        else:
            hi = mid
    dp, tw = dp_vs_tw_cost(lo, embedding_dim, avg_pooling, params)
    return CrossoverPoint(embedding_dim, avg_pooling, lo, dp, tw)


def crossover_sweep(dims: List[int], poolings: List[float],
                    params: CostModelParams) -> List[CrossoverPoint]:
    """Crossover table over a grid of table families."""
    return [find_dp_crossover(d, l, params)
            for d in dims for l in poolings]

"""Embedding sharding schemes and shard plans (paper Section 4.2, Fig. 8).

Four primitives, applicable per table:

* **table-wise (TW)** — whole table on one rank; cheapest communication
  (plain AlltoAll of pooled outputs) but coarse-grained balance.
* **row-wise (RW)** — rows split across ranks; needs input bucketization
  and a ReduceScatter of partial pools; balance scales to huge tables.
* **column-wise (CW)** — embedding dim split across ranks; keeps the
  AlltoAll flow but duplicates input indices to every shard.
* **data-parallel (DP)** — table replicated on all ranks like a dense
  parameter; no forward comms, AllReduce of gradients instead.

plus the hierarchical **table-wise-then-row-wise (TWRW)** composition that
assigns a table to a node and splits rows among that node's local ranks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .. import check
from ..embedding.table import EmbeddingTableConfig

__all__ = ["ShardingScheme", "Shard", "TableShardingPlan", "ShardingPlan",
           "shard_table"]


class ShardingScheme(enum.Enum):
    """The sharding primitives of Fig. 8 plus the hierarchical TWRW."""

    TABLE_WISE = "table_wise"
    ROW_WISE = "row_wise"
    COLUMN_WISE = "column_wise"
    DATA_PARALLEL = "data_parallel"
    TABLE_ROW_WISE = "table_row_wise"


@dataclass(frozen=True)
class Shard:
    """One placed fragment of an embedding table.

    ``row_range``/``col_range`` are half-open ``[start, stop)`` intervals
    over the table's rows/columns. A data-parallel "shard" covers the whole
    table and exists once per rank.
    """

    table: str
    rank: int
    row_range: tuple
    col_range: tuple

    def __post_init__(self) -> None:
        for name, (lo, hi) in (("row_range", self.row_range),
                               ("col_range", self.col_range)):
            check.count(f"{name} start", lo, low=0)
            check.count(f"{name} stop", hi, low=lo + 1)
        check.count("rank", self.rank, low=0)

    @property
    def num_rows(self) -> int:
        return self.row_range[1] - self.row_range[0]

    @property
    def num_cols(self) -> int:
        return self.col_range[1] - self.col_range[0]

    @property
    def num_parameters(self) -> int:
        return self.num_rows * self.num_cols


@dataclass
class TableShardingPlan:
    """Scheme plus placed shards for a single table."""

    config: EmbeddingTableConfig
    scheme: ShardingScheme
    shards: List[Shard] = field(default_factory=list)

    def validate(self) -> None:
        """Check the shards tile the table exactly (no gap, no overlap)."""
        h, d = self.config.num_embeddings, self.config.embedding_dim
        if self.scheme == ShardingScheme.DATA_PARALLEL:
            ranks = [s.rank for s in self.shards]
            if len(set(ranks)) != len(ranks):
                raise ValueError(f"{self.config.name}: duplicate DP replicas")
            for s in self.shards:
                if s.row_range != (0, h) or s.col_range != (0, d):
                    raise ValueError(
                        f"{self.config.name}: DP shard must cover the table")
            return
        covered = 0
        seen = set()
        for s in self.shards:
            key = (s.row_range, s.col_range)
            if key in seen:
                raise ValueError(f"{self.config.name}: duplicate shard {key}")
            seen.add(key)
            if s.row_range[1] > h or s.col_range[1] > d:
                raise ValueError(
                    f"{self.config.name}: shard {key} exceeds table ({h},{d})")
            covered += s.num_parameters
        if covered != h * d:
            raise ValueError(
                f"{self.config.name}: shards cover {covered} of {h * d} "
                f"parameters")
        # intervals must also not overlap; with rectangular grid shards the
        # parameter-count check above catches overlap iff total area matches
        # and each cell is covered. Verify row/col interval consistency:
        row_cuts = sorted({s.row_range for s in self.shards})
        col_cuts = sorted({s.col_range for s in self.shards})
        expected = len(row_cuts) * len(col_cuts)
        if self.scheme in (ShardingScheme.ROW_WISE,
                           ShardingScheme.TABLE_ROW_WISE):
            if len(col_cuts) != 1:
                raise ValueError(
                    f"{self.config.name}: row-wise plan must not split cols")
        if self.scheme == ShardingScheme.COLUMN_WISE and len(row_cuts) != 1:
            raise ValueError(
                f"{self.config.name}: column-wise plan must not split rows")
        if self.scheme == ShardingScheme.TABLE_WISE and len(self.shards) != 1:
            raise ValueError(
                f"{self.config.name}: table-wise plan must be one shard")
        if expected != len(self.shards) and self.scheme not in (
                ShardingScheme.TABLE_WISE,):
            raise ValueError(
                f"{self.config.name}: shards do not form a grid")


@dataclass
class ShardingPlan:
    """Complete plan: one :class:`TableShardingPlan` per table."""

    tables: Dict[str, TableShardingPlan] = field(default_factory=dict)
    world_size: int = 1

    def validate(self) -> None:
        for plan in self.tables.values():
            plan.validate()
            for s in plan.shards:
                if s.rank >= self.world_size:
                    raise ValueError(
                        f"{s.table}: rank {s.rank} outside world "
                        f"size {self.world_size}")

    def shards_on_rank(self, rank: int) -> List[Shard]:
        return [s for plan in self.tables.values() for s in plan.shards
                if s.rank == rank]

    def scheme_of(self, table: str) -> ShardingScheme:
        return self.tables[table].scheme

    def memory_per_rank(self, bytes_per_element: int = 4) -> List[int]:
        usage = [0] * self.world_size
        for plan in self.tables.values():
            for s in plan.shards:
                usage[s.rank] += s.num_parameters * bytes_per_element
        return usage


def _split_interval(total: int, parts: int) -> List[tuple]:
    """Split ``[0, total)`` into ``parts`` near-equal contiguous intervals.

    Earlier parts get the remainder, matching how frameworks split
    rows/columns. Parts beyond ``total`` would be empty and are dropped.
    """
    parts = min(parts, total)
    base = total // parts
    remainder = total % parts
    intervals = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < remainder else 0)
        intervals.append((start, start + size))
        start += size
    return intervals


def shard_table(config: EmbeddingTableConfig, scheme: ShardingScheme,
                ranks: Sequence[int]) -> TableShardingPlan:
    """Cut one table into shards for ``ranks`` under ``scheme``.

    For TW the first rank gets the whole table. For RW/CW the rows/columns
    are split near-equally over all given ranks. For DP every rank gets a
    replica. TWRW is expressed by calling this with the node-local ranks.
    """
    h, d = config.num_embeddings, config.embedding_dim
    if not ranks:
        raise ValueError("need at least one rank")
    if scheme == ShardingScheme.TABLE_WISE:
        shards = [Shard(config.name, ranks[0], (0, h), (0, d))]
    elif scheme in (ShardingScheme.ROW_WISE, ShardingScheme.TABLE_ROW_WISE):
        intervals = _split_interval(h, len(ranks))
        shards = [Shard(config.name, rank, interval, (0, d))
                  for rank, interval in zip(ranks, intervals)]
    elif scheme == ShardingScheme.COLUMN_WISE:
        intervals = _split_interval(d, len(ranks))
        shards = [Shard(config.name, rank, (0, h), interval)
                  for rank, interval in zip(ranks, intervals)]
    elif scheme == ShardingScheme.DATA_PARALLEL:
        shards = [Shard(config.name, rank, (0, h), (0, d)) for rank in ranks]
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown scheme {scheme}")
    plan = TableShardingPlan(config=config, scheme=scheme, shards=shards)
    plan.validate()
    return plan

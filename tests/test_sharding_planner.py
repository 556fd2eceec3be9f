"""Tests for the sharding cost model and planner."""

import numpy as np
import pytest

from repro.embedding import EmbeddingTableConfig
from repro.sharding import (CostModelParams, EmbeddingShardingPlanner,
                            PlannerConfig, Shard, ShardingScheme, shard_cost,
                            plan_cost_per_rank, shard_table, table_cost)


def cfg(name="t", h=100_000, d=64, pooling=20.0):
    return EmbeddingTableConfig(name, h, d, avg_pooling=pooling)


class TestCostModel:
    def params(self, **kw):
        defaults = dict(global_batch=1024, world_size=8)
        defaults.update(kw)
        return CostModelParams(**defaults)

    def full_shard(self, c):
        return Shard(c.name, 0, (0, c.num_embeddings), (0, c.embedding_dim))

    def test_forward_bytes_proportional_to_dim(self):
        """Pooled output comms cost ~ D (Section 3.0.1)."""
        p = self.params()
        c1, c2 = cfg(d=32), cfg(d=64)
        cost1 = shard_cost(c1, self.full_shard(c1),
                           ShardingScheme.TABLE_WISE, p)
        cost2 = shard_cost(c2, self.full_shard(c2),
                           ShardingScheme.TABLE_WISE, p)
        assert cost2.forward_bytes == 2 * cost1.forward_bytes

    def test_input_bytes_proportional_to_pooling(self):
        """Index distribution cost ~ L (Section 3.0.1)."""
        p = self.params()
        c1, c2 = cfg(pooling=10.0), cfg(pooling=20.0)
        cost1 = shard_cost(c1, self.full_shard(c1),
                           ShardingScheme.TABLE_WISE, p)
        cost2 = shard_cost(c2, self.full_shard(c2),
                           ShardingScheme.TABLE_WISE, p)
        assert cost2.input_bytes == 2 * cost1.input_bytes

    def test_hbm_traffic_proportional_to_l_times_d(self):
        p = self.params()
        base = shard_cost(cfg(pooling=10.0, d=32),
                          self.full_shard(cfg(pooling=10.0, d=32)),
                          ShardingScheme.TABLE_WISE, p)
        quad = shard_cost(cfg(pooling=20.0, d=64),
                          self.full_shard(cfg(pooling=20.0, d=64)),
                          ShardingScheme.TABLE_WISE, p)
        assert quad.hbm_bytes == 4 * base.hbm_bytes

    def test_column_wise_duplicates_indices(self):
        """CW shards each receive the full index stream (Section 4.2.3)."""
        p = self.params()
        c = cfg(d=64)
        tw = shard_cost(c, self.full_shard(c), ShardingScheme.TABLE_WISE, p)
        cw_shard = Shard(c.name, 0, (0, c.num_embeddings), (0, 32))
        cw = shard_cost(c, cw_shard, ShardingScheme.COLUMN_WISE, p)
        # half the columns but the full index payload
        assert cw.input_bytes == tw.input_bytes
        assert cw.forward_bytes == tw.forward_bytes // 2

    def test_row_wise_input_scales_with_row_fraction(self):
        p = self.params()
        c = cfg(h=100_000)
        half = Shard(c.name, 0, (0, 50_000), (0, c.embedding_dim))
        rw = shard_cost(c, half, ShardingScheme.ROW_WISE, p)
        tw = shard_cost(c, self.full_shard(c), ShardingScheme.TABLE_WISE, p)
        assert rw.input_bytes == tw.input_bytes // 2
        # but the output (partial sums for the global batch) is full width
        assert rw.forward_bytes == tw.forward_bytes

    def test_data_parallel_no_forward_comms(self):
        """DP trades forward AlltoAll for gradient AllReduce (Sec 4.2.4)."""
        p = self.params()
        c = cfg(h=1000, d=16)
        dp = shard_cost(c, self.full_shard(c),
                        ShardingScheme.DATA_PARALLEL, p)
        assert dp.input_bytes == 0 and dp.forward_bytes == 0
        assert dp.backward_bytes == 2 * 1000 * 16 * 4

    def test_dp_favored_for_small_tables_only(self):
        """The DP-vs-TW crossover: small tables cheaper DP, big cheaper TW."""
        p = self.params()
        small = cfg(h=500, d=16, pooling=5.0)
        big = cfg(h=10_000_000, d=16, pooling=5.0)
        for c, dp_better in ((small, True), (big, False)):
            s = self.full_shard(c)
            dp = shard_cost(c, s, ShardingScheme.DATA_PARALLEL, p)
            tw = shard_cost(c, s, ShardingScheme.TABLE_WISE, p)
            assert (dp.total_seconds < tw.total_seconds) == dp_better

    def test_locality_factor_monotone(self):
        p = self.params()
        assert p.locality_factor(1000) == 1.0
        big = p.locality_factor(100_000_000)
        bigger = p.locality_factor(1_000_000_000)
        assert 1.0 < big <= bigger <= 1.25

    def test_table_cost_positive(self):
        assert table_cost(cfg(), self.params()) > 0


class TestPlannerSchemeChoice:
    def planner(self, **kw):
        defaults = dict(world_size=8, ranks_per_node=8,
                        device_memory_bytes=32e9)
        defaults.update(kw)
        return EmbeddingShardingPlanner(PlannerConfig(**defaults))

    def test_small_table_goes_dp(self):
        p = self.planner()
        assert p.choose_scheme(cfg(h=100)) == ShardingScheme.DATA_PARALLEL

    def test_dp_disabled(self):
        p = self.planner(allow_data_parallel=False)
        assert p.choose_scheme(cfg(h=100)) != ShardingScheme.DATA_PARALLEL

    def test_huge_table_goes_row_wise(self):
        p = self.planner(device_memory_bytes=1e6)
        scheme = p.choose_scheme(cfg(h=10_000_000, d=64))
        assert scheme == ShardingScheme.ROW_WISE

    def test_node_sized_table_goes_twrw(self):
        p = self.planner(world_size=16, ranks_per_node=8,
                         device_memory_bytes=100e6)
        # table of ~256MB: exceeds device (100MB) but fits a node (800MB)
        scheme = p.choose_scheme(cfg(h=1_000_000, d=64))
        assert scheme == ShardingScheme.TABLE_ROW_WISE

    def test_wide_table_goes_column_wise(self):
        p = self.planner()
        assert p.choose_scheme(cfg(d=512)) == ShardingScheme.COLUMN_WISE

    def test_default_is_table_wise(self):
        p = self.planner()
        assert p.choose_scheme(cfg(h=50_000, d=64)) == \
            ShardingScheme.TABLE_WISE


class TestPlannerPlans:
    def test_plan_validates_and_covers(self):
        planner = EmbeddingShardingPlanner(PlannerConfig(world_size=4,
                                                         ranks_per_node=4))
        tables = [cfg(f"t{i}", h=50_000 + i * 1000, d=64) for i in range(10)]
        plan = planner.plan(tables)
        plan.validate()
        assert set(plan.tables) == {t.name for t in tables}

    def test_scheme_override(self):
        planner = EmbeddingShardingPlanner(PlannerConfig(world_size=4,
                                                         ranks_per_node=4))
        tables = [cfg("a", h=50_000)]
        plan = planner.plan(tables, schemes={"a": ShardingScheme.ROW_WISE})
        assert plan.scheme_of("a") == ShardingScheme.ROW_WISE
        assert len(plan.tables["a"].shards) == 4

    def test_duplicate_names_raise(self):
        planner = EmbeddingShardingPlanner(PlannerConfig(world_size=2,
                                                         ranks_per_node=2))
        with pytest.raises(ValueError):
            planner.plan([cfg("a"), cfg("a")])

    def test_ldm_balances_better_than_greedy(self):
        """Placement quality: LDM spread <= greedy on a skewed model."""
        rng = np.random.default_rng(0)
        tables = [cfg(f"t{i}", h=int(rng.lognormal(11, 1)),
                      d=int(rng.choice([16, 32, 64, 128])),
                      pooling=float(rng.integers(1, 50)))
                  for i in range(64)]
        params = CostModelParams(global_batch=8192, world_size=8)
        plans = {}
        for method in ("greedy", "ldm"):
            planner = EmbeddingShardingPlanner(
                PlannerConfig(world_size=8, ranks_per_node=8,
                              partitioner=method,
                              allow_data_parallel=False,
                              allow_column_wise=False),
                cost_params=params)
            plans[method] = planner.plan(tables)
        loads = {m: plan_cost_per_rank(p, params) for m, p in plans.items()}
        spread = {m: max(l) - min(l) for m, l in loads.items()}
        assert spread["ldm"] <= spread["greedy"] * 1.05

    def test_twrw_stays_within_node(self):
        planner = EmbeddingShardingPlanner(
            PlannerConfig(world_size=16, ranks_per_node=8,
                          device_memory_bytes=100e6))
        big = cfg("big", h=1_000_000, d=64)  # 256MB > device, < node
        plan = planner.plan([big])
        ranks = {s.rank for s in plan.tables["big"].shards}
        nodes = {r // 8 for r in ranks}
        assert len(nodes) == 1
        assert len(ranks) == 8

    def test_hierarchical_plus_flat_mix(self):
        planner = EmbeddingShardingPlanner(
            PlannerConfig(world_size=16, ranks_per_node=8,
                          device_memory_bytes=100e6))
        tables = [cfg("big", h=1_000_000, d=64),
                  cfg("small", h=100, d=16),
                  cfg("mid", h=50_000, d=64)]
        plan = planner.plan(tables)
        plan.validate()
        assert plan.scheme_of("big") == ShardingScheme.TABLE_ROW_WISE
        assert plan.scheme_of("small") == ShardingScheme.DATA_PARALLEL
        assert plan.scheme_of("mid") == ShardingScheme.TABLE_WISE

    def test_cw_shards_spread_over_ranks(self):
        planner = EmbeddingShardingPlanner(
            PlannerConfig(world_size=8, ranks_per_node=8, cw_shards=4))
        wide = cfg("wide", h=50_000, d=512)
        plan = planner.plan([wide])
        shards = plan.tables["wide"].shards
        assert len(shards) == 4
        assert all(s.num_cols == 128 for s in shards)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PlannerConfig(world_size=0)
        with pytest.raises(ValueError):
            PlannerConfig(world_size=12, ranks_per_node=8)
        with pytest.raises(ValueError):
            PlannerConfig(partitioner="random")
        for bad in (0, -2):
            with pytest.raises(ValueError, match="ranks_per_node"):
                PlannerConfig(world_size=8, ranks_per_node=bad)
        with pytest.raises(ValueError, match="cw_shards"):
            PlannerConfig(cw_shards=0)

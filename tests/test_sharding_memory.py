"""Tests for per-rank plan memory validation."""

import numpy as np
import pytest

from repro.embedding import EmbeddingTableConfig
from repro.sharding import (ShardingPlan, ShardingScheme,
                            plan_memory_report, shard_table,
                            validate_plan_memory)


def make_plan(h=1000, d=64, world=4, scheme=ShardingScheme.ROW_WISE):
    cfg = EmbeddingTableConfig("t", h, d)
    plan = ShardingPlan(world_size=world)
    ranks = [0] if scheme == ShardingScheme.TABLE_WISE else \
        list(range(world))
    plan.tables["t"] = shard_table(cfg, scheme, ranks)
    return plan


class TestMemoryReport:
    def test_row_wise_split_evenly(self):
        reports = plan_memory_report(make_plan(h=1000, d=64, world=4),
                                     precision="fp32", optimizer="sgd")
        assert all(r.weight_bytes == 250 * 64 * 4 for r in reports)
        assert all(r.optimizer_bytes == 0 for r in reports)

    def test_table_wise_concentrates(self):
        reports = plan_memory_report(
            make_plan(scheme=ShardingScheme.TABLE_WISE), optimizer="sgd")
        assert reports[0].weight_bytes == 1000 * 64 * 4
        assert reports[1].weight_bytes == 0

    def test_optimizer_state_counted(self):
        reports = plan_memory_report(make_plan(world=2),
                                     optimizer="rowwise_adagrad")
        # 500 rows per shard -> 500 floats of moment
        assert reports[0].optimizer_bytes == 500 * 4

    def test_adagrad_state_equals_weights(self):
        reports = plan_memory_report(make_plan(world=2), precision="fp32",
                                     optimizer="adagrad")
        for r in reports:
            assert r.optimizer_bytes == r.weight_bytes

    def test_cw_rowwise_state_multiplies(self):
        """The Sec 4.2.3 caveat quantified: CW shards each carry full
        per-row moments, so total state is shards x H floats."""
        plan = make_plan(h=100, d=64, world=4,
                         scheme=ShardingScheme.COLUMN_WISE)
        reports = plan_memory_report(plan, optimizer="rowwise_adagrad")
        total_state = sum(r.optimizer_bytes for r in reports)
        assert total_state == 4 * 100 * 4  # 4 shards x 100 rows x 4B

    def test_fp16_halves_weights(self):
        fp32 = plan_memory_report(make_plan(world=2), precision="fp32",
                                  optimizer="sgd")
        fp16 = plan_memory_report(make_plan(world=2), precision="fp16",
                                  optimizer="sgd")
        assert fp16[0].weight_bytes == fp32[0].weight_bytes // 2


class TestValidation:
    def test_fitting_plan_passes(self):
        validate_plan_memory(make_plan(), device_memory_bytes=32e9)

    def test_overflow_raises_with_rank_detail(self):
        plan = make_plan(h=10_000_000, d=64,
                         scheme=ShardingScheme.TABLE_WISE)
        with pytest.raises(ValueError, match="rank 0"):
            validate_plan_memory(plan, device_memory_bytes=5e9,
                                 optimizer="adagrad")

    def test_reserve_counted(self):
        """A plan that fits raw memory can fail after the NCCL/framework
        reserve — the Section 5.3.2 headroom effect."""
        plan = make_plan(h=100_000, d=64,
                         scheme=ShardingScheme.TABLE_WISE)
        # weights+adagrad = 2 * 100000*64*4 = 51.2 MB
        validate_plan_memory(plan, device_memory_bytes=60e6,
                             optimizer="adagrad",
                             framework_reserve_bytes=1e6)
        with pytest.raises(ValueError):
            validate_plan_memory(plan, device_memory_bytes=60e6,
                                 optimizer="adagrad",
                                 framework_reserve_bytes=20e6)

    def test_reserve_exceeding_memory_raises(self):
        with pytest.raises(ValueError, match="reserve"):
            validate_plan_memory(make_plan(), device_memory_bytes=1e9,
                                 framework_reserve_bytes=2e9)

    @pytest.mark.parametrize("field", ["device_memory_bytes",
                                       "framework_reserve_bytes"])
    def test_nan_budget_raises(self, field):
        """Regression: ``memory <= reserve`` let NaN through, so a NaN
        budget validated every plan."""
        with pytest.raises(ValueError, match=field):
            validate_plan_memory(make_plan(), **{
                "device_memory_bytes": 1e9, field: float("nan")})

    def test_row_wise_rescues_overflow(self):
        """The planner's escape hatch: the same table that overflows
        table-wise fits when split row-wise."""
        budget = 1.6e9  # usable: 1.5 GB after the reserve
        # 10M x 64 fp32 = 2.56 GB: overflows table-wise...
        tw = make_plan(h=10_000_000, d=64,
                       scheme=ShardingScheme.TABLE_WISE)
        with pytest.raises(ValueError):
            validate_plan_memory(tw, budget, optimizer="sgd",
                                 framework_reserve_bytes=1e8)
        # ...but 640 MB per rank when split 4-way row-wise
        rw = make_plan(h=10_000_000, d=64, scheme=ShardingScheme.ROW_WISE)
        validate_plan_memory(rw, budget, optimizer="sgd",
                             framework_reserve_bytes=1e8)

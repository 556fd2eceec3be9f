"""Tests for the multi-path representation planner (`repro.planner`).

The invariants the fuzz drills: a returned plan NEVER exceeds the hot
memory budget, never exceeds the per-table quality floor, and is a
deterministic function of (model, budget, cost). Edge cases: an empty
budget demotes everything to the exact cold tier, an abundant budget
keeps everything full, single-table models plan fine, and a measured-NE
floor converges because cold is exact.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import DLRM
from repro.planner import (PlanBudget, PlanError, PlannerCostModel,
                           RepresentationPlan, RepresentationPlanner,
                           enumerate_candidates, plan_representation,
                           uniform_plan)
from repro.serving import FreezeConfig, freeze

from .helpers import tiny_config, tiny_dataset, tiny_trainer

FAST_COST = PlannerCostModel(allow_tt=False)


def make_model(num_tables=4, rows=64, dim=8, seed=0):
    return DLRM(tiny_config(num_tables, rows, dim), seed=seed)


def full_bytes(model):
    return sum(t.num_parameters * 4 for t in model.config.tables)


def assert_same_export(config, kind):
    """``freeze`` under ``config`` builds what it builds under the plan
    giving every table ``kind``: the same prediction bits, recorded
    errors and stored bytes, the latter the plan's own total."""
    model = make_model(seed=3)
    plan = uniform_plan(model, kind, cost=FAST_COST)
    uniform = freeze(model, config)
    planned = freeze(model, plan=plan)
    batch = tiny_dataset(model.config, seed=5).batch(32, 1)
    assert uniform.predict(batch).tobytes() == \
        planned.predict(batch).tobytes()
    assert uniform.quantization_error == planned.quantization_error
    assert uniform.embedding_storage_bytes() == \
        planned.embedding_storage_bytes() == plan.total_bytes()


class TestPlanEdgeCases:
    def test_empty_budget_goes_all_cold(self):
        model = make_model()
        plan = plan_representation(model, PlanBudget(hot_bytes=0),
                                   cost=FAST_COST)
        assert plan.counts_by_kind() == {"cold": 4}
        assert plan.hot_bytes() == 0

    def test_abundant_budget_stays_all_full(self):
        model = make_model()
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model)), cost=FAST_COST)
        assert plan.counts_by_kind() == {"full": 4}
        assert plan.max_error() == 0.0

    def test_no_budget_means_all_full(self):
        model = make_model()
        plan = plan_representation(model, None, cost=FAST_COST)
        assert plan.counts_by_kind() == {"full": 4}

    def test_single_table_model(self):
        model = make_model(num_tables=1)
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) // 2),
            cost=FAST_COST)
        assert len(plan.assignments) == 1
        assert plan.hot_bytes() <= full_bytes(model) // 2

    def test_half_budget_compresses_not_cold(self):
        # fp16 alone meets a 50% budget; cold should not be needed
        model = make_model()
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.5),
            cost=FAST_COST)
        assert plan.hot_bytes() <= full_bytes(model) * 0.5
        assert "cold" not in plan.counts_by_kind()

    def test_quality_floor_zero_forbids_lossy(self):
        model = make_model()
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.5,
                              quality_floor=0.0), cost=FAST_COST)
        # only exact kinds allowed: full stays, overflow goes cold
        assert set(plan.counts_by_kind()) <= {"full", "cold"}
        assert plan.max_error() == 0.0

    def test_deterministic(self):
        budget = PlanBudget(hot_bytes=full_bytes(make_model()) * 0.4)
        a = plan_representation(make_model(), budget, cost=FAST_COST)
        b = plan_representation(make_model(), budget, cost=FAST_COST)
        assert a.as_dict() == b.as_dict()

    def test_tt_selected_for_tt_structured_weights(self):
        # plant exactly-TT weights: rank-2 cores materialized back
        model = make_model(num_tables=2, rows=64, dim=16, seed=3)
        from repro.embedding import TTEmbeddingTable
        for table in model.embeddings.tables:
            tt = TTEmbeddingTable.from_weight(table.config.name,
                                              table.weight, ranks=(2, 2))
            table.weight[...] = tt.materialize()
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.2,
                              quality_floor=1e-4),
            cost=PlannerCostModel(tt_rank_options=((2, 2),)))
        assert "tt" in plan.counts_by_kind()
        assert plan.hot_bytes() <= full_bytes(model) * 0.2


class TestPlanBudget:
    @pytest.mark.parametrize("field", ["hot_bytes", "bandwidth_s",
                                       "quality_floor", "ne_floor"])
    def test_nan_is_rejected(self, field):
        """Regression: ``PlanBudget(hot_bytes=nan)`` planned every table
        ``full`` and passed ``validate()``, while ``FreezeConfig`` read
        the same NaN as "nothing fits" and sent every table cold."""
        with pytest.raises(ValueError, match=field):
            PlanBudget(**{field: float("nan")})

    def test_inf_is_allowed(self):
        inf = float("inf")
        PlanBudget(hot_bytes=inf, bandwidth_s=inf, quality_floor=inf,
                   ne_floor=inf)


class TestCostModelValidation:
    @pytest.mark.parametrize("weight", [float("nan"), -1.0])
    def test_bad_time_weight_is_rejected(self, weight):
        """Regression: ``time_weight < 0`` let NaN through, and the
        greedy score then compared NaNs, so the plan's choices stopped
        depending on lookup time."""
        with pytest.raises(ValueError, match="time_weight"):
            PlannerCostModel(time_weight=weight)

    def test_zero_time_weight_is_allowed(self):
        PlannerCostModel(time_weight=0.0)


class TestPlanObject:
    def test_validate_raises_over_budget(self):
        model = make_model()
        plan = plan_representation(model, None, cost=FAST_COST)
        bad = RepresentationPlan(assignments=plan.assignments,
                                 budget=PlanBudget(hot_bytes=1))
        with pytest.raises(PlanError):
            bad.validate()

    def test_training_precision_mapping(self):
        model = make_model()
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.3),
            cost=FAST_COST)
        for name in plan.assignments:
            kind = plan.kind_of(name)
            expect = kind if kind in ("fp16", "bf16", "int8") else "fp32"
            assert plan.training_precision(name) == expect

    def test_uniform_plan_matches_kind(self):
        model = make_model()
        plan = uniform_plan(model, "fp16", cost=FAST_COST)
        assert plan.counts_by_kind() == {"fp16": 4}
        assert plan.hot_bytes() == full_bytes(model) // 2

    def test_memory_saving_fraction(self):
        model = make_model()
        plan = uniform_plan(model, "fp16", cost=FAST_COST)
        assert plan.memory_saving() == pytest.approx(0.5)

    def test_candidates_measure_real_error(self):
        model = make_model()
        t = model.config.tables[0]
        weight = model.embeddings.tables[0].weight
        cands = enumerate_candidates(t, weight, FAST_COST)
        fp16 = cands.option("fp16")
        expect = float(np.max(np.abs(
            weight - weight.astype(np.float16).astype(np.float32))))
        assert fp16.error == pytest.approx(expect)
        assert cands.option("full").error == 0.0
        assert cands.option("cold").error == 0.0


class TestNEFloor:
    def test_ne_floor_pass_converges(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=7)
        batch = tiny_dataset(config, seed=1).batch(64, 0)
        planner = RepresentationPlanner(cost=FAST_COST)
        plan = planner.plan(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.3,
                              ne_floor=1e-9),
            eval_batch=batch)
        assert plan.measured_ne_gap is not None
        assert plan.measured_ne_gap <= 1e-9
        plan.validate()  # floor recorded on the plan and honoured

    def test_loose_ne_floor_keeps_compression(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=7)
        batch = tiny_dataset(config, seed=1).batch(64, 0)
        planner = RepresentationPlanner(cost=FAST_COST)
        plan = planner.plan(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.3,
                              ne_floor=0.5),
            eval_batch=batch)
        assert plan.measured_ne_gap is not None
        assert plan.measured_ne_gap <= 0.5


class TestPlannedFreeze:
    def test_planned_freeze_serves_within_quantization_error(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=2)
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.3),
            cost=FAST_COST)
        servable = freeze(model, plan=plan)
        assert servable.precision == "mixed"
        assert servable.representation == {
            n: plan.kind_of(n) for n in plan.assignments}
        batch = tiny_dataset(config, seed=5).batch(16, 1)
        golden = freeze(model)
        diff = np.max(np.abs(servable.forward(batch)
                             - golden.forward(batch)))
        # int8 is the coarsest allowed representation here
        assert diff < 5e-3

    def test_planned_freeze_storage_matches_plan(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=2)
        plan = plan_representation(
            model, PlanBudget(hot_bytes=full_bytes(model) * 0.3),
            cost=FAST_COST)
        servable = freeze(model, plan=plan)
        assert servable.embedding_storage_bytes() == plan.total_bytes()

    def test_all_cold_planned_freeze_is_bitwise(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=2)
        plan = plan_representation(model, PlanBudget(hot_bytes=0),
                                   cost=FAST_COST)
        servable = freeze(model, plan=plan)
        batch = tiny_dataset(config, seed=5).batch(16, 1)
        np.testing.assert_array_equal(servable.forward(batch),
                                      freeze(model).forward(batch))

    @pytest.mark.parametrize("precision,kind", [
        ("fp32", "full"), ("fp16", "fp16"), ("bf16", "bf16"),
        ("int8", "int8")])
    def test_uniform_export_is_the_uniform_plan(self, precision, kind):
        assert_same_export(FreezeConfig(precision=precision), kind)

    def test_all_cold_export_is_the_cold_plan(self):
        assert_same_export(FreezeConfig(hot_bytes=0), "cold")

    def test_planner_accepts_trainer(self):
        config = tiny_config(4, 64, 8)
        trainer = tiny_trainer(config, world=2, seed=1)
        plan = plan_representation(
            trainer, PlanBudget(hot_bytes=full_bytes(trainer) * 0.4),
            cost=FAST_COST)
        assert set(plan.assignments) == {t.name for t in config.tables}
        servable = freeze(trainer, plan=plan)
        assert servable.precision == "mixed"


class TestTrainerIntegration:
    def test_plan_precisions_reach_shards(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=4)
        plan = uniform_plan(model, "fp16", cost=FAST_COST)
        trainer = tiny_trainer(config, world=2, seed=4,
                               representation_plan=plan)
        from repro.embedding import QuantizedEmbeddingTable
        quantized = [t for t in trainer.exchange.shard_tables.values()
                     if isinstance(t, QuantizedEmbeddingTable)]
        # every shard (incl. data-parallel replicas) trains quantized
        assert len(quantized) == len(trainer.exchange.shard_tables) >= 3
        ds = tiny_dataset(config, seed=4)
        for step in range(2):
            trainer.train_step(ds.batch(8, step).split(2))
        # post-step storage sync: fp16 roundtrip is idempotent
        for t in quantized:
            assert t.quantization_error() == 0.0

    def test_plan_must_cover_all_tables(self):
        config = tiny_config(3, 64, 8)
        model = DLRM(config, seed=4)
        plan = uniform_plan(model, "fp16", cost=FAST_COST)
        partial = RepresentationPlan(
            assignments={k: v for k, v in list(plan.assignments.items())[:1]},
            budget=plan.budget)
        with pytest.raises(ValueError, match="no assignment"):
            tiny_trainer(config, world=2, representation_plan=partial)


class TestPlannerFuzz:
    @given(budget_frac=st.floats(min_value=0.0, max_value=1.2),
           floor=st.one_of(st.none(),
                           st.floats(min_value=0.0, max_value=0.1)),
           seed=st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_plan_never_violates_budget_or_floor(self, budget_frac, floor,
                                                 seed):
        model = make_model(num_tables=3, rows=48, dim=8, seed=seed)
        budget = PlanBudget(hot_bytes=full_bytes(model) * budget_frac,
                            quality_floor=floor)
        plan = plan_representation(model, budget, cost=FAST_COST)
        assert plan.hot_bytes() <= budget.hot_bytes
        if floor is not None:
            assert plan.max_error() <= floor
        assert set(plan.assignments) == {t.name for t in
                                         model.config.tables}
        plan.validate()  # must not raise

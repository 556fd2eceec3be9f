"""Multi-path representation planning (MP-Rec, PAPERS.md).

Picks a representation *per embedding table* — full fp32, fp16/bf16/int8
storage, TT-compressed cores, or exact-but-slow cold cache placement —
under a memory/bandwidth budget and a quality floor, scoring candidates
with the existing perf models (:mod:`repro.perf` rooflines,
:mod:`repro.sharding.cost_model`) and *measured* per-table
quantization/compression error. The emitted
:class:`RepresentationPlan` is consumed by
``NeoTrainer(..., representation_plan=...)`` for training-side storage
and by ``freeze(..., plan=...)`` for the serving export.
"""

from .candidates import (PlannerCostModel, TableCandidates,
                         enumerate_candidates)
from .plan import (REPRESENTATION_KINDS, PlanBudget, PlanError,
                   RepresentationPlan, TableAssignment)
from .planner import (RepresentationPlanner, measure_ne_gap,
                      plan_representation, uniform_plan)

__all__ = [
    "REPRESENTATION_KINDS",
    "TableAssignment",
    "PlanBudget",
    "RepresentationPlan",
    "PlanError",
    "PlannerCostModel",
    "TableCandidates",
    "enumerate_candidates",
    "RepresentationPlanner",
    "plan_representation",
    "uniform_plan",
    "measure_ne_gap",
]

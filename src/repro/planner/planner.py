"""The representation planner: greedy multi-path search under budgets.

MP-Rec-style per-table representation selection. The planner starts
every table at full fp32 (the highest-fidelity representation) and,
while the arena-resident footprint exceeds the ``hot_bytes`` budget,
greedily applies the single *downgrade move* — switch one table to any
smaller representation — with the lowest regret per byte freed:

    score(move) = (d_error / scale_t + time_weight * d_time / T_full)
                  / (bytes_freed / B_full)

where ``scale_t`` is the table's max |weight| (so errors compare across
tables of different magnitude), ``T_full`` is the all-full modeled
lookup time and ``B_full`` the all-full footprint. ``cold`` placement is
exact (zero error) but pays the DRAM-link time penalty, so the score
naturally prefers cheap lossy compression (fp16/int8/TT) while the
quality floor allows it and falls back to cold when nothing else fits —
an empty budget therefore converges to the all-cold plan and a budget
above the all-full footprint never moves at all.

Quality is enforced twice: candidates whose *measured* element error
exceeds ``quality_floor`` are never considered, and when an eval batch
is supplied the planned export's NE gap against the fp32 export is
measured (both are real ``freeze()`` artifacts) and tables are demoted
to the exact cold path, worst measured error first, until the gap is
inside ``ne_floor``. The ``bandwidth_s`` cap is best-effort: cold tables
are promoted back into compressed hot representations while budget and
floor allow; if the cap still cannot hold (e.g. a zero memory budget)
the plan records ``bandwidth_met=False`` rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..data.datagen import MiniBatch
from ..data.freq import FrequencyStats
from ..metrics import normalized_entropy
from ..models.dlrm import DLRM
from ..serving.export import _reader, freeze
from .candidates import (PlannerCostModel, TableCandidates,
                         enumerate_candidates)
from .plan import PlanBudget, PlanError, RepresentationPlan, TableAssignment

__all__ = ["RepresentationPlanner", "plan_representation", "uniform_plan",
           "measure_ne_gap"]

_EPS = 1e-12


def measure_ne_gap(model: DLRM, plan: RepresentationPlan,
                   eval_batch: MiniBatch) -> float:
    """NE of the planned export minus NE of the fp32 export, measured on
    real frozen artifacts over ``eval_batch`` (may be negative)."""
    labels = eval_batch.labels
    base = freeze(model)
    planned = freeze(model, plan=plan)
    return (normalized_entropy(planned.predict(eval_batch), labels)
            - normalized_entropy(base.predict(eval_batch), labels))


@dataclass
class _State:
    """Mutable per-table search state."""

    candidates: TableCandidates
    current: TableAssignment


class RepresentationPlanner:
    """Searches full/fp16/bf16/int8/TT/cold per table under a budget."""

    def __init__(self, cost: Optional[PlannerCostModel] = None) -> None:
        self.cost = cost if cost is not None else PlannerCostModel()

    # ------------------------------------------------------------------
    def plan(self, model: DLRM, budget: Optional[PlanBudget] = None,
             eval_batch: Optional[MiniBatch] = None,
             frequency_stats: Optional[FrequencyStats] = None
             ) -> RepresentationPlan:
        """Emit a :class:`RepresentationPlan` for ``model``.

        ``model`` is a :class:`repro.models.DLRM` or a
        :class:`repro.core.NeoTrainer`, read in place as ``freeze`` reads
        it. ``eval_batch`` enables the measured-NE quality pass; without it
        ``ne_floor`` is ignored (per-table error floors still apply).
        """
        config, _, read = _reader(model)
        budget = budget if budget is not None else PlanBudget()

        states: Dict[str, _State] = {}
        for t in config.tables:
            cands = enumerate_candidates(t, read(t.name), self.cost,
                                         frequency_stats)
            states[t.name] = _State(candidates=cands,
                                    current=cands.options[0])

        baseline_hot = sum(s.current.hot_bytes for s in states.values())
        baseline_time = sum(s.current.lookup_s for s in states.values())

        self._fit_memory(states, budget, baseline_hot, baseline_time)
        bandwidth_met = self._fit_bandwidth(states, budget)
        plan = self._emit(states, budget, baseline_hot, bandwidth_met)

        if budget.ne_floor is not None and eval_batch is not None:
            plan = self._fit_ne(model, plan, states, budget, baseline_hot,
                                eval_batch)
        plan.validate()
        return plan

    # ------------------------------------------------------------------
    def _legal(self, state: _State, budget: PlanBudget
               ) -> List[TableAssignment]:
        """Downgrade moves from the current assignment: strictly fewer
        hot bytes, inside the per-table quality floor."""
        floor = budget.quality_floor
        out = []
        for cand in state.candidates.options:
            if cand.hot_bytes >= state.current.hot_bytes:
                continue
            if floor is not None and cand.error > floor:
                continue
            out.append(cand)
        return out

    def _score(self, state: _State, cand: TableAssignment,
               baseline_hot: int, baseline_time: float) -> float:
        scale = max(state.candidates.scale, _EPS)
        d_error = (cand.error - state.current.error) / scale
        d_time = (cand.lookup_s - state.current.lookup_s) \
            / max(baseline_time, _EPS)
        freed = (state.current.hot_bytes - cand.hot_bytes) \
            / max(baseline_hot, 1)
        return (max(d_error, 0.0) + self.cost.time_weight
                * max(d_time, 0.0)) / max(freed, _EPS)

    def _fit_memory(self, states: Dict[str, _State], budget: PlanBudget,
                    baseline_hot: int, baseline_time: float) -> None:
        def hot() -> int:
            return sum(s.current.hot_bytes for s in states.values())

        while hot() > budget.hot_bytes:
            best: Optional[Tuple[float, str, str, TableAssignment]] = None
            for name in sorted(states):
                state = states[name]
                for cand in self._legal(state, budget):
                    key = (self._score(state, cand, baseline_hot,
                                       baseline_time), name, cand.kind, cand)
                    if best is None or key[:3] < best[:3]:
                        best = key
            if best is None:
                raise PlanError(
                    f"cannot fit hot bytes {hot()} into budget "
                    f"{budget.hot_bytes} — no legal downgrade move left "
                    f"(is the cold path disabled?)")
            states[best[1]].current = best[3]

    def _fit_bandwidth(self, states: Dict[str, _State],
                       budget: PlanBudget) -> bool:
        """Best-effort: promote cold tables back into compressed hot
        representations while the memory budget and floors allow."""
        if budget.bandwidth_s is None:
            return True

        def total_time() -> float:
            return sum(s.current.lookup_s for s in states.values())

        def hot() -> int:
            return sum(s.current.hot_bytes for s in states.values())

        while total_time() > budget.bandwidth_s:
            headroom = budget.hot_bytes - hot()
            best: Optional[Tuple[float, str, str, TableAssignment]] = None
            for name in sorted(states):
                state = states[name]
                cur = state.current
                floor = budget.quality_floor
                for cand in state.candidates.options:
                    if cand.lookup_s >= cur.lookup_s - _EPS:
                        continue
                    if cand.hot_bytes - cur.hot_bytes > headroom:
                        continue
                    if floor is not None and cand.error > floor:
                        continue
                    grown = max(cand.hot_bytes - cur.hot_bytes, 1)
                    key = ((cur.lookup_s - cand.lookup_s) / grown,
                           name, cand.kind)
                    # maximize time saved per byte spent
                    if best is None or key > best[:3]:
                        best = key + (cand,)
            if best is None:
                return False
            states[best[1]].current = best[3]
        return True

    def _fit_ne(self, model: DLRM, plan: RepresentationPlan,
                states: Dict[str, _State], budget: PlanBudget,
                baseline_hot: int, eval_batch: MiniBatch
                ) -> RepresentationPlan:
        """Demote lossy tables to the exact cold path, worst measured
        error first, until the measured NE gap is inside the floor."""
        gap = measure_ne_gap(model, plan, eval_batch)
        while gap > budget.ne_floor:
            lossy = [(s.current.error, name) for name, s in states.items()
                     if s.current.error > 0.0]
            if not lossy:
                # every table already exact — the gap is numerical noise
                break
            _, worst = max(lossy)
            states[worst].current = states[worst].candidates.option("cold")
            plan = self._emit(states, budget, baseline_hot,
                              plan.bandwidth_met)
            gap = measure_ne_gap(model, plan, eval_batch)
        plan.measured_ne_gap = gap
        return plan

    def _emit(self, states: Dict[str, _State], budget: PlanBudget,
              baseline_hot: int, bandwidth_met: bool) -> RepresentationPlan:
        return RepresentationPlan(
            assignments={name: s.current for name, s in states.items()},
            budget=budget, bandwidth_met=bandwidth_met,
            baseline_hot_bytes=baseline_hot)


def plan_representation(model: DLRM, budget: Optional[PlanBudget] = None,
                        cost: Optional[PlannerCostModel] = None,
                        eval_batch: Optional[MiniBatch] = None,
                        frequency_stats: Optional[FrequencyStats] = None
                        ) -> RepresentationPlan:
    """One-call convenience wrapper over :class:`RepresentationPlanner`."""
    return RepresentationPlanner(cost).plan(
        model, budget, eval_batch=eval_batch,
        frequency_stats=frequency_stats)


def uniform_plan(model: DLRM, kind: str,
                 cost: Optional[PlannerCostModel] = None
                 ) -> RepresentationPlan:
    """Assign every table the same representation — the single-path
    baselines the mixed plan is benchmarked against."""
    config, _, read = _reader(model)
    cost = cost if cost is not None else PlannerCostModel()
    assignments: Dict[str, TableAssignment] = {}
    baseline_hot = 0
    for t in config.tables:
        cands = enumerate_candidates(t, read(t.name), cost)
        assignments[t.name] = cands.option(kind)
        baseline_hot += cands.options[0].hot_bytes
    return RepresentationPlan(assignments=assignments,
                              baseline_hot_bytes=baseline_hot)

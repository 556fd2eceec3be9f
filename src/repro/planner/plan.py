"""Plan data model: per-table representation assignments under a budget.

A :class:`RepresentationPlan` is the planner's output contract: one
:class:`TableAssignment` per embedding table naming the representation
(``full`` / ``fp16`` / ``bf16`` / ``int8`` / ``tt`` / ``cold``) with its
*measured* approximation error, modeled per-batch lookup time, and byte
accounting split into HBM-resident ``hot_bytes`` and wherever-they-live
``total_bytes``. Budget semantics follow :func:`repro.serving.export.freeze`:
the ``hot_bytes`` budget covers only arena-resident storage; a ``cold``
table is served exactly (fp32) through the software cache out of DRAM and
contributes zero hot bytes — which is why an empty budget degenerates to
an all-cold plan instead of an infeasibility error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .. import check

__all__ = ["REPRESENTATION_KINDS", "TableAssignment", "PlanBudget",
           "RepresentationPlan", "PlanError"]

# search space, highest fidelity first; "cold" is exact fp32 behind the
# software cache (zero quality loss, DRAM-link bandwidth cost)
REPRESENTATION_KINDS = ("full", "fp16", "bf16", "int8", "tt", "cold")

# what precision the trainer stores a table at while *training* toward a
# given serving representation (TT/cold train full fp32; the compression
# happens at freeze time)
_TRAINING_PRECISION = {"full": "fp32", "fp16": "fp16", "bf16": "bf16",
                       "int8": "int8", "tt": "fp32", "cold": "fp32"}


class PlanError(ValueError):
    """A budget/floor combination the planner cannot satisfy."""


@dataclass(frozen=True)
class TableAssignment:
    """One table's chosen representation and its measured/modeled costs."""

    table: str
    kind: str                   # one of REPRESENTATION_KINDS
    hot_bytes: int              # HBM-arena-resident bytes (0 for cold)
    total_bytes: int            # stored bytes wherever they live
    error: float                # measured max |W - repr(W)| over elements
    lookup_s: float             # modeled pooled-lookup seconds per batch
    tt_ranks: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in REPRESENTATION_KINDS:
            raise ValueError(
                f"kind must be one of {REPRESENTATION_KINDS}, "
                f"got {self.kind!r}")
        check.count("hot_bytes", self.hot_bytes, low=0)
        check.count("total_bytes", self.total_bytes, low=0)
        check.nonnegative("error", self.error)
        check.nonnegative("lookup_s", self.lookup_s)

    @property
    def training_precision(self) -> str:
        """Storage precision :class:`repro.core.NeoTrainer` shards use."""
        return _TRAINING_PRECISION[self.kind]

    def as_dict(self) -> Dict:
        return {"table": self.table, "kind": self.kind,
                "hot_bytes": self.hot_bytes, "total_bytes": self.total_bytes,
                "error": self.error, "lookup_s": self.lookup_s,
                "tt_ranks": list(self.tt_ranks) if self.tt_ranks else None}


@dataclass(frozen=True)
class PlanBudget:
    """What the plan must honor.

    ``hot_bytes`` caps arena-resident embedding storage (hard).
    ``quality_floor`` caps each table's measured element error (hard —
    candidates above it are never considered; ``full`` and ``cold`` are
    exact so a floor alone can never make planning infeasible).
    ``ne_floor`` caps the measured NE gap of the planned export against
    the fp32 export on an eval batch (hard when an eval batch is given).
    ``bandwidth_s`` caps the modeled per-batch embedding lookup time
    (best effort: the plan records ``bandwidth_met`` instead of failing,
    because an empty memory budget may force everything onto the slow
    cold path).
    """

    hot_bytes: float = float("inf")
    bandwidth_s: Optional[float] = None
    quality_floor: Optional[float] = None
    ne_floor: Optional[float] = None

    def __post_init__(self) -> None:
        check.nonnegative("hot_bytes", self.hot_bytes, inf=True)
        if self.bandwidth_s is not None:
            check.positive("bandwidth_s", self.bandwidth_s, inf=True)
        if self.quality_floor is not None:
            check.nonnegative("quality_floor", self.quality_floor, inf=True)
        if self.ne_floor is not None:
            check.nonnegative("ne_floor", self.ne_floor, inf=True)


@dataclass
class RepresentationPlan:
    """Per-table representation choices plus the budget they satisfy.

    Consumed by ``freeze(..., plan=...)`` (serving export) and
    ``NeoTrainer(..., representation_plan=...)`` (training shards).
    ``measured_ne_gap`` is filled when the planner had an eval batch to
    measure quality on; ``bandwidth_met`` records whether the best-effort
    bandwidth cap held.
    """

    assignments: Dict[str, TableAssignment]
    budget: PlanBudget = field(default_factory=PlanBudget)
    measured_ne_gap: Optional[float] = None
    bandwidth_met: bool = True
    baseline_hot_bytes: int = 0      # all-full-precision footprint

    # ------------------------------------------------------------------
    def kind_of(self, table: str) -> str:
        return self.assignments[table].kind

    def training_precision(self, table: str) -> str:
        return self.assignments[table].training_precision

    def hot_bytes(self) -> int:
        return sum(a.hot_bytes for a in self.assignments.values())

    def total_bytes(self) -> int:
        return sum(a.total_bytes for a in self.assignments.values())

    def lookup_s(self) -> float:
        return sum(a.lookup_s for a in self.assignments.values())

    def max_error(self) -> float:
        return max((a.error for a in self.assignments.values()), default=0.0)

    def counts_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for a in self.assignments.values():
            counts[a.kind] = counts.get(a.kind, 0) + 1
        return counts

    def memory_saving(self) -> float:
        """Fraction of the all-full hot footprint the plan saves."""
        if self.baseline_hot_bytes <= 0:
            return 0.0
        return 1.0 - self.hot_bytes() / self.baseline_hot_bytes

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`PlanError` if any hard budget term is violated."""
        if self.hot_bytes() > self.budget.hot_bytes:
            raise PlanError(
                f"plan hot bytes {self.hot_bytes()} exceed budget "
                f"{self.budget.hot_bytes}")
        floor = self.budget.quality_floor
        if floor is not None:
            for a in self.assignments.values():
                if a.error > floor:
                    raise PlanError(
                        f"table {a.table!r} error {a.error:.3g} exceeds "
                        f"quality floor {floor:.3g}")
        if (self.budget.ne_floor is not None
                and self.measured_ne_gap is not None
                and self.measured_ne_gap > self.budget.ne_floor):
            raise PlanError(
                f"measured NE gap {self.measured_ne_gap:.4g} exceeds "
                f"floor {self.budget.ne_floor:.4g}")

    def as_dict(self) -> Dict:
        return {
            "assignments": {name: a.as_dict()
                            for name, a in sorted(self.assignments.items())},
            "hot_bytes": self.hot_bytes(),
            "total_bytes": self.total_bytes(),
            "baseline_hot_bytes": self.baseline_hot_bytes,
            "memory_saving": self.memory_saving(),
            "lookup_s": self.lookup_s(),
            "max_error": self.max_error(),
            "measured_ne_gap": self.measured_ne_gap,
            "bandwidth_met": self.bandwidth_met,
            "counts_by_kind": self.counts_by_kind(),
        }

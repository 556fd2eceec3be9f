"""What-if sensitivity analysis over the throughput model.

The co-design question behind the whole paper: which platform resource
actually binds training throughput? This module answers it numerically —
sweep one knob of a :class:`TrainingSetup` (or of its topology), read the
QPS response, and summarize it as an *elasticity* (d log QPS / d log
knob): elasticity ~1 means throughput is proportional to the resource
(it binds), ~0 means the resource is slack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import check
from .iteration import TrainingSetup, qps

__all__ = ["SweepPoint", "sweep_knob", "elasticity", "KNOBS",
           "sensitivity_report"]

# knob name -> function(setup, value) -> new setup
KNOBS = {
    "global_batch": lambda s, v: replace(s, global_batch=int(v)),
    "load_imbalance": lambda s, v: replace(s, load_imbalance=float(v)),
    "scaleout_bw": lambda s, v: replace(
        s, topology=replace(s.topology, scaleout_bw=float(v))),
    "scaleup_bw": lambda s, v: replace(
        s, topology=replace(s.topology, scaleup_bw=float(v))),
    "hbm_fraction": lambda s, v: replace(
        s, memory_hierarchy_bw_fraction=float(v)),
}


@dataclass(frozen=True)
class SweepPoint:
    knob: str
    value: float
    qps: float


def sweep_knob(setup: TrainingSetup, knob: str,
               values: Sequence[float]) -> List[SweepPoint]:
    """Evaluate QPS at each knob value (all other settings fixed)."""
    if knob not in KNOBS:
        raise ValueError(f"unknown knob {knob!r}; expected {sorted(KNOBS)}")
    if len(values) == 0:
        raise ValueError("need at least one value")
    apply = KNOBS[knob]
    return [SweepPoint(knob=knob, value=float(v),
                       qps=qps(apply(setup, v))) for v in values]


def elasticity(points: Sequence[SweepPoint]) -> float:
    """Log-log slope of QPS vs knob across the sweep (least squares)."""
    if len(points) < 2:
        raise ValueError("need at least two points")
    x = np.log([p.value for p in points])
    y = np.log([p.qps for p in points])
    if np.ptp(x) == 0:
        raise ValueError("knob values must vary")
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def sensitivity_report(setup: TrainingSetup,
                       span: float = 2.0,
                       points: int = 5) -> Dict[str, float]:
    """Elasticity of every knob around the given operating point.

    Each knob sweeps multiplicatively over ``[1/span, span]`` times its
    current value (imbalance and hbm_fraction are clamped to their valid
    domains). The result ranks the platform's binding resources.
    """
    check.positive("span", span, low=1)
    check.count("points", points, low=2)
    current = {
        "global_batch": float(setup.global_batch),
        "load_imbalance": setup.load_imbalance,
        "scaleout_bw": setup.topology.scaleout_bw,
        "scaleup_bw": setup.topology.scaleup_bw,
        "hbm_fraction": setup.memory_hierarchy_bw_fraction,
    }
    out: Dict[str, float] = {}
    for knob, center in current.items():
        values = np.geomspace(center / span, center * span, points)
        if knob == "load_imbalance":
            values = np.clip(values, 1.0, None)
        elif knob == "hbm_fraction":
            values = np.clip(values, 1e-3, 1.0)
        elif knob == "global_batch":
            # keep divisibility by world size
            w = setup.topology.world_size
            values = np.maximum(np.round(values / w), 1) * w
        values = np.unique(values)
        if len(values) < 2:
            out[knob] = 0.0
            continue
        out[knob] = elasticity(sweep_knob(setup, knob, values))
    return out

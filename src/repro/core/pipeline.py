"""Training-iteration pipeline model: Eq. 1 and Fig. 9 of the paper.

A DLRM iteration decomposes into components whose dependencies allow
specific overlaps (Section 4.3):

* the **bottom MLP forward** runs concurrently with **embedding lookup +
  forward AlltoAll** (independent until the interaction);
* on the backward pass, the **MLP AllReduce** overlaps with the rest of
  the backward compute (DDP bucketing) and only its excess is exposed;
* the **input AlltoAll for batch i+1** hides under batch i's top-MLP
  forward, and **HtoD copies** hide under compute (double buffering).

:func:`iteration_latency` is a literal implementation of Eq. 1;
:func:`breakdown` additionally reports serialized vs exposed time per
component — the quantity plotted in Fig. 12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .. import check

__all__ = ["ComponentTimes", "LatencyBreakdown", "iteration_latency",
           "breakdown"]


@dataclass(frozen=True)
class ComponentTimes:
    """Per-iteration serialized component latencies, in seconds.

    Forward-direction times and their backward counterparts. Backward
    compute defaults to 2x forward (two GEMMs per layer instead of one).
    """

    bottom_mlp_fwd: float
    embedding_lookup: float
    alltoall_fwd: float
    interaction_fwd: float
    top_mlp_fwd: float
    alltoall_bwd: float
    embedding_update: float
    allreduce: float
    input_alltoall: float = 0.0
    h2d: float = 0.0
    bottom_mlp_bwd: float = -1.0
    interaction_bwd: float = -1.0
    top_mlp_bwd: float = -1.0

    def __post_init__(self) -> None:
        for name in ("bottom_mlp_fwd", "embedding_lookup", "alltoall_fwd",
                     "interaction_fwd", "top_mlp_fwd", "alltoall_bwd",
                     "embedding_update", "allreduce", "input_alltoall",
                     "h2d"):
            check.nonnegative(name, getattr(self, name))
        # a negative backward cost means the default: 2x forward
        for fwd, bwd in (("bottom_mlp_fwd", "bottom_mlp_bwd"),
                         ("interaction_fwd", "interaction_bwd"),
                         ("top_mlp_fwd", "top_mlp_bwd")):
            check.finite(bwd, getattr(self, bwd))
            if getattr(self, bwd) < 0:
                object.__setattr__(self, bwd, 2.0 * getattr(self, fwd))

    @property
    def serialized_total(self) -> float:
        """Sum of every component with no overlap at all."""
        return (self.bottom_mlp_fwd + self.embedding_lookup
                + self.alltoall_fwd + self.interaction_fwd
                + self.top_mlp_fwd + self.top_mlp_bwd + self.interaction_bwd
                + self.alltoall_bwd + self.embedding_update
                + self.bottom_mlp_bwd + self.allreduce + self.input_alltoall
                + self.h2d)


@dataclass
class LatencyBreakdown:
    """Eq. 1 outputs plus per-component serialized/exposed attribution."""

    t_fwd: float
    t_bwd: float
    serialized: Dict[str, float] = field(default_factory=dict)
    exposed: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return self.t_fwd + self.t_bwd

    @property
    def exposed_comms(self) -> float:
        return sum(v for k, v in self.exposed.items()
                   if "alltoall" in k or "allreduce" in k)

    def serialized_shares(self) -> Dict[str, float]:
        """Each serialized component as a fraction of their sum.

        The normalized Fig. 12 view; also what
        :func:`repro.obs.compare_to_model` diffs measured traces against.
        """
        total = sum(self.serialized.values())
        if total <= 0:
            return {k: 0.0 for k in self.serialized}
        return {k: v / total for k, v in self.serialized.items()}


def iteration_latency(t: ComponentTimes) -> float:
    """Eq. 1 verbatim.

    ``T_fwd = max(BotMLP_fwd, Emb_lookup + alltoall_fwd)
              + Interaction_fwd + TopMLP_fwd``

    ``T_bwd = max(TopMLP_bwd + Interaction_bwd
                  + max(alltoall_bwd + Emb_update, BotMLP_bwd),
                  AllReduce)``
    """
    t_fwd = max(t.bottom_mlp_fwd, t.embedding_lookup + t.alltoall_fwd) \
        + t.interaction_fwd + t.top_mlp_fwd
    t_bwd = max(
        t.top_mlp_bwd + t.interaction_bwd
        + max(t.alltoall_bwd + t.embedding_update, t.bottom_mlp_bwd),
        t.allreduce)
    return t_fwd + t_bwd


def breakdown(t: ComponentTimes) -> LatencyBreakdown:
    """Serialized and exposed attribution per component (Fig. 12).

    Exposed time is a component's contribution to the critical path:
    overlapped components expose only their excess over whatever they hide
    behind. The input AlltoAll (batch i+1) hides under the top-MLP forward
    and HtoD hides under compute — each is exposed only beyond that.
    """
    t_fwd = max(t.bottom_mlp_fwd, t.embedding_lookup + t.alltoall_fwd) \
        + t.interaction_fwd + t.top_mlp_fwd
    emb_path = t.embedding_lookup + t.alltoall_fwd
    if emb_path >= t.bottom_mlp_fwd:
        exposed_lookup = t.embedding_lookup
        exposed_a2a_fwd = t.alltoall_fwd - min(
            t.alltoall_fwd, max(0.0, t.bottom_mlp_fwd - t.embedding_lookup))
        exposed_bot_fwd = 0.0
    else:
        exposed_bot_fwd = t.bottom_mlp_fwd
        exposed_lookup = 0.0
        exposed_a2a_fwd = 0.0

    bwd_compute = t.top_mlp_bwd + t.interaction_bwd \
        + max(t.alltoall_bwd + t.embedding_update, t.bottom_mlp_bwd)
    t_bwd = max(bwd_compute, t.allreduce)
    exposed_allreduce = max(0.0, t.allreduce - bwd_compute)
    inner = max(t.alltoall_bwd + t.embedding_update, t.bottom_mlp_bwd)
    if t.alltoall_bwd + t.embedding_update >= t.bottom_mlp_bwd:
        exposed_a2a_bwd = t.alltoall_bwd
        exposed_update = t.embedding_update
        exposed_bot_bwd = 0.0
    else:
        exposed_a2a_bwd = 0.0
        exposed_update = 0.0
        exposed_bot_bwd = t.bottom_mlp_bwd

    # pipelined-away components: exposed only beyond their cover
    exposed_input_a2a = max(0.0, t.input_alltoall - t.top_mlp_fwd)
    exposed_h2d = max(0.0, t.h2d - (t_fwd + t_bwd))

    serialized = {
        "bottom_mlp_fwd": t.bottom_mlp_fwd,
        "embedding_lookup": t.embedding_lookup,
        "alltoall_fwd": t.alltoall_fwd,
        "interaction_fwd": t.interaction_fwd,
        "top_mlp_fwd": t.top_mlp_fwd,
        "top_mlp_bwd": t.top_mlp_bwd,
        "interaction_bwd": t.interaction_bwd,
        "alltoall_bwd": t.alltoall_bwd,
        "embedding_update": t.embedding_update,
        "bottom_mlp_bwd": t.bottom_mlp_bwd,
        "allreduce": t.allreduce,
        "input_alltoall": t.input_alltoall,
        "h2d": t.h2d,
    }
    exposed = {
        "bottom_mlp_fwd": exposed_bot_fwd,
        "embedding_lookup": exposed_lookup,
        "alltoall_fwd": exposed_a2a_fwd,
        "interaction_fwd": t.interaction_fwd,
        "top_mlp_fwd": t.top_mlp_fwd,
        "top_mlp_bwd": t.top_mlp_bwd,
        "interaction_bwd": t.interaction_bwd,
        "alltoall_bwd": exposed_a2a_bwd,
        "embedding_update": exposed_update,
        "bottom_mlp_bwd": exposed_bot_bwd,
        "allreduce": exposed_allreduce,
        "input_alltoall": exposed_input_a2a,
        "h2d": exposed_h2d,
    }
    return LatencyBreakdown(t_fwd=t_fwd, t_bwd=t_bwd, serialized=serialized,
                            exposed=exposed)

"""Discrete-event schedule executor for training pipelines (Section 4.3).

Eq. 1 is a closed-form special case of a more general question: given
tasks with durations, dependencies, and resource (stream) exclusivity,
what is the iteration's makespan? This module answers the general
question with a deterministic list scheduler:

* a :class:`Task` runs on one *stream* (compute / comm / h2d — CUDA
  streams in the real system); tasks on the same stream serialize, tasks
  on different streams overlap freely;
* :class:`PipelineSchedule` computes earliest start times respecting both
  dependencies and stream exclusivity, yielding the makespan, per-task
  start/finish, and the critical path;
* :func:`dlrm_iteration_tasks` builds the Fig. 9 DLRM iteration DAG from
  :class:`ComponentTimes`, and :func:`steady_state_iteration_time` chains
  several iterations with the inter-batch overlaps of Section 4.3
  (batch i+1's HtoD and input AlltoAll run under batch i's compute),
  reporting the *steady-state* per-iteration latency that inter-batch
  pipelining achieves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .. import check
from .pipeline import ComponentTimes

__all__ = ["Task", "PipelineSchedule", "dlrm_iteration_tasks",
           "steady_state_iteration_time"]


@dataclass(frozen=True)
class Task:
    """One schedulable unit: name, duration, stream, dependencies.

    ``priority`` breaks ties when two tasks could start at the same time
    on the same stream (higher runs first). This models the comms
    backend's *prioritization* (Section 3): the latency-critical AlltoAll
    preempts queue position over the overlappable AllReduce when both are
    ready on the NIC.
    """

    name: str
    duration: float
    stream: str
    deps: Tuple[str, ...] = ()
    priority: int = 0

    def __post_init__(self) -> None:
        check.nonnegative(f"{self.name}: duration", self.duration)
        check.count(f"{self.name}: priority", self.priority, low=0)


class PipelineSchedule:
    """Deterministic list scheduling over streams.

    Tasks become ready when all dependencies finish; each stream runs one
    task at a time, picking the ready task with the earliest possible
    start (ties broken by insertion order, so results are reproducible).
    """

    def __init__(self, tasks: Sequence[Task]) -> None:
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names in {names}")
        by_name = {t.name: t for t in tasks}
        for t in tasks:
            for d in t.deps:
                if d not in by_name:
                    raise ValueError(f"{t.name}: unknown dependency {d!r}")
        self.tasks = list(tasks)
        self._by_name = by_name
        self.start: Dict[str, float] = {}
        self.finish: Dict[str, float] = {}
        self._run()

    def _run(self) -> None:
        stream_free: Dict[str, float] = {}
        remaining = {t.name for t in self.tasks}
        # Kahn-style: schedule tasks whose deps are done, earliest first
        while remaining:
            ready = [t for t in self.tasks if t.name in remaining
                     and all(d in self.finish for d in t.deps)]
            if not ready:
                raise ValueError("dependency cycle detected")
            # candidate start = max(deps finish, stream free)
            def candidate_start(t: Task) -> float:
                dep_done = max((self.finish[d] for d in t.deps),
                               default=0.0)
                return max(dep_done, stream_free.get(t.stream, 0.0))

            chosen = min(ready, key=lambda t: (candidate_start(t),
                                               -t.priority,
                                               self.tasks.index(t)))
            s = candidate_start(chosen)
            self.start[chosen.name] = s
            self.finish[chosen.name] = s + chosen.duration
            stream_free[chosen.stream] = s + chosen.duration
            remaining.remove(chosen.name)

    @property
    def makespan(self) -> float:
        return max(self.finish.values(), default=0.0)

    def critical_path(self) -> List[str]:
        """One dependency chain realizing the makespan, start to end."""
        if not self.tasks:
            return []
        end = max(self.finish, key=lambda n: self.finish[n])
        path = [end]
        while True:
            task = self._by_name[path[-1]]
            # predecessor (dep or stream) finishing exactly at our start
            preds = [d for d in task.deps
                     if self.finish[d] == self.start[task.name]]
            if not preds:
                stream_preds = [
                    t.name for t in self.tasks
                    if t.stream == task.stream
                    and self.finish[t.name] == self.start[task.name]]
                preds = stream_preds
            if not preds:
                break
            path.append(preds[0])
        return list(reversed(path))


def dlrm_iteration_tasks(t: ComponentTimes,
                         prefix: str = "") -> List[Task]:
    """The Fig. 9 DLRM iteration as a task DAG.

    Streams: ``compute`` (GEMMs, lookups), ``comm`` (collectives),
    ``h2d`` (host copies). Dependencies encode the data flow; overlap
    falls out of stream parallelism rather than being hand-coded.
    """
    p = prefix
    return [
        Task(f"{p}h2d", t.h2d, "h2d"),
        Task(f"{p}bot_fwd", t.bottom_mlp_fwd, "compute", (f"{p}h2d",)),
        Task(f"{p}emb_lookup", t.embedding_lookup, "compute", (f"{p}h2d",)),
        Task(f"{p}a2a_fwd", t.alltoall_fwd, "comm", (f"{p}emb_lookup",)),
        Task(f"{p}interaction", t.interaction_fwd, "compute",
             (f"{p}bot_fwd", f"{p}a2a_fwd")),
        Task(f"{p}top_fwd", t.top_mlp_fwd, "compute", (f"{p}interaction",)),
        Task(f"{p}top_bwd", t.top_mlp_bwd, "compute", (f"{p}top_fwd",)),
        Task(f"{p}inter_bwd", t.interaction_bwd, "compute",
             (f"{p}top_bwd",)),
        Task(f"{p}a2a_bwd", t.alltoall_bwd, "comm", (f"{p}inter_bwd",)),
        Task(f"{p}bot_bwd", t.bottom_mlp_bwd, "compute",
             (f"{p}inter_bwd",)),
        Task(f"{p}emb_update", t.embedding_update, "compute",
             (f"{p}a2a_bwd",)),
        Task(f"{p}allreduce", t.allreduce, "comm",
             (f"{p}top_bwd", f"{p}bot_bwd")),
    ]


def steady_state_iteration_time(t: ComponentTimes,
                                iterations: int = 4) -> float:
    """Chain ``iterations`` DLRM iterations with inter-batch pipelining.

    Batch i+1's HtoD (and implicitly its input redistribution, folded
    into h2d here) has no data dependency on batch i, so it starts as
    soon as the h2d stream frees — Section 4.3's double buffering. The
    optimizer step of iteration i gates iteration i+1's consumption of
    the embedding tables, encoded as emb_update(i) -> emb_lookup(i+1).

    Returns the marginal (steady-state) cost of one extra iteration.
    """
    check.count("iterations", iterations, low=2)  # a steady state
    tasks: List[Task] = []
    tasks_per_iteration = len(dlrm_iteration_tasks(t))
    for i in range(iterations):
        batch = dlrm_iteration_tasks(t, prefix=f"it{i}/")
        if i > 0:
            patched = []
            for task in batch:
                if task.name.endswith("emb_lookup"):
                    task = Task(task.name, task.duration, task.stream,
                                task.deps + (f"it{i - 1}/emb_update",))
                if task.name.endswith("bot_fwd"):
                    # dense params must be stepped before reuse
                    task = Task(task.name, task.duration, task.stream,
                                task.deps + (f"it{i - 1}/allreduce",))
                patched.append(task)
            batch = patched
        tasks.extend(batch)
    schedule = PipelineSchedule(tasks)
    # marginal cost of the last iteration = makespan growth
    first = PipelineSchedule(tasks[:tasks_per_iteration * (iterations - 1)])
    return schedule.makespan - first.makespan

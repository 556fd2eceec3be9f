"""Checkpoint-based recovery from rank failures.

When a collective raises :class:`repro.resilience.RankFailure`, training
cannot continue on the dead world: the simulated job tears the trainer
down and rebuilds. :class:`RecoveryManager` owns that rebuild:

1. decide the new world size — same size if a replacement host is
   available (``replacement_ranks=True``), one smaller if the job must
   degrade (``allow_degraded``);
2. construct a fresh trainer for that world via the caller-supplied
   ``trainer_factory(world_size)``, which re-plans embedding sharding
   over the survivors (checkpoints store *gathered* full tables, so any
   plan can restore from any other plan's checkpoint);
3. restore the newest checkpoint — dense replicas, dense optimizer
   state and every embedding table — or cold-start from step 0 when no
   checkpoint exists yet;
4. report a :class:`RecoveryEvent` so the loop can rewind its ingestion
   and bookkeeping to the restored step.

Because checkpoint restore is exact and the data pipeline is replayable
by batch index, a recovered run that restores the original world size
is *bitwise identical* to an uninterrupted run at the same sample
budget — the property ``tests/test_resilience_recovery.py`` asserts.
Degraded worlds recompute the lost iterations with a different rank
split; the exact sparse optimizers keep embedding math split-invariant,
but dense summation order changes, so only continued training (not
bitwise equality) is guaranteed there.

This module deliberately never imports :mod:`repro.core` at runtime
(type-checking only) — the core loop imports resilience, not the other
way around.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from .. import check
from .faults import RankFailure

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime cycle
    from ..core.checkpoint import CheckpointManager
    from ..core.trainer import NeoTrainer

__all__ = ["RecoveryError", "RecoveryEvent", "RecoveryManager"]


class RecoveryError(RuntimeError):
    """Recovery is impossible or misconfigured (no survivors, degraded
    mode disabled, retry budget exhausted, unrestorable schedulers)."""


@dataclass
class RecoveryEvent:
    """One completed recovery: the new trainer plus its accounting."""

    trainer: "NeoTrainer"
    failed_rank: int
    failed_iteration: int
    world_size: int
    degraded: bool
    restored_step: int
    lost_steps: int
    seconds: float
    cold_start: bool


class RecoveryManager:
    """Rebuilds a trainer after a :class:`RankFailure`.

    Parameters
    ----------
    trainer_factory:
        ``trainer_factory(world_size) -> NeoTrainer``. Called with the
        post-failure world size; responsible for re-planning sharding
        (e.g. via ``NeoTrainer.from_planner``) and for reusing the same
        fault schedule if the run is fault-injected.
    checkpoint_manager:
        Source of saved state. ``None``, or a manager with no
        checkpoints on disk yet, means cold restart from step 0.
    replacement_ranks:
        If true (default) a replacement host joins and the world size is
        preserved — the paper's production posture, and the only mode
        with a bitwise-identical resume guarantee.
    allow_degraded:
        If replacement is off, permit shrinking the world by one
        (training continues on ``W - 1`` ranks).
    scheduler_factory:
        ``scheduler_factory(trainer) -> list`` of LR schedulers for the
        new trainer; required by the loop if it was running with
        schedulers, since scheduler state is not checkpointed.
    max_recoveries:
        Hard cap on recoveries per manager — repeated failures beyond
        it raise :class:`RecoveryError` instead of looping forever.
    """

    def __init__(self, trainer_factory: Callable[[int], "NeoTrainer"],
                 checkpoint_manager: Optional["CheckpointManager"] = None,
                 replacement_ranks: bool = True,
                 allow_degraded: bool = True,
                 scheduler_factory: Optional[
                     Callable[["NeoTrainer"], list]] = None,
                 max_recoveries: int = 8) -> None:
        check.count("max_recoveries", max_recoveries)
        self.trainer_factory = trainer_factory
        self.checkpoint_manager = checkpoint_manager
        self.replacement_ranks = replacement_ranks
        self.allow_degraded = allow_degraded
        self.scheduler_factory = scheduler_factory
        self.max_recoveries = max_recoveries
        self.events: List[RecoveryEvent] = []

    def recover(self, failure: RankFailure,
                current_world: int) -> RecoveryEvent:
        """Build and restore a replacement trainer after ``failure``."""
        if len(self.events) >= self.max_recoveries:
            raise RecoveryError(
                f"recovery budget exhausted ({self.max_recoveries} "
                f"recoveries); last failure: {failure}")
        start = time.perf_counter()
        if self.replacement_ranks:
            new_world = current_world
        else:
            if not self.allow_degraded:
                raise RecoveryError(
                    "rank failed with no replacement and degraded mode "
                    "disabled")
            new_world = current_world - 1
        if new_world < 1:
            raise RecoveryError("no surviving ranks to recover onto")

        trainer = self.trainer_factory(new_world)
        if trainer.world_size != new_world:
            raise RecoveryError(
                f"trainer_factory built world {trainer.world_size}, "
                f"expected {new_world}")
        cold_start = True
        restored_step = 0
        if self.checkpoint_manager is not None:
            try:
                restored_step = self.checkpoint_manager.load(trainer)
                cold_start = False
            except FileNotFoundError:
                restored_step = 0  # nothing saved yet: replay from scratch
        seconds = time.perf_counter() - start

        event = RecoveryEvent(
            trainer=trainer, failed_rank=failure.rank,
            failed_iteration=failure.iteration, world_size=new_world,
            degraded=new_world < current_world,
            restored_step=restored_step,
            lost_steps=max(failure.iteration - restored_step, 0),
            seconds=seconds, cold_start=cold_start)
        self.events.append(event)

        scope = trainer.metrics.scope("resilience")
        scope.counter("recoveries").inc(1)
        scope.counter("recovery_seconds").inc(seconds)
        scope.counter("lost_steps").inc(event.lost_steps)
        return event

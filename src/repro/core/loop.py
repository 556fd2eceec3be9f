"""End-to-end training loop: data ingestion -> trainer -> metrics ->
checkpoints (the "overall training system" of Fig. 6).

Wires the disaggregated pieces into the production-shaped loop: the
reader service prefetches global batches, the Neo trainer consumes them
synchronously, normalized entropy is evaluated on held-out batches at a
fixed cadence, and the checkpoint manager snapshots at its own cadence —
frequent enough to bound lost work (the Check-N-Run requirement).

When a :class:`repro.resilience.RecoveryManager` is attached, the loop
also survives rank failures: a :class:`repro.resilience.RankFailure`
raised out of a collective triggers restore-from-checkpoint onto a
replacement (or degraded) world, the ingestion service seeks back to
the restored batch index, bookkeeping (losses, eval history, early-stop
counters, LR schedulers) is rewound to match, and training resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional


from .. import check
from ..data.datagen import SyntheticCTRDataset
from ..data.reader import DataIngestionService
from ..metrics import normalized_entropy
from ..resilience import RankFailure, RecoveryError, RecoveryEvent, \
    RecoveryManager
from .checkpoint import CheckpointManager
from .trainer import NeoTrainer

__all__ = ["TrainingResult", "TrainingLoop"]


@dataclass
class TrainingResult:
    """Everything a training run produced."""

    losses: List[float] = field(default_factory=list)
    eval_steps: List[int] = field(default_factory=list)
    eval_ne: List[float] = field(default_factory=list)
    checkpoints: List[str] = field(default_factory=list)
    stopped_early: bool = False
    recoveries: List[RecoveryEvent] = field(default_factory=list)

    @property
    def final_ne(self) -> Optional[float]:
        return self.eval_ne[-1] if self.eval_ne else None

    @property
    def best_ne(self) -> Optional[float]:
        return min(self.eval_ne) if self.eval_ne else None


class TrainingLoop:
    """Drives a :class:`NeoTrainer` with ingestion, eval and checkpoints.

    Parameters
    ----------
    trainer:
        The distributed trainer (owns the model and optimizers).
    dataset:
        The batch source; training and eval batches come from disjoint
        index ranges so evaluation is held out.
    global_batch_size:
        Samples per synchronous iteration, split across the ranks.
    eval_every / eval_batch_size:
        Normalized-entropy evaluation cadence.
    checkpoint_manager / checkpoint_every:
        Optional checkpointing.
    patience:
        Early stopping: stop if NE fails to improve for this many
        consecutive evaluations (None disables).
    recovery:
        Optional :class:`repro.resilience.RecoveryManager`. When set,
        a :class:`repro.resilience.RankFailure` during training is
        survived by restoring the newest checkpoint; without it the
        failure propagates.
    """

    EVAL_OFFSET = 1_000_000  # eval batch indices live far from training's

    def __init__(self, trainer: NeoTrainer, dataset: SyntheticCTRDataset,
                 global_batch_size: int, eval_every: int = 50,
                 eval_batch_size: int = 2048,
                 checkpoint_manager: Optional[CheckpointManager] = None,
                 checkpoint_every: int = 0,
                 patience: Optional[int] = None,
                 lr_schedulers: Optional[list] = None,
                 recovery: Optional[RecoveryManager] = None) -> None:
        check.count("eval_every", eval_every)
        check.count("checkpoint_every", checkpoint_every, low=0)
        if patience is not None:
            check.count("patience", patience)
        self.trainer = trainer
        self.global_batch_size = global_batch_size
        self.ingestion = DataIngestionService(
            dataset, world_size=trainer.world_size,
            global_batch_size=global_batch_size)
        self.dataset = dataset
        self.eval_every = eval_every
        self.eval_batch_size = eval_batch_size
        self.checkpoint_manager = checkpoint_manager
        self.checkpoint_every = checkpoint_every
        self.patience = patience
        self.lr_schedulers = list(lr_schedulers or [])
        self.recovery = recovery

    def evaluate(self, batch_index: int = 0) -> float:
        """Held-out normalized entropy of the current model's fp32 export."""
        from ..serving.export import freeze
        batch = self.dataset.batch(self.eval_batch_size,
                                   self.EVAL_OFFSET + batch_index)
        return normalized_entropy(freeze(self.trainer).predict(batch),
                                  batch.labels)

    def run(self, num_steps: int,
            on_step: Optional[Callable[[int], None]] = None
            ) -> TrainingResult:
        """Train for ``num_steps`` iterations.

        ``on_step``, if given, is called with the 0-based step index
        after each completed iteration (post train/eval/checkpoint
        bookkeeping) — the hook the online co-simulation uses to freeze
        and hot-swap snapshots at its refresh cadence. Under recovery,
        replayed steps fire the hook again, mirroring what a restarted
        production loop would do.
        """
        result = TrainingResult()
        self._best = float("inf")
        self._since_best = 0
        step = 0
        while step < num_steps:
            tracer = self.trainer.tracer
            try:
                with tracer.span("loop.iteration", cat="loop", step=step):
                    stop = self._one_step(step, result)
            except RankFailure as failure:
                if self.recovery is None:
                    raise
                step = self._recover(failure, result)
                continue
            if on_step is not None:
                on_step(step)
            if stop:
                result.stopped_early = True
                break
            step += 1
        return result

    def _one_step(self, step: int, result: TrainingResult) -> bool:
        """One train/eval/checkpoint iteration; True means stop early."""
        tracer = self.trainer.tracer
        with tracer.span("loop.ingest", cat="loop"):
            shards = self.ingestion.next_batch()
        result.losses.append(self.trainer.train_step(shards))
        for scheduler in self.lr_schedulers:
            scheduler.step()
        if (step + 1) % self.eval_every == 0:
            with tracer.span("loop.eval", cat="loop"):
                ne = self.evaluate(batch_index=step)
            result.eval_steps.append(step + 1)
            result.eval_ne.append(ne)
            if ne < self._best - 1e-6:
                self._best = ne
                self._since_best = 0
            else:
                self._since_best += 1
            if self.patience is not None and \
                    self._since_best >= self.patience:
                return True
        if self.checkpoint_manager is not None and \
                self.checkpoint_every and \
                (step + 1) % self.checkpoint_every == 0:
            with tracer.span("loop.checkpoint", cat="loop"):
                result.checkpoints.append(
                    self.checkpoint_manager.save(self.trainer))
        return False

    def _recover(self, failure: RankFailure,
                 result: TrainingResult) -> int:
        """Rebuild the trainer after a rank failure; returns resume step.

        Restores from the newest checkpoint via the recovery manager,
        rewinds every piece of loop state to the restored step — loss
        history, eval history, early-stop counters, the ingestion
        cursor, LR schedulers — and swaps in the new trainer. Steps
        between the checkpoint and the failure are recomputed on replay.
        """
        with self.trainer.tracer.span("loop.recover", cat="loop",
                                      failed_rank=failure.rank):
            event = self.recovery.recover(
                failure, current_world=self.trainer.world_size)
        self.trainer = event.trainer
        restored = event.restored_step
        # rewind bookkeeping: losses/evals past the restored step will be
        # recomputed on replay
        del result.losses[restored:]
        keep = sum(1 for s in result.eval_steps if s <= restored)
        del result.eval_steps[keep:]
        del result.eval_ne[keep:]
        self._best = float("inf")
        self._since_best = 0
        for ne in result.eval_ne:
            if ne < self._best - 1e-6:
                self._best = ne
                self._since_best = 0
            else:
                self._since_best += 1
        # fresh ingestion for the (possibly different) world size, sought
        # back so replayed steps see the exact batches the lost steps saw
        self.ingestion = DataIngestionService(
            self.dataset, world_size=self.trainer.world_size,
            global_batch_size=self.global_batch_size,
            prefetch_depth=self.ingestion.prefetch_depth)
        self.ingestion.seek(restored)
        if self.lr_schedulers:
            if self.recovery.scheduler_factory is None:
                raise RecoveryError(
                    "loop has LR schedulers but the RecoveryManager has "
                    "no scheduler_factory to rebuild them for the new "
                    "trainer")
            self.lr_schedulers = list(
                self.recovery.scheduler_factory(self.trainer))
            for _ in range(restored):  # fast-forward to the resume point
                for scheduler in self.lr_schedulers:
                    scheduler.step()
        result.recoveries.append(event)
        return restored

"""Checkpointing for distributed DLRM training (paper Section 4.4, [9]).

The paper notes checkpointing a multi-terabyte model is its own systems
problem — frequent enough to bound lost work, cheap enough not to stall
training. Check-N-Run [9] solves it with *differential* checkpoints (only
rows touched since the last checkpoint) and *quantized* storage. Both are
reproduced here on top of the Neo trainer:

* :class:`CheckpointManager` — full save/load of trainer state (dense
  replicas + dense optimizer state + every embedding shard) with exact
  resume — exact enough that a recovery restoring the original world
  size continues *bitwise identically* to an uninterrupted run
  (asserted by ``tests/test_resilience_recovery.py``);
* differential mode — per-shard dirty-row tracking writes only rows whose
  values changed since the previous checkpoint;
* optional FP16 quantization of the stored embedding payload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import check
from .trainer import NeoTrainer

__all__ = ["CheckpointStats", "CheckpointManager"]


@dataclass
class CheckpointStats:
    """Accounting for one checkpoint write."""

    step: int
    full_rows: int
    written_rows: int
    payload_bytes: int
    differential: bool

    @property
    def write_fraction(self) -> float:
        return self.written_rows / self.full_rows if self.full_rows else 0.0


class CheckpointManager:
    """Saves and restores :class:`NeoTrainer` state.

    Parameters
    ----------
    directory:
        Where ``.npz`` checkpoint files land.
    differential:
        If true, embedding payloads contain only rows that changed since
        the previous checkpoint (Check-N-Run's key trick — under Zipf
        traffic most rows are cold between checkpoints). The first
        checkpoint is always full.
    precision:
        ``"fp32"`` or ``"fp16"`` storage for embedding rows. FP16 halves
        checkpoint size; restore dequantizes (lossy by one rounding).
    """

    def __init__(self, directory: str, differential: bool = False,
                 precision: str = "fp32") -> None:
        if precision not in ("fp32", "fp16"):
            raise ValueError(f"precision must be fp32/fp16, got {precision!r}")
        self.directory = directory
        self.differential = differential
        self.precision = precision
        os.makedirs(directory, exist_ok=True)
        self._last_tables: Dict[str, np.ndarray] = {}
        self.history: List[CheckpointStats] = []

    # ------------------------------------------------------------------
    def _path(self, step: int) -> str:
        return os.path.join(self.directory, f"ckpt_{step:08d}.npz")

    def _encode_rows(self, rows: np.ndarray) -> np.ndarray:
        if self.precision == "fp16":
            return rows.astype(np.float16)
        return rows.astype(np.float32)

    def save(self, trainer: NeoTrainer) -> str:
        """Write a checkpoint of the trainer's current state."""
        payload: Dict[str, np.ndarray] = {
            "__step__": np.array([trainer.steps], dtype=np.int64)}
        # dense parameters and optimizer state (momentum buffers, Adam
        # moments, ...); replicas are identical, so rank 0 suffices
        for i, p in enumerate(trainer.ranks[0].dense_parameters()):
            payload[f"dense/{i}"] = p.data
            for key, value in trainer.dense_opt.state_for(p).items():
                payload[f"opt/{i}/{key}"] = np.asarray(value)
        # embedding tables, gathered from shards
        full_rows = 0
        written_rows = 0
        for t in trainer.config.tables:
            table = trainer.gather_table(t.name)
            full_rows += table.shape[0]
            previous = self._last_tables.get(t.name)
            if self.differential and previous is not None:
                changed = np.nonzero(np.any(table != previous, axis=1))[0]
                payload[f"emb/{t.name}/rows"] = changed.astype(np.int64)
                payload[f"emb/{t.name}/values"] = self._encode_rows(
                    table[changed])
                written_rows += len(changed)
            else:
                payload[f"emb/{t.name}/rows"] = np.arange(
                    table.shape[0], dtype=np.int64)
                payload[f"emb/{t.name}/values"] = self._encode_rows(table)
                written_rows += table.shape[0]
            self._last_tables[t.name] = table
        path = self._path(trainer.steps)
        np.savez(path, **payload)
        self.history.append(CheckpointStats(
            step=trainer.steps, full_rows=full_rows,
            written_rows=written_rows,
            payload_bytes=os.path.getsize(path),
            differential=self.differential and len(self.history) > 0))
        return path

    # ------------------------------------------------------------------
    def list_steps(self) -> List[int]:
        steps = []
        for name in sorted(os.listdir(self.directory)):
            if name.startswith("ckpt_") and name.endswith(".npz"):
                steps.append(int(name[5:-4]))
        return steps

    def retain_last(self, keep: int) -> List[int]:
        """Delete all but the newest ``keep`` checkpoints.

        Differential mode keeps everything: each file is a delta against
        its predecessor, so the chain back to the last full checkpoint
        must survive (Check-N-Run prunes at full-checkpoint boundaries;
        we conservatively refuse entirely).
        Returns the steps that were deleted.
        """
        check.count("keep", keep)
        if self.differential:
            raise ValueError(
                "cannot prune differential chains: older deltas are "
                "needed to reconstruct newer checkpoints")
        steps = self.list_steps()
        doomed = steps[:-keep] if len(steps) > keep else []
        for step in doomed:
            os.remove(self._path(step))
        return doomed

    def load(self, trainer: NeoTrainer, step: Optional[int] = None) -> int:
        """Restore trainer state in place.

        Differential checkpoints are reconstructed by replaying the chain
        from the most recent full checkpoint. Returns the restored step.
        A chain that does not restore every row of every table, or holds
        rows outside a table or values of another width, raises
        ``ValueError`` before anything is written. Dense payloads are
        checked next, before any dense parameter is written.
        """
        steps = self.list_steps()
        if not steps:
            raise FileNotFoundError(f"no checkpoints in {self.directory}")
        target = steps[-1] if step is None else step
        if target not in steps:
            raise FileNotFoundError(f"no checkpoint for step {target}")
        chain = [s for s in steps if s <= target]
        tables: Dict[str, List[Tuple[np.ndarray, np.ndarray]]] = {}
        dense: Dict[int, np.ndarray] = {}
        opt_state: Dict[int, Dict[str, np.ndarray]] = {}
        restored_step = 0
        for s in chain:
            with np.load(self._path(s)) as data:
                restored_step = int(data["__step__"][0])
                for key in data.files:
                    if key.startswith("dense/"):
                        dense[int(key.split("/")[1])] = data[key]
                    elif key.startswith("opt/"):
                        _, idx, name = key.split("/", 2)
                        opt_state.setdefault(int(idx), {})[name] = data[key]
                    elif key.startswith("emb/") and key.endswith("/rows"):
                        name = key[len("emb/"):-len("/rows")]
                        tables.setdefault(name, []).append((data[key], data[
                            f"emb/{name}/values"].astype(np.float32)))
        # write back into every shard and the one dense storage;
        # optimizer state is replaced wholesale so a momentum/Adam
        # resume is exact (checkpoints predating opt-state capture
        # simply reset it)
        trainer.exchange.load(tables)
        trainer.load_dense_state(dense, opt_state)
        trainer.steps = restored_step
        return restored_step

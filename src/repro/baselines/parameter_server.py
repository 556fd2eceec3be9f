"""Asynchronous parameter-server baseline (paper Section 2, Fig. 2).

The previous-generation production system: a disaggregated fleet where

* embedding tables live on parameter servers and are updated **Hogwild!**
  style — gradients are applied without locking or duplicate merging, and
  by the time a gradient arrives the weights have moved (*staleness*);
* dense MLP parameters are replicated per trainer and synchronized with a
  central dense PS via **elastic averaging SGD** (EASGD);
* trainers consume small local batches (~150) independently.

This module reproduces those *semantics* in-process: one logical clock
interleaves trainers round-robin, sparse gradients are queued and applied
``staleness`` ticks late against weights that have since moved, and EASGD
pulls replicas toward the center every ``sync_period`` steps. It exists to
regenerate Fig. 10 (async small-batch vs sync large-batch quality) and the
CPU-baseline row behind Table 4's 3x/40x speedup claims.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from .. import check
from ..data.datagen import MiniBatch, SyntheticCTRDataset
from ..models.dlrm import DLRM, DLRMConfig
from ..models.zoo import ModelSpec
from ..perf.devices import CPU_SKYLAKE, DeviceSpec
from ..perf.gemm import mlp_time

__all__ = ["AsyncPSTrainer", "ps_throughput_qps"]


@dataclass
class _PendingGradient:
    """A sparse gradient in flight between a trainer and the PS."""

    apply_at: int
    table_grads: Dict[str, Tuple[np.ndarray, np.ndarray]]  # rows, values


class AsyncPSTrainer:
    """Functional simulator of the async PS training system.

    Parameters
    ----------
    config:
        The DLRM architecture (shared with the sync system for fair
        comparisons).
    num_trainers:
        Trainer replicas; one logical tick processes one trainer's batch.
    staleness:
        Ticks between gradient computation and application. Defaults to
        ``num_trainers - 1`` (every other trainer slips in an update).
    easgd_alpha / sync_period:
        Elastic-averaging strength and cadence for the dense parameters.
    """

    def __init__(self, config: DLRMConfig, num_trainers: int = 16,
                 staleness: Optional[int] = None, lr: float = 0.05,
                 easgd_alpha: float = 0.5, sync_period: int = 4,
                 seed: int = 0) -> None:
        check.count("num_trainers", num_trainers)
        check.count("sync_period", sync_period)
        check.fraction("easgd_alpha", easgd_alpha, zero=False)
        self.config = config
        self.num_trainers = num_trainers
        self.staleness = (num_trainers - 1) if staleness is None \
            else staleness
        check.count("staleness", self.staleness, low=0)
        self.lr = lr
        self.easgd_alpha = easgd_alpha
        self.sync_period = sync_period
        # the PS state: embedding tables + the dense "center"
        self._ps_model = DLRM(config, seed=seed)
        self._center = [p.data.copy()
                        for p in self._ps_model.dense_parameters()]
        # per-trainer dense replicas (start at the center)
        self._trainers = [DLRM(config, seed=seed)
                          for _ in range(num_trainers)]
        self._pending: Deque[_PendingGradient] = deque()
        self.clock = 0

    # ------------------------------------------------------------------
    def _apply_due_gradients(self) -> None:
        """Hogwild!: apply queued sparse gradients without merging —
        plain SGD per occurrence against whatever the weights are *now*."""
        while self._pending and self._pending[0].apply_at <= self.clock:
            pending = self._pending.popleft()
            for name, (rows, values) in pending.table_grads.items():
                weight = self._ps_model.embeddings.table(name).weight
                # deliberately unmerged scatter: the racy semantics
                np.subtract.at(weight, rows, self.lr * values)

    def _easgd_sync(self, trainer_idx: int) -> None:
        """Pull a replica and the center toward each other [61]."""
        replica = self._trainers[trainer_idx].dense_parameters()
        for p, center in zip(replica, self._center):
            diff = p.data - center
            p.data = (p.data - self.easgd_alpha * diff).astype(np.float32)
            center += (self.easgd_alpha / self.num_trainers) * diff

    def step(self, batch: MiniBatch) -> float:
        """One tick: the next trainer processes one small batch."""
        trainer_idx = self.clock % self.num_trainers
        self._apply_due_gradients()
        model = self._trainers[trainer_idx]
        # trainers read the *current* PS embeddings (shared storage)
        for t in self.config.tables:
            model.embeddings.table(t.name).weight = \
                self._ps_model.embeddings.table(t.name).weight
        loss = model.loss(batch)
        for p in model.dense_parameters():
            p.zero_grad()
        d_pooled = model.backward()
        grads = model.embeddings.backward(d_pooled)
        self._pending.append(_PendingGradient(
            apply_at=self.clock + self.staleness,
            table_grads={name: (g.rows, g.entry_values())
                         for name, g in grads.items()}))
        # local dense SGD step
        for p in model.dense_parameters():
            if p.grad is not None:
                p.data -= (self.lr * p.grad).astype(np.float32)
        if (self.clock + 1) % self.sync_period == 0:
            self._easgd_sync(trainer_idx)
        self.clock += 1
        return loss

    def train(self, dataset: SyntheticCTRDataset, batch_size: int,
              num_steps: int, start_batch: int = 0) -> List[float]:
        return [self.step(dataset.batch(batch_size, start_batch + i))
                for i in range(num_steps)]

    def snapshot(self) -> DLRM:
        """Current PS state as an evaluable model (center dense params)."""
        self._apply_due_gradients()
        model = DLRM(self.config, seed=0)
        for p, center in zip(model.dense_parameters(), self._center):
            p.data = center.copy()
        for t in self.config.tables:
            model.embeddings.table(t.name).weight = \
                self._ps_model.embeddings.table(t.name).weight.copy()
        return model


def ps_throughput_qps(spec: ModelSpec, num_trainers: int = 16,
                      num_ps: int = 16, batch_size: int = 150,
                      device: DeviceSpec = CPU_SKYLAKE,
                      trainer_nic_bw: float = 12.5e9,
                      system_efficiency: float = 0.45) -> float:
    """Throughput model of the distributed CPU PS system (Table 4's 1x).

    Per-sample time on one trainer is the max of MLP compute on the CPU
    and the PS round trip for pooled embeddings; the fleet scales linearly
    in trainers degraded by ``system_efficiency`` (EASGD sync, stragglers,
    reader stalls — the operational overheads of Section 2).
    """
    check.count("num_trainers", num_trainers)
    check.count("num_ps", num_ps)
    sizes = (spec.dense_dim,) + spec.mlp_layer_sizes
    mlp_s = mlp_time(batch_size, sizes, device) \
        + mlp_time(batch_size, sizes, device, backward=True)
    mlp_per_sample = mlp_s / batch_size
    # pooled vectors fetched + gradient pushed per sample
    sum_d = sum(t.embedding_dim for t in spec.tables)
    wire_per_sample = 2 * sum_d * 4
    nic_per_sample = wire_per_sample / trainer_nic_bw
    # PS-side row traffic, shared across the PS tier
    total_l = sum(t.avg_pooling for t in spec.tables)
    ps_bytes_per_sample = 3 * total_l * spec.avg_embedding_dim * 4
    ps_per_sample = ps_bytes_per_sample / (
        num_ps * device.hbm_achievable_bw / num_trainers) / num_trainers
    per_sample = max(mlp_per_sample, nic_per_sample, ps_per_sample)
    return num_trainers * system_efficiency / per_sample

"""Neo: synchronous hybrid-parallel DLRM training (paper Sections 3, 4).

The trainer runs ``W`` simulated ranks in lock-step inside one process:

* **data parallelism** for the MLPs — every rank holds a replica, local
  backward gradients are AllReduced and averaged (PyTorch-DDP semantics);
* **model parallelism** for the embedding tables — each table is placed by
  a :class:`repro.sharding.ShardingPlan`, and its shards and the Fig. 8
  collectives of its scheme belong to one :class:`SparseExchange`
  (``trainer.exchange``), whose exact sparse optimizers make results
  independent of how the batch was split across ranks.

All collectives move real data through :class:`SimProcessGroup`, which also
accumulates wire bytes and modeled latency. The trainer's numerics are
validated against the single-process :class:`repro.models.DLRM` reference,
whose init it draws (``draw_dlrm``) without ever building a whole model.

**Rank-stacked simulation**: every dense parameter is stored once, by
rank 0's modules, which DDP keeps identical on every rank. Those modules
drive all ranks at once: activations are stacked ``(R, B, ...)`` arrays,
and each layer is one ``np.matmul`` that broadcasts the one weight over
the rank axis (bitwise the per-rank GEMM). The backward writes each
rank's weight and bias gradients straight into the parameter's
``(R, *shape)`` slot of persistent ``(R, bucket_elements)`` AllReduce
buckets (:attr:`NeoTrainer.grad_buckets`), which the
:class:`SimProcessGroup` stacked AllReduce reads in place. The sum comes
back as one read-only vector, and the one dense optimizer
(``trainer.dense_opt``) steps the one storage: its step is the only
write. ``trainer.ranks[r].dense_parameters()`` for ``r >= 1`` are
read-only views of rank 0's storage, so checkpointing, ``freeze()``
export and replica-sync checks read any rank without copies.

This is the only execution path. Wire-byte accounting, modeled latency,
spans and every per-rank quantity are bitwise identical to a per-rank
loop over independent replicas with one optimizer each; that loop lives
in ``tests/reference_trainer.py`` as the oracle the test suite fuzzes
this trainer against.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..comms import ClusterTopology, QuantizedCommsConfig, SimProcessGroup
from ..comms.bucketing import GradientBucketer
from ..data.datagen import MiniBatch
from ..embedding import SparseOptimizer
from ..models.dlrm import DLRMConfig, draw_dlrm
from ..obs.metrics import MetricRegistry
from ..obs.tracer import as_tracer
from ..sharding import ShardingPlan
from .exchange import SparseExchange

__all__ = ["NeoTrainer"]


@dataclass
class _RankState:
    """One rank's dense (data-parallel) replica.

    In :class:`NeoTrainer` rank 0's modules own the storage and run
    every rank's stacked activations; rank ``r >= 1``'s are clones whose
    parameters are read-only views of rank 0's."""

    bottom: nn.Module
    top: nn.Module
    projections: Dict[str, nn.Module]
    table_order: Tuple[str, ...]

    def dense_parameters(self) -> List[nn.Parameter]:
        """Same ordering as :meth:`repro.models.DLRM.dense_parameters`."""
        params = self.bottom.parameters()
        for name in self.table_order:
            if name in self.projections:
                params.extend(self.projections[name].parameters())
        return params + self.top.parameters()


def _read_only_replica(state: _RankState) -> _RankState:
    """A clone of ``state``'s modules whose every parameter is a
    read-only view of ``state``'s storage."""
    memo = {}
    for p in state.dense_parameters():
        view = p.data.view()
        view.flags.writeable = False
        memo[id(p.data)] = view
    return copy.deepcopy(state, memo)


class NeoTrainer:
    """Synchronous distributed DLRM trainer over simulated ranks."""

    def __init__(self, config: DLRMConfig, plan: ShardingPlan,
                 topology: ClusterTopology,
                 dense_optimizer: Callable[[Sequence[nn.Parameter]],
                                           nn.Optimizer],
                 sparse_optimizer: SparseOptimizer,
                 comms_config: Optional[QuantizedCommsConfig] = None,
                 seed: int = 0, trace=None,
                 metrics: Optional[MetricRegistry] = None,
                 process_group_factory: Optional[
                     Callable[..., SimProcessGroup]] = None,
                 representation_plan=None) -> None:
        if plan.world_size != topology.world_size:
            raise ValueError(
                f"plan world size {plan.world_size} != topology world size "
                f"{topology.world_size}")
        missing = {t.name for t in config.tables} - set(plan.tables)
        if missing:
            raise ValueError(f"plan missing tables {sorted(missing)}")
        self.config = config
        self.plan = plan
        # observability: off by default (no-op tracer); `trace` accepts a
        # Tracer, True (wall clock) or a clock name ("wall"/"logical")
        self.tracer = as_tracer(trace)
        self.metrics = metrics if metrics is not None else MetricRegistry()
        # the factory hook lets callers substitute a wrapped group — e.g.
        # repro.resilience.FaultyProcessGroup for fault-injection runs —
        # without the trainer knowing anything about faults
        make_pg = process_group_factory if process_group_factory is not None \
            else SimProcessGroup
        self.pg = make_pg(topology, comms_config,
                          registry=self.metrics, tracer=self.tracer)
        self.world_size = plan.world_size
        self.sparse_opt = sparse_optimizer
        self.steps = 0

        # the reference init: rank 0 owns the dense modules (every other
        # rank views them) and the sparse half draws its shards' rows
        bottom, self.exchange, projections, top = draw_dlrm(
            config, seed, lambda rng: SparseExchange(
                config, plan, rng, self.pg, sparse_optimizer, self.tracer,
                self.metrics, representation_plan))
        rank0 = _RankState(bottom=bottom, top=top, projections=projections,
                           table_order=tuple(t.name for t in config.tables))
        self.ranks: List[_RankState] = [rank0] + [
            _read_only_replica(rank0) for _ in range(1, self.world_size)]
        self._interaction = config.make_interaction()
        self._loss_fn = nn.BCEWithLogitsLoss()
        # the one dense optimizer steps the one storage; its slot state
        # has per-rank shape, which is what checkpoints store
        self.dense_opt: nn.Optimizer = dense_optimizer(
            rank0.dense_parameters())
        # every rank's gradients live in persistent (R, bucket_elements)
        # buffers, one per DDP bucket; _grad_slots[i] is parameter i's
        # (R, *shape) view, which the backward writes and the AllReduce
        # reads in place
        self._bucketer = GradientBucketer(rank0.dense_parameters())
        self.grad_buckets: List[np.ndarray] = [
            np.empty((self.world_size, bucket.num_elements), np.float32)
            for bucket in self._bucketer.buckets]
        self._grad_slots = self._bucketer.views(self.grad_buckets)

    @classmethod
    def from_planner(cls, config: DLRMConfig, topology: ClusterTopology,
                     dense_optimizer, sparse_optimizer,
                     comms_config: Optional[QuantizedCommsConfig] = None,
                     seed: int = 0,
                     planner_config=None,
                     device_memory_bytes: Optional[float] = None,
                     trace=None,
                     metrics: Optional[MetricRegistry] = None,
                     process_group_factory: Optional[
                         Callable[..., SimProcessGroup]] = None,
                     representation_plan=None) -> "NeoTrainer":
        """Build a trainer with an automatically planned, memory-validated
        sharding plan — the one-call production entry point.

        ``representation_plan`` is an optional
        :class:`repro.planner.RepresentationPlan`: tables the plan stores
        at fp16/bf16/int8 train on quantized shards (write-back through
        the storage precision after every sparse step)."""
        from ..sharding import EmbeddingShardingPlanner, PlannerConfig
        from ..sharding.memory_validation import validate_plan_memory
        if planner_config is None:
            planner_config = PlannerConfig(
                world_size=topology.world_size,
                ranks_per_node=min(topology.gpus_per_node,
                                   topology.world_size))
        planner = EmbeddingShardingPlanner(planner_config)
        plan = planner.plan(list(config.tables))
        if device_memory_bytes is not None:
            validate_plan_memory(plan, device_memory_bytes)
        return cls(config, plan, topology, dense_optimizer,
                   sparse_optimizer, comms_config=comms_config, seed=seed,
                   trace=trace, metrics=metrics,
                   process_group_factory=process_group_factory,
                   representation_plan=representation_plan)

    # ------------------------------------------------------------------
    # shared per-phase helpers: each is used by train_step AND
    # eval_forward, and each advances all ranks with one batched kernel
    # over the stacked (R, ...) activations
    # ------------------------------------------------------------------
    def _check_batches(self, local_batches: List[MiniBatch]) -> int:
        if len(local_batches) != self.world_size:
            raise ValueError(
                f"need {self.world_size} local batches, "
                f"got {len(local_batches)}")
        sizes = {b.batch_size for b in local_batches}
        if len(sizes) != 1:
            raise ValueError(f"local batches must be equal size, got {sizes}")
        return sizes.pop()

    def _bottom_forward(self, local_batches: List[MiniBatch]) -> np.ndarray:
        """Bottom MLP over all ranks: (R, B, D)."""
        dense_in = np.stack([b.dense for b in local_batches], axis=0)
        return self.ranks[0].bottom.forward(dense_in)

    def _interaction_forward(self, dense_out: np.ndarray,
                             pooled: Dict[str, np.ndarray]) -> np.ndarray:
        """Projections + interaction: (R, B, I)."""
        projections = self.ranks[0].projections
        features = [dense_out]
        for t in self.config.tables:
            value = pooled[t.name]
            if t.name in projections:
                value = projections[t.name].forward(value)
            features.append(value)
        return self._interaction.forward_list(features)

    def _top_forward(self, interacted: np.ndarray) -> np.ndarray:
        """Top MLP logits: (R, B)."""
        return self.ranks[0].top.forward(interacted)[..., 0]

    def _loss_forward(self, logits: np.ndarray,
                      local_batches: List[MiniBatch]) -> np.ndarray:
        """Per-rank mean BCE losses: (R,)."""
        labels = np.stack([b.labels for b in local_batches], axis=0)
        return self._loss_fn.forward(logits, labels)

    def _dense_backward(self) -> Dict[str, np.ndarray]:
        """Loss -> top -> interaction -> bottom backward; returns each
        table's (R, B, D) pooled-embedding gradient. Every parameter's
        per-rank gradients land in its slot of the AllReduce buckets."""
        state = self.ranks[0]
        for p, slot in zip(state.dense_parameters(), self._grad_slots):
            p.zero_grad()
            p.grad_slot = slot
        d_logits = self._loss_fn.backward()[..., None]
        d_inter = state.top.backward(d_logits)
        d_features = self._interaction.backward_list(d_inter)
        state.bottom.backward(d_features[0])
        d_pooled: Dict[str, np.ndarray] = {}
        for i, t in enumerate(self.config.tables):
            grad = d_features[1 + i]
            if t.name in state.projections:
                grad = state.projections[t.name].backward(grad)
            d_pooled[t.name] = grad
        return d_pooled

    def _dense_allreduce(self) -> List[np.ndarray]:
        """Bucketed DDP gradient sync over the buckets the backward
        wrote; returns the reduced flat buckets. AllReduce hands every
        rank the same sum, so row 0 of the read-only ``(R, elems)``
        result stands for all of them."""
        return [self.pg.all_reduce(flat).output[0]
                for flat in self.grad_buckets]

    def _optimizer_step(self, reduced: List[np.ndarray]
                        ) -> List[nn.Parameter]:
        """Average the reduced buckets and step. Returns the parameters,
        whose ``.grad`` is the averaged gradient (for read-only
        instrumentation)."""
        w = self.world_size
        params = self.ranks[0].dense_parameters()
        for p, g in zip(params,
                        self._bucketer.views([flat / w for flat in reduced])):
            p.grad = g
        self.dense_opt.step()
        return params

    # ------------------------------------------------------------------
    # the training step
    # ------------------------------------------------------------------
    def train_step(self, local_batches: List[MiniBatch]) -> float:
        """One synchronous iteration over per-rank sub-batches.

        Returns the global mean loss. All ranks advance together; the
        update is mathematically the single-process update on the
        concatenated global batch.

        When tracing is enabled (``trace=`` at construction) each phase
        runs under a span (``trainer.bottom_mlp_fwd`` ... ``trainer.
        optimizer``) with collective spans nested inside; the compute is
        byte-for-byte identical either way — instrumentation only reads.
        """
        local_batch = self._check_batches(local_batches)
        tr = self.tracer
        # announce the iteration boundary (v2 ProcessGroup API) so
        # wrappers can key scheduled faults on the logical step
        self.pg.on_iteration_start(self.steps)

        with tr.span("trainer.iteration", cat="trainer", step=self.steps,
                     local_batch=local_batch):
            # forward: bottom MLP (data parallel)
            with tr.span("trainer.bottom_mlp_fwd", cat="trainer"):
                dense_out = self._bottom_forward(local_batches)

            # forward: embeddings per table, per scheme
            with tr.span("trainer.embedding_fwd", cat="trainer"):
                pooled = self.exchange.forward(local_batches)

            # forward: per-feature projections + interaction (data parallel)
            with tr.span("trainer.interaction_fwd", cat="trainer"):
                interacted = self._interaction_forward(dense_out, pooled)

            # forward: top MLP + loss (data parallel)
            with tr.span("trainer.top_mlp_fwd", cat="trainer"):
                logits = self._top_forward(interacted)
                losses = self._loss_forward(logits, local_batches)

            # backward: top MLP + interaction + bottom MLP (data parallel)
            with tr.span("trainer.dense_bwd", cat="trainer"):
                d_pooled = self._dense_backward()

            # backward: embeddings per table (exact sparse updates)
            with tr.span("trainer.embedding_bwd", cat="trainer"):
                self.exchange.backward(d_pooled)

            # gradient sync (DDP semantics, bucketed — one AllReduce per
            # ~25 MB bucket, not per parameter)
            with tr.span("trainer.allreduce", cat="trainer"):
                flats = self._dense_allreduce()

            # dense optimizer step
            with tr.span("trainer.optimizer", cat="trainer"):
                ref_params = self._optimizer_step(flats)
                if tr.enabled:
                    # read-only instrumentation: global dense grad norm
                    # (identical on every rank after the AllReduce)
                    norm = float(np.sqrt(sum(
                        float(np.sum(p.grad.astype(np.float64) ** 2))
                        for p in ref_params)))
                    self.metrics.histogram("trainer.grad_norm").record(norm)
        self.steps += 1
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    # evaluation forward (the serving-export parity reference)
    # ------------------------------------------------------------------
    def eval_forward(self, local_batches: List[MiniBatch]
                     ) -> List[np.ndarray]:
        """Forward-only pass over per-rank sub-batches; returns each
        rank's logits ``(B/W,)``.

        No optimizer state, gradients or weights are touched — this is
        the eval answer the online-training loop would ship to serving,
        and the reference :func:`repro.serving.freeze` parity is tested
        against. Collectives still run (and are billed) exactly as in
        the forward half of :meth:`train_step`.
        """
        w = self.world_size
        local_batch = self._check_batches(local_batches)
        with self.tracer.span("trainer.eval_forward", cat="trainer",
                              local_batch=local_batch):
            dense_out = self._bottom_forward(local_batches)
            pooled = self.exchange.forward(local_batches, spans=False)
            interacted = self._interaction_forward(dense_out, pooled)
            logits = self._top_forward(interacted)
        return [logits[r].copy() for r in range(w)]

    # ------------------------------------------------------------------
    # checkpoint restore
    # ------------------------------------------------------------------
    def load_dense_state(self, dense: Dict[int, np.ndarray],
                         opt_state: Dict[int, Dict[str, np.ndarray]]
                         ) -> None:
        """Restore dense parameters and optimizer slot state from
        checkpoint payloads (``dense[i]`` is parameter ``i`` at per-rank
        shape; ``opt_state[i]`` its optimizer slots).

        Every payload is checked before any parameter is written: a
        missing index, an extra one (in ``dense`` or ``opt_state``) or a
        shape other than the parameter's raises ``ValueError``; so does
        an optimizer slot of another shape, except the ``(1,)`` step
        counter ``t`` that Adam and LAMB keep. Values are written *in
        place* into the one storage, which every rank's replica views;
        slot state has per-rank shape, so the one optimizer takes it as
        stored.
        """
        params = self.ranks[0].dense_parameters()
        for i, p in enumerate(params):
            got = np.shape(dense[i]) if i in dense else "nothing"
            if got != p.data.shape:
                raise ValueError(
                    f"dense parameter {i} ({p.name}): expected shape "
                    f"{p.data.shape}, got {got}")
            for name, value in opt_state.get(i, {}).items():
                want = (1,) if name == "t" else p.data.shape
                if np.shape(value) != want:
                    raise ValueError(
                        f"optimizer slot {name!r} of dense parameter {i} "
                        f"({p.name}): expected shape {want}, got "
                        f"{np.shape(value)}")
        for what, payload in (("dense parameters", dense),
                              ("optimizer state for dense parameters",
                               opt_state)):
            extra = sorted(set(payload) - set(range(len(params))))
            if extra:
                raise ValueError(f"{what} {extra} do not exist: the model "
                                 f"has {len(params)}")
        for i, p in enumerate(params):
            p.data[...] = dense[i]
            slot = self.dense_opt.state_for(p)
            slot.clear()
            for name, value in opt_state.get(i, {}).items():
                slot[name] = value.copy()

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def gather_table(self, name: str) -> np.ndarray:
        """Reassemble the full (H, D) weight of one table from shards."""
        return self.exchange.gather(name)

    def replicas_in_sync(self) -> bool:
        """Data-parallel invariant: all dense replicas bitwise identical."""
        ref = self.ranks[0].dense_parameters()
        for state in self.ranks[1:]:
            for a, b in zip(ref, state.dense_parameters()):
                if not np.array_equal(a.data, b.data):
                    return False
        return True

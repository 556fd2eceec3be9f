"""Shared test utilities: the tiny-system fixture factory, numerical
gradient checking and tolerances.

``tiny_system`` (and the smaller builders it composes) replaces the
hand-rolled "small DLRM + trainer + frozen servable + batcher" setup
that used to be copy-pasted across the serving and resilience suites.
Defaults are laptop-tiny and deterministic; every knob the suites
actually vary (table count/rows/dims, world size, sharding style,
optimizer momentum, fault-injecting process groups) is a parameter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer, TrainingLoop
from repro.data import MiniBatch, SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseSGD
from repro.models import DLRM, DLRMConfig
from repro.serving import (BatchingPolicy, FreezeConfig, InferenceRequest,
                           MicroBatcher, RequestTrace, ServableModel, freeze)
from repro.serving.loadgen import requests_from_arrivals
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .reference_trainer import to_local_model


#: every ``nn`` dense optimizer, as ``NeoTrainer(dense_optimizer=...)``
#: factories (the stacked-parity fuzz and the dense-sync contracts
#: cover all five)
DENSE_OPTIMIZERS = {
    "sgd": lambda p: nn.SGD(p, lr=0.1),
    "momentum": lambda p: nn.SGD(p, lr=0.1, momentum=0.9),
    "adagrad": lambda p: nn.AdaGrad(p, lr=0.1),
    "adam": lambda p: nn.Adam(p, lr=0.01),
    "lamb": lambda p: nn.LAMB(p, lr=0.01),
}


# ----------------------------------------------------------------------
# tiny-system builders
# ----------------------------------------------------------------------
def tiny_tables(num_tables: int = 3, rows: int = 200, dim: int = 8,
                avg_pooling: float = 3.0) -> tuple:
    """Uniform tiny embedding-table configs named t0..tN-1."""
    return tuple(EmbeddingTableConfig(f"t{i}", rows, dim,
                                      avg_pooling=avg_pooling)
                 for i in range(num_tables))


def tiny_config(num_tables: int = 3, rows: int = 200, dim: int = 8,
                dense_dim: int = 6, avg_pooling: float = 3.0,
                bottom_mlp: Optional[tuple] = None,
                top_mlp: tuple = (16,)) -> DLRMConfig:
    """A laptop-scale DLRM config (bottom MLP defaults to ``(16, dim)``)."""
    return DLRMConfig(
        dense_dim=dense_dim,
        bottom_mlp=bottom_mlp if bottom_mlp is not None else (16, dim),
        tables=tiny_tables(num_tables, rows, dim, avg_pooling),
        top_mlp=top_mlp)


def tiny_dataset(config: DLRMConfig, seed: int = 0,
                 noise: Optional[float] = None) -> SyntheticCTRDataset:
    kwargs = {} if noise is None else {"noise": noise}
    return SyntheticCTRDataset(config.tables, dense_dim=config.dense_dim,
                               seed=seed, **kwargs)


def tiny_trainer(config: DLRMConfig, world: int = 2, seed: int = 0,
                 pg_factory=None, lr: float = 0.1, momentum: float = 0.0,
                 scheme: str = "parity",
                 representation_plan=None) -> NeoTrainer:
    """A NeoTrainer over ``world`` simulated ranks.

    ``scheme`` picks the sharding style:

    * ``"parity"`` — alternate table-wise / data-parallel placements,
      both summation-order-preserving, so a frozen export's forward can
      be compared *bitwise* against the trainer's eval forward (row-wise
      sharding changes the reduce order and is only ever close);
    * ``"table_wise"`` — every table whole on rank ``i % world``, the
      layout that re-plans cleanly onto any world size (what the
      recovery suite shrinks and regrows worlds with).

    Momentum is a knob because per-parameter optimizer state is exactly
    what the bitwise recovery tests need to prove survives a restore.
    """
    plan = ShardingPlan(world_size=world)
    for i, t in enumerate(config.tables):
        if scheme == "table_wise" or i % 2 == 0:
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.TABLE_WISE, [i % world])
        else:
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.DATA_PARALLEL, list(range(world)))
    plan.validate()
    return NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=world),
        dense_optimizer=lambda p: nn.SGD(p, lr=lr, momentum=momentum),
        sparse_optimizer=SparseSGD(lr=lr), seed=seed,
        process_group_factory=pg_factory,
        representation_plan=representation_plan)


def scheme_plan(config: DLRMConfig, schemes, world: int) -> ShardingPlan:
    """Table ``i`` sharded by ``schemes[i]``: a table-wise table whole on
    rank ``i % world``, any other scheme over every rank."""
    plan = ShardingPlan(world_size=world)
    for i, (t, scheme) in enumerate(zip(config.tables, schemes)):
        ranks = [i % world] if scheme == ShardingScheme.TABLE_WISE \
            else list(range(world))
        plan.tables[t.name] = shard_table(t, scheme, ranks)
    plan.validate()
    return plan


def train_sparse_model(world: int = 4):
    """``(config, plan)`` of the e2e ``train_sparse`` workload: 16 tables
    x 20 000 rows x D16 (20.48 MB of fp32 rows) at R=4, 8 of them
    row-wise, 6 table-wise and 2 column-wise."""
    tables = tuple(EmbeddingTableConfig(f"t{i}", 20_000, 16,
                                        avg_pooling=10.0)
                   for i in range(16))
    config = DLRMConfig(dense_dim=8, bottom_mlp=(32, 16), tables=tables,
                        top_mlp=(32,))
    schemes = [ShardingScheme.ROW_WISE] * 8 \
        + [ShardingScheme.TABLE_WISE] * 6 + [ShardingScheme.COLUMN_WISE] * 2
    return config, scheme_plan(config, schemes, world)


@dataclass
class TinySystem:
    """Everything the serving/resilience/online suites set up repeatedly:
    a tiny DLRM (and optionally its distributed trainer), the synthetic
    dataset, a frozen servable and a micro-batcher."""

    config: DLRMConfig
    dataset: SyntheticCTRDataset
    model: DLRM
    servable: ServableModel
    policy: BatchingPolicy
    batcher: MicroBatcher
    trainer: Optional[NeoTrainer] = None

    def loop(self, global_batch_size: int = 64, eval_every: int = 1000,
             **kwargs) -> TrainingLoop:
        """A TrainingLoop over the system's trainer and dataset."""
        if self.trainer is None:
            raise ValueError("tiny_system(world=...) needed for a loop")
        return TrainingLoop(self.trainer, self.dataset,
                            global_batch_size=global_batch_size,
                            eval_every=eval_every, **kwargs)

    def requests(self, n: int, spacing_s: float = 1e-4,
                 batch_index: int = 0) -> RequestTrace:
        """``n`` evenly spaced single-sample requests from one bulk draw."""
        return requests_from_arrivals(self.dataset, np.arange(n) * spacing_s,
                                      batch_index=batch_index)


def tiny_system(num_tables: int = 3, rows: int = 200, dim: int = 8,
                dense_dim: int = 6, avg_pooling: float = 3.0,
                seed: int = 3, dataset_seed: Optional[int] = None,
                noise: Optional[float] = None, world: int = 0,
                freeze_config: Optional[FreezeConfig] = None,
                policy: Optional[BatchingPolicy] = None,
                **trainer_kwargs) -> TinySystem:
    """The shared fixture factory.

    ``world=0`` (default) freezes a single-process reference
    :class:`DLRM`; ``world>=2`` builds a :class:`NeoTrainer` (extra
    ``trainer_kwargs`` go to :func:`tiny_trainer`) and freezes *it*, so
    the servable carries real gathered-shard state.
    """
    config = tiny_config(num_tables, rows, dim, dense_dim, avg_pooling)
    dataset = tiny_dataset(
        config, seed=seed if dataset_seed is None else dataset_seed,
        noise=noise)
    trainer = None
    if world:
        trainer = tiny_trainer(config, world=world, seed=seed,
                               **trainer_kwargs)
        model = to_local_model(trainer)
        servable = freeze(trainer, freeze_config)
    else:
        model = DLRM(config, seed=seed)
        servable = freeze(model, freeze_config)
    pol = policy if policy is not None else BatchingPolicy()
    return TinySystem(config=config, dataset=dataset, model=model,
                      servable=servable, policy=pol,
                      batcher=MicroBatcher(pol), trainer=trainer)


def trace_of(requests) -> RequestTrace:
    """Hand-built requests as one trace: a one-request trace each, joined
    by :meth:`RequestTrace.merge` (which puts them in arrival order)."""
    return RequestTrace.merge([
        RequestTrace([r.request_id], [r.arrival_s], [r.batch], start=[0],
                     num_samples=[r.num_samples], nnz=[r.nnz],
                     user_id=[-1 if r.user_id is None else r.user_id],
                     tenant=[r.tenant])
        for r in requests])


def single_sample_request(request_id: int, arrival_s: float,
                          samples: int = 1) -> InferenceRequest:
    """A content-free request (ids all zero) for pure scheduling tests."""
    return InferenceRequest(
        request_id=request_id, arrival_s=arrival_s,
        batch=MiniBatch(
            dense=np.zeros((samples, 2), dtype=np.float32),
            keys=("t0",), lengths=np.ones((1, samples), dtype=np.int64),
            ids=np.zeros(samples, dtype=np.int64),
            labels=np.zeros(samples, dtype=np.float32)))


def cache_state(cache, backing) -> tuple:
    """Everything a :class:`repro.cache.RowCache` and its backing store
    hold, as comparable plain values: every attribute of the cache (its
    stats as a dict, arrays as dtype/shape/bytes, dicts recursively) plus
    the backing rows and byte counter."""
    def plain(value):
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    state = {key: dataclasses.asdict(value) if key == "stats"
             else plain(value) for key, value in vars(cache).items()}
    return state, backing.rows.tobytes(), backing.bytes_read


# ----------------------------------------------------------------------
# numerics
# ----------------------------------------------------------------------
def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray,
                       eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar function ``f`` at ``x``.

    Uses float64 internally; callers should compare with rtol around 1e-2
    because the layers themselves compute in float32.
    """
    x = x.astype(np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        f_plus = f(x.astype(np.float32))
        x[idx] = orig - eps
        f_minus = f(x.astype(np.float32))
        x[idx] = orig
        grad[idx] = (f_plus - f_minus) / (2 * eps)
        it.iternext()
    return grad


def assert_close(actual: np.ndarray, expected: np.ndarray,
                 rtol: float = 1e-2, atol: float = 1e-4) -> None:
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)

"""Quickstart: train a DLRM two ways and confirm they agree.

Builds a small click-through-rate model, trains it (1) single-process and
(2) distributed across 4 simulated GPUs with the Neo trainer (hybrid
model/data parallelism, exact sparse optimizers), and shows the two
produce the same losses and the same final parameters — the paper's core
correctness property.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
from repro.metrics import normalized_entropy
from repro.models import DLRM, DLRMConfig
from repro.serving import freeze
from repro.sharding import EmbeddingShardingPlanner, PlannerConfig

WORLD_SIZE = 4
BATCH = 64
STEPS = 60


def main():
    # 1. describe the model: 4 categorical features + 4 dense features
    tables = tuple(
        EmbeddingTableConfig(f"cat_{i}", num_embeddings=1000,
                             embedding_dim=16, avg_pooling=4.0)
        for i in range(4))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(32, 16), tables=tables,
                        top_mlp=(32, 16))
    print(f"model: {config.num_parameters():,} parameters "
          f"({config.num_embedding_parameters():,} in embeddings)")

    # 2. synthetic CTR data with planted structure
    dataset = SyntheticCTRDataset(tables, dense_dim=4, noise=0.2, seed=1)
    batches = dataset.batches(BATCH, STEPS)

    # 3. single-process reference training
    reference = DLRM(config, seed=0)
    dense_opt = nn.Adam(reference.dense_parameters(), lr=0.01)
    sparse_opt = SparseAdaGrad(lr=0.1)
    ref_losses = [reference.train_step(b, dense_opt, sparse_opt)
                  for b in batches]

    # 4. distributed training: the planner places tables, the Neo trainer
    #    runs 4 lock-step ranks with real (simulated) collectives
    planner = EmbeddingShardingPlanner(PlannerConfig(
        world_size=WORLD_SIZE, ranks_per_node=WORLD_SIZE,
        dp_threshold_rows=100))
    plan = planner.plan(list(tables))
    for t in tables:
        print(f"  {t.name}: sharded {plan.scheme_of(t.name).value}")
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD_SIZE),
        dense_optimizer=lambda p: nn.Adam(p, lr=0.01),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=0)
    dist_losses = [trainer.train_step(b.split(WORLD_SIZE)) for b in batches]

    # 5. the two training runs are numerically the same
    drift = max(abs(a - b) for a, b in zip(ref_losses, dist_losses))
    print(f"\nloss curves agree to {drift:.2e} "
          f"(first={ref_losses[0]:.4f}, last={ref_losses[-1]:.4f})")
    for t in tables:
        # float32 summation-order differences accumulate over 60 Adam
        # steps; the two runs stay within a few ULP-compounded parts in 1e3
        np.testing.assert_allclose(
            trainer.gather_table(t.name),
            reference.embeddings.table(t.name).weight, rtol=5e-3, atol=1e-4)
    print("final embedding tables match the single-process reference")

    # 6. quality on held-out data (NE < 1 beats the base-rate predictor),
    #    predicted by the trainer's fp32 serving export
    test = dataset.batch(4096, 10_000)
    ne = normalized_entropy(freeze(trainer).predict(test), test.labels)
    print(f"normalized entropy on held-out data: {ne:.4f} (<1 is learning)")

    # 7. what the comms layer did
    log = trainer.pg.log
    print(f"\ncollectives issued: { {k: v for k, v in log.calls.items()} }")
    print(f"total wire traffic: {log.total_bytes / 1e6:.1f} MB, "
          f"modeled comms time: {log.total_seconds * 1e3:.2f} ms")


if __name__ == "__main__":
    main()

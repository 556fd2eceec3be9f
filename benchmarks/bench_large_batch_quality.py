"""Section 5.3.2: large-batch training quality parity.

"Lastly, we further increase the global batch size, from 64K to 256K...
With appropriately tuned optimizer/hyper-parameters we are able to
achieve on-par training quality."

Functional reproduction at mini scale: the same model and sample stream
trained with a 4x larger global batch and the linear-scaled learning
rate reaches on-par held-out normalized entropy at equal samples
consumed. A warmup arm is reported too (the conservative production
recipe; at this short horizon its cost is visible, which is why the
paper calls large-batch DLRM tuning "not as well studied" and future
work).
"""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig, SparseAdaGrad
from repro.metrics import normalized_entropy
from repro.models import DLRMConfig
from repro.nn import WarmupLinearDecay, linear_scaled_lr
from repro.serving import freeze
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

WORLD = 4
BASE_BATCH = 64
LARGE_BATCH = 256   # 4x, mirroring 64K -> 256K
TOTAL_SAMPLES = 61_440
BASE_LR = 0.005


def run_arm(batch_size, lr, warmup_fraction=0.0):
    tables = tuple(EmbeddingTableConfig(f"t{i}", 256, 8, avg_pooling=3.0)
                   for i in range(4))
    config = DLRMConfig(dense_dim=8, bottom_mlp=(16, 8), tables=tables,
                        top_mlp=(16,))
    ds = SyntheticCTRDataset(tables, dense_dim=8, noise=0.25, seed=11)
    plan = ShardingPlan(world_size=WORLD)
    for i, t in enumerate(config.tables):
        plan.tables[t.name] = shard_table(t, ShardingScheme.TABLE_WISE,
                                          [i % WORLD])
    trainer = NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
        dense_optimizer=lambda p: nn.Adam(p, lr=lr),
        sparse_optimizer=SparseAdaGrad(lr=0.1), seed=0)
    steps = TOTAL_SAMPLES // batch_size
    scheduler = None
    if warmup_fraction > 0:
        scheduler = WarmupLinearDecay(
            trainer.dense_opt, base_lr=lr,
            warmup_steps=max(1, int(steps * warmup_fraction)),
            total_steps=steps, final_lr=lr)
    for i in range(steps):
        trainer.train_step(ds.batch(batch_size, i).split(WORLD))
        if scheduler:
            scheduler.step()
    test = ds.batch(8192, 900_000)
    return normalized_entropy(freeze(trainer).predict(test), test.labels)


def test_large_batch_quality_parity(benchmark, report):
    def run():
        small = run_arm(BASE_BATCH, BASE_LR)
        scaled = linear_scaled_lr(BASE_LR, LARGE_BATCH, BASE_BATCH)
        large_scaled = run_arm(LARGE_BATCH, scaled)
        large_warmup = run_arm(LARGE_BATCH, scaled, warmup_fraction=0.1)
        return small, large_scaled, large_warmup

    small, large_scaled, large_warmup = benchmark.pedantic(
        run, rounds=1, iterations=1)
    report("Section 5.3.2: quality at 4x batch, equal samples consumed",
           ["arm", "held-out NE"],
           [(f"batch {BASE_BATCH} (baseline)", f"{small:.4f}"),
            (f"batch {LARGE_BATCH} + linear-scaled LR",
             f"{large_scaled:.4f}"),
            (f"batch {LARGE_BATCH} + scaled LR + warmup",
             f"{large_warmup:.4f}")])
    assert small < 1.0
    # the paper's claim: tuned large-batch is on-par (<= 3% NE gap here)
    assert large_scaled <= small * 1.03
    # the warmup arm also learns (and stays in the same neighbourhood)
    assert large_warmup <= small * 1.08

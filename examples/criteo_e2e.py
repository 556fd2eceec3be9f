"""End-to-end production-shaped run on a Criteo-like public workload.

The full Fig. 6 pipeline on the community-standard dataset shape (13
dense + 26 categorical features): hash-shrunk tables (Section 5.3.1), the
sharding planner, the Neo trainer on 4 simulated GPUs, the training loop
with held-out NE evaluation, differential checkpointing (Check-N-Run
style), and a crash-resume demonstrating exact recovery.

Run:  python examples/criteo_e2e.py
"""

import shutil
import tempfile

import numpy as np

from repro import nn
from repro.comms import ClusterTopology, QuantizedCommsConfig
from repro.core import CheckpointManager, NeoTrainer, TrainingLoop
from repro.data import CriteoLikeDataset, criteo_dlrm_config
from repro.embedding import SparseAdaGrad
from repro.nn import WarmupLinearDecay, linear_scaled_lr
from repro.sharding import EmbeddingShardingPlanner, PlannerConfig

WORLD = 4
GLOBAL_BATCH = 128
STEPS = 60


def make_trainer(config, plan, seed=0):
    return NeoTrainer(
        config, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
        dense_optimizer=lambda p: nn.Adam(
            p, lr=linear_scaled_lr(0.005, GLOBAL_BATCH, 64)),
        sparse_optimizer=SparseAdaGrad(lr=0.1),
        comms_config=QuantizedCommsConfig.paper_recipe(), seed=seed)


def main():
    config = criteo_dlrm_config(max_rows=2000, embedding_dim=8)
    dataset = CriteoLikeDataset(max_rows=2000, embedding_dim=8, noise=0.25,
                                seed=5)
    print(f"Criteo-shaped model: 13 dense + 26 categorical features, "
          f"{config.num_parameters():,} parameters")

    planner = EmbeddingShardingPlanner(PlannerConfig(
        world_size=WORLD, ranks_per_node=WORLD, dp_threshold_rows=50))
    plan = planner.plan(list(config.tables))
    scheme_counts = {}
    for t in config.tables:
        s = plan.scheme_of(t.name).value
        scheme_counts[s] = scheme_counts.get(s, 0) + 1
    print(f"planner chose: {scheme_counts}")

    ckpt_dir = tempfile.mkdtemp(prefix="criteo_ckpt_")
    try:
        trainer = make_trainer(config, plan)
        manager = CheckpointManager(ckpt_dir, differential=True)
        scheduler = WarmupLinearDecay(
            trainer.dense_opt, base_lr=0.01, warmup_steps=10,
            total_steps=STEPS)
        loop = TrainingLoop(trainer, dataset,
                            global_batch_size=GLOBAL_BATCH,
                            eval_every=20, eval_batch_size=2048,
                            checkpoint_manager=manager,
                            checkpoint_every=20,
                            lr_schedulers=[scheduler])
        result = loop.run(STEPS)
        print(f"\ntrained {len(result.losses)} steps; "
              f"loss {result.losses[0]:.4f} -> {result.losses[-1]:.4f}")
        for step, ne in zip(result.eval_steps, result.eval_ne):
            print(f"  step {step:3d}: held-out NE {ne:.4f}")
        diff = manager.history[-1]
        print(f"\ndifferential checkpoint at step {diff.step}: wrote "
              f"{diff.written_rows:,}/{diff.full_rows:,} rows "
              f"({diff.write_fraction:.0%}) — the Check-N-Run saving")

        # crash! restore into a brand-new trainer and verify exactness
        survivor = make_trainer(config, plan, seed=123)  # wrong init
        restored_step = manager.load(survivor)
        for t in config.tables[:5]:
            np.testing.assert_array_equal(survivor.gather_table(t.name),
                                          trainer.gather_table(t.name))
        print(f"crash-resume: restored step {restored_step}, embedding "
              f"state bit-exact with the pre-crash trainer")
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

"""Trainer-level parity of the integer-key sparse merge with its oracle.

``test_embedding_kernels.py`` holds ``merge_sorted_coo`` to the full
``(D+1)``-key lexsort on adversarial inputs; this suite holds the whole
trainer to it on real gradients: an R=4 hybrid-sharded trainer shaped
like the ``train_sparse`` benchmark workload (row-, table- and
column-wise tables, Zipf ids pooled ~6 per bag, so most rows are hit
several times a step) is trained twice, once with the product kernel and
once with the oracle monkeypatched into ``SparseOptimizer.step`` (it
expands each bag-form gradient to per-entry values), and losses,
gathered tables and optimizer state must agree bit for bit.
"""

import numpy as np
import pytest

from repro import nn
from repro.comms import ClusterTopology
from repro.core import NeoTrainer
from repro.embedding import (QuantizedEmbeddingTable, RowWiseAdaGrad,
                             SparseAdaGrad, SparseAdam)
from repro.models import DLRM
from repro.planner import (PlannerCostModel, RepresentationPlan,
                           uniform_plan)
from repro.sharding import ShardingPlan, ShardingScheme, shard_table

from .helpers import tiny_config, tiny_dataset
from .reference_kernels import merge_sorted_coo_reference

WORLD = 4
STEPS = 5
BATCH = 64
CONFIG = tiny_config(num_tables=6, rows=120, dim=8, avg_pooling=6.0)


def hybrid_trainer(sparse_optimizer, representation_plan=None):
    """R=4 trainer: 3 row-wise, 2 table-wise, 1 column-wise table."""
    plan = ShardingPlan(world_size=WORLD)
    everyone = list(range(WORLD))
    for i, t in enumerate(CONFIG.tables):
        if i < 3:
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.ROW_WISE, everyone)
        elif i < 5:
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.TABLE_WISE, [i % WORLD])
        else:
            plan.tables[t.name] = shard_table(
                t, ShardingScheme.COLUMN_WISE, everyone)
    plan.validate()
    return NeoTrainer(
        CONFIG, plan, ClusterTopology(num_nodes=1, gpus_per_node=WORLD),
        dense_optimizer=lambda params: nn.Adam(params, lr=0.01),
        sparse_optimizer=sparse_optimizer, seed=2,
        representation_plan=representation_plan)


def train(trainer):
    """Five steps; returns everything the sparse update can influence."""
    dataset = tiny_dataset(CONFIG, seed=5)
    losses = [trainer.train_step(dataset.batch(BATCH, step).split(WORLD))
              for step in range(STEPS)]
    tables = {t.name: trainer.gather_table(t.name).copy()
              for t in CONFIG.tables}
    state = [(shard, name, array.copy())
             for shard, table in trainer.exchange.shard_tables.items()
             for name, array in sorted(
                 trainer.sparse_opt.state_for(table).items())]
    return losses, tables, state


def assert_runs_bitwise_equal(got, want):
    losses, tables, state = got
    ref_losses, ref_tables, ref_state = want
    assert losses == ref_losses
    for name in ref_tables:
        np.testing.assert_array_equal(tables[name].view(np.uint32),
                                      ref_tables[name].view(np.uint32))
    assert [(s, n) for s, n, _ in state] == [(s, n) for s, n, _ in ref_state]
    for (_, _, array), (_, _, ref_array) in zip(state, ref_state):
        assert array.dtype == ref_array.dtype
        np.testing.assert_array_equal(array.view(np.uint8),
                                      ref_array.view(np.uint8))


def train_both(monkeypatch, make_optimizer, representation_plan=None):
    """``(product run, oracle run, oracle merge sizes)`` from one seed."""
    got = train(hybrid_trainer(make_optimizer(), representation_plan))
    merged = []

    def oracle(rows, values, bag_ids=None):
        # the product merges bag-form gradients keyed on bag ranks; the
        # oracle expands them and lexsorts every column
        merged.append((len(rows), len(np.unique(rows))))
        if bag_ids is not None:
            values = values[bag_ids]
        return merge_sorted_coo_reference(rows, values)

    monkeypatch.setattr("repro.embedding.optim.merge_sorted_coo", oracle)
    want = train(hybrid_trainer(make_optimizer(), representation_plan))
    return got, want, merged


@pytest.mark.parametrize("make_optimizer", [
    lambda: SparseAdaGrad(lr=0.1),
    lambda: SparseAdam(lr=0.01),
    lambda: RowWiseAdaGrad(lr=0.1),
], ids=["adagrad", "adam", "rowwise_adagrad"])
def test_hybrid_trainer_matches_oracle_bitwise(monkeypatch, make_optimizer):
    got, want, merged = train_both(monkeypatch, make_optimizer)
    # every update of every step went through the oracle (one per
    # row-wise or table-wise table, one per column-wise slice), and the
    # gradients really had duplicate rows to merge
    updates_per_step = 3 + 2 + WORLD
    assert len(merged) == STEPS * updates_per_step
    assert sum(n for n, _ in merged) > 2 * sum(u for _, u in merged)
    assert want[2], "optimizer state must exist to be compared"
    assert_runs_bitwise_equal(got, want)


def test_quantized_shard_matches_oracle_bitwise(monkeypatch):
    """One fp16-stored table among fp32 ones (a planned-precision run)."""
    model = DLRM(CONFIG, seed=2)
    cost = PlannerCostModel(allow_tt=False)
    assignments = dict(uniform_plan(model, "full", cost=cost).assignments)
    assignments["t0"] = uniform_plan(model, "fp16", cost=cost).assignments["t0"]
    plan = RepresentationPlan(assignments=assignments)
    quantized = [t for t in hybrid_trainer(
        SparseAdaGrad(lr=0.1), plan).exchange.shard_tables.values()
        if isinstance(t, QuantizedEmbeddingTable)]
    assert len(quantized) == WORLD  # t0 is row-wise: one shard per rank
    got, want, _ = train_both(monkeypatch, lambda: SparseAdaGrad(lr=0.1),
                              plan)
    assert_runs_bitwise_equal(got, want)

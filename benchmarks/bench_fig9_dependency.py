"""Fig. 9 / Eq. 1: the DLRM iteration dependency graph.

Two validations:

* Eq. 1's composition always lies at or below the fully serialized sum
  (overlap can only help), over a sweep of random component latencies;
* the data dependencies Fig. 9 draws hold in the functional model — the
  bottom-MLP path and the embedding path are independent until the
  interaction, so perturbing one leaves the other's activations bitwise
  unchanged.
"""

import numpy as np
import pytest

from repro.core import ComponentTimes, iteration_latency
from repro.data import SyntheticCTRDataset
from repro.embedding import EmbeddingTableConfig
from repro.models import DLRM, DLRMConfig


def test_eq1_brackets(benchmark, report):
    rng = np.random.default_rng(0)

    def sweep():
        violations = 0
        samples = []
        for _ in range(200):
            vals = rng.uniform(0.1, 10.0, size=8)
            t = ComponentTimes(*vals)
            total = iteration_latency(t)
            if not total <= t.serialized_total + 1e-9:
                violations += 1
            samples.append((total, t.serialized_total))
        return violations, samples

    violations, samples = benchmark(sweep)
    overlap_saved = np.mean([1 - tot / ser for tot, ser in samples])
    report("Fig 9 / Eq 1: overlap savings over 200 random configurations",
           ["metric", "value"],
           [("violations of exposed<=serialized", violations),
            ("mean fraction of latency hidden", f"{overlap_saved:.0%}")])
    assert violations == 0
    assert overlap_saved > 0.1


def test_dependency_graph_in_functional_model(benchmark, report):
    """Perturbing the dense input must not change the pooled embeddings,
    and perturbing the sparse input must not change the bottom MLP output
    — the two forward paths of Fig. 9 join only at the interaction."""
    tables = tuple(EmbeddingTableConfig(f"t{i}", 64, 8, avg_pooling=3.0)
                   for i in range(3))
    config = DLRMConfig(dense_dim=4, bottom_mlp=(8, 8), tables=tables,
                        top_mlp=(8,))
    ds = SyntheticCTRDataset(tables, dense_dim=4, seed=0)

    def run():
        model = DLRM(config, seed=0)
        batch_a = ds.batch(16, 0)
        batch_b = ds.batch(16, 0)
        batch_b.dense[:] = 0.0  # perturb dense path only
        pooled_a = model.embeddings.forward(
            {name: batch_a.feature(name) for name in batch_a.keys})
        pooled_b = model.embeddings.forward(
            {name: batch_b.feature(name) for name in batch_b.keys})

        batch_c = ds.batch(16, 1)  # different sparse ids
        bottom_a = model.bottom.forward(batch_a.dense)
        bottom_c = model.bottom.forward(batch_a.dense)
        # logits DO depend on both (they join at the interaction)
        logits_a = model.forward(batch_a)
        logits_b = model.forward(batch_b)
        return pooled_a, pooled_b, bottom_a, bottom_c, logits_a, logits_b

    pooled_a, pooled_b, bottom_a, bottom_c, logits_a, logits_b = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    for name in pooled_a:
        np.testing.assert_array_equal(pooled_a[name], pooled_b[name])
    np.testing.assert_array_equal(bottom_a, bottom_c)
    assert not np.array_equal(logits_a, logits_b)
    report("Fig 9: dependency checks", ["check", "result"],
           [("pooled embeddings independent of dense input", "pass"),
            ("bottom MLP independent of sparse input", "pass"),
            ("paths join at the interaction (logits differ)", "pass")])

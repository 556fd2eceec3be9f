"""Online-training cluster sizing (paper Sections 1, 4.1.3).

"Hierarchical memory training is also useful for applications such as
online training, which warrants using fewer nodes for training the same
model." This bench quantifies that: for each model, the minimum node
count that satisfies an online (reduced) throughput target, versus the
offline fleet — showing the hierarchy (HBM fraction < 1) is what makes
the small deployment possible at all.
"""

import pytest

from repro.models import full_spec
from repro.perf import min_nodes_for

OFFLINE_NODES = 16
ONLINE_TARGET_QPS = 100e3  # ~10x below the offline throughputs of Table 4


def sizing_rows():
    rows = []
    for name in ("A1", "A2", "F1"):
        spec = full_spec(name)
        result = min_nodes_for(spec, target_qps=ONLINE_TARGET_QPS,
                               max_nodes=OFFLINE_NODES)
        if result is None:
            rows.append((name, "-", "-", "-", "unreachable"))
            continue
        rows.append((name, result.nodes,
                     f"{result.hbm_fraction:.0%}",
                     f"{result.bw_fraction:.2f}",
                     f"{result.achieved_qps / 1e3:.0f}K"))
    return rows


def test_online_sizing(benchmark, report):
    rows = benchmark.pedantic(sizing_rows, rounds=1, iterations=1)
    report(f"Online training: min nodes for {ONLINE_TARGET_QPS / 1e3:.0f}K "
           f"QPS (offline fleet = {OFFLINE_NODES} nodes)",
           ["model", "min nodes", "HBM-resident", "lookup bw vs HBM",
            "QPS at min"], rows)
    by_model = {r[0]: r for r in rows}
    # A1/A2 run online on a small fraction of the offline fleet
    assert by_model["A1"][1] <= OFFLINE_NODES // 4
    assert by_model["A2"][1] <= OFFLINE_NODES // 2
    # F1 is capacity-bound: its min nodes come from memory, not QPS
    f1 = min_nodes_for(full_spec("F1"), target_qps=ONLINE_TARGET_QPS,
                       max_nodes=OFFLINE_NODES)
    assert f1 is not None
    assert f1.nodes > 8  # 24 TB needs most of the fleet's memory
    # and at that size the model does NOT fit in HBM alone — the
    # hierarchy (HBM fraction < 1, bw fraction < 1) is load-bearing
    assert f1.hbm_fraction < 0.5
    assert f1.bw_fraction < 1.0

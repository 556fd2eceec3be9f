"""Fig. 20: achieved AlltoAll and AllReduce bandwidth at 128 GPUs over
power-of-two message sizes (the PARAM comms benchmark, "bench mode").

Calibration anchors from the paper: AlltoAll saturates at ~7 GB/s
(scale-out limited: 12.5 GB/s line rate, 10.5 achievable); AllReduce
reaches ~60 GB/s bus bandwidth thanks to NVLink-assisted hierarchy.

Also exercises the *functional* collectives at small scale ("replay
mode"), checking the data path the latency model describes.
"""

import numpy as np
import pytest

from repro.comms import PROTOTYPE_TOPOLOGY
from repro.comms import collectives as C
from repro.comms.perf_model import (achieved_all_reduce_bw,
                                    achieved_all_to_all_bw)

SIZES = [2 ** k for k in range(16, 29, 2)]  # 64 KB .. 256 MB


def bandwidth_table():
    topo = PROTOTYPE_TOPOLOGY(16)
    return [(size,
             round(achieved_all_to_all_bw(size, topo) / 1e9, 2),
             round(achieved_all_reduce_bw(size, topo) / 1e9, 2))
            for size in SIZES]


def test_fig20_bandwidth_curves(benchmark, report):
    rows = benchmark(bandwidth_table)
    report("Fig 20: achieved bandwidth at 128 GPUs (GB/s)",
           ["message bytes", "alltoall", "allreduce"], rows)
    a2a = [r[1] for r in rows]
    ar = [r[2] for r in rows]
    # monotone rise with message size (latency-bound -> bandwidth-bound)
    assert all(x <= y * 1.001 for x, y in zip(a2a, a2a[1:]))
    assert all(x <= y * 1.001 for x, y in zip(ar, ar[1:]))
    # saturation points match the paper
    assert a2a[-1] == pytest.approx(7.0, rel=0.15)
    assert ar[-1] == pytest.approx(60.0, rel=0.15)
    # allreduce rides NVLink: higher than alltoall at every size >= 1 MB
    for (size, a, r) in rows:
        if size >= 2 ** 20:
            assert r > a


def test_replay_mode_functional_collectives(benchmark):
    """PARAM "replay mode": run a real DLRM-like collective sequence
    (index alltoall, pooled alltoall, gradient allreduce) on 8 simulated
    ranks and time the data path. Every rank sends every rank one block,
    so each AlltoAll is one flat buffer with a uniform split matrix."""
    world = 8
    rng = np.random.default_rng(0)
    splits_pooled = np.full((world, world), 64)
    pooled = rng.normal(size=(world * world * 64, 32)).astype(np.float32)
    grads = rng.normal(size=(world, 512)).astype(np.float32)
    splits_ids = np.full((world, world), 128)
    ids = rng.integers(0, 1000, size=world * world * 128)

    def replay():
        C.all_to_all(ids, splits_ids)
        out = C.all_to_all(pooled, splits_pooled)
        red = C.all_reduce(grads)
        return out, red

    out, red = benchmark(replay)
    np.testing.assert_allclose(red[0], sum(grads), rtol=1e-5)
    # rank 0's rows from rank 3
    assert out[3 * 64:4 * 64].shape == (64, 32)

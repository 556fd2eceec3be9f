"""Section 4.1.1 (X1): fused multi-table embedding kernel speedup.

The paper reports up to 7x over per-table ``nn.EmbeddingBag`` at the
operator level. Three reproductions:

* the performance model's launch-amortization account across table counts
  (the 7x regime is many small tables);
* a wall-clock measurement of the real numpy operator comparing three
  implementations of the same multi-table pooled lookup:

  - ``legacy``  — per-table python loop over the seed's ``np.add.at``
    scatter kernel, the unfused baseline
    (``tests/reference_kernels.py::forward_reference``),
  - ``segloop`` — per-table loop over the shared ``segment_sum`` reduceat
    kernel (``EmbeddingTable.forward``/``backward`` per table),
  - ``arena``   — the single-dispatch fused megatable
    (``FusedEmbeddingCollection``: one tiled gather + one reduceat per
    dim group);

* a bitwise parity check between ``arena`` and ``segloop`` (exact) and a
  numerical check against ``legacy`` (allclose — reduceat and add.at
  order their partial sums differently).

Run standalone from the repository root (``.`` on the path for the
``legacy`` oracle in ``tests/``) to write ``BENCH_fused_kernel.json``::

    PYTHONPATH=src:. python benchmarks/bench_fused_kernel.py \
        [--quick] [--out PATH] [--assert-speedup X]

``--quick`` shrinks the workload for CI smoke runs; ``--assert-speedup``
exits nonzero unless the arena's forward speedup over ``legacy`` meets
the floor. The full-size run is the acceptance measurement: arena
forward must be >= 3x legacy at 64 tables, B=4096, L=32.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np
import pytest

from repro.embedding import (EmbeddingTable, EmbeddingTableConfig,
                             FusedEmbeddingCollection, RowWiseAdaGrad,
                             lengths_to_offsets)
from repro.perf import V100, fused_speedup

BATCH = 4096
POOL = 32

FULL_CONFIG = dict(num_tables=64, batch=4096, pool=32, rows=20_000, dim=16)
QUICK_CONFIG = dict(num_tables=16, batch=256, pool=8, rows=2_000, dim=16)


def model_rows():
    rows = []
    # the 7x regime: many tables, each with little work (small batch
    # share per table — exactly the ~1000s-of-categorical-features case)
    for num_tables in (1, 8, 64, 256, 1000):
        per_table = [2048] * num_tables
        s = fused_speedup(per_table, 32, V100)
        rows.append((num_tables, f"{s:.1f}x"))
    return rows


def build_workload(num_tables, batch, pool, rows, dim, seed=0):
    """Three same-weights views of one workload: arena / segloop / legacy."""
    rng = np.random.default_rng(seed)
    configs = [EmbeddingTableConfig(
        f"t{i}", rows, dim, pooling_mode="mean" if i % 3 == 0 else "sum")
        for i in range(num_tables)]
    arena = FusedEmbeddingCollection.from_configs(
        configs, rng=np.random.default_rng(seed + 1))
    segloop = [EmbeddingTable(c, weight=arena.table(c.name).weight.copy())
               for c in configs]
    legacy = [EmbeddingTable(c, weight=arena.table(c.name).weight.copy())
              for c in configs]
    inputs = {c.name: (rng.integers(0, rows, size=batch * pool).astype(
        np.int64), lengths_to_offsets(np.full(batch, pool, dtype=np.int64)))
        for c in configs}
    dy = {c.name: rng.normal(size=(batch, dim)).astype(np.float32)
          for c in configs}
    return arena, segloop, legacy, inputs, dy


def _best_of(fn, iters):
    best = float("inf")
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_benchmark(quick=False, iters=None):
    """Measure forward and full-train-step wall clock for all variants.

    Returns a JSON-ready dict with per-variant timings, speedups relative
    to ``legacy``, and the parity verdicts.
    """
    # the legacy lookup is a test oracle (repository root on the path)
    from tests.reference_kernels import forward_reference
    config = dict(QUICK_CONFIG if quick else FULL_CONFIG)
    iters = iters if iters is not None else (2 if quick else 3)
    arena, segloop, legacy, inputs, dy = build_workload(**config)

    def legacy_fwd():
        return {t.name: forward_reference(t, *inputs[t.name])
                for t in legacy}

    def legacy_step():
        legacy_fwd()
        opt = RowWiseAdaGrad(lr=0.05)
        for t in legacy:
            opt.step(t, t.backward(dy[t.name]))

    def segloop_fwd():
        return {t.name: t.forward(*inputs[t.name]) for t in segloop}

    def segloop_step():
        segloop_fwd()
        opt = RowWiseAdaGrad(lr=0.05)
        for t in segloop:
            opt.step(t, t.backward(dy[t.name]))

    variants = {
        "legacy": (legacy_fwd, legacy_step),
        "segloop": (segloop_fwd, segloop_step),
        "arena": (lambda: arena.forward(inputs),
                  lambda: (arena.forward(inputs),
                           arena.backward_and_update(
                               dy, RowWiseAdaGrad(lr=0.05)))),
    }

    # parity first (also serves as warmup): arena vs segloop is bitwise,
    # arena vs legacy is allclose (different partial-sum orders)
    out_arena = arena.forward(inputs)
    out_segloop = segloop_fwd()
    out_legacy = legacy_fwd()
    bitwise = all(np.array_equal(out_arena[n], out_segloop[n])
                  for n in arena.names)
    close = all(np.allclose(out_arena[n], out_legacy[n],
                            rtol=1e-5, atol=1e-6) for n in arena.names)

    results = {}
    for name, (fwd, step) in variants.items():
        results[name] = {
            "forward_s": _best_of(fwd, iters),
            "train_step_s": _best_of(step, max(1, iters - 1)),
        }
    legacy_t = results["legacy"]
    for name, r in results.items():
        r["forward_speedup_vs_legacy"] = \
            legacy_t["forward_s"] / r["forward_s"]
        r["train_step_speedup_vs_legacy"] = \
            legacy_t["train_step_s"] / r["train_step_s"]

    return {
        "benchmark": "fused_embedding_kernel",
        "mode": "quick" if quick else "full",
        "config": config,
        "kernel_launches_per_forward": {
            "legacy": config["num_tables"],
            "segloop": config["num_tables"],
            "arena": arena.arena.num_groups,
        },
        "parity": {
            "arena_vs_segloop_bitwise": bool(bitwise),
            "arena_vs_legacy_allclose": bool(close),
        },
        "variants": results,
        "arena_forward_speedup": results["arena"][
            "forward_speedup_vs_legacy"],
        "arena_train_step_speedup": results["arena"][
            "train_step_speedup_vs_legacy"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_fused_kernel.json",
                        help="output JSON path")
    parser.add_argument("--assert-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless arena forward speedup >= X")
    args = parser.parse_args(argv)
    result = run_benchmark(quick=args.quick)
    with open(args.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    fwd = result["arena_forward_speedup"]
    step = result["arena_train_step_speedup"]
    print(f"mode={result['mode']}  arena forward speedup {fwd:.2f}x, "
          f"train-step speedup {step:.2f}x vs per-table np.add.at loop")
    print(f"parity: {result['parity']}")
    print(f"wrote {args.out}")
    if not result["parity"]["arena_vs_segloop_bitwise"]:
        print("FAIL: arena not bitwise-identical to per-table loop",
              file=sys.stderr)
        return 1
    if args.assert_speedup is not None and fwd < args.assert_speedup:
        print(f"FAIL: arena forward speedup {fwd:.2f}x < "
              f"floor {args.assert_speedup:.2f}x", file=sys.stderr)
        return 1
    return 0


def test_fused_kernel_model(benchmark, report):
    rows = benchmark(model_rows)
    report("Section 4.1.1: modeled fused-vs-unfused lookup speedup",
           ["tables", "speedup"], rows)
    speedups = [float(r[1].rstrip("x")) for r in rows]
    # monotone in table count; 1x for a single table; multi-x at ~1000
    assert speedups[0] == pytest.approx(1.0)
    assert all(a <= b * 1.01 for a, b in zip(speedups, speedups[1:]))
    assert speedups[-1] > 3.0


def test_fused_operator_wallclock(benchmark, report):
    """Real operator: arena vs segment-loop vs the seed's add.at loop."""
    result = benchmark(run_benchmark, quick=True)
    rows = [(name,
             f"{r['forward_s'] * 1e3:.2f}",
             f"{r['forward_speedup_vs_legacy']:.2f}x",
             f"{r['train_step_s'] * 1e3:.2f}",
             f"{r['train_step_speedup_vs_legacy']:.2f}x")
            for name, r in result["variants"].items()]
    report("fused arena vs per-table wall clock (numpy substrate)",
           ["variant", "fwd ms", "fwd speedup", "step ms", "step speedup"],
           rows)
    assert result["parity"]["arena_vs_segloop_bitwise"]
    assert result["parity"]["arena_vs_legacy_allclose"]
    # the fused forward must actually win, even at smoke size
    assert result["arena_forward_speedup"] >= 1.0
    # true dispatch accounting: uniform dim -> one launch per forward
    assert result["kernel_launches_per_forward"]["arena"] == 1


if __name__ == "__main__":
    sys.exit(main())

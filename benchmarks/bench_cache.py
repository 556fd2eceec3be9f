"""Frequency-aware cache sweep: hit rate and effective bandwidth vs Zipf
alpha, against the set-associative and UVM baselines (Section 4.1.3 plus
the CacheEmbedding-style frequency-aware upgrade).

It also checks the paper's Section 4.1.3 cache-vs-UVM claim (X2): at
equal capacity the 32-way row cache beats UVM page migration on hit
rate and slow-tier traffic at every alpha, and its modeled lookup is at
least 10% faster (effective bandwidth >= UVM's / 0.9).

Every cache kind replays the same hashed-permutation Zipf traces at
identical fast-tier capacity through the unified ``RowCache`` API. All
kinds first observe the same warm stream — the reactive caches warm by
missing on it, the frequency-aware cache is pre-packed from its id
histogram (the ingestion tier measures these for free) — then stats and
byte counters reset and the measured trace runs. The ``freq+prefetch``
variant additionally stages batch k+1's rows through a
``PrefetchPipeline`` while batch k's lookups run; ``cache.prefetch``
spans measure how much of the staging wall time hides under the lookup
window, and the bandwidth model prices only the *exposed* prefetch bytes
at the slow tier.

Modeled effective bandwidth for a trace that requests B bytes:

    time = hit_bytes / HBM_BW + demand_miss_bytes / PCIE_BW
         + exposed_prefetch_bytes / PCIE_BW
    effective_bw = B / time

Every variant's reads are asserted bitwise-equal to the uncached backing
rows on every step (the caches are exact placement models).

Run standalone to write ``BENCH_cache.json``::

    PYTHONPATH=src python benchmarks/bench_cache.py \
        [--quick] [--out PATH] [--min-hit-rate X]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.cache import (ArrayBackingStore, PrefetchPipeline, make_cache)
from repro.data import zipf_indices
from repro.obs import Tracer
from repro.online.report import render_table

FULL_CONFIG = dict(
    mode="full", rows=100_000, dim=32, capacity=4096, steps=30,
    ids_per_step=2048, warm_steps=24, alphas=(1.01, 1.05, 1.1, 1.2),
    uvm_rows_per_page=512, chunk_rows=64, seed=0)
QUICK_CONFIG = dict(
    FULL_CONFIG, mode="quick", rows=20_000, dim=16, capacity=1024,
    steps=12, ids_per_step=512, warm_steps=20, alphas=(1.05, 1.1))

PCIE_BW = 12e9   # PCIe gen3 x16 sustained
HBM_BW = 850e9   # per-GPU HBM stream

VARIANTS = ("set_associative", "uvm", "freq_aware", "freq+prefetch")


def make_traces(config, alpha):
    """Hashed Zipf traces: production categorical ids are hashes, so hot
    rows scatter across the table instead of clustering at low ids."""
    rows = config["rows"]
    permutation = np.random.default_rng(42).permutation(rows)
    rng = np.random.default_rng(config["seed"])
    warm = [permutation[zipf_indices(rows, config["ids_per_step"], rng,
                                     alpha=alpha)]
            for _ in range(config["warm_steps"])]
    measure = [permutation[zipf_indices(rows, config["ids_per_step"], rng,
                                        alpha=alpha)]
               for _ in range(config["steps"])]
    return warm, measure


def build_variant(name, config):
    capacity = config["capacity"]
    if name == "uvm":
        return make_cache("uvm", capacity_rows=capacity,
                          rows_per_page=config["uvm_rows_per_page"])
    if name == "set_associative":
        return make_cache("set_associative", capacity_rows=capacity,
                          ways=32, policy="lru")
    return make_cache("freq_aware", capacity_rows=capacity,
                      chunk_rows=config["chunk_rows"])


def run_variant(name, config, warm, measure):
    """Warm, then replay the measured trace; returns the stats dict."""
    weights = np.random.default_rng(1).normal(
        size=(config["rows"], config["dim"])).astype(np.float32)
    backing = ArrayBackingStore(weights)
    cache = build_variant(name, config)

    if name.startswith("freq"):
        hist = np.bincount(np.concatenate(warm),
                           minlength=config["rows"])
        cache.warm(hist, backing)
    else:
        for ids in warm:  # reactive caches warm by missing
            cache.read(ids, backing)
    cache.reset_stats()
    backing.reset_counters()

    tracer = Tracer()
    pipe = PrefetchPipeline(cache, backing, tracer=tracer) \
        if name == "freq+prefetch" else None
    exact = True
    for k, ids in enumerate(measure):
        t0 = time.perf_counter()
        out = cache.read(ids, backing)
        compute_s = time.perf_counter() - t0
        exact = exact and bool(np.array_equal(out, weights[ids]))
        if pipe is not None and k + 1 < len(measure):
            # stage batch k+1 under batch k's lookup window
            pipe.stage(measure[k + 1], compute_s=compute_s)

    stats = cache.stats
    row_bytes = config["dim"] * 4
    requested = sum(len(ids) for ids in measure) * row_bytes
    overlap = pipe.overlap_report() if pipe is not None else None
    staged_bytes = overlap["bytes_staged"] if overlap else 0
    demand_bytes = backing.bytes_read - staged_bytes
    exposed_frac = (1.0 - overlap["hidden_frac"]) if overlap else 0.0
    slow_time = demand_bytes / PCIE_BW \
        + staged_bytes * exposed_frac / PCIE_BW
    fast_time = stats.hits * row_bytes / HBM_BW
    effective_bw = requested / (fast_time + slow_time)
    result = {
        "variant": name,
        "hit_rate": stats.hit_rate,
        "accesses": stats.accesses,
        "demand_miss_bytes": demand_bytes,
        "prefetch_bytes": staged_bytes,
        "requested_bytes": requested,
        "effective_bandwidth_gbs": effective_bw / 1e9,
        "bitwise_exact": exact,
    }
    if overlap is not None:
        result["prefetch_overlap"] = overlap
        result["prefetch_spans"] = len(tracer.trace.find("cache.prefetch"))
    return result


def measure_alpha(config, alpha):
    warm, trace = make_traces(config, alpha)
    return {name: run_variant(name, config, warm, trace)
            for name in VARIANTS}


def measure(config):
    return {alpha: measure_alpha(config, alpha)
            for alpha in config["alphas"]}


def as_json(config, results):
    sweep = []
    for alpha, by_variant in results.items():
        sweep.append({"alpha": alpha, "variants": by_variant})
    gated = [a for a in config["alphas"] if a >= 1.05]
    return {
        "benchmark": "cache",
        "config": {k: list(v) if isinstance(v, tuple) else v
                   for k, v in config.items()},
        "bandwidths": {"pcie_bw": PCIE_BW, "hbm_bw": HBM_BW},
        "sweep": sweep,
        "bitwise_exact": all(v["bitwise_exact"]
                             for by in results.values()
                             for v in by.values()),
        "freq_aware_beats_set_associative": all(
            results[a]["freq_aware"]["hit_rate"]
            > results[a]["set_associative"]["hit_rate"]
            and results[a]["freq_aware"]["effective_bandwidth_gbs"]
            > results[a]["set_associative"]["effective_bandwidth_gbs"]
            for a in gated),
        # Section 4.1.3 (X2): the row-granular cache beats UVM pages at
        # equal capacity, and its modeled lookup is >= 10% faster
        "set_associative_beats_uvm": all(
            by["set_associative"]["hit_rate"] > by["uvm"]["hit_rate"]
            and by["set_associative"]["demand_miss_bytes"]
            < by["uvm"]["demand_miss_bytes"]
            and by["set_associative"]["effective_bandwidth_gbs"]
            >= by["uvm"]["effective_bandwidth_gbs"] / 0.9
            for by in results.values()),
        "prefetch_overlap_measured": all(
            results[a]["freq+prefetch"]["prefetch_spans"] > 0
            and results[a]["freq+prefetch"]["prefetch_overlap"][
                "hidden_s"] > 0
            for a in config["alphas"]),
    }


HEADER = ["alpha", "variant", "hit rate", "miss traffic", "eff. BW",
          "hidden prefetch"]


def table_rows(results):
    rows = []
    for alpha, by_variant in results.items():
        for name, r in by_variant.items():
            overlap = r.get("prefetch_overlap")
            hidden = f"{overlap['hidden_frac']:.0%}" if overlap else "-"
            rows.append([f"{alpha:.2f}", name, f"{r['hit_rate']:.1%}",
                         f"{r['demand_miss_bytes'] / 1e6:.1f} MB",
                         f"{r['effective_bandwidth_gbs']:.1f} GB/s",
                         hidden])
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--out", default="BENCH_cache.json",
                        help="output JSON path")
    parser.add_argument("--min-hit-rate", type=float, default=0.5,
                        metavar="X",
                        help="fail unless the frequency-aware hit rate at "
                             "the largest alpha is >= X")
    args = parser.parse_args(argv)
    config = dict(QUICK_CONFIG if args.quick else FULL_CONFIG)
    results = measure(config)
    doc = as_json(config, results)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    print("cache sweep vs Zipf alpha "
          f"({config['rows']:,} rows, capacity {config['capacity']:,}, "
          f"dim {config['dim']}):")
    print(render_table(HEADER, table_rows(results)))
    print(f"\nall reads bitwise-exact: {doc['bitwise_exact']}")
    print("freq-aware beats set-associative at alpha >= 1.05: "
          f"{doc['freq_aware_beats_set_associative']}")
    print(f"prefetch overlap measured via spans: "
          f"{doc['prefetch_overlap_measured']}")
    print(f"wrote {args.out}")

    failures = []
    top_alpha = config["alphas"][-1]
    top_hit = results[top_alpha]["freq_aware"]["hit_rate"]
    if top_hit < args.min_hit_rate:
        failures.append(f"freq-aware hit rate {top_hit:.3f} at alpha "
                        f"{top_alpha} below the {args.min_hit_rate} floor")
    if not doc["bitwise_exact"]:
        failures.append("a cached read diverged from the backing store")
    if not doc["freq_aware_beats_set_associative"]:
        failures.append("freq-aware lost to set-associative at some "
                        "alpha >= 1.05")
    if not doc["set_associative_beats_uvm"]:
        failures.append("set-associative did not beat UVM pages at some "
                        "alpha")
    if not doc["prefetch_overlap_measured"]:
        failures.append("no hidden prefetch time was measured")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


def test_freq_aware_beats_baselines(benchmark, report):
    """The headline gate: hit rate and effective bandwidth above the
    set-associative baseline at every Zipf alpha >= 1.05, which in turn
    beats UVM pages at every alpha."""
    config = dict(QUICK_CONFIG)
    results = benchmark.pedantic(lambda: measure(config),
                                 rounds=1, iterations=1)
    report("cache: hit rate / effective bandwidth vs Zipf alpha",
           HEADER, table_rows(results))
    for alpha, by_variant in results.items():
        assert all(v["bitwise_exact"] for v in by_variant.values())
        if alpha >= 1.05:
            fa, sa = by_variant["freq_aware"], by_variant["set_associative"]
            assert fa["hit_rate"] > sa["hit_rate"]
            assert fa["effective_bandwidth_gbs"] \
                > sa["effective_bandwidth_gbs"]
            assert fa["hit_rate"] > by_variant["uvm"]["hit_rate"]
    assert as_json(config, results)["set_associative_beats_uvm"]


def test_prefetch_overlap_and_spans(benchmark, report):
    """Pipelined prefetch hides staging under the lookup window and the
    spans record it; prefetched variant never does worse."""
    config = dict(QUICK_CONFIG)
    alpha = config["alphas"][-1]
    results = benchmark.pedantic(lambda: measure_alpha(config, alpha),
                                 rounds=1, iterations=1)
    report(f"cache: prefetch at alpha={alpha}", HEADER,
           table_rows({alpha: results}))
    pf, fa = results["freq+prefetch"], results["freq_aware"]
    overlap = pf["prefetch_overlap"]
    assert pf["prefetch_spans"] == config["steps"] - 1
    assert overlap["hidden_s"] > 0
    assert 0.0 < overlap["hidden_frac"] <= 1.0
    assert pf["hit_rate"] >= fa["hit_rate"]
    assert pf["effective_bandwidth_gbs"] >= fa["effective_bandwidth_gbs"]


if __name__ == "__main__":
    sys.exit(main())

"""Embedding lookups through a read-only software cache.

The paper (Section 4.1.3) puts a 32-way set-associative software cache
with LRU or LFU replacement in front of a slower memory tier, so a table
too large for HBM is served from DRAM while its Zipf-hot rows stay in
HBM. Here the table lives in an ``ArrayBackingStore`` (the slow tier,
read-only) and an LFU cache holding ~8% of its rows keeps residency.

The id stream is hashed Zipf (hot rows scattered across the table, as
production hashes scatter them) and drifts halfway: popularity is
re-hashed, as trending items shift online traffic. The example checks
that every read equals the stored rows, and prints the hit rate before
and after the drift and the slow-tier bytes against an uncached read.

Run:  python examples/cached_lookup.py
"""

import numpy as np

from repro.cache import ArrayBackingStore, make_cache
from repro.data import zipf_indices

ROWS = 50_000
DIM = 16
CACHE_ROWS = 4096  # ~8% of the table fits in "HBM"
STEPS = 60
IDS_PER_STEP = 1024


def main():
    weights = np.random.default_rng(0).normal(
        size=(ROWS, DIM)).astype(np.float32)
    backing = ArrayBackingStore(weights)
    uncached = ArrayBackingStore(weights)
    cache = make_cache("set_associative", capacity_rows=CACHE_ROWS,
                       ways=32, policy="lfu")
    print(f"table: {ROWS:,} rows x {DIM} ({ROWS * DIM * 4 / 1e6:.1f} MB); "
          f"LFU cache holds {cache.capacity_rows:,} rows "
          f"({cache.capacity_rows / ROWS:.0%})")

    rng = np.random.default_rng(1)
    permutation = rng.permutation(ROWS)
    hit_rates = []
    for step in range(STEPS):
        if step == STEPS // 2:
            # traffic drift: re-hash popularity mid-stream
            hit_rates.append(cache.stats.hit_rate)
            cache.reset_stats()
            permutation = rng.permutation(ROWS)
        ids = permutation[zipf_indices(ROWS, IDS_PER_STEP, rng, alpha=1.15)]
        rows = cache.read(ids, backing)
        assert np.array_equal(rows, uncached.read_rows(ids))
    hit_rates.append(cache.stats.hit_rate)

    print(f"\n{STEPS} steps of {IDS_PER_STEP:,} ids, every read exact")
    print(f"  hit rate before the drift: {hit_rates[0]:.1%}")
    print(f"  hit rate after the drift:  {hit_rates[1]:.1%}")
    print(f"  slow-tier traffic: {backing.bytes_read / 1e6:.2f} MB cached "
          f"vs {uncached.bytes_read / 1e6:.2f} MB uncached "
          f"({backing.bytes_read / uncached.bytes_read:.0%})")


if __name__ == "__main__":
    main()

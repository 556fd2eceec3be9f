"""Placement algorithms: greedy bin packing and Karmarkar-Karp LDM
(paper Section 4.2.5).

Both solve the multi-way number partitioning problem: distribute items
with costs across ``k`` bins minimizing the spread between the heaviest
and lightest bin. Greedy (longest processing time first) is the simple
heuristic; the largest differencing method (LDM / Karmarkar-Karp) usually
achieves tighter balance, which the paper confirms in practice.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Sequence

from .. import check

__all__ = ["Assignment", "round_robin_partition", "greedy_partition",
           "ldm_partition", "partition_quality"]


@dataclass
class Assignment:
    """Result of partitioning: ``bins[i]`` holds the item indices assigned
    to bin ``i``; ``loads[i]`` their summed cost."""

    bins: List[List[int]]
    loads: List[float]

    @property
    def spread(self) -> float:
        return max(self.loads) - min(self.loads)

    @property
    def imbalance(self) -> float:
        """max/mean load ratio; 1.0 is perfect balance."""
        mean = sum(self.loads) / len(self.loads)
        return max(self.loads) / mean if mean > 0 else 1.0


def _validate(costs: Sequence[float], num_bins: int) -> None:
    """``num_bins`` a count, and every cost a finite number >= 0 (NaN
    or inf would balance every bin on it), named by its index."""
    check.count("num_bins", num_bins)
    for i, c in enumerate(costs):
        check.nonnegative(f"costs[{i}]", c)


def round_robin_partition(costs: Sequence[float],
                          num_bins: int) -> Assignment:
    """Naive cost-oblivious placement: item ``i`` goes to bin ``i % k``.

    This is what an unoptimized sharder does and serves as the Fig. 13
    baseline; with skewed table costs it leaves severe imbalance.
    """
    _validate(costs, num_bins)
    bins: List[List[int]] = [[] for _ in range(num_bins)]
    for i in range(len(costs)):
        bins[i % num_bins].append(i)
    loads = [sum(costs[i] for i in b) for b in bins]
    return Assignment(bins=bins, loads=loads)


def greedy_partition(costs: Sequence[float], num_bins: int) -> Assignment:
    """Longest-processing-time greedy: sort descending, place each item on
    the currently lightest bin."""
    _validate(costs, num_bins)
    order = sorted(range(len(costs)), key=lambda i: costs[i], reverse=True)
    bins: List[List[int]] = [[] for _ in range(num_bins)]
    # heap of (load, bin_index)
    heap = [(0.0, b) for b in range(num_bins)]
    heapq.heapify(heap)
    for item in order:
        load, b = heapq.heappop(heap)
        bins[b].append(item)
        heapq.heappush(heap, (load + costs[item], b))
    loads = [sum(costs[i] for i in b) for b in bins]
    return Assignment(bins=bins, loads=loads)


def ldm_partition(costs: Sequence[float], num_bins: int) -> Assignment:
    """Karmarkar-Karp largest differencing method, k-way generalization.

    Each item starts as a k-tuple of bins (item alone in one bin). The two
    tuples with the largest spread are repeatedly merged — heaviest bin of
    one with lightest bin of the other — which "differences away" the
    largest imbalances first.
    """
    _validate(costs, num_bins)
    if not costs:
        return Assignment(bins=[[] for _ in range(num_bins)],
                          loads=[0.0] * num_bins)
    counter = itertools.count()
    # heap entries: (-spread, tiebreak, loads_desc, bins) with loads sorted
    # descending so merging pairs heaviest with lightest.
    heap = []
    for i, c in enumerate(costs):
        loads = [float(c)] + [0.0] * (num_bins - 1)
        bins: List[List[int]] = [[i]] + [[] for _ in range(num_bins - 1)]
        heapq.heappush(heap, (-(loads[0] - loads[-1]), next(counter),
                              loads, bins))
    while len(heap) > 1:
        _, _, loads_a, bins_a = heapq.heappop(heap)
        _, _, loads_b, bins_b = heapq.heappop(heap)
        # combine: heaviest of A with lightest of B, etc.
        merged = [(loads_a[j] + loads_b[num_bins - 1 - j],
                   bins_a[j] + bins_b[num_bins - 1 - j])
                  for j in range(num_bins)]
        merged.sort(key=lambda t: t[0], reverse=True)
        loads = [m[0] for m in merged]
        bins = [m[1] for m in merged]
        heapq.heappush(heap, (-(loads[0] - loads[-1]), next(counter),
                              loads, bins))
    _, _, loads, bins = heap[0]
    return Assignment(bins=list(bins), loads=list(loads))


def partition_quality(costs: Sequence[float], num_bins: int) -> dict:
    """Compare greedy vs LDM on one instance (bench X3 helper)."""
    greedy = greedy_partition(costs, num_bins)
    ldm = ldm_partition(costs, num_bins)
    return {
        "greedy_spread": greedy.spread,
        "ldm_spread": ldm.spread,
        "greedy_imbalance": greedy.imbalance,
        "ldm_imbalance": ldm.imbalance,
    }

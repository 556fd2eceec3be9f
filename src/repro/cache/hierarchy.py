"""Multi-tier memory hierarchy model: HBM + DDR + SSD (Section 4.1.3).

ZionEX exposes three memory tiers per node; the faster tier acts as a
software cache for the next. This module provides

* :class:`MemoryTier` / :class:`MemoryHierarchy` — capacity/bandwidth
  bookkeeping used by the capacity studies (can a model fit? at what
  effective bandwidth given a hit-rate profile?), and
* :class:`CachedEmbeddingTable` — a functional embedding table whose rows
  live in a backing store and are accessed through a software cache,
  wiring :mod:`repro.cache` into the training path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..embedding.kernels import segment_sum
from ..embedding.table import (EmbeddingTableConfig, SparseGradient,
                               pooled_backward)
from ..obs.tracer import as_tracer
from .api import make_cache
from .backing import ArrayBackingStore

__all__ = ["MemoryTier", "MemoryHierarchy", "CachedEmbeddingTable",
           "ZIONEX_NODE_HIERARCHY"]


@dataclass(frozen=True)
class MemoryTier:
    """One memory tier with capacity and sustained bandwidth."""

    name: str
    capacity_bytes: float
    bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise ValueError(f"capacity and bandwidth must be positive: {self}")


class MemoryHierarchy:
    """Ordered tiers, fastest first (e.g. HBM, DDR, SSD)."""

    def __init__(self, tiers: Sequence[MemoryTier]) -> None:
        if not tiers:
            raise ValueError("need at least one tier")
        bandwidths = [t.bandwidth_bytes_per_s for t in tiers]
        if bandwidths != sorted(bandwidths, reverse=True):
            raise ValueError("tiers must be ordered fastest first")
        self.tiers = list(tiers)

    @property
    def total_capacity_bytes(self) -> float:
        return sum(t.capacity_bytes for t in self.tiers)

    def fits(self, model_bytes: float) -> bool:
        return model_bytes <= self.total_capacity_bytes

    def placement(self, model_bytes: float) -> List[float]:
        """Greedy waterfall placement: fill fast tiers first.

        Returns bytes placed per tier; raises if the model does not fit.
        """
        if not self.fits(model_bytes):
            raise ValueError(
                f"model of {model_bytes:.3g} B exceeds hierarchy capacity "
                f"{self.total_capacity_bytes:.3g} B")
        remaining = model_bytes
        placed = []
        for tier in self.tiers:
            take = min(remaining, tier.capacity_bytes)
            placed.append(take)
            remaining -= take
        return placed

    def effective_bandwidth(self, hit_fractions: Sequence[float]) -> float:
        """Harmonic-mean bandwidth for an access stream.

        ``hit_fractions[i]`` is the fraction of accessed bytes served by
        tier ``i``; they must sum to 1. This is the standard memory-system
        average: time per byte is the hit-weighted sum of per-tier times.
        """
        if len(hit_fractions) != len(self.tiers):
            raise ValueError("need one hit fraction per tier")
        total = float(sum(hit_fractions))
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"hit fractions must sum to 1, got {total}")
        time_per_byte = sum(f / t.bandwidth_bytes_per_s
                            for f, t in zip(hit_fractions, self.tiers))
        return 1.0 / time_per_byte


def ZIONEX_NODE_HIERARCHY() -> MemoryHierarchy:
    """Per-node hierarchy from Table 2: 256 GB HBM @7.2 TB/s, 1.5 TB DDR
    @200 GB/s, plus a 4 TB NVMe tier @ ~6 GB/s (typical for the platform)."""
    return MemoryHierarchy([
        MemoryTier("hbm", 256e9, 7.2e12),
        MemoryTier("ddr", 1.5e12, 200e9),
        MemoryTier("ssd", 4e12, 6e9),
    ])


class CachedEmbeddingTable:
    """Embedding table whose canonical rows live behind a software cache.

    Functionally equivalent to :class:`repro.embedding.EmbeddingTable`
    (same forward/backward contract) but every row access is routed
    through any :class:`repro.cache.RowCache` in front of an
    :class:`ArrayBackingStore`. ``cache`` is either a constructed cache
    or a kind name from :data:`repro.cache.CACHE_KINDS` (built via
    :func:`repro.cache.make_cache` with ``cache_config`` as the extra
    knobs — ``capacity_rows`` required there when a kind is named).
    Used to validate cache coherence under training and to measure
    traffic.

    Pass ``tracer=``/``registry=`` (or call :meth:`instrument`) to record
    ``cache.lookup``/``cache.update``/``cache.prefetch`` spans and
    publish the cache's stats as ``cache.*`` counters after each access.
    Instrumentation is read-only.
    """

    def __init__(self, config: EmbeddingTableConfig, cache,
                 rng: Optional[np.random.Generator] = None,
                 weight: Optional[np.ndarray] = None,
                 tracer=None, registry=None,
                 cache_config: Optional[dict] = None) -> None:
        self.config = config
        if isinstance(cache, str):
            cfg = dict(cache_config or {})
            if "capacity_rows" not in cfg:
                raise ValueError(
                    "cache_config must supply capacity_rows when cache "
                    "is a kind name")
            cache = make_cache(cache, row_dim=config.embedding_dim, **cfg)
        elif cache_config is not None:
            raise ValueError(
                "cache_config is only valid when cache is a kind name")
        rng = rng if rng is not None else np.random.default_rng(0)
        if weight is None:
            limit = 1.0 / np.sqrt(config.num_embeddings)
            weight = rng.uniform(
                -limit, limit,
                size=(config.num_embeddings, config.embedding_dim))
        self.backing = ArrayBackingStore(np.asarray(weight, dtype=np.float32))
        self.cache = cache
        self._saved: Optional[tuple] = None
        self.tracer = as_tracer(tracer)
        self._scope = registry.scope("cache") if registry is not None else None
        self._published = {}

    def instrument(self, tracer=None, registry=None) -> None:
        """Attach a tracer and/or metric registry after construction."""
        if tracer is not None:
            self.tracer = as_tracer(tracer)
        if registry is not None:
            self._scope = registry.scope("cache")
            self._published = {}

    def _sync_stats(self) -> None:
        """Publish the cache's cumulative stats as counter deltas."""
        if self._scope is None:
            return
        stats = getattr(self.cache, "stats", None)
        if stats is None:
            return
        for field in ("hits", "misses", "evictions", "writebacks",
                      "fills", "prefetched_rows"):
            value = int(getattr(stats, field, 0))
            prev = self._published.get(field, 0)
            if value > prev:
                self._scope.counter(field, table=self.name).inc(value - prev)
                self._published[field] = value

    @property
    def name(self) -> str:
        return self.config.name

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        with self.tracer.span("cache.lookup", cat="cache", table=self.name,
                              rows=int(len(indices))):
            rows = self.cache.read(indices, self.backing) if len(indices) \
                else np.zeros((0, self.config.embedding_dim),
                              dtype=np.float32)
        self._sync_stats()
        out = segment_sum(rows, offsets)
        if self.config.pooling_mode == "mean":
            out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
        self._saved = (indices, None, lengths)
        return out

    def prefetch(self, indices: np.ndarray) -> int:
        """Stage the rows a future batch will touch (pipelined with the
        current batch's compute); returns rows newly made resident."""
        indices = np.asarray(indices, dtype=np.int64)
        with self.tracer.span("cache.prefetch", cat="cache", table=self.name,
                              rows=int(len(indices))):
            staged = self.cache.prefetch_rows(indices, self.backing) \
                if len(indices) else 0
        self._sync_stats()
        return staged

    def backward(self, dy: np.ndarray) -> SparseGradient:
        return pooled_backward(self, dy)

    def sgd_step(self, grad: SparseGradient, lr: float) -> None:
        """Exact merged SGD applied through the cache (read-modify-write)."""
        from ..embedding.optim import merge_duplicate_rows
        rows, merged = merge_duplicate_rows(grad.rows, grad.values,
                                            grad.bag_ids)
        if len(rows) == 0:
            return
        with self.tracer.span("cache.update", cat="cache", table=self.name,
                              rows=int(len(rows))):
            current = self.cache.read(rows, self.backing)
            self.cache.write(rows, current - lr * merged, self.backing)
        self._sync_stats()

    def checkpoint(self) -> np.ndarray:
        """Flush the cache and return the canonical table contents."""
        self.cache.flush(self.backing)
        return self.backing.rows.copy()

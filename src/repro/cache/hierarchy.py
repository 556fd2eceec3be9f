"""Multi-tier memory hierarchy: HBM in front of DDR (Section 4.1.3).

ZionEX exposes several memory tiers per node; the faster tier acts as a
software cache for the next. :class:`CachedEmbeddingTable` is a
functional embedding table whose rows live in a backing store and are
accessed through a software cache, wiring :mod:`repro.cache` into the
training path. The tiers' capacities and bandwidths (Table 2) live in
:data:`repro.perf.platform.ZIONEX_PLATFORM`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..embedding.kernels import mean_pool, segment_sum
from ..embedding.table import (EmbeddingTableConfig, SparseGradient,
                               pooled_backward)
from ..obs.tracer import as_tracer
from .api import make_cache
from .backing import ArrayBackingStore

__all__ = ["CachedEmbeddingTable"]


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
        # a copy: training writes rows back through the store
        self.backing = ArrayBackingStore(np.array(weight, dtype=np.float32))
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
            mean_pool(out, lengths)
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

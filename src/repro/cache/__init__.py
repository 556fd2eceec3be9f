"""Software-managed memory hierarchy: the unified :class:`RowCache`
protocol, set-associative row cache, UVM page cache baseline,
frequency-aware chunked hot store with pipelined prefetch, and
HBM/DDR/SSD tier modelling (paper Section 4.1.3)."""

from .api import CACHE_KINDS, CacheStats, RowCache, RowCacheBase, make_cache
from .backing import ArrayBackingStore
from .freq_aware import FreqAwareCache, PrefetchPipeline
from .hierarchy import (ZIONEX_NODE_HIERARCHY, CachedEmbeddingTable,
                        MemoryHierarchy, MemoryTier)
from .set_associative import SetAssociativeCache
from .uvm import UVMPageCache

__all__ = [
    "ArrayBackingStore",
    "RowCache",
    "RowCacheBase",
    "CacheStats",
    "CACHE_KINDS",
    "make_cache",
    "SetAssociativeCache",
    "UVMPageCache",
    "FreqAwareCache",
    "PrefetchPipeline",
    "MemoryTier",
    "MemoryHierarchy",
    "CachedEmbeddingTable",
    "ZIONEX_NODE_HIERARCHY",
]

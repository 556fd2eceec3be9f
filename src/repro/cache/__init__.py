"""Software-managed memory hierarchy: the unified :class:`RowCache`
protocol, set-associative row cache, UVM page cache baseline,
frequency-aware chunked hot store with pipelined prefetch, and an
embedding table behind a cache (paper Section 4.1.3)."""

from .api import CACHE_KINDS, CacheStats, RowCache, RowCacheBase, make_cache
from .backing import ArrayBackingStore
from .freq_aware import FreqAwareCache, PrefetchPipeline
from .hierarchy import CachedEmbeddingTable
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
    "CachedEmbeddingTable",
]

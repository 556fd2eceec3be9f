"""Read-only software-managed memory hierarchy (paper Section 4.1.3).

The unified :class:`RowCache` protocol, set-associative row cache, UVM
page cache baseline, and frequency-aware chunked hot store with
pipelined prefetch, over a read-only :class:`ArrayBackingStore`. The
caches serve the frozen cold tables; no training table reads through
one, so no write-back is modelled."""

from .api import CACHE_KINDS, CacheStats, RowCache, RowCacheBase, make_cache
from .backing import ArrayBackingStore
from .freq_aware import FreqAwareCache, PrefetchPipeline
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
]

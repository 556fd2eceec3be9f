"""The unified ``RowCache`` API: protocol, shared stats, and factory.

Three cache organizations live in :mod:`repro.cache` — the 32-way
set-associative row cache, the UVM page-cache baseline, and the
frequency-aware chunked hot store — and historically each grew its own
ad-hoc constructor signature and stats counters. This module is the
single contract they all implement:

* :class:`CacheStats` — one stats dataclass shared by every
  implementation (hits/misses/evictions plus ``fills``, the demand
  fetches from the backing store, and ``prefetched_rows``, the rows
  staged ahead of use). ``reset_stats()`` is defined once on
  :class:`RowCacheBase`, so no implementation can drift its own partial
  reset again.
* :class:`RowCache` — a :class:`typing.Protocol` naming the read-only
  surface: ``read`` and ``reset_stats`` plus the ``stats`` and
  ``capacity_rows`` attributes. Consumers (``serving.export``, the
  benchmarks) type against this, never against a concrete class.
* :func:`make_cache` — the one factory: every cache is built as
  ``make_cache(kind, capacity_rows=N, **cfg)`` with a like-for-like
  capacity in rows, so policies are swappable at every call site.

A cache holds residency and policy state only, never row data: the
backing store is read-only, so a resident row always equals its backing
row and a read gathers straight from it. Fills still count their bytes
against the backing store, in each kind's own granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Protocol, runtime_checkable

import numpy as np

from .. import check
from .backing import ArrayBackingStore

__all__ = ["CacheStats", "RowCache", "RowCacheBase", "CACHE_KINDS",
           "make_cache"]


@dataclass
class CacheStats:
    """Counters shared by every :class:`RowCache` implementation.

    ``fills`` counts demand fetches from the backing store in the
    cache's native granularity (rows for row caches, pages for the UVM
    baseline); ``prefetched_rows`` counts rows made resident by
    :meth:`repro.cache.FreqAwareCache.prefetch_rows` ahead of their
    first access, which never count as misses.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    fills: int = 0
    prefetched_rows: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)


@runtime_checkable
class RowCache(Protocol):
    """The uniform software-cache surface in front of a backing store.

    Every method takes the backing store explicitly — a cache is a
    placement policy, not an owner of the rows — and all
    implementations are *exact*: a read through the cache is bitwise
    identical to an uncached :meth:`ArrayBackingStore.read_rows`.

    **Sequence contract** (``set_associative``, ``uvm``). :meth:`read`
    handles its ids one at a time, in order, and keeps no per-call state,
    so ``read(concat(a, b))`` is ``read(a)`` followed by ``read(b)``: the
    same rows, stats, residency and backing-store byte counts
    (``tests/test_cache_sequence.py``).

    **Window contract** (``freq_aware``). :meth:`read` decides admission
    once per call, over all of its ids, so where one call ends and the
    next begins is part of the policy; only the returned rows are the
    same either way. The state after a call does not depend on the order
    of its ids, and a call of one id decides as the per-id policy did
    (``tests/test_cache_window.py``). The serving path reads a whole
    window of dispatches in one call, so for this kind the window is the
    admission unit.
    """

    stats: CacheStats

    @property
    def capacity_rows(self) -> int:
        """Rows the fast tier can hold (like-for-like across kinds)."""
        ...

    def read(self, row_ids: np.ndarray,
             backing: ArrayBackingStore) -> np.ndarray:
        """Read rows through the cache; misses fetch from ``backing``."""
        ...

    def reset_stats(self) -> None:
        """Zero the stats counters (capacity and contents untouched)."""
        ...


class RowCacheBase:
    """Shared stats plumbing for :class:`RowCache` implementations.

    Owning ``stats`` construction and :meth:`reset_stats` here is the
    fix for the historical drift where each cache reset a different
    subset of its counters.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()

    def reset_stats(self) -> None:
        self.stats.reset()

    @staticmethod
    def _check_ids(row_ids, backing: ArrayBackingStore) -> np.ndarray:
        """``row_ids`` as a 1-D int64 array; ``ValueError`` before any
        state changes if they are not 1-D, not integers (an empty list
        is valid) or one lies outside ``[0, H)`` of ``backing``."""
        ids = np.asarray(row_ids)
        if ids.ndim != 1:
            raise ValueError(f"row ids must be 1-D, got shape {ids.shape}")
        if ids.size and not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"row ids must be integers, got {ids.dtype}")
        ids = ids.astype(np.int64, copy=False)
        if len(ids) and (ids.min() < 0 or ids.max() >= backing.num_rows):
            raise ValueError(f"row ids must lie in [0, {backing.num_rows})")
        return ids


def _make_set_associative(capacity_rows: int, **cfg):
    from .set_associative import SetAssociativeCache
    return SetAssociativeCache(capacity_rows=capacity_rows, **cfg)


def _make_uvm(capacity_rows: int, **cfg):
    from .uvm import UVMPageCache
    cfg.setdefault("rows_per_page", min(64, max(1, capacity_rows)))
    return UVMPageCache(capacity_rows=capacity_rows, **cfg)


def _make_freq_aware(capacity_rows: int, **cfg):
    from .freq_aware import FreqAwareCache
    return FreqAwareCache(capacity_rows=capacity_rows, **cfg)


_FACTORIES = {
    "set_associative": _make_set_associative,
    "uvm": _make_uvm,
    "freq_aware": _make_freq_aware,
}

CACHE_KINDS = tuple(sorted(_FACTORIES))


def make_cache(kind: str, *, capacity_rows: int, **cfg) -> RowCache:
    """Build any registered :class:`RowCache` from one normalized spec.

    Parameters
    ----------
    kind:
        One of :data:`CACHE_KINDS` (``"set_associative"``, ``"uvm"``,
        ``"freq_aware"``).
    capacity_rows:
        Fast-tier capacity in rows — the like-for-like budget every kind
        is sized by (implementations may round down to their natural
        granularity: sets x ways, whole pages, whole chunks).
    cfg:
        Kind-specific knobs, e.g. ``ways=``/``policy=`` for
        ``set_associative``, ``rows_per_page=`` for ``uvm``,
        ``chunk_rows=`` for ``freq_aware``.
    """
    if kind not in _FACTORIES:
        raise ValueError(
            f"unknown cache kind {kind!r}; expected one of "
            f"{list(CACHE_KINDS)}")
    check.count("capacity_rows", capacity_rows)
    return _FACTORIES[kind](capacity_rows=capacity_rows, **cfg)

"""Batch-level index deduplication for pooled lookups.

Zipf-skewed DLRM inputs repeat hot ids many times within one batch; the
optimized embedding kernels read each *unique* row once and broadcast it
to every occurrence, cutting HBM row traffic by the duplication factor
(part of why achieved bandwidth in Figs. 18-19 exceeds what naive per-
occurrence reads would allow, and one of the caching effects the cost
model's ``H`` term stands in for).

:func:`dedup_cache_read` reads each unique id once through a software
cache, per segment (e.g. per dispatch) when given segments;
:func:`segment_keys` is the ``(segment, id)`` key it dedups on.
:func:`duplication_factor` measures how much a given input stream gains.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["dedup_cache_read", "segment_keys", "duplication_factor"]


def dedup_cache_read(cache, indices: np.ndarray, backing,
                     segments: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Read rows through a :class:`repro.cache.RowCache`, touching each
    unique id once.

    Returns ``(rows, inverse)``: ``rows`` holds one row per unique id
    (per unique ``(segment, id)`` key) and ``rows[inverse]`` one per
    *occurrence*, bitwise equal to ``cache.read(indices, backing)``.
    A pooled lookup sums ``rows`` through ``inverse``
    (:func:`~repro.embedding.kernels.segment_sum_gather`) without
    building the broadcast. The cache sees one access per
    unique id, which is what the serving path wants: a hot Zipf id
    repeated across a concurrent dispatch pays one fast-tier read, and
    the hit/miss stats count row residency rather than input skew.

    ``segments`` (one non-negative segment number per id, e.g. the
    dispatch each id belongs to) scopes the dedup to ``(segment, id)``:
    the cache reads the sorted unique keys ``segment * H + id``, which is
    exactly the concatenation, in segment order, of the reads one call
    per segment would make, in one call. A cache under the
    :class:`~repro.cache.RowCache` sequence contract therefore ends in
    the state one call per segment leaves; one under the window contract
    (``freq_aware``) makes one admission decision for all the segments.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if not len(indices):
        return (np.zeros((0, backing.row_dim), dtype=np.float32),
                np.zeros(0, dtype=np.int64))
    num_rows = backing.num_rows
    unique, inverse = np.unique(segment_keys(indices, num_rows, segments),
                                return_inverse=True)
    ids = unique if segments is None else unique % num_rows
    return cache.read(ids, backing), inverse


def segment_keys(indices: np.ndarray, num_rows: int,
                 segments: Optional[np.ndarray] = None) -> np.ndarray:
    """One dedup key per id: ``segment * num_rows + id``, or the id itself
    without ``segments``. Sorted keys order by ``(segment, id)``, and two
    occurrences share a key exactly when they repeat an id within one
    segment."""
    return indices if segments is None else segments * num_rows + indices


def duplication_factor(indices: np.ndarray) -> float:
    """nnz / unique — the row-traffic saving dedup unlocks (>= 1)."""
    indices = np.asarray(indices, dtype=np.int64)
    if len(indices) == 0:
        return 1.0
    return len(indices) / len(np.unique(indices))

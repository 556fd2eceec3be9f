"""Input-redistribution kernels: permute, bucketize, replicate
(paper Section 4.4).

After the input AlltoAll, a worker holds the global batch's ids for its
local tables in ``(W, T, B)`` segment order (grouped by source worker);
the embedding kernel wants ``(T, W, B)`` (grouped by table). Row-wise
sharding additionally needs ids *bucketized* by destination row range, and
column-wise sharding needs ids *replicated* per column shard. The paper
implements these as custom GPU kernels; here they are exact vectorized
numpy transforms with the same contracts.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .. import check

__all__ = ["permute_jagged", "bucketize_sparse", "bucket_of",
           "replicate_sparse"]


def permute_jagged(lengths: np.ndarray, values: np.ndarray,
                   shape: Tuple[int, ...],
                   perm: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Reorder the segments of a jagged tensor.

    ``lengths`` holds one entry per segment, laid out row-major according
    to ``shape`` (e.g. ``(W, T, B)``); ``values`` concatenates the segments
    in that order. Returns ``(new_lengths, new_values)`` with segments
    reordered row-major according to ``shape`` permuted by ``perm`` (e.g.
    ``perm=(1, 0, 2)`` for (W,T,B) -> (T,W,B)).
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    values = np.asarray(values)
    total_segments = int(np.prod(shape))
    if len(lengths) != total_segments:
        raise ValueError(
            f"lengths has {len(lengths)} segments, shape {shape} implies "
            f"{total_segments}")
    if int(lengths.sum()) != len(values):
        raise ValueError(
            f"values has {len(values)} items but lengths sum to "
            f"{int(lengths.sum())}")
    if sorted(perm) != list(range(len(shape))):
        raise ValueError(f"perm {perm} is not a permutation of axes")
    segment_order = np.arange(total_segments).reshape(shape)
    new_order = segment_order.transpose(perm).reshape(-1)
    offsets = np.zeros(total_segments + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    new_lengths = lengths[new_order]
    if len(values) == 0:
        return new_lengths, values.copy()
    gather = np.concatenate(
        [np.arange(offsets[s], offsets[s + 1]) for s in new_order])
    return new_lengths, values[gather]


def bucketize_sparse(indices: np.ndarray, lengths: np.ndarray,
                     boundaries: Sequence[int]
                     ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split jagged ids into row-range buckets for row-wise sharding.

    ``boundaries`` are the bucket cut points ``[0, b1, ..., H]``: bucket
    ``k`` owns rows ``[boundaries[k], boundaries[k+1])``. Each input bag
    splits into one sub-bag per bucket; returned ids are *rebased* to the
    bucket's local row numbering (id - bucket start), which is what the
    shard's local embedding table expects.

    Returns one ``(local_indices, lengths)`` pair per bucket; relative
    order of ids within a bag is preserved, and the union of all buckets'
    ids is exactly the input multiset. The returned arrays are views
    into two shared arrays (all buckets' ids, all buckets' lengths).

    One pass, however many buckets: every id's bucket comes from
    :func:`bucket_of`, one stable sort on it groups the ids bucket by
    bucket in input order, and one ``bincount`` on ``(bucket, bag)``
    gives every bucket's lengths. That is what lets a caller bucketize
    several row-wise tables at once, each table's ids offset by its
    first row in a combined id space and the boundaries concatenated.
    """
    indices = np.asarray(indices, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if len(boundaries) < 2 or boundaries[0] != 0:
        raise ValueError("boundaries must start at 0 and have >= 2 entries")
    if np.any(np.diff(boundaries) <= 0):
        raise ValueError("boundaries must be strictly increasing")
    if int(lengths.sum()) != len(indices):
        raise ValueError("lengths must sum to len(indices)")
    if len(indices) and (indices.min() < 0
                         or indices.max() >= boundaries[-1]):
        raise IndexError("indices outside [0, boundaries[-1])")
    num_buckets = len(boundaries) - 1
    num_bags = len(lengths)
    bucket = bucket_of(indices, boundaries)
    # a stable sort on a uint8/uint16 key is numpy's O(N) radix sort
    key = bucket.astype(np.uint8) if num_buckets <= 1 << 8 else \
        bucket.astype(np.uint16) if num_buckets <= 1 << 16 else bucket
    order = np.argsort(key, kind="stable")
    bucket_bag = np.repeat(np.arange(num_bags, dtype=np.int64), lengths)
    bucket_bag += bucket * num_bags
    bucket_lengths = np.bincount(
        bucket_bag, minlength=num_buckets * num_bags).reshape(num_buckets,
                                                              num_bags)
    counts = bucket_lengths.sum(axis=1)
    local = np.take(indices, order)
    local -= np.repeat(boundaries[:-1], counts)
    ends = np.cumsum(counts).tolist()
    return [(local[end - count:end], bucket_lengths[k])
            for k, (end, count) in enumerate(zip(ends, counts.tolist()))]


def bucket_of(indices: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """``k`` with ``boundaries[k] <= id < boundaries[k + 1]``, per id.

    ``searchsorted`` on unsorted ids mispredicts a branch at every level
    of its binary search, and a combined id space of many row-wise
    tables has many levels. A guide over power-of-two cells no wider
    than the narrowest bucket replaces it: each cell holds at most one
    cut, so an id's bucket is its cell's first bucket, plus one if the
    id reaches the next cut. The guide is used when it has no more cells
    than there are ids, so building it never costs more than it saves.
    """
    shift = int(np.diff(boundaries).min()).bit_length() - 1
    cells = ((int(boundaries[-1]) - 1) >> shift) + 1
    if cells > len(indices):
        return np.searchsorted(boundaries, indices, side="right") - 1
    first = np.searchsorted(boundaries,
                            np.arange(cells, dtype=np.int64) << shift,
                            side="right") - 1
    bucket = np.take(first, indices >> shift)
    bucket += indices >= np.take(boundaries, bucket + 1)
    return bucket


def replicate_sparse(indices: np.ndarray, lengths: np.ndarray,
                     copies: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Duplicate the id stream for column-wise shards (Section 4.2.3).

    Every column shard needs the full index stream (it owns all rows but a
    slice of columns); this is the input-payload inflation CW trades for
    finer balance.
    """
    check.count("copies", copies)
    indices = np.asarray(indices, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    return [(indices.copy(), lengths.copy()) for _ in range(copies)]

"""Shared segment-reduce kernels for pooled embedding operators.

Every pooled lookup in this repository reduces a jagged batch — ``N``
gathered rows split into ``B`` bags by an ``offsets`` vector — into one
vector per bag. The seed implementation used ``np.add.at``, numpy's
generic indexed scatter-add, which processes one element per interpreter-
level iteration and is by far the slowest way to express this reduction.
These kernels express the same reduction over contiguous segments,
summed bitwise as ``np.add.reduceat`` sums them, and are shared by
:class:`repro.embedding.EmbeddingTable`, the fused arena operator,
tensor-train tables, the cold cache tier, the cached tables and every
sparse optimizer's merge.

Short segments
--------------

``reduceat`` pays ~7-13 ns per segment x column however short the
segment is: it makes one strided ``pairwise_sum`` call per column. So
bags of 1-3 wide rows cost far more than their adds. numpy sums a
segment of at most 8 rows as ``a0 + (((s + a1) + a2) + ...)``, where
``s`` is the start value of its ``pairwise_sum`` (probed at import:
``-0.0``). :func:`_segment_reduce` adds exactly that, one row position
at a time over every such segment of a call, when the call has enough
of them to repay its fixed cost; longer segments, and calls with few
short ones, stay on ``reduceat``. Every sum that is not NaN matches
``reduceat`` bit for bit (which payload a NaN sum carries is not fixed
by numpy either). ``tests/test_embedding_kernels.py`` pins numpy's order
and fuzzes the kernel against the ``reduceat`` form kept in
``tests/reference_kernels.py``.

Determinism and parity
----------------------

Each segment is reduced in numpy's fixed pairwise summation order, a
pure function of the segment's contents and length, whichever form
sums it. Two consequences the tests rely on:

* **split-invariance** — reducing table ``t``'s segments inside a
  concatenated multi-table array is bitwise identical to reducing them in
  ``t``'s own array (the segment boundaries are the same, the surrounding
  data is irrelevant), which is what makes the fused arena path bitwise
  equal to the per-table path;
* **determinism** — results are independent of how a global batch was
  built or split, because the reduction order is a function of the jagged
  layout only.

``np.add.reduceat`` has one sharp edge: for a *empty* segment (equal
adjacent offsets ``i == j``) it returns ``a[i]`` instead of an empty sum,
and a trailing empty segment's start index can equal ``len(a)``, which is
out of range. :func:`segment_sum` handles both explicitly by reducing
only the non-empty segments (their starts are always in range) and
leaving empty bags at zero; the short-segment kernel shares that
contract.

The sparse-gradient merge
-------------------------

:func:`merge_sorted_coo` is the backward half: the exact optimizers'
sort-rows-and-merge-duplicates step (paper Section 4.1.2). Its input is a
gradient in *bag form* — ``N`` row ids plus the ``(B, D)`` pooled-output
gradient and each entry's bag id — because every entry's value is a copy
of its bag's vector. Ranking the ``B`` bag vectors once
(:func:`rank_bags`) turns the canonical ``(row, g[0..D-1])`` float order
into one int64 sort key per entry, and the merge never materialises the
``(N, D)`` per-entry gradient: its segment-sum reads each sorted entry's
bag vector straight from ``bag_grad``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "segment_sum",
    "segment_sum_gather",
    "mean_pool",
    "expand_bag_ids",
    "rebase_jagged",
    "rank_bags",
    "merge_sorted_coo",
]

# Scratch budget of one tile of the fused gather+reduce kernel, in bytes
# (the tile's row count follows from D). An L2-resident tile is the whole
# point: gathering the full concatenated batch into one huge intermediate
# array spills every tile to DRAM and runs ~4x slower (measured in
# BENCH_fused_kernel.json's trajectory). Sizing in rows instead tuned the
# tile for D=16 only: 8192 rows are 512 KB at D=16 but 2.9 MB at D=89,
# where 5 200 bags took 7.6 ms against 6.0 ms with 256 KB tiles; D=16 is
# flat (1.4 ms) across 128 KB..512 KB. FBGEMM's batched TBE kernel blocks
# its gathers the same way.
_GATHER_TILE_BYTES = 256 * 1024
# Up to this many bytes of gathered rows, the default kernel gathers the
# whole batch at once: it fits in L2 anyway, and the tile loop then only
# adds overhead. Measured single-threaded on a 2 MB-per-core-L2 Xeon,
# untiled/tiled: 0.77x at 323 KB (D=16, 512 bags of 10), 0.87x at 1.0 MB
# (D=64), 1.5x at 2.0 MB (D=256, 1 024 bags of 2).
_GATHER_WHOLE_BYTES = 1024 * 1024
_INT64_MAX = int(np.iinfo(np.int64).max)
# numpy's pairwise_sum adds a run of fewer than 8 elements left to right;
# a segment's tail is every row but its first, so segments of up to 8
# rows are summed left to right.
_SHORT_ROWS = 8
_POSITIONS = np.arange(_SHORT_ROWS, dtype=np.int64)
# Fewest (short segments x columns) for which summing short segments
# position by position beats reduceat (docs/performance.md, "Sum short
# segments in numpy's own order").
_SHORT_MIN_WORK = 11264


def expand_bag_ids(lengths: np.ndarray) -> np.ndarray:
    """Per-element bag ids for a jagged batch: ``[0]*L0 + [1]*L1 + ...``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def _pairwise_start() -> np.float32:
    """The value numpy's ``pairwise_sum`` starts a short sum from.

    ``reduceat`` sums two rows as ``a0 + (s + a1)``: on ``[-0.0, -0.0]``
    that keeps the sign bit only if ``s`` is ``-0.0``.
    """
    probe = np.add.reduceat(np.full((2, 1), -0.0, dtype=np.float32), [0],
                            axis=0)
    return np.float32(-0.0 if np.signbit(probe[0, 0]) else 0.0)


_PAIRWISE_START = _pairwise_start()


def _segment_reduce(storage: np.ndarray, rows: Optional[np.ndarray],
                    starts: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.add.reduceat(storage[rows], starts, axis=0)``, bit for bit on
    every sum that is not NaN.

    ``rows=None`` reduces ``storage`` itself. ``starts`` are strictly
    increasing and in range, so every segment is non-empty and the last
    one runs to the end of the rows. Returns ``out`` if given (written
    in place, cast to its dtype), else a new array of ``storage``'s dtype.

    numpy adds a segment's tail (every row after the first) to the first
    row with ``pairwise_sum``, which adds fewer than 8 elements left to
    right from ``_PAIRWISE_START``, one strided call per column. So a
    segment of at most ``_SHORT_ROWS`` rows is
    ``a0 + (((s + a1) + a2) + ...)``, and this kernel adds exactly that,
    position by position, over all such segments at once: the segments
    sorted longest first make "segments with more than ``k`` rows" a
    prefix. Longer segments go to ``reduceat`` on their own rows. That
    path pays a fixed ~25 numpy calls, so it runs only on float32 rows
    with at least ``_SHORT_MIN_WORK`` short segment x column sums;
    anything else is ``reduceat`` as a whole.
    """
    dim = storage.shape[1]
    num_short = 0
    if storage.dtype == np.float32 and len(starts) * dim >= _SHORT_MIN_WORK:
        lengths = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1] = (len(storage) if rows is None else len(rows)) \
            - starts[-1]
        clipped = np.minimum(lengths, _SHORT_ROWS + 1)
        counts = np.bincount(clipped, minlength=_SHORT_ROWS + 2)
        num_long = int(counts[-1])
        num_short = len(starts) - num_long
    if not num_short or num_short * dim < _SHORT_MIN_WORK:
        values = storage if rows is None else np.take(storage, rows, axis=0)
        summed = np.add.reduceat(values, starts, axis=0)
        if out is None:
            return summed
        out[...] = summed
        return out
    if out is None:
        out = np.empty((len(starts), dim), dtype=np.float32)
    # stable, longest first: key 0 for long segments, then 8, 7, ..., 1
    order = np.argsort((_SHORT_ROWS + 1 - clipped).astype(np.uint8),
                       kind="stable")
    if num_long:
        segs = order[:num_long]
        seg_len = lengths[segs]
        ends = np.cumsum(seg_len)
        pos = np.repeat(starts[segs] - (ends - seg_len), seg_len) \
            + np.arange(int(ends[-1]))
        out[segs] = np.add.reduceat(
            np.take(storage, pos if rows is None else rows[pos], axis=0),
            ends - seg_len, axis=0)
    segs = order[num_long:]
    # more_than[k]: short segments with more than k rows
    more_than = np.cumsum(counts[_SHORT_ROWS:0:-1])[::-1].tolist()
    width = sum(1 for m in more_than if m)  # the longest short segment
    # pos[k, i]: row k of short segment i (past its end: never read)
    pos = starts[segs] + _POSITIONS[:width, None]
    if rows is not None:
        pos = np.take(rows, pos, mode="clip")
    summed = np.take(storage, pos[0], axis=0)
    if width > 1:
        tail = np.take(storage, pos[1, :more_than[1]], axis=0)
        np.add(_PAIRWISE_START, tail, out=tail)
        for k in range(2, width):
            tail[:more_than[k]] += np.take(storage, pos[k, :more_than[k]],
                                           axis=0)
        head = summed[:more_than[1]]
        np.add(head, tail, out=head)
    out[segs] = summed
    return out


def _pool(storage: np.ndarray, rows: Optional[np.ndarray],
          offsets: np.ndarray, out: Optional[np.ndarray] = None
          ) -> np.ndarray:
    """:func:`segment_sum` of ``storage[rows]`` (``rows=None``: of
    ``storage``) without gathering the rows first on the short-segment
    path."""
    offsets = np.asarray(offsets, dtype=np.int64)
    num_bags = len(offsets) - 1
    if out is None:
        out = np.zeros((num_bags, storage.shape[1]), dtype=np.float32)
    else:
        out[:] = 0.0
    if num_bags <= 0 or (len(storage) if rows is None else len(rows)) == 0:
        return out
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if nonempty.all():
        _segment_reduce(storage, rows, starts, out=out)
    elif nonempty.any():
        # Non-empty starts are strictly below N, so they are in range;
        # each reduced segment ends at the next non-empty start (the empty
        # bags in between contribute no elements by construction).
        out[nonempty] = _segment_reduce(storage, rows, starts[nonempty])
    return out


def segment_sum(values: np.ndarray, offsets: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum jagged segments: ``out[b] = values[offsets[b]:offsets[b+1]].sum(0)``.

    ``values`` is ``(N, D)`` float32, ``offsets`` is the ``(B+1,)``
    EmbeddingBag offsets vector (monotone, ``offsets[0] == 0``,
    ``offsets[-1] == N``). Empty bags (equal adjacent offsets, including
    trailing ones whose start equals ``N``) yield exact zeros — the
    ``reduceat`` identity-element gap is handled here so no caller has to.
    Each bag is summed bitwise as ``np.add.reduceat`` sums it (see
    :func:`_segment_reduce`).
    """
    return _pool(values, None, offsets, out)


def segment_sum_gather(storage: np.ndarray, indices: np.ndarray,
                       offsets: np.ndarray,
                       tile_rows: Optional[int] = None) -> np.ndarray:
    """Fused gather + segment-sum: ``out[b] = storage[indices[ob:ob+1]].sum(0)``.

    The hot path of the arena megatable: one logical kernel that gathers
    ``storage`` rows through ``indices`` and pools them by the jagged
    ``offsets``, *tiled* over runs of whole bags so the gathered rows live
    in an L2-resident scratch buffer instead of a batch-sized intermediate.
    Tiles never split a bag, and a bag's sum depends only on its own
    rows, so the result is bitwise identical to
    ``segment_sum(storage[indices], offsets)`` for any tile size. By
    default a batch of at most ``_GATHER_WHOLE_BYTES`` gathered rows is
    one tile, whose short bags read their rows straight from ``storage``,
    and a larger one runs in tiles of ``_GATHER_TILE_BYTES``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    num_bags = len(offsets) - 1
    dim = storage.shape[1]
    if num_bags <= 0:
        return np.zeros((0, dim), dtype=np.float32)
    if tile_rows is None:
        if len(indices) * dim * 4 <= _GATHER_WHOLE_BYTES:
            return _pool(storage, np.asarray(indices, dtype=np.int64),
                         offsets)
        tile_rows = max(1, _GATHER_TILE_BYTES // (dim * 4))
    out = np.empty((num_bags, dim), dtype=np.float32)
    scratch = np.empty((tile_rows, dim), dtype=np.float32)
    bag = 0
    while bag < num_bags:
        # widest run of whole bags totalling <= tile_rows elements; a
        # single oversized bag becomes its own tile
        end_bag = int(np.searchsorted(offsets, offsets[bag] + tile_rows,
                                      side="right")) - 1
        if end_bag <= bag:
            end_bag = bag + 1
        e0, e1 = int(offsets[bag]), int(offsets[end_bag])
        n = e1 - e0
        tile = scratch[:n] if n <= tile_rows else \
            np.empty((n, dim), dtype=np.float32)
        np.take(storage, indices[e0:e1], axis=0, out=tile)
        _pool(tile, None, offsets[bag:end_bag + 1] - e0,
              out=out[bag:end_bag])
        bag = end_bag
    return out


def mean_pool(pooled: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Turn bag sums into means in place: ``pooled[b] /= max(L_b, 1)``, so
    an empty bag's zero stays zero. Returns ``pooled``."""
    pooled /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    return pooled


def rebase_jagged(inputs: Sequence[Tuple[np.ndarray, np.ndarray]],
                  bases: Sequence[int]
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-table jagged batches into one arena-global batch.

    ``inputs`` is a list of per-table ``(indices, offsets)`` pairs and
    ``bases[t]`` is table ``t``'s first row in the arena. Returns
    ``(global_indices, global_offsets, nnz_per_table)`` where
    ``global_indices[k] = indices[k] + base_of_its_table`` and
    ``global_offsets`` is the single jagged offsets vector over the
    concatenated bags (all of table 0's bags, then table 1's, ...).
    """
    if len(inputs) != len(bases):
        raise ValueError(
            f"{len(inputs)} jagged inputs but {len(bases)} base offsets")
    counts = np.array([len(idx) for idx, _ in inputs], dtype=np.int64)
    if not len(inputs):
        return (np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64),
                counts)
    gidx = np.concatenate(
        [np.asarray(idx, dtype=np.int64) for idx, _ in inputs])
    gidx += np.repeat(np.asarray(bases, dtype=np.int64), counts)
    parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    shift = 0
    for (idx, offsets), count in zip(inputs, counts):
        parts.append(np.asarray(offsets, dtype=np.int64)[1:] + shift)
        shift += int(count)
    return gidx, np.concatenate(parts), counts


def _tied(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise "the sort cannot order these": equal, or both NaN.

    The relation numpy's stable sorts tie on (``-0.0 == +0.0``, NaNs sort
    last and tie with each other), so it is an equivalence relation.
    """
    return (a == b) | ((a != a) & (b != b))


def rank_bags(bag_grad: np.ndarray) -> np.ndarray:
    """Each row's position in the stable lexicographic order of ``bag_grad``.

    Returns a ``(B,)`` int64 permutation of ``0..B-1``: ``ranks[b] <
    ranks[c]`` iff row ``b`` sorts before row ``c`` on ``(g[0], ...,
    g[D-1])`` under numpy's sort semantics, ties (equal vectors, ``±0.0``,
    NaNs) broken by row index — exactly the order a stable ``D``-key
    lexsort gives. :func:`merge_sorted_coo` keys each gradient entry on
    its bag's rank.

    Sort once, refine ties
    ----------------------

    A ``D``-key lexsort reaches that order with ``D`` full stable sorts,
    but almost every row is already placed after the first. So the kernel
    stable-sorts on ``g[0]`` only, and then walks the remaining columns
    *inside the runs that are still tied*:

    * a column on which every adjacent tied pair ties is skipped — all
      members of each run tie on it (ties are an equivalence relation),
      and a stable sort on an all-tied key is the identity;
    * otherwise every still-tied run is stable-sorted on that column and
      the pairs that now differ leave the tied set;
    * when the tied pairs tie on every remaining column the loop stops:
      the runs hold interchangeable vectors (dead-ReLU zero rows, two
      samples with the same upstream gradient), and every further stable
      sort would be the identity.

    A stable sort on ``(k_0..k_d)`` followed by a stable sort on
    ``k_{d+1}`` within its tied runs is the stable sort on
    ``(k_0..k_{d+1})``, so by induction the final permutation *is* the
    full lexsort's permutation.
    """
    n, dim = bag_grad.shape
    order = np.argsort(bag_grad[:, 0], kind="stable")
    sorted_vals = np.take(bag_grad, order, axis=0)
    # `later[k]` ties its predecessor on every column < d
    later = np.flatnonzero(_tied(sorted_vals[1:, 0], sorted_vals[:-1, 0])) + 1
    d = 1
    while len(later) and d < dim:
        differs = ~_tied(sorted_vals[later - 1, d:],
                         sorted_vals[later, d:]).all(axis=0)
        if not differs.any():
            break
        d += int(np.argmax(differs))
        tied = np.zeros(n, dtype=bool)
        tied[later] = True
        member = tied.copy()
        member[later - 1] = True
        members = np.flatnonzero(member)
        run_id = np.cumsum(~tied[members])
        refined = members[np.lexsort((sorted_vals[members, d], run_id))]
        sorted_vals[members] = sorted_vals[refined]
        order[members] = order[refined]
        later = later[_tied(sorted_vals[later - 1, d], sorted_vals[later, d])]
        d += 1
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


def merge_sorted_coo(rows: np.ndarray, bag_grad: np.ndarray,
                     bag_ids: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort a COO gradient by row and sum duplicates into one entry per row.

    The gradient comes in bag form: entry ``k`` is row ``rows[k]`` with
    gradient ``bag_grad[bag_ids[k]]``, where ``bag_grad`` is the ``(B, D)``
    pooled-output gradient every pooled backward produces (``N`` entries
    copy ``B << N`` distinct vectors). ``bag_ids=None`` is the identity
    map, i.e. the plain COO form ``(rows, values)``. Row ids are
    non-negative.

    The canonical total order is ``(row, g[0], ..., g[D-1])`` — float
    addition is not bitwise-commutative under reordering, so sorting by
    row alone would leave the within-row summation order dependent on
    input order. Ordering each row's entries by their gradient columns
    makes the merged result a pure function of the (row, grad) multiset —
    the determinism guarantee of paper Section 4.1.2. Because arena-global
    row ids are disjoint across tables, merging a whole dimension group at
    once yields bitwise the same per-table results as merging each table
    separately.

    Sort integers, not floats
    -------------------------

    Every entry's value is one of ``B`` bag vectors, so ordering entries
    by ``g[0..D-1]`` is ordering them by their bag's rank
    (:func:`rank_bags`, computed over ``B`` rows). The kernel therefore sorts one int64 key per entry,
    ``row * B + rank[bag_ids[k]]``, and recovers row and bag from the
    sorted key by ``divmod``. Keys tie only for one id twice in one bag,
    whose values are identical, so an unstable sort is exact; and because
    ranks break vector ties by bag index, for non-decreasing ``bag_ids``
    (every producer's layout) the result is the full lexsort's permutation
    — same sorted values, same sums, bit for bit
    (``tests/reference_kernels.py`` keeps the full lexsort as the oracle).
    If ``max(rows) * B`` would overflow int64, the kernel falls back to a
    two-key integer lexsort on ``(row, rank)`` — same order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(rows) == 0:
        return rows, np.zeros((0, bag_grad.shape[1]), dtype=np.float32)
    bag_ranks = rank_bags(bag_grad)
    num_bags = len(bag_grad)
    entry_ranks = bag_ranks if bag_ids is None else bag_ranks[bag_ids]
    if int(rows.max()) <= (_INT64_MAX - num_bags) // num_bags:
        key = rows * num_bags
        key += entry_ranks
        key.sort()
        sorted_rows, sorted_ranks = np.divmod(key, num_bags)
        bag_of_rank = np.empty(num_bags, dtype=np.int64)
        bag_of_rank[bag_ranks] = np.arange(num_bags, dtype=np.int64)
        sorted_bags = bag_of_rank[sorted_ranks]
    else:
        order = np.lexsort((entry_ranks, rows))
        sorted_rows = rows[order]
        sorted_bags = order if bag_ids is None else bag_ids[order]
    run_start = np.empty(len(rows), dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    merged = _segment_reduce(bag_grad, sorted_bags, starts)
    return (sorted_rows[starts],
            merged.astype(np.float32, copy=False))

"""Shared segment-reduce kernels for pooled embedding operators.

Every pooled lookup in this repository reduces a jagged batch — ``N``
gathered rows split into ``B`` bags by an ``offsets`` vector — into one
vector per bag. The seed implementation used ``np.add.at``, numpy's
generic indexed scatter-add, which processes one element per interpreter-
level iteration and is by far the slowest way to express this reduction.
These kernels express the same reduction as ``np.add.reduceat`` over
contiguous segments, which runs at memcpy-like speed, and are shared by
:class:`repro.embedding.EmbeddingTable`, the fused arena operator,
tensor-train tables, batch dedup and the cached tables.

Determinism and parity
----------------------

``np.add.reduceat`` reduces each segment with numpy's fixed pairwise
summation order, a pure function of the segment's contents and length.
Two consequences the tests rely on:

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
leaving empty bags at zero.

The sparse-gradient merge
-------------------------

:func:`merge_sorted_coo` is the backward half: the exact optimizers'
sort-rows-and-merge-duplicates step (paper Section 4.1.2). Its input is a
gradient in *bag form* — ``N`` row ids plus the ``(B, D)`` pooled-output
gradient and each entry's bag id — because every entry's value is a copy
of its bag's vector. Ranking the ``B`` bag vectors once
(:func:`rank_bags`) turns the canonical ``(row, g[0..D-1])`` float order
into one int64 sort key per entry, and the merge never materialises the
``(N, D)`` per-entry gradient before its single sorted gather.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "segment_sum",
    "segment_sum_gather",
    "segment_mean",
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


def expand_bag_ids(lengths: np.ndarray) -> np.ndarray:
    """Per-element bag ids for a jagged batch: ``[0]*L0 + [1]*L1 + ...``."""
    lengths = np.asarray(lengths, dtype=np.int64)
    return np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)


def segment_sum(values: np.ndarray, offsets: np.ndarray,
                out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum jagged segments: ``out[b] = values[offsets[b]:offsets[b+1]].sum(0)``.

    ``values`` is ``(N, D)`` float32, ``offsets`` is the ``(B+1,)``
    EmbeddingBag offsets vector (monotone, ``offsets[0] == 0``,
    ``offsets[-1] == N``). Empty bags (equal adjacent offsets, including
    trailing ones whose start equals ``N``) yield exact zeros — the
    ``reduceat`` identity-element gap is handled here so no caller has to.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    num_bags = len(offsets) - 1
    if out is None:
        out = np.zeros((num_bags, values.shape[1]), dtype=np.float32)
    else:
        out[:] = 0.0
    if num_bags <= 0 or len(values) == 0:
        return out
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if nonempty.all():
        out[:] = np.add.reduceat(values, starts, axis=0)
    elif nonempty.any():
        # Non-empty starts are strictly below N, so reduceat is in range;
        # each reduced segment ends at the next non-empty start (the empty
        # bags in between contribute no elements by construction).
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


def segment_sum_gather(storage: np.ndarray, indices: np.ndarray,
                       offsets: np.ndarray,
                       tile_rows: Optional[int] = None) -> np.ndarray:
    """Fused gather + segment-sum: ``out[b] = storage[indices[ob:ob+1]].sum(0)``.

    The hot path of the arena megatable: one logical kernel that gathers
    ``storage`` rows through ``indices`` and pools them by the jagged
    ``offsets``, *tiled* over runs of whole bags so the gathered rows live
    in an L2-resident scratch buffer instead of a batch-sized intermediate.
    Tiles never split a bag, and reduceat's within-segment order depends
    only on the segment contents, so the result is bitwise identical to
    ``segment_sum(storage[indices], offsets)`` for any tile size. By
    default a batch of at most ``_GATHER_WHOLE_BYTES`` gathered rows is
    that untiled form, and a larger one runs in tiles of
    ``_GATHER_TILE_BYTES``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    num_bags = len(offsets) - 1
    dim = storage.shape[1]
    if num_bags <= 0:
        return np.zeros((0, dim), dtype=np.float32)
    if tile_rows is None:
        if len(indices) * dim * 4 <= _GATHER_WHOLE_BYTES:
            return segment_sum(np.take(storage, indices, axis=0), offsets)
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
        starts = offsets[bag:end_bag] - e0
        if n == 0:
            out[bag:end_bag] = 0.0
        else:
            tile = scratch[:n] if n <= tile_rows else \
                np.empty((n, dim), dtype=np.float32)
            np.take(storage, indices[e0:e1], axis=0, out=tile)
            if bool((starts < np.append(starts[1:], n)).all()):
                np.add.reduceat(tile, starts, axis=0, out=out[bag:end_bag])
            else:  # empty bags inside the tile: identity-element handling
                segment_sum(tile, np.append(starts, n),
                            out=out[bag:end_bag])
        bag = end_bag
    return out


def segment_mean(values: np.ndarray, offsets: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """Mean-pool jagged segments; empty bags yield zeros (divide by 1)."""
    out = segment_sum(values, offsets, out=out)
    lengths = np.diff(np.asarray(offsets, dtype=np.int64))
    out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
    return out


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
    — same sorted values, same ``reduceat`` sums, bit for bit
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
    sorted_vals = np.take(bag_grad, sorted_bags, axis=0)
    run_start = np.empty(len(rows), dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    merged = np.add.reduceat(sorted_vals, starts, axis=0)
    return (sorted_rows[starts],
            merged.astype(np.float32, copy=False))

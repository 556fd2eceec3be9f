"""Reference kernels the product is tested against, never imported by it.

``looped_forward`` / ``looped_backward`` / ``looped_backward_and_update``
are the per-table loop ``FusedEmbeddingCollection`` used to offer as
its unfused mode: one :meth:`EmbeddingTable.forward` / ``backward`` /
optimizer step per table. The arena's single-dispatch fused kernels
must be bitwise identical to them (``test_embedding_arena.py``,
``test_property_fuzz.py``).

``forward_reference`` is the seed's ``np.add.at`` scatter lookup that
``EmbeddingTable.forward`` replaced: the slow parity oracle of the
arena suites and the ``legacy`` baseline ``bench_fused_kernel.py``
measures speedups against (run from the repository root with ``.`` on
``PYTHONPATH``). It leaves the table's saved state as a forward does,
so ``table.backward`` runs after it.

``segment_sum_reference`` is the ``np.add.reduceat`` form that
``repro.embedding.kernels.segment_sum`` used to be for every segment:
the product sums segments of up to 8 rows position by position in
numpy's own order and must return the same bits
(``test_embedding_kernels.py`` fuzzes it, and pins numpy's order).

``merge_sorted_coo_reference`` is the full ``(D+1)``-key lexsort merge
that ``repro.embedding.kernels.merge_sorted_coo`` used to be: one stable
sort per gradient column plus one on the row, over the per-entry
``(N, D)`` gradient. It defines the canonical ``(row, g[0], ...,
g[D-1])`` summation order. The product kernel takes the gradient in bag
form (``(B, D)`` bag vectors plus per-entry bag ids), ranks the ``B``
bag vectors once and reaches the same permutation with one int64 sort
on ``(row, bag rank)``; the suites in ``test_embedding_kernels.py`` /
``test_sparse_update_parity.py`` expand the bag form (``values[bag_ids]``)
and hold the product to bitwise equality with this oracle.

``bucketize_sparse_reference`` is a bucket-by-bucket mask loop (one
pass over all ids per bucket) that cuts one table's ids into row-range
buckets; the exchange's index pass (``SparseExchange._row_wise_payloads``)
sorts every row-wise table's ids once on the bucket and counts
``(bucket, bag)`` pairs once, and must send the same ids and lengths.

``to_dense_reference`` is the row-wise 2-D ``np.add.at`` scatter that
``SparseGradient.to_dense`` used to be; the product scatters once into
the flat ``(H*D,)`` buffer at ``row*D + col`` and must return the same
bits. ``relu_grad_reference`` is ``np.where(x > 0, dy, 0.0)``, which
``repro.nn.functional.relu_grad`` replaced with an integer bit mask.

``zipf_indices_reference`` is the sampler ``repro.data.zipf_indices``
used to be: ``np.searchsorted`` of the uniform draws (in sorted order)
into a freshly computed CDF. The product answers through a guide table
and must return the same ids for the same draws.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.embedding.kernels import mean_pool


def segment_sum_reference(values: np.ndarray, offsets: np.ndarray,
                          out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.add.reduceat`` over the non-empty segments; empty bags stay
    zero (reduceat would return ``values[start]`` for them)."""
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
        out[nonempty] = np.add.reduceat(values, starts[nonempty], axis=0)
    return out


def merge_sorted_coo_reference(rows: np.ndarray, values: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort by ``(row, every gradient column)``, sum each row's entries."""
    if len(rows) == 0:
        return rows.astype(np.int64), values.astype(np.float32)
    keys = tuple(values[:, d] for d in range(values.shape[1] - 1, -1, -1))
    order = np.lexsort(keys + (rows,))
    sorted_rows = rows[order]
    sorted_vals = values[order]
    unique_rows, starts = np.unique(sorted_rows, return_index=True)
    merged = np.add.reduceat(sorted_vals, starts, axis=0)
    return unique_rows.astype(np.int64), merged.astype(np.float32)


def forward_reference(table, indices: np.ndarray,
                      offsets: np.ndarray) -> np.ndarray:
    """``table``'s pooled lookup by one sequential ``np.add.at`` scatter
    of its rows into their bags. ``np.add.at`` accumulates strictly in
    entry order while the product uses numpy's pairwise segment order,
    so for bags longer than ~8 the two agree only to float32 rounding
    (the pairwise order is the more accurate one)."""
    indices = np.asarray(indices, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    table._validate(indices, offsets)
    batch = len(offsets) - 1
    lengths = np.diff(offsets)
    bag_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)
    out = np.zeros((batch, table.config.embedding_dim), dtype=np.float32)
    if len(indices):
        np.add.at(out, bag_ids, table.weight[indices])
    if table.config.pooling_mode == "mean":
        mean_pool(out, lengths)
    table._saved = (indices, bag_ids, lengths)
    return out


def looped_forward(tables: Sequence, batch: Dict[str, Tuple[np.ndarray,
                                                            np.ndarray]]
                   ) -> Dict[str, np.ndarray]:
    """Pooled lookup, one ``forward`` per table."""
    return {t.name: t.forward(*batch[t.name]) for t in tables}


def looped_backward(tables: Sequence, d_pooled: Dict[str, np.ndarray]
                    ) -> Dict:
    """Per-table sparse gradients, one ``backward`` per table."""
    return {t.name: t.backward(d_pooled[t.name]) for t in tables}


def looped_backward_and_update(tables: Sequence,
                               d_pooled: Dict[str, np.ndarray],
                               optimizer) -> None:
    """Backward + exact sparse optimizer step, one table at a time."""
    for t in tables:
        optimizer.step(t, t.backward(d_pooled[t.name]))


def bucketize_sparse_reference(indices: np.ndarray, lengths: np.ndarray,
                               boundaries: Sequence[int]
                               ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """One masked pass per bucket: ids rebased to the bucket, lengths
    counted per bag."""
    indices = np.asarray(indices, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    boundaries = np.asarray(list(boundaries), dtype=np.int64)
    bag_ids = np.repeat(np.arange(len(lengths), dtype=np.int64), lengths)
    bucket_of = np.searchsorted(boundaries, indices, side="right") - 1
    out = []
    for k in range(len(boundaries) - 1):
        mask = bucket_of == k
        out.append((indices[mask] - boundaries[k],
                    np.bincount(bag_ids[mask],
                                minlength=len(lengths)).astype(np.int64)))
    return out


def zipf_indices_reference(num_ids: int, size: int, rng,
                           alpha: float = 1.05) -> np.ndarray:
    """Inverse-CDF Zipf ids: ``searchsorted`` of sorted uniform draws,
    scattered back to draw order."""
    if size == 0:
        return np.zeros(0, dtype=np.int64)
    cdf = np.cumsum(np.arange(1, num_ids + 1, dtype=np.float64) ** (-alpha))
    cdf /= cdf[-1]
    u = rng.random(size)
    order = np.argsort(u)
    out = np.empty(size, dtype=np.int64)
    out[order] = np.searchsorted(cdf, u[order])
    return out


def to_dense_reference(grad) -> np.ndarray:
    """Densify a ``SparseGradient`` with one 2-D ``np.add.at`` over its
    per-entry rows (each entry adds its whole row in entry order)."""
    dense = np.zeros((grad.num_embeddings, grad.values.shape[1]),
                     dtype=np.float32)
    np.add.at(dense, grad.rows, grad.entry_values())
    return dense


def relu_grad_reference(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return np.where(x > 0.0, dy, 0.0)

"""Tensor-Train compressed embedding tables (TT-Rec [59], Section 4.1.4).

A table of shape ``(H, D)`` with ``H = h_1 * ... * h_K`` and
``D = d_1 * ... * d_K`` is represented by ``K`` cores
``G_k`` of shape ``(h_k, r_{k-1}, d_k, r_k)`` with ``r_0 = r_K = 1``.
Row ``i`` decomposes into mixed-radix digits ``(i_1, ..., i_K)`` and
materializes as the contraction of the per-digit core slices — memory drops
from ``H*D`` to ``sum_k h_k * r_{k-1} * d_k * r_k``, often orders of
magnitude, at the cost of extra FLOPs per lookup.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import check
from .kernels import segment_sum

__all__ = ["TTEmbeddingTable", "factorize_dims", "tt_decompose"]


def factorize_dims(value: int, num_factors: int) -> Tuple[int, ...]:
    """Factor ``value`` into ``num_factors`` roughly equal integer factors.

    Pads with 1s if value has too few prime factors; the product always
    equals ``value`` exactly (callers should pad their tables to a
    convenient cardinality, as TT-Rec does).
    """
    check.count("value", value)
    check.count("num_factors", num_factors)
    factors = [1] * num_factors
    remaining = value
    # greedy: repeatedly split off the factor closest to the ideal root
    for k in range(num_factors - 1):
        ideal = round(remaining ** (1.0 / (num_factors - k)))
        best = 1
        for cand in range(max(ideal, 1), 0, -1):
            if remaining % cand == 0:
                best = cand
                break
        factors[k] = best
        remaining //= best
    factors[-1] = remaining
    return tuple(factors)


def tt_decompose(weight: np.ndarray, ranks: Sequence[int] = (8, 8),
                 row_factors: Optional[Sequence[int]] = None,
                 dim_factors: Optional[Sequence[int]] = None
                 ) -> List[np.ndarray]:
    """TT-SVD of a trained ``(H, D)`` table into :class:`TTEmbeddingTable`
    cores ``G_k`` of shape ``(h_k, r_{k-1}, d_k, r_k)``.

    Sequential truncated SVD over the interleaved ``(h_1, d_1, ..., h_K,
    d_K)`` tensor; requested ranks are clamped to the matrix ranks of the
    unfoldings, so asking for a rank at least ``min(H, D)`` reproduces the
    input exactly (up to fp32 rounding). Deterministic for a given input.
    """
    weight = np.asarray(weight)
    if weight.ndim != 2:
        raise ValueError("weight must be a 2-D (H, D) array")
    num_rows, dim = weight.shape
    k = len(ranks) + 1
    row_factors = tuple(row_factors) if row_factors else \
        factorize_dims(num_rows, k)
    dim_factors = tuple(dim_factors) if dim_factors else \
        factorize_dims(dim, k)
    if math.prod(row_factors) != num_rows or math.prod(dim_factors) != dim:
        raise ValueError("factors must multiply to the table shape")
    # reshape to (h_1..h_K, d_1..d_K) and interleave to (h_1, d_1, ...)
    tensor = weight.astype(np.float64).reshape(*row_factors, *dim_factors)
    perm: List[int] = []
    for i in range(k):
        perm.extend((i, k + i))
    tensor = tensor.transpose(perm)
    modes = [row_factors[i] * dim_factors[i] for i in range(k)]
    cores: List[np.ndarray] = []
    carry = tensor.reshape(1, -1)
    r_prev = 1
    for i in range(k - 1):
        mat = carry.reshape(r_prev * modes[i], -1)
        u, s, vt = np.linalg.svd(mat, full_matrices=False)
        r = int(min(ranks[i], len(s)))
        core = u[:, :r].reshape(r_prev, row_factors[i], dim_factors[i], r)
        cores.append(core.transpose(1, 0, 2, 3).astype(np.float32))
        carry = s[:r, None] * vt[:r]
        r_prev = r
    last = carry.reshape(r_prev, row_factors[-1], dim_factors[-1], 1)
    cores.append(last.transpose(1, 0, 2, 3).astype(np.float32))
    return cores


class TTEmbeddingTable:
    """Embedding table stored as a tensor train; trains its cores with SGD.

    Unlike a plain table there are no per-row parameters, so exact sparse
    row optimizers don't apply; gradients accumulate on the cores and
    :meth:`apply_gradients` performs the update (the TT-Rec training mode).
    """

    def __init__(self, name: str, num_embeddings: int, embedding_dim: int,
                 ranks: Sequence[int] = (8, 8),
                 row_factors: Optional[Sequence[int]] = None,
                 dim_factors: Optional[Sequence[int]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        k = len(ranks) + 1
        self.name = name
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.row_factors = tuple(row_factors) if row_factors else \
            factorize_dims(num_embeddings, k)
        self.dim_factors = tuple(dim_factors) if dim_factors else \
            factorize_dims(embedding_dim, k)
        if len(self.row_factors) != k or len(self.dim_factors) != k:
            raise ValueError("row/dim factors must have len(ranks)+1 entries")
        if math.prod(self.row_factors) != num_embeddings:
            raise ValueError(
                f"row_factors {self.row_factors} do not multiply to "
                f"{num_embeddings}")
        if math.prod(self.dim_factors) != embedding_dim:
            raise ValueError(
                f"dim_factors {self.dim_factors} do not multiply to "
                f"{embedding_dim}")
        self.ranks = (1,) + tuple(ranks) + (1,)
        rng = rng if rng is not None else np.random.default_rng(0)
        # scale init so materialized rows have variance comparable to 1/H
        scale = (1.0 / math.sqrt(num_embeddings)) ** (1.0 / k)
        self.cores: List[np.ndarray] = []
        for i in range(k):
            shape = (self.row_factors[i], self.ranks[i], self.dim_factors[i],
                     self.ranks[i + 1])
            self.cores.append(
                rng.normal(0.0, scale, size=shape).astype(np.float32))
        self.core_grads: List[Optional[np.ndarray]] = [None] * k
        self._saved: Optional[tuple] = None

    @classmethod
    def from_weight(cls, name: str, weight: np.ndarray,
                    ranks: Sequence[int] = (8, 8),
                    row_factors: Optional[Sequence[int]] = None,
                    dim_factors: Optional[Sequence[int]] = None
                    ) -> "TTEmbeddingTable":
        """Build a TT table approximating a trained ``(H, D)`` weight via
        :func:`tt_decompose` (ranks clamp to the unfoldings' ranks)."""
        cores = tt_decompose(weight, ranks=ranks, row_factors=row_factors,
                             dim_factors=dim_factors)
        table = cls(name, weight.shape[0], weight.shape[1],
                    ranks=[c.shape[3] for c in cores[:-1]],
                    row_factors=[c.shape[0] for c in cores],
                    dim_factors=[c.shape[2] for c in cores])
        table.cores = cores
        return table

    # ------------------------------------------------------------------
    # index arithmetic
    # ------------------------------------------------------------------
    def _digits(self, indices: np.ndarray) -> List[np.ndarray]:
        """Row-major mixed-radix decomposition of row ids into core digits."""
        digits = []
        remainder = indices.astype(np.int64)
        for k in range(len(self.row_factors)):
            radix = math.prod(self.row_factors[k + 1:]) or 1
            digits.append(remainder // radix)
            remainder = remainder % radix
        return digits

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def rows(self, indices: np.ndarray) -> np.ndarray:
        """Materialize rows for ``indices``: shape (N, D)."""
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and (indices.min() < 0
                             or indices.max() >= self.num_embeddings):
            raise IndexError(f"indices out of range for H={self.num_embeddings}")
        if not len(indices):  # a (0, -1, r) reshape would be ambiguous
            self._saved = (indices, [], [], [])
            return np.zeros((0, self.embedding_dim), dtype=np.float32)
        digits = self._digits(indices)
        slices = [core[dig] for core, dig in zip(self.cores, digits)]
        # left partials: L_k has shape (N, prod(d_1..d_k), r_k)
        lefts = []
        n = len(indices)
        left = slices[0].reshape(n, self.dim_factors[0], self.ranks[1])
        lefts.append(left)
        for k in range(1, len(slices)):
            left = np.einsum("nep,npdq->nedq", left, slices[k])
            left = left.reshape(n, -1, self.ranks[k + 1])
            lefts.append(left)
        self._saved = (indices, digits, slices, lefts)
        return lefts[-1].reshape(n, self.embedding_dim).astype(np.float32)

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Pooled (sum) lookup matching :class:`EmbeddingTable.forward`."""
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        rows = self.rows(indices)
        batch = len(offsets) - 1
        lengths = np.diff(offsets)
        bag_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)
        out = segment_sum(rows, offsets) if len(indices) else \
            np.zeros((batch, self.embedding_dim), dtype=np.float32)
        self._pool_saved = (bag_ids, len(indices))
        return out

    def backward_pooled(self, d_pooled: np.ndarray) -> None:
        """Backward through pooling then into the cores."""
        bag_ids, nnz = self._pool_saved
        d_rows = d_pooled[bag_ids].astype(np.float32) if nnz else \
            np.zeros((0, self.embedding_dim), dtype=np.float32)
        self.backward_rows(d_rows)

    def backward_rows(self, d_rows: np.ndarray) -> None:
        """Accumulate core gradients for the last :meth:`rows` call."""
        if self._saved is None:
            raise RuntimeError("backward called before forward")
        indices, digits, slices, lefts = self._saved
        n = len(indices)
        k_cores = len(self.cores)
        if n == 0:
            return
        # right partials: R_k has shape (N, r_{k-1}, prod(d_k..d_K))
        rights: List[np.ndarray] = [None] * (k_cores + 1)
        rights[k_cores] = np.ones((n, 1, 1), dtype=np.float32)
        for k in range(k_cores - 1, -1, -1):
            nxt = rights[k + 1]
            r = np.einsum("npdq,nqf->npdf", slices[k], nxt)
            rights[k] = r.reshape(n, self.ranks[k], -1)
        for k in range(k_cores):
            if k == 0:
                left = np.ones((n, 1, 1), dtype=np.float32)
            else:
                left = lefts[k - 1]  # (n, E, r_k)
            e_dim = left.shape[1]
            f_dim = rights[k + 1].shape[2]
            g = d_rows.reshape(n, e_dim, self.dim_factors[k], f_dim)
            d_slice = np.einsum("nep,nedf,nqf->npdq", left, g, rights[k + 1])
            if self.core_grads[k] is None:
                self.core_grads[k] = np.zeros_like(self.cores[k])
            np.add.at(self.core_grads[k], digits[k], d_slice.astype(np.float32))

    def apply_gradients(self, lr: float) -> None:
        """SGD step on the cores, then clear accumulated gradients."""
        for k, grad in enumerate(self.core_grads):
            if grad is not None:
                self.cores[k] -= (lr * grad).astype(np.float32)
        self.core_grads = [None] * len(self.cores)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def num_parameters(self) -> int:
        return sum(c.size for c in self.cores)

    def full_parameters(self) -> int:
        return self.num_embeddings * self.embedding_dim

    def compression_ratio(self) -> float:
        return self.full_parameters() / self.num_parameters()

    def materialize(self) -> np.ndarray:
        """Expand the full (H, D) table — tests/small tables only."""
        return self.rows(np.arange(self.num_embeddings))

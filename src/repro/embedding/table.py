"""Embedding tables with pooled (EmbeddingBag-style) lookup.

An embedding table of shape ``(H, D)`` maps categorical ids to dense
vectors; a pooled lookup reduces the ``L`` ids of each sample ("bag") into a
single vector. This is the memory-bandwidth-bound operator at the heart of
DLRM (Section 4.1 of the paper).

Inputs use the jagged ``(indices, offsets)`` layout of
``torch.nn.EmbeddingBag``: ``indices`` concatenates all ids, ``offsets[b]``
is the start of bag ``b`` and has length ``B + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kernels import expand_bag_ids, mean_pool, segment_sum_gather

__all__ = ["EmbeddingTableConfig", "SparseGradient", "EmbeddingTable",
           "lengths_to_offsets", "offsets_to_lengths", "validate_offsets",
           "validate_bags"]


def lengths_to_offsets(lengths: np.ndarray) -> np.ndarray:
    """Convert per-bag lengths to the (B+1)-element offsets vector."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def offsets_to_lengths(offsets: np.ndarray) -> np.ndarray:
    return np.diff(offsets).astype(np.int64)


def validate_offsets(offsets: np.ndarray, num_indices: int) -> None:
    """The frame of a jagged batch: ``offsets`` must be a 1-D ``(B+1,)``
    vector that starts at 0 and ends at ``num_indices`` (``ValueError``
    otherwise). :func:`validate_bags` runs it first; a caller that
    concatenates several batches runs it on each part."""
    if offsets.ndim != 1 or len(offsets) < 1:
        raise ValueError("offsets must be a 1-D array of length B+1")
    if offsets[0] != 0 or offsets[-1] != num_indices:
        raise ValueError(
            f"offsets must start at 0 and end at len(indices)="
            f"{num_indices}, got [{offsets[0]}, {offsets[-1]}]")


def validate_bags(indices: np.ndarray, offsets: np.ndarray, num_rows: int,
                  name: str) -> None:
    """The one input check every pooled lookup runs before it reads a row.

    ``offsets`` must be a non-decreasing ``(B+1,)`` vector from 0 to
    ``len(indices)`` (``ValueError`` otherwise) and every id must lie in
    ``[0, num_rows)`` (``IndexError``). Hot, cold and TT tables share it,
    so a malformed bag is rejected the same way on every table kind and
    before any cache or backing-store traffic.
    """
    validate_offsets(offsets, len(indices))
    if (offsets[1:] < offsets[:-1]).any():
        raise ValueError(f"offsets for table {name} must be non-decreasing")
    if len(indices) and (indices.min() < 0 or indices.max() >= num_rows):
        raise IndexError(
            f"indices out of range for table {name} with H={num_rows}")


@dataclass(frozen=True)
class EmbeddingTableConfig:
    """Static description of one embedding table.

    ``avg_pooling`` (the paper's ``L``) and ``batch_hotness`` only feed the
    sharding cost model and the performance model; the functional path uses
    whatever indices it is given.
    """

    name: str
    num_embeddings: int  # H
    embedding_dim: int   # D
    avg_pooling: float = 1.0  # L
    pooling_mode: str = "sum"
    precision: str = "fp32"

    def __post_init__(self) -> None:
        if self.num_embeddings <= 0:
            raise ValueError(f"num_embeddings must be positive: {self}")
        if self.embedding_dim <= 0:
            raise ValueError(f"embedding_dim must be positive: {self}")
        if self.pooling_mode not in ("sum", "mean"):
            raise ValueError(f"pooling_mode must be 'sum' or 'mean': {self}")

    @property
    def num_parameters(self) -> int:
        return self.num_embeddings * self.embedding_dim

    def memory_bytes(self, precision: Optional[str] = None) -> int:
        from .. import lowp
        return self.num_parameters * lowp.bytes_per_element(
            precision or self.precision)


@dataclass
class SparseGradient:
    """Gradient of a pooled lookup w.r.t. table rows, in bag form.

    Entry ``k`` is row ``rows[k]`` receiving gradient
    ``values[bag_ids[k]]``: a pooled backward hands every id of a bag the
    same vector, so ``values`` holds the ``(B, D)`` per-bag gradients and
    the ``(nnz, D)`` per-entry array is never built on the hot path.
    ``bag_ids=None`` is the identity map (``values`` is per-entry, the
    plain COO form). The same row may appear multiple times — exact
    optimizers merge duplicates before updating (Section 4.1.2).
    """

    rows: np.ndarray          # (nnz,) int64
    values: np.ndarray        # (B, D) float32; (nnz, D) if bag_ids is None
    num_embeddings: int = 0   # H, for densification
    bag_ids: Optional[np.ndarray] = None  # (nnz,) int64

    def entry_values(self) -> np.ndarray:
        """The per-entry ``(nnz, D)`` gradient (a copy in bag form)."""
        if self.bag_ids is None:
            return self.values
        return np.take(self.values, self.bag_ids, axis=0)

    def to_dense(self) -> np.ndarray:
        """Scatter-add into a dense (H, D) gradient (reference semantics).

        One 1-D ``np.add.at`` at flat positions ``row * D + col`` (numpy's
        fast path; the 2-D call is several times slower). Entries reach
        each element in entry order, as in the row-wise scatter, so the
        sums are bitwise the same."""
        if self.num_embeddings <= 0:
            raise ValueError("num_embeddings must be set to densify")
        dim = self.values.shape[1]
        dense = np.zeros(self.num_embeddings * dim, dtype=np.float32)
        flat = (np.asarray(self.rows, dtype=np.int64) * dim)[:, None] \
            + np.arange(dim, dtype=np.int64)
        np.add.at(dense, flat.reshape(-1),
                  self.entry_values().reshape(-1))
        return dense.reshape(self.num_embeddings, dim)


def pooled_backward(table, dy: np.ndarray) -> SparseGradient:
    """Backward of a pooled lookup, shared by every pooled table type.

    Reads ``table._saved = (indices, bag_ids, lengths)`` from the last
    forward (deriving and caching ``bag_ids`` on first use) and returns
    the bag-form gradient. Mean pooling divides the ``(B, D)`` matrix by
    the bag lengths once — bitwise the per-entry division.
    """
    if table._saved is None:
        raise RuntimeError("backward called before forward")
    indices, bag_ids, lengths = table._saved
    if bag_ids is None:
        bag_ids = expand_bag_ids(lengths)
        table._saved = (indices, bag_ids, lengths)
    values = np.ascontiguousarray(dy, dtype=np.float32)
    if table.config.pooling_mode == "mean":
        values = mean_pool(values.copy(), lengths)
    return SparseGradient(rows=indices, values=values,
                          num_embeddings=table.config.num_embeddings,
                          bag_ids=bag_ids)


class EmbeddingTable:
    """One embedding table with pooled lookup and explicit sparse backward."""

    def __init__(self, config: EmbeddingTableConfig,
                 rng: Optional[np.random.Generator] = None,
                 weight: Optional[np.ndarray] = None) -> None:
        self.config = config
        if weight is not None:
            if weight.shape != (config.num_embeddings, config.embedding_dim):
                raise ValueError(
                    f"weight shape {weight.shape} does not match config "
                    f"({config.num_embeddings}, {config.embedding_dim})")
            self.weight = weight.astype(np.float32, copy=True)
        else:
            rng = rng if rng is not None else np.random.default_rng(0)
            # DLRM reference init: uniform in +-1/sqrt(H)
            limit = 1.0 / np.sqrt(config.num_embeddings)
            self.weight = rng.uniform(
                -limit, limit,
                size=(config.num_embeddings, config.embedding_dim),
            ).astype(np.float32)
        self._saved: Optional[tuple] = None

    @property
    def name(self) -> str:
        return self.config.name

    def _validate(self, indices: np.ndarray, offsets: np.ndarray) -> None:
        validate_bags(indices, offsets, self.config.num_embeddings,
                      self.name)

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        """Pooled lookup: returns (B, D) with B = len(offsets) - 1.

        One gather + segment-reduce (``segment_sum_gather``: ``np.take``
        and numpy's own segment order, in L2-sized tiles of whole bags
        when the gathered rows outgrow L2), the CPU analogue of the paper's
        batched FBGEMM lookup. Bag ids for the backward pass are
        derived lazily — the forward hot path never materializes a
        scatter index.
        """
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        self._validate(indices, offsets)
        lengths = np.diff(offsets)
        out = segment_sum_gather(self.weight, indices, offsets)
        if self.config.pooling_mode == "mean":
            mean_pool(out, lengths)
        self._saved = (indices, None, lengths)
        return out

    def forward_reference(self, indices: np.ndarray,
                          offsets: np.ndarray) -> np.ndarray:
        """Seed ``np.add.at`` scatter implementation, kept as the slow
        reference: the parity oracle for kernel tests and the baseline the
        ``bench_fused_kernel`` trajectory measures speedups against.

        Note ``np.add.at`` accumulates strictly sequentially while
        :func:`~repro.embedding.kernels.segment_sum` uses numpy's pairwise
        reduction order, so for bags longer than ~8 the two are equal only
        to float32 rounding (the pairwise order is the more accurate one).
        """
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        self._validate(indices, offsets)
        batch = len(offsets) - 1
        lengths = np.diff(offsets)
        bag_ids = np.repeat(np.arange(batch, dtype=np.int64), lengths)
        out = np.zeros((batch, self.config.embedding_dim), dtype=np.float32)
        if len(indices):
            np.add.at(out, bag_ids, self.weight[indices])
        if self.config.pooling_mode == "mean":
            mean_pool(out, lengths)
        self._saved = (indices, bag_ids, lengths)
        return out

    def backward(self, dy: np.ndarray) -> SparseGradient:
        """Gradient w.r.t. rows touched in the last forward pass."""
        return pooled_backward(self, dy)

    def num_parameters(self) -> int:
        return self.config.num_parameters

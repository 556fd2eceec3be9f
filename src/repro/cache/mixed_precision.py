"""Mixed-precision embedding storage: a high-precision cache backed by
low-precision tables (paper Section 4.1.4, ref [57]).

Storing tables in FP16/INT8 halves/quarters memory, but *training* through
low precision loses small updates: a gradient step of 1e-4 on a weight of
1.0 rounds away entirely in fp16 (ULP at 1.0 is ~5e-4). The Yang et al.
design fixes this for the rows that matter: hot rows live in a small FP32
software cache where updates accumulate at full precision; only on
eviction is the accumulated value rounded once into the low-precision
backing store. Cold rows — touched rarely — lose at most one rounding per
touch, which is exactly the error profile the paper reports as training-
quality-neutral.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import lowp
from ..embedding.kernels import segment_sum
from ..embedding.optim import merge_duplicate_rows
from ..embedding.table import (EmbeddingTableConfig, SparseGradient,
                               pooled_backward)
from .api import make_cache
from .backing import ArrayBackingStore

__all__ = ["LowPrecisionBackingStore", "MixedPrecisionEmbeddingTable"]


class LowPrecisionBackingStore(ArrayBackingStore):
    """A backing store whose rows round through a storage precision.

    Reads dequantize to FP32; writes re-round. ``storage_bytes`` reports
    the true low-precision footprint.
    """

    def __init__(self, rows: np.ndarray, precision: str = "fp16") -> None:
        if precision not in ("fp16", "bf16", "int8"):
            raise ValueError(
                f"precision must be fp16/bf16/int8, got {precision!r}")
        self.precision = precision
        super().__init__(self._roundtrip(np.asarray(rows,
                                                    dtype=np.float32)))

    def _roundtrip(self, values: np.ndarray) -> np.ndarray:
        if self.precision == "fp16":
            return lowp.fp16_roundtrip(values)
        if self.precision == "bf16":
            return lowp.bf16_roundtrip(values)
        codes, scale, offset = lowp.quantize_int8_rowwise(values)
        return lowp.dequantize_int8_rowwise(codes, scale, offset)

    def write_rows(self, row_ids: np.ndarray, values: np.ndarray) -> None:
        super().write_rows(row_ids, self._roundtrip(
            np.asarray(values, dtype=np.float32)))

    def storage_bytes(self) -> int:
        per_elem = lowp.bytes_per_element(self.precision)
        base = self.rows.size * per_elem
        if self.precision == "int8":
            base += self.num_rows * 8  # per-row scale + offset
        return base


class MixedPrecisionEmbeddingTable:
    """Pooled-lookup table with an FP32 cache over low-precision storage.

    Functionally mirrors :class:`repro.embedding.EmbeddingTable`
    (forward/backward contract) with an :meth:`sgd_step` that
    read-modify-writes *through the cache*, so consecutive small updates
    to hot rows accumulate at FP32 and round only on eviction/flush.
    """

    def __init__(self, config: EmbeddingTableConfig,
                 cache_rows: int = 1024, ways: int = 32,
                 precision: str = "fp16",
                 rng: Optional[np.random.Generator] = None,
                 weight: Optional[np.ndarray] = None) -> None:
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(0)
        if weight is None:
            limit = 1.0 / np.sqrt(config.num_embeddings)
            weight = rng.uniform(
                -limit, limit,
                size=(config.num_embeddings, config.embedding_dim))
        self.backing = LowPrecisionBackingStore(weight, precision=precision)
        if cache_rows < ways:
            raise ValueError("cache_rows must be at least one set (ways)")
        self.cache = make_cache("set_associative",
                                row_dim=config.embedding_dim,
                                capacity_rows=cache_rows, ways=ways)
        self._saved: Optional[tuple] = None

    @property
    def name(self) -> str:
        return self.config.name

    def forward(self, indices: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.diff(offsets)
        rows = self.cache.read(indices, self.backing) if len(indices) else \
            np.zeros((0, self.config.embedding_dim), dtype=np.float32)
        out = segment_sum(rows, offsets)
        if self.config.pooling_mode == "mean":
            out /= np.maximum(lengths, 1).astype(np.float32)[:, None]
        self._saved = (indices, None, lengths)
        return out

    def backward(self, dy: np.ndarray) -> SparseGradient:
        return pooled_backward(self, dy)

    def sgd_step(self, grad: SparseGradient, lr: float) -> None:
        """Exact merged SGD through the FP32 cache."""
        rows, merged = merge_duplicate_rows(grad.rows, grad.values,
                                            grad.bag_ids)
        if len(rows) == 0:
            return
        current = self.cache.read(rows, self.backing)
        self.cache.write(rows, current - lr * merged, self.backing)

    def checkpoint(self) -> np.ndarray:
        """Flush dirty cached rows (one rounding) and return the table."""
        self.cache.flush(self.backing)
        return self.backing.rows.copy()

    def memory_bytes(self) -> int:
        """Total footprint: low-precision store + FP32 cache."""
        cache_bytes = self.cache.capacity_rows \
            * self.config.embedding_dim * 4
        return self.backing.storage_bytes() + cache_bytes

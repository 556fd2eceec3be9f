"""Sparse input layouts: separate offsets-per-table vs the combined
lengths format (paper Section 4.4).

The legacy CPU reader emitted *two tensors per table* (offsets + indices),
so a DLRM with hundreds of tables moved ~a thousand small tensors to the
GPU per iteration — a dominant overhead on Zion. The co-designed
**combined format** concatenates everything into three tensors total
(lengths, indices, dense) regardless of table count:

* ``lengths`` — ``(T * B,)``, per-table-per-sample bag sizes (lengths, not
  offsets, so that concatenation needs no rebasing);
* ``indices`` — all ids, tables back to back.

Both directions of the conversion are provided, plus tensor-count and
transfer-cost accounting used by the ingestion benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .. import check
from ..embedding.table import lengths_to_offsets, offsets_to_lengths

__all__ = ["SeparateFormat", "CombinedFormat", "host_transfer_time"]

# Host-to-device copy bandwidths (bytes/s): pinned memory enables DMA at
# full PCIe rate; pageable memory pays an extra staging copy.
_PINNED_BW = 12e9
_PAGEABLE_BW = 6e9
_PER_TENSOR_OVERHEAD_S = 10e-6  # launch + driver overhead per transfer


@dataclass
class SeparateFormat:
    """Legacy layout: one (indices, offsets) pair per table."""

    tables: Dict[str, Tuple[np.ndarray, np.ndarray]]

    @property
    def num_tensors(self) -> int:
        return 2 * len(self.tables)

    @property
    def total_bytes(self) -> int:
        return sum(ids.nbytes + offs.nbytes
                   for ids, offs in self.tables.values())

    def to_combined(self, table_order: Sequence[str]) -> "CombinedFormat":
        if set(table_order) != set(self.tables):
            raise ValueError("table_order must cover exactly the tables")
        lengths_parts = []
        indices_parts = []
        batch = None
        for name in table_order:
            indices, offsets = self.tables[name]
            b = len(offsets) - 1
            if batch is None:
                batch = b
            elif b != batch:
                raise ValueError(
                    f"table {name} batch {b} != {batch}")
            lengths_parts.append(offsets_to_lengths(offsets))
            indices_parts.append(np.asarray(indices, dtype=np.int64))
        return CombinedFormat(
            table_names=list(table_order),
            batch_size=batch or 0,
            lengths=np.concatenate(lengths_parts) if lengths_parts else
            np.zeros(0, dtype=np.int64),
            indices=np.concatenate(indices_parts) if indices_parts else
            np.zeros(0, dtype=np.int64))


@dataclass
class CombinedFormat:
    """Co-designed layout: one lengths tensor + one indices tensor.

    ``lengths`` is ordered table-major: ``lengths[t * B + b]`` is the bag
    size of sample ``b`` in table ``t``; ``indices`` concatenates tables in
    the same order.
    """

    table_names: List[str]
    batch_size: int
    lengths: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        check.count("batch_size", self.batch_size, low=0)
        expected = len(self.table_names) * self.batch_size
        if len(self.lengths) != expected:
            raise ValueError(
                f"lengths has {len(self.lengths)} entries, expected "
                f"{expected} (T={len(self.table_names)}, B={self.batch_size})")
        if int(self.lengths.sum()) != len(self.indices):
            raise ValueError(
                f"indices has {len(self.indices)} ids but lengths sum to "
                f"{int(self.lengths.sum())}")

    @property
    def num_tensors(self) -> int:
        return 2  # lengths + indices, independent of table count

    @property
    def total_bytes(self) -> int:
        return self.lengths.nbytes + self.indices.nbytes

    def table_lengths(self, table: str) -> np.ndarray:
        t = self.table_names.index(table)
        b = self.batch_size
        return self.lengths[t * b:(t + 1) * b]

    def to_separate(self) -> SeparateFormat:
        tables = {}
        b = self.batch_size
        index_start = 0
        for t, name in enumerate(self.table_names):
            lengths = self.lengths[t * b:(t + 1) * b]
            nnz = int(lengths.sum())
            tables[name] = (
                self.indices[index_start:index_start + nnz].copy(),
                lengths_to_offsets(lengths))
            index_start += nnz
        return SeparateFormat(tables=tables)


def host_transfer_time(num_tensors: int, total_bytes: int,
                       pinned: bool = True) -> float:
    """CPU->GPU copy time: per-tensor overhead + bandwidth term.

    The Section 4.4 argument in one formula: consolidating a thousand
    small tensors into two eliminates ``998 * overhead``, and pinning
    doubles the copy bandwidth by skipping the staging copy.
    """
    check.count("num_tensors", num_tensors, low=0)
    check.nonnegative("total_bytes", total_bytes)
    bw = _PINNED_BW if pinned else _PAGEABLE_BW
    return num_tensors * _PER_TENSOR_OVERHEAD_S + total_bytes / bw

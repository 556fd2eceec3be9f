"""Backing stores for cached embedding rows.

A backing store is the slower memory tier behind the software cache: DRAM
behind HBM, or SSD behind DRAM. It serves whole rows and counts bytes
moved, which is what the cache-vs-UVM comparison (paper Section 4.1.3)
ultimately measures — PCIe traffic avoided by caching.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ArrayBackingStore"]


class ArrayBackingStore:
    """Row store over a dense numpy array with transfer accounting.

    The store adopts ``rows`` as its own (no copy) when they are
    float32; writes through the store land in that array."""

    def __init__(self, rows: np.ndarray) -> None:
        if rows.ndim != 2:
            raise ValueError(f"expected (H, D) rows, got shape {rows.shape}")
        self.rows = np.asarray(rows, dtype=np.float32)
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def num_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def row_dim(self) -> int:
        return self.rows.shape[1]

    @property
    def row_bytes(self) -> int:
        return self.row_dim * 4

    def read_rows(self, row_ids: np.ndarray) -> np.ndarray:
        self.bytes_read += len(row_ids) * self.row_bytes
        return self.rows[row_ids].copy()

    def write_rows(self, row_ids: np.ndarray, values: np.ndarray) -> None:
        self.bytes_written += len(row_ids) * self.row_bytes
        self.rows[row_ids] = values

    def reset_counters(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0

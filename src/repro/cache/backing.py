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
    """Read-only row store over a dense array, with transfer accounting.

    The store adopts ``rows`` (no copy when they are float32) and holds
    them through a read-only view: nothing writes through the store, so
    a row a cache holds resident always equals its backing row."""

    def __init__(self, rows: np.ndarray) -> None:
        if rows.ndim != 2:
            raise ValueError(f"expected (H, D) rows, got shape {rows.shape}")
        self.rows = np.asarray(rows, dtype=np.float32).view()
        self.rows.flags.writeable = False
        self.bytes_read = 0

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
        """The rows at ``row_ids``: an uncached read of this tier."""
        self.count_read(len(row_ids))
        return self.rows[row_ids]

    def count_read(self, num_rows: int) -> None:
        """Count ``num_rows`` rows as moved from this tier. A cache fill
        needs only the count: its reads gather from :attr:`rows`."""
        self.bytes_read += num_rows * self.row_bytes

    def reset_counters(self) -> None:
        self.bytes_read = 0

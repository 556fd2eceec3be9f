"""Embedding operator bandwidth model (Appendix A, Figs. 18-19; Sec 4.1.1).

Pooled embedding lookups are pure memory traffic: the forward pass reads
``nnz * D`` elements of rows; the fused backward+optimizer does a
read-modify-write (~2x). Achieved bandwidth approaches the device's
measured HBM ceiling for large dims and degrades for narrow rows (poor
coalescing), matching the Fig. 18-19 curve shapes.

The fused-vs-unfused comparison (the up-to-7x claim of Section 4.1.1)
falls out of kernel-launch amortization: one launch for T tables vs T
launches, which dominates when per-table work is small.
"""

from __future__ import annotations


from .. import check
from .devices import DeviceSpec

__all__ = ["embedding_achieved_bw", "embedding_lookup_time",
           "embedding_update_time", "fused_lookup_time",
           "unfused_lookup_time", "fused_speedup"]

_DTYPE_BYTES = {"fp32": 4, "fp16": 2}
# row width (bytes) at which coalescing reaches half its ceiling
_COALESCE_HALF_BYTES = 64.0


def embedding_achieved_bw(device: DeviceSpec, embedding_dim: int,
                          precision: str = "fp32") -> float:
    """Achieved HBM bandwidth for pooled lookups of width ``embedding_dim``.

    Narrow rows waste bus transactions; wide rows stream at the measured
    ceiling. FP16 halves row bytes, which *reduces* achieved bytes/s for
    narrow rows (same transaction waste, fewer useful bytes) but roughly
    doubles rows/s — exactly the Fig. 18 FP32-vs-FP16 relationship.
    """
    check.count("embedding_dim", embedding_dim)
    row_bytes = embedding_dim * _DTYPE_BYTES[precision]
    coalescing = row_bytes / (row_bytes + _COALESCE_HALF_BYTES)
    return device.hbm_achievable_bw * coalescing


def embedding_lookup_time(nnz: int, embedding_dim: int, device: DeviceSpec,
                          precision: str = "fp32") -> float:
    """Forward pooled lookup: read nnz rows (one kernel)."""
    check.count("nnz", nnz, 0)
    bytes_read = nnz * embedding_dim * _DTYPE_BYTES[precision]
    bw = embedding_achieved_bw(device, embedding_dim, precision)
    return bytes_read / bw + device.kernel_launch_overhead


def embedding_update_time(nnz: int, embedding_dim: int, device: DeviceSpec,
                          precision: str = "fp32") -> float:
    """Fused backward + exact optimizer: read + write touched rows."""
    check.count("nnz", nnz, 0)
    bytes_moved = 2 * nnz * embedding_dim * _DTYPE_BYTES[precision]
    bw = embedding_achieved_bw(device, embedding_dim, precision)
    return bytes_moved / bw + device.kernel_launch_overhead


def fused_lookup_time(per_table_nnz, embedding_dim: int,
                      device: DeviceSpec,
                      precision: str = "fp32") -> float:
    """All tables batched into one kernel (Section 4.1.1)."""
    total_nnz = int(sum(per_table_nnz))
    return embedding_lookup_time(total_nnz, embedding_dim, device,
                                 precision)


def unfused_lookup_time(per_table_nnz, embedding_dim: int,
                        device: DeviceSpec,
                        precision: str = "fp32") -> float:
    """One ``nn.EmbeddingBag``-style kernel per table."""
    return sum(embedding_lookup_time(int(nnz), embedding_dim, device,
                                     precision)
               for nnz in per_table_nnz)


def fused_speedup(per_table_nnz, embedding_dim: int, device: DeviceSpec,
                  precision: str = "fp32") -> float:
    """Unfused / fused time ratio — the paper reports up to 7x."""
    fused = fused_lookup_time(per_table_nnz, embedding_dim, device,
                              precision)
    unfused = unfused_lookup_time(per_table_nnz, embedding_dim, device,
                                  precision)
    return unfused / fused

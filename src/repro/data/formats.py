"""Host-to-device transfer cost of an input batch (paper Section 4.4).

The legacy CPU reader emitted *two tensors per table* (offsets + indices),
so a DLRM with hundreds of tables moved ~a thousand small tensors to the
GPU per iteration — a dominant overhead on Zion. The co-designed
**combined format** moves one lengths tensor and one ids tensor (plus
dense and labels) regardless of table count; :class:`repro.data.MiniBatch`
holds a batch in exactly that layout. :func:`host_transfer_time` prices
both layouts for the ingestion accounting and benchmarks.
"""

from __future__ import annotations

from .. import check

__all__ = ["host_transfer_time"]

# Host-to-device copy bandwidths (bytes/s): pinned memory enables DMA at
# full PCIe rate; pageable memory pays an extra staging copy.
_PINNED_BW = 12e9
_PAGEABLE_BW = 6e9
_PER_TENSOR_OVERHEAD_S = 10e-6  # launch + driver overhead per transfer


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

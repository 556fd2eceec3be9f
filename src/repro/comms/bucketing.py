"""DDP-style gradient bucketing (paper Section 4.5, ref [29]).

PyTorch DDP does not AllReduce each parameter's gradient separately: it
packs gradients into fixed-size buckets (25 MB by default) and launches
one AllReduce per bucket as soon as the bucket's gradients are ready —
amortizing the per-collective alpha cost and enabling the
backward/AllReduce overlap that Fig. 12 shows hiding the AllReduce.

:class:`GradientBucketer` reproduces the packing half: a deterministic
assignment of parameters to buckets (reverse parameter order, matching
DDP's "gradients become ready in roughly reverse order" heuristic), plus
exact flatten/unflatten so the bucketed AllReduce is numerically
identical to per-parameter AllReduce. :meth:`GradientBucketer.views`
cuts flat buckets of any leading shape into per-parameter views: the
trainer's backward writes every rank's gradients through the views of
persistent ``(R, bucket_elements)`` buffers, which the AllReduce then
reads in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .. import check
from ..nn.parameter import Parameter

__all__ = ["Bucket", "GradientBucketer"]


@dataclass(frozen=True)
class Bucket:
    """One bucket: indices into the parameter list, in packing order."""

    param_indices: tuple
    num_elements: int

    @property
    def num_bytes(self) -> int:
        return self.num_elements * 4


class GradientBucketer:
    """Packs per-parameter gradients into flat buckets and back.

    Parameters
    ----------
    params:
        The (ordered) dense parameter list of one replica. All replicas
        must use the same order — guaranteed in this codebase because
        replicas are built identically.
    bucket_bytes:
        Target bucket size. DDP's default is 25 MB; small models end up
        with a single bucket.
    """

    def __init__(self, params: Sequence[Parameter],
                 bucket_bytes: int = 25 * 2 ** 20) -> None:
        check.count("bucket_bytes", bucket_bytes)
        self.shapes = [p.data.shape for p in params]
        self.sizes = [int(p.data.size) for p in params]
        cap_elements = max(1, bucket_bytes // 4)
        buckets: List[Bucket] = []
        current: List[int] = []
        current_elems = 0
        # reverse order: DDP packs by readiness, which is ~reverse of the
        # forward registration order
        for idx in reversed(range(len(params))):
            if current and current_elems + self.sizes[idx] > cap_elements:
                buckets.append(Bucket(tuple(current), current_elems))
                current, current_elems = [], 0
            current.append(idx)
            current_elems += self.sizes[idx]
        if current:
            buckets.append(Bucket(tuple(current), current_elems))
        self.buckets = buckets

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)

    def flatten(self, grads: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Pack per-parameter gradients into one flat array per bucket."""
        if len(grads) != len(self.shapes):
            raise ValueError(
                f"expected {len(self.shapes)} gradients, got {len(grads)}")
        out = []
        for bucket in self.buckets:
            flat = np.empty(bucket.num_elements, dtype=np.float32)
            cursor = 0
            for idx in bucket.param_indices:
                g = grads[idx]
                if g.shape != self.shapes[idx]:
                    raise ValueError(
                        f"gradient {idx} has shape {g.shape}, expected "
                        f"{self.shapes[idx]}")
                flat[cursor:cursor + self.sizes[idx]] = g.ravel()
                cursor += self.sizes[idx]
            out.append(flat)
        return out

    def views(self, flats: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Per-parameter views into flat buckets, in parameter order.

        Each flat's last axis is its bucket's elements; any leading axes
        (``(R,)`` for rank-stacked buffers) lead every view, so parameter
        ``i``'s view has shape ``flat.shape[:-1] + shape_i``. Writing a
        view writes its bucket."""
        if len(flats) != len(self.buckets):
            raise ValueError(
                f"expected {len(self.buckets)} buckets, got {len(flats)}")
        views: List[np.ndarray] = [None] * len(self.shapes)
        for bucket, flat in zip(self.buckets, flats):
            if flat.shape[-1] != bucket.num_elements:
                raise ValueError(
                    f"bucket expects {bucket.num_elements} elements, got "
                    f"{flat.shape[-1]}")
            lead = flat.shape[:-1]
            cursor = 0
            for idx in bucket.param_indices:
                size = self.sizes[idx]
                views[idx] = flat[..., cursor:cursor + size].reshape(
                    lead + self.shapes[idx])
                cursor += size
        return views

    def unflatten(self, flats: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Inverse of :meth:`flatten`; returns per-parameter gradients in
        the original parameter order."""
        return [v.astype(np.float32) for v in self.views(flats)]

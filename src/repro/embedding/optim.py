"""Exact, deterministic sparse optimizers (paper Section 4.1.2).

Large-batch synchronous training means the same embedding row can receive
gradient contributions from many samples in one mini-batch. Applying those
contributions independently (Hogwild-style) is both racy on real hardware
and *mathematically wrong* for non-linear optimizers such as AdaGrad, Adam
and LAMB, where ``update(g1) + update(g2) != update(g1 + g2)``.

The exact scheme is the paper's: *sort* the row indices of the sparse
gradient, *merge* duplicate rows by summing their gradients, then apply a
single optimizer step per unique row. This makes updates deterministic —
independent of batch order and of how the batch was split across workers —
which is the basis of the bitwise-reproducibility property tested in
``tests/test_integration_determinism.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .kernels import merge_sorted_coo
from .table import EmbeddingTable, SparseGradient

__all__ = [
    "merge_duplicate_rows",
    "SparseOptimizer",
    "SparseSGD",
    "SparseAdaGrad",
    "RowWiseAdaGrad",
    "SparseAdam",
    "SparseLAMB",
    "optimizer_state_bytes",
]


def merge_duplicate_rows(rows: np.ndarray, values: np.ndarray,
                         bag_ids: Optional[np.ndarray] = None
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Sort rows and sum gradients of duplicates into one entry per row.

    This is the "transpose the sparse update matrix" step of Section 4.1.2:
    e.g. rows ``[1, 2, 2, 3]`` with gradients ``[g0, g1, g2, g3]`` become
    rows ``[1, 2, 3]`` with gradients ``[g0, g1+g2, g3]``. ``values`` is
    per-entry, or per-bag with ``bag_ids`` mapping entries to bags (the
    :class:`SparseGradient` layout). The heavy lifting (canonical
    ``(row, gradient columns)`` order via one int64 sort keyed on each
    entry's bag rank, then a segment-sum merge) lives in
    :func:`repro.embedding.kernels.merge_sorted_coo`, shared with the
    fused arena backward.
    """
    return merge_sorted_coo(rows, values, bag_ids)


def _adam_moments(state: Dict[str, np.ndarray], rows: np.ndarray,
                  grads: np.ndarray, beta1: float, beta2: float
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the touched rows' step counts and moments (one gather and
    one scatter per state array); returns the bias-corrected moments."""
    t = np.take(state["t"], rows) + 1
    m = beta1 * np.take(state["m"], rows, axis=0) + (1 - beta1) * grads
    v = beta2 * np.take(state["v"], rows, axis=0) \
        + (1 - beta2) * grads * grads
    state["t"][rows] = t
    state["m"][rows] = m
    state["v"][rows] = v
    t = t.astype(np.float64)
    return (m / (1 - beta1 ** t)[:, None], v / (1 - beta2 ** t)[:, None])


class SparseOptimizer:
    """Base class: owns per-table state and the merge-then-apply protocol."""

    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self._state: Dict[int, Dict[str, np.ndarray]] = {}

    def state_for(self, table: EmbeddingTable) -> Dict[str, np.ndarray]:
        return self._state.setdefault(id(table), {})

    def step(self, table: EmbeddingTable, grad: SparseGradient) -> None:
        """Merge duplicate rows, then apply one exact update per row."""
        rows, merged = merge_duplicate_rows(grad.rows, grad.values,
                                            grad.bag_ids)
        self.apply_merged(table, rows, merged)

    def apply_merged(self, table: EmbeddingTable, rows: np.ndarray,
                     grads: np.ndarray) -> None:
        """Apply one exact update per *pre-merged* unique row.

        Precondition: ``rows`` holds no duplicates and ``grads`` is the
        float32 ``(len(rows), D)`` merged gradient — what
        ``merge_sorted_coo`` returns. The ``_apply`` implementations rely
        on it: they gather each state and weight slice once
        (``np.take``), update the gathered copy and scatter it back once,
        and a scatter keeps only one write per duplicated row.

        The fused arena backward merges each table's bag-form gradient
        itself (it reports the unique-row counts) and hands the result
        here; re-merging would only re-sort already-unique rows.
        """
        if len(rows) == 0:
            return
        self._apply(table, rows, grads)

    def _apply(self, table: EmbeddingTable, rows: np.ndarray,
               grads: np.ndarray) -> None:
        raise NotImplementedError

    def state_bytes(self, num_embeddings: int, embedding_dim: int) -> int:
        """Optimizer state bytes for an (H, D) table — capacity planning."""
        raise NotImplementedError


class SparseSGD(SparseOptimizer):
    """Plain SGD on the touched rows (linear, so merging is optional —
    but we merge anyway for determinism of float summation order)."""

    def _apply(self, table, rows, grads):
        weight = np.take(table.weight, rows, axis=0)
        weight -= (self.lr * grads).astype(np.float32)
        table.weight[rows] = weight

    def state_bytes(self, num_embeddings: int, embedding_dim: int) -> int:
        return 0


class SparseAdaGrad(SparseOptimizer):
    """Element-wise AdaGrad with an (H, D) accumulator."""

    def __init__(self, lr: float = 0.01, eps: float = 1e-8) -> None:
        super().__init__(lr)
        self.eps = eps

    def _apply(self, table, rows, grads):
        state = self.state_for(table)
        if "sum_sq" not in state:
            state["sum_sq"] = np.zeros_like(table.weight)
        updated = np.take(state["sum_sq"], rows, axis=0)
        updated += grads * grads
        state["sum_sq"][rows] = updated
        weight = np.take(table.weight, rows, axis=0)
        weight -= (self.lr * grads / (np.sqrt(updated) + self.eps)
                   ).astype(np.float32)
        table.weight[rows] = weight

    def state_bytes(self, num_embeddings: int, embedding_dim: int) -> int:
        return num_embeddings * embedding_dim * 4


class RowWiseAdaGrad(SparseOptimizer):
    """Row-wise sparse AdaGrad (Section 4.1.4).

    One scalar moment per *row*: ``m_i' = m_i + mean_j(g_ij^2)``. The state
    is a 1-D tensor of H elements instead of H x D, cutting optimizer memory
    by a factor of D — the first of the two tricks that shrink model F1 from
    96 TB to 24 TB in Section 5.3.3.
    """

    def __init__(self, lr: float = 0.01, eps: float = 1e-8) -> None:
        super().__init__(lr)
        self.eps = eps

    def _apply(self, table, rows, grads):
        state = self.state_for(table)
        if "moment" not in state:
            state["moment"] = np.zeros(table.weight.shape[0], dtype=np.float32)
        updated = np.take(state["moment"], rows)
        updated += np.mean(grads * grads, axis=1)
        state["moment"][rows] = updated
        scale = self.lr / (np.sqrt(updated) + self.eps)
        weight = np.take(table.weight, rows, axis=0)
        weight -= (scale[:, None] * grads).astype(np.float32)
        table.weight[rows] = weight

    def state_bytes(self, num_embeddings: int, embedding_dim: int) -> int:
        return num_embeddings * 4


class SparseAdam(SparseOptimizer):
    """Adam on touched rows with per-row step counts for bias correction.

    Dense Adam advances every parameter's moments each step; for embeddings
    only touched rows advance, so each row keeps its own timestep (the
    standard "sparse Adam" semantics).
    """

    def __init__(self, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-8) -> None:
        super().__init__(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps

    def _apply(self, table, rows, grads):
        state = self.state_for(table)
        if "m" not in state:
            state["m"] = np.zeros_like(table.weight)
            state["v"] = np.zeros_like(table.weight)
            state["t"] = np.zeros(table.weight.shape[0], dtype=np.int64)
        m_hat, v_hat = _adam_moments(state, rows, grads, self.beta1,
                                     self.beta2)
        weight = np.take(table.weight, rows, axis=0)
        weight -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
                   ).astype(np.float32)
        table.weight[rows] = weight

    def state_bytes(self, num_embeddings: int, embedding_dim: int) -> int:
        return num_embeddings * (2 * embedding_dim * 4 + 8)


class SparseLAMB(SparseOptimizer):
    """LAMB on touched rows, with a per-row trust ratio.

    For embeddings the natural "layer" granularity is the row, so the trust
    ratio compares each row's norm with its update's norm.
    """

    def __init__(self, lr: float = 1e-3, betas: tuple = (0.9, 0.999),
                 eps: float = 1e-6, weight_decay: float = 0.0) -> None:
        super().__init__(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _apply(self, table, rows, grads):
        state = self.state_for(table)
        if "m" not in state:
            state["m"] = np.zeros_like(table.weight)
            state["v"] = np.zeros_like(table.weight)
            state["t"] = np.zeros(table.weight.shape[0], dtype=np.int64)
        m_hat, v_hat = _adam_moments(state, rows, grads, self.beta1,
                                     self.beta2)
        weight = np.take(table.weight, rows, axis=0)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * weight
        w_norm = np.linalg.norm(weight, axis=1)
        u_norm = np.linalg.norm(update, axis=1)
        trust = np.where((w_norm > 0) & (u_norm > 0),
                         w_norm / np.maximum(u_norm, 1e-30), 1.0)
        weight -= (self.lr * trust[:, None] * update).astype(np.float32)
        table.weight[rows] = weight

    def state_bytes(self, num_embeddings: int, embedding_dim: int) -> int:
        return num_embeddings * (2 * embedding_dim * 4 + 8)


def optimizer_state_bytes(optimizer: str, num_embeddings: int,
                          embedding_dim: int) -> int:
    """State bytes by optimizer name — used by the F1 capacity study."""
    classes = {
        "sgd": SparseSGD(lr=1.0),
        "adagrad": SparseAdaGrad(),
        "rowwise_adagrad": RowWiseAdaGrad(),
        "adam": SparseAdam(),
        "lamb": SparseLAMB(),
    }
    try:
        instance = classes[optimizer]
    except KeyError:
        raise ValueError(f"unknown optimizer {optimizer!r}; "
                         f"expected one of {sorted(classes)}") from None
    return instance.state_bytes(num_embeddings, embedding_dim)

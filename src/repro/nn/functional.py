"""Stateless numerical primitives shared by layers and losses.

Everything operates on ``float32`` arrays and is written to be numerically
stable (log-sum-exp style sigmoid/BCE) so that normalized-entropy curves in
the Fig. 10 reproduction are not polluted by overflow artifacts.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "relu",
    "relu_grad",
    "sigmoid",
    "bce_with_logits",
    "bce_with_logits_grad",
    "bce_with_logits_stacked",
    "bce_with_logits_grad_stacked",
]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Gradient of ReLU w.r.t. its input, given upstream gradient ``dy``.

    ``dy`` must be a float32 array of ``x``'s shape. The mask runs on the
    bits: ``x > 0`` widened to all-ones/zero int32 words ANDs ``dy``'s
    words, which keeps ``dy`` (NaN payloads, signed zeros and infinities
    included) where ``x > 0`` and gives ``+0.0`` elsewhere, bitwise
    ``np.where(x > 0, dy, 0.0)`` at a fraction of its cost."""
    if dy.dtype != np.float32:
        raise TypeError(f"relu_grad needs a float32 dy, got {dy.dtype}")
    if dy.shape != x.shape:
        raise ValueError(f"relu_grad needs dy of x's shape {x.shape}, "
                         f"got {dy.shape}")
    keep = np.negative((x > 0).view(np.int8), dtype=np.int32)
    return np.bitwise_and(dy.view(np.int32), keep).view(np.float32)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=np.float32)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def bce_with_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy from raw logits (stable formulation).

    Matches ``torch.nn.BCEWithLogitsLoss`` semantics, which is the loss the
    DLRM reference implementation trains CTR models with.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    # max(x, 0) - x*y + log(1 + exp(-|x|))
    loss = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    return float(np.mean(loss))


def bce_with_logits_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean BCE)/d(logits) = (sigmoid(x) - y) / N."""
    n = logits.size
    return ((sigmoid(logits) - labels) / n).astype(np.float32)


def bce_with_logits_stacked(logits: np.ndarray,
                            labels: np.ndarray) -> np.ndarray:
    """Per-row mean BCE over the last axis for rank-stacked ``(R, B)``
    logits; row ``r`` is bitwise :func:`bce_with_logits` of slice ``r``."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    loss = np.maximum(logits, 0.0) - logits * labels \
        + np.log1p(np.exp(-np.abs(logits)))
    return np.mean(loss, axis=-1)


def bce_with_logits_grad_stacked(logits: np.ndarray,
                                 labels: np.ndarray) -> np.ndarray:
    """Per-row gradient for ``(R, B)`` logits: each row divides by its
    own batch size, matching the unstacked per-rank gradient bitwise."""
    n = logits.shape[-1]
    return ((sigmoid(logits) - labels) / n).astype(np.float32)

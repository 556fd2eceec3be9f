"""Normalized entropy (NE), the paper's model-quality metric [16].

NE is the average log loss per sample divided by the log loss of a
constant predictor emitting the dataset's base CTR. NE < 1 means the model
beats the trivial baseline; lower is better. Fig. 10 reports *relative*
NE, i.e. curves normalized to a reference run's final value.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .. import check

__all__ = ["log_loss", "normalized_entropy", "relative_ne", "calibration"]

_EPS = 1e-12


def log_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy of probabilities (not logits)."""
    p = np.clip(np.asarray(predictions, dtype=np.float64), _EPS, 1 - _EPS)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    if p.size == 0:
        raise ValueError("cannot compute log loss of an empty batch")
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def normalized_entropy(predictions: np.ndarray, labels: np.ndarray,
                       base_rate: float = None) -> float:
    """NE = log_loss(model) / log_loss(constant base-rate predictor)."""
    y = np.asarray(labels, dtype=np.float64)
    rate = float(np.mean(y)) if base_rate is None else float(base_rate)
    rate = min(max(rate, _EPS), 1 - _EPS)
    denom = -(rate * math.log(rate) + (1 - rate) * math.log(1 - rate))
    return log_loss(predictions, labels) / denom


def relative_ne(ne_values: Sequence[float],
                reference: float = None) -> np.ndarray:
    """Normalize an NE curve by a reference (default: its final value),
    matching Fig. 10's 'relative normalized entropy' axis."""
    values = np.asarray(list(ne_values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("empty NE curve")
    ref = values[-1] if reference is None else float(reference)
    check.positive("reference NE", ref)
    return values / ref


def calibration(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean predicted CTR over empirical CTR; 1.0 is perfectly calibrated."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        raise ValueError("empty batch")
    empirical = float(np.mean(y))
    if empirical == 0:
        raise ValueError("calibration undefined with no positive labels")
    return float(np.mean(predictions)) / empirical

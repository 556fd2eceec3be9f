"""Feature-interaction layers for DLRM.

The reference DLRM architecture concatenates the bottom-MLP output with the
pooled embedding vectors and takes all pairwise dot products (optionally
keeping the dense vector itself). This is the "interaction" block between
the AlltoAll and the top MLP in Fig. 9 of the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .layers import Module

__all__ = ["DotInteraction", "CatInteraction"]


class DotInteraction(Module):
    """Pairwise dot-product interaction.

    Input is a list of ``F`` feature vectors, each of shape ``(B, D)``
    (one dense vector from the bottom MLP plus one pooled embedding per
    sparse feature). Output is ``(B, D + F*(F-1)/2)``: the dense vector
    concatenated with the strictly-lower-triangular entries of the
    ``F x F`` Gram matrix.
    """

    def __init__(self, self_interaction: bool = False) -> None:
        self.self_interaction = self_interaction
        self._stacked: Optional[np.ndarray] = None
        self._num_features = 0
        self._dim = 0
        self._tril: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def output_dim(self, num_features: int, dim: int) -> int:
        """Width of the interaction output for ``num_features`` inputs."""
        offset = 0 if self.self_interaction else 1
        pairs = sum(range(num_features - offset + 1)) if self.self_interaction \
            else num_features * (num_features - 1) // 2
        return dim + pairs

    def _tril_indices(self, f: int) -> Tuple[np.ndarray, np.ndarray]:
        """The kept Gram entries for ``f`` features, cached per ``f``."""
        indices = self._tril.get(f)
        if indices is None:
            offset = 0 if self.self_interaction else -1
            indices = self._tril[f] = np.tril_indices(f, k=offset)
        return indices

    def forward_list(self, features: List[np.ndarray]) -> np.ndarray:
        """Forward over a list of (B, D) arrays; first entry is the dense x.

        Rank-stacked mode: (R, B, D) features produce (R, B, D + P)
        output, slice ``r`` bitwise identical to the 2-D path on rank
        ``r``'s feature slices.
        """
        if not features:
            raise ValueError("need at least one feature")
        dims = {f.shape for f in features}
        if len(dims) != 1:
            raise ValueError(f"all features must share shape, got {dims}")
        stacked = np.stack(features, axis=-2).astype(np.float32)  # (..., F, D)
        self._stacked = stacked
        self._num_features = stacked.shape[-2]
        self._dim = stacked.shape[-1]
        rows, cols = self._tril_indices(self._num_features)
        if stacked.ndim == 4:
            gram = np.einsum("rbfd,rbgd->rbfg", stacked, stacked)
            flat = gram[:, :, rows, cols]  # (R, B, P)
        else:
            gram = np.einsum("bfd,bgd->bfg", stacked, stacked)
            flat = gram[:, rows, cols]  # (B, P)
        return np.concatenate([features[0], flat],
                              axis=-1).astype(np.float32)

    # Module interface: treat a pre-stacked (B, F, D) array as the input.
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError("DotInteraction.forward expects a (B, F, D) array")
        return self.forward_list([x[:, i, :] for i in range(x.shape[1])])

    def backward_list(self, dy: np.ndarray) -> List[np.ndarray]:
        """Backward returning per-feature gradients, each (B, D) — or
        each (R, B, D) in rank-stacked mode."""
        if self._stacked is None:
            raise RuntimeError("backward called before forward")
        f, d = self._stacked.shape[-2:]
        d_dense = dy[..., :d]
        d_flat = dy[..., d:]
        rows, cols = self._tril_indices(f)
        # gram is x x^T; symmetrizing also yields the required factor of 2
        # on diagonal (self-interaction) terms since d(x.x)/dx = 2x.
        if self._stacked.ndim == 4:
            r, b = self._stacked.shape[:2]
            d_gram = np.zeros((r, b, f, f), dtype=np.float32)
            d_gram[:, :, rows, cols] = d_flat
            d_gram = d_gram + d_gram.transpose(0, 1, 3, 2)
            d_stacked = np.einsum("rbfg,rbgd->rbfd", d_gram, self._stacked)
            grads = [d_stacked[:, :, i, :].astype(np.float32)
                     for i in range(f)]
        else:
            b = self._stacked.shape[0]
            d_gram = np.zeros((b, f, f), dtype=np.float32)
            d_gram[:, rows, cols] = d_flat
            d_gram = d_gram + d_gram.transpose(0, 2, 1)
            d_stacked = np.einsum("bfg,bgd->bfd", d_gram, self._stacked)
            grads = [d_stacked[:, i, :].astype(np.float32) for i in range(f)]
        grads[0] = grads[0] + d_dense
        return grads

    def backward(self, dy: np.ndarray) -> np.ndarray:
        grads = self.backward_list(dy)
        return np.stack(grads, axis=-2)


class CatInteraction(Module):
    """Plain concatenation interaction (the DLRM "cat" variant)."""

    def __init__(self) -> None:
        self._shapes: Optional[List[tuple]] = None

    def output_dim(self, num_features: int, dim: int) -> int:
        return num_features * dim

    def forward_list(self, features: List[np.ndarray]) -> np.ndarray:
        self._shapes = [f.shape for f in features]
        return np.concatenate(features, axis=-1).astype(np.float32)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError("CatInteraction.forward expects a (B, F, D) array")
        return self.forward_list([x[:, i, :] for i in range(x.shape[1])])

    def backward_list(self, dy: np.ndarray) -> List[np.ndarray]:
        if self._shapes is None:
            raise RuntimeError("backward called before forward")
        grads = []
        start = 0
        for shape in self._shapes:
            width = shape[-1]
            grads.append(dy[..., start:start + width].astype(np.float32))
            start += width
        return grads

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return np.stack(self.backward_list(dy), axis=-2)

"""The DLRM model: bottom MLP + embeddings + interaction + top MLP.

Architecture follows the reference DLRM [39] used throughout the paper:
dense features go through a bottom MLP to the embedding dimension, sparse
features are pooled through embedding tables, all feature vectors interact
via pairwise dot products, and a top MLP produces the CTR logit.

This class is the *single-process reference implementation*; the
distributed trainer in :mod:`repro.core.trainer` must produce numerically
equivalent results (tested in ``tests/test_integration_determinism.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .. import check, nn
from ..embedding import (EmbeddingTableConfig, FusedEmbeddingCollection,
                         SparseOptimizer)
from ..data.datagen import MiniBatch

__all__ = ["DLRMConfig", "DLRM", "draw_dlrm"]


@dataclass(frozen=True)
class DLRMConfig:
    """Architecture of one DLRM.

    The dot-product interaction needs every feature at a common width.
    Two ways to satisfy it:

    * homogeneous tables — every ``embedding_dim`` equals the bottom
      MLP's output width (``project_features=False``, the reference DLRM
      arrangement); or
    * **per-feature projections** (``project_features=True``) — tables
      may have arbitrary dims (the production reality of Table 3, where
      dims span 4-960) and a learned linear projection maps each pooled
      embedding to the common width before interaction.
    """

    dense_dim: int
    bottom_mlp: Tuple[int, ...]        # hidden sizes, ending at emb dim
    tables: Tuple[EmbeddingTableConfig, ...]
    top_mlp: Tuple[int, ...]           # hidden sizes, final layer appended
    project_features: bool = False
    interaction: str = "dot"           # "dot" (pairwise) or "cat" (concat)

    def __post_init__(self) -> None:
        check.count("dense_dim", self.dense_dim)
        if not self.tables:
            raise ValueError("DLRM needs at least one embedding table")
        if not self.bottom_mlp:
            raise ValueError("bottom_mlp must have at least one layer size")
        if self.interaction not in ("dot", "cat"):
            raise ValueError(
                f"interaction must be 'dot' or 'cat', got "
                f"{self.interaction!r}")
        if not self.project_features:
            emb_dim = self.bottom_mlp[-1]
            for t in self.tables:
                if t.embedding_dim != emb_dim:
                    raise ValueError(
                        f"table {t.name} dim {t.embedding_dim} != bottom "
                        f"MLP output {emb_dim} (dot interaction requires "
                        f"equality; set project_features=True for "
                        f"heterogeneous dims)")

    @property
    def embedding_dim(self) -> int:
        return self.bottom_mlp[-1]

    @property
    def num_sparse_features(self) -> int:
        return len(self.tables)

    def make_interaction(self):
        """Instantiate the configured interaction layer."""
        if self.interaction == "cat":
            return nn.CatInteraction()
        return nn.DotInteraction()

    @property
    def interaction_dim(self) -> int:
        f = self.num_sparse_features + 1  # + dense feature
        if self.interaction == "cat":
            return f * self.embedding_dim
        return self.embedding_dim + f * (f - 1) // 2

    def num_embedding_parameters(self) -> int:
        return sum(t.num_parameters for t in self.tables)

    def num_dense_parameters(self) -> int:
        total = 0
        prev = self.dense_dim
        for width in self.bottom_mlp:
            total += prev * width + width
            prev = width
        prev = self.interaction_dim
        for width in self.top_mlp:
            total += prev * width + width
            prev = width
        total += prev * 1 + 1  # final logit layer
        return total

    def num_parameters(self) -> int:
        return self.num_embedding_parameters() + self.num_dense_parameters()

    def mlp_flops_per_sample(self) -> int:
        """Forward-pass FLOPs (2 per MAC) of both MLPs for one sample."""
        total = 0
        prev = self.dense_dim
        for width in self.bottom_mlp:
            total += 2 * prev * width
            prev = width
        prev = self.interaction_dim
        for width in self.top_mlp:
            total += 2 * prev * width
            prev = width
        total += 2 * prev
        return total


def draw_dlrm(config: DLRMConfig, seed: int,
              tables: Callable[[np.random.Generator], object]) -> tuple:
    """A model's start state, drawn in the one init order.

    From ``default_rng(seed)``: the bottom MLP, every table in config
    order through the sink ``tables(rng)`` (a :class:`DLRM`'s arena, a
    trainer's stored shard tables), the projections, the top MLP.
    Returns ``(bottom, tables(rng), projections, top)``."""
    rng = np.random.default_rng(seed)
    bottom = nn.MLP((config.dense_dim,) + config.bottom_mlp, rng=rng,
                    final_activation="relu", name="bottom")
    drawn = tables(rng)
    projections: Dict[str, nn.Linear] = {}
    if config.project_features:
        for t in config.tables:
            projections[t.name] = nn.Linear(
                t.embedding_dim, config.embedding_dim, rng=rng,
                name=f"proj.{t.name}")
    top = nn.MLP((config.interaction_dim,) + config.top_mlp + (1,),
                 rng=rng, name="top")
    return bottom, drawn, projections, top


class DLRM:
    """Reference single-process DLRM with explicit forward/backward."""

    def __init__(self, config: DLRMConfig, seed: int = 0) -> None:
        self.config = config
        self.bottom, self.embeddings, self.projections, self.top = \
            draw_dlrm(config, seed,
                      lambda rng: FusedEmbeddingCollection.from_configs(
                          config.tables, rng=rng))
        self.interaction = config.make_interaction()
        self.loss_fn = nn.BCEWithLogitsLoss()

    # ------------------------------------------------------------------
    def dense_parameters(self) -> List[nn.Parameter]:
        params = self.bottom.parameters()
        for t in self.config.tables:
            if t.name in self.projections:
                params.extend(self.projections[t.name].parameters())
        return params + self.top.parameters()

    def _project(self, name: str, pooled: np.ndarray) -> np.ndarray:
        if name in self.projections:
            return self.projections[name].forward(pooled)
        return pooled

    def _project_backward(self, name: str, dy: np.ndarray) -> np.ndarray:
        if name in self.projections:
            return self.projections[name].backward(dy)
        return dy

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Returns logits of shape (B,)."""
        dense_out = self.bottom.forward(batch.dense)
        pooled = self.embeddings.forward(
            {name: batch.feature(name) for name in batch.keys})
        features = [dense_out] + [self._project(t.name, pooled[t.name])
                                  for t in self.config.tables]
        interacted = self.interaction.forward_list(features)
        return self.top.forward(interacted)[:, 0]

    def loss(self, batch: MiniBatch) -> float:
        return self.loss_fn.forward(self.forward(batch), batch.labels)

    def backward(self) -> Dict[str, np.ndarray]:
        """Backward from the last :meth:`loss`; returns per-table pooled
        gradients (useful for the distributed trainer's comparisons)."""
        d_logits = self.loss_fn.backward()[:, None]
        d_inter = self.top.backward(d_logits)
        d_features = self.interaction.backward_list(d_inter)
        self.bottom.backward(d_features[0])
        d_pooled = {t.name: self._project_backward(t.name,
                                                   d_features[1 + i])
                    for i, t in enumerate(self.config.tables)}
        return d_pooled

    def train_step(self, batch: MiniBatch, dense_opt: nn.Optimizer,
                   sparse_opt: SparseOptimizer) -> float:
        """One synchronous step; returns the batch loss."""
        loss = self.loss(batch)
        for p in self.dense_parameters():
            p.zero_grad()
        d_pooled = self.backward()
        self.embeddings.backward_and_update(d_pooled, sparse_opt)
        dense_opt.step()
        return loss

    def predict_proba(self, batch: MiniBatch) -> np.ndarray:
        from ..nn import functional as F
        return F.sigmoid(self.forward(batch))

"""Criteo-shaped CTR workload (the public stand-in for production data).

Production click logs cannot ship; the community-standard proxy — used by
the DLRM reference implementation and MLPerf [35] — is the Criteo dataset
shape: 13 continuous features and 26 categorical features with wildly
skewed cardinalities (from tens to tens of millions). This module
synthesizes a workload with exactly that shape, with the dense counters
log-transformed as the DLRM pipeline does, so examples and tests can run
a recognizable public workload end to end. Categorical ids are drawn in
the (capped) cardinality range directly; nothing is hashed.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .. import check
from ..embedding.table import EmbeddingTableConfig
from .datagen import MiniBatch, SyntheticCTRDataset

__all__ = ["CRITEO_NUM_DENSE", "CRITEO_NUM_SPARSE",
           "criteo_table_configs", "criteo_dlrm_config",
           "CriteoLikeDataset", "log_transform"]

CRITEO_NUM_DENSE = 13
CRITEO_NUM_SPARSE = 26

# cardinalities of the 26 Criteo-Kaggle categorical features (the widely
# published counts from the DLRM reference preprocessing)
_CRITEO_CARDINALITIES = (
    1460, 583, 10131227, 2202608, 305, 24, 12517, 633, 3, 93145,
    5683, 8351593, 3194, 27, 14992, 5461306, 10, 5652, 2173, 4,
    7046547, 18, 15, 286181, 105, 142572,
)


def log_transform(dense: np.ndarray) -> np.ndarray:
    """The standard Criteo dense transform: log(1 + max(x, 0))."""
    return np.log1p(np.maximum(dense, 0.0)).astype(np.float32)


def criteo_table_configs(max_rows: Optional[int] = None,
                         embedding_dim: int = 16) -> Tuple[EmbeddingTableConfig, ...]:
    """The 26 Criteo tables, each capped at ``max_rows`` rows.

    The cap gives the paper's Section 5.3.1 shrunk tables for
    small-scale runs; the generator draws ids in the capped range
    directly."""
    check.count("embedding_dim", embedding_dim)
    tables = []
    for i, cardinality in enumerate(_CRITEO_CARDINALITIES):
        rows = cardinality if max_rows is None else min(cardinality,
                                                        max_rows)
        tables.append(EmbeddingTableConfig(
            name=f"C{i + 1}", num_embeddings=rows,
            embedding_dim=embedding_dim, avg_pooling=1.0))
    return tuple(tables)


def criteo_dlrm_config(max_rows: Optional[int] = 10_000,
                       embedding_dim: int = 16):
    """The reference DLRM architecture for Criteo: bottom 512-256-64-D,
    top 512-256 (scaled by embedding_dim to stay laptop-friendly).

    Returns a :class:`repro.models.DLRMConfig` (imported lazily — models
    depends on data for batch types, so the reverse import must not
    happen at module load).
    """
    from ..models.dlrm import DLRMConfig
    tables = criteo_table_configs(max_rows=max_rows,
                                  embedding_dim=embedding_dim)
    return DLRMConfig(
        dense_dim=CRITEO_NUM_DENSE,
        bottom_mlp=(64, 32, embedding_dim),
        tables=tables,
        top_mlp=(64, 32))


class CriteoLikeDataset(SyntheticCTRDataset):
    """Synthetic stream with Criteo's shape.

    Single-valued categorical features (Criteo is one id per feature per
    sample, i.e. pooling size exactly 1), non-negative heavy-tailed dense
    counters passed through :func:`log_transform`, Zipf-skewed ids.
    """

    def __init__(self, max_rows: Optional[int] = 10_000,
                 embedding_dim: int = 16, noise: float = 0.3,
                 seed: int = 0) -> None:
        tables = criteo_table_configs(max_rows=max_rows,
                                      embedding_dim=embedding_dim)
        super().__init__(tables, dense_dim=CRITEO_NUM_DENSE, noise=noise,
                         zipf_alpha=1.2, seed=seed)

    def batch(self, batch_size: int, batch_index: int = 0):
        b = super().batch(batch_size, batch_index)
        # Criteo dense features are counters: exponentiate the generator's
        # gaussians into a heavy tail, then apply the standard transform
        rng = np.random.default_rng((self.seed, batch_index, 1))
        counters = np.expm1(np.abs(b.dense)) \
            * rng.lognormal(0.0, 0.5, size=b.dense.shape)
        # exactly one id per categorical feature (Criteo semantics):
        # keep each sample's first id, or id 0 for empty bags
        # (a bag starts where the bags before it, feature-major, end)
        lengths = b.lengths.ravel()
        filled = lengths > 0
        first = np.zeros(len(lengths), dtype=np.int64)
        first[filled] = b.ids[(np.cumsum(lengths) - lengths)[filled]]
        return MiniBatch(dense=log_transform(counters), keys=b.keys,
                         lengths=np.ones_like(b.lengths), ids=first,
                         labels=b.labels)

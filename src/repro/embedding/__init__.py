"""Embedding operators: tables, fused arena lookup, segment-reduce
kernels, exact sparse optimizers, reduced-precision storage and
tensor-train compression (paper Section 4.1)."""

from .arena import EmbeddingArena
from .dedup import dedup_cache_read, duplication_factor
from .fused import FusedEmbeddingCollection
from .kernels import (expand_bag_ids, merge_sorted_coo, rank_bags,
                      rebase_jagged, segment_mean, segment_sum)
from .optim import (RowWiseAdaGrad, SparseAdaGrad, SparseAdam, SparseLAMB,
                    SparseOptimizer, SparseSGD, merge_duplicate_rows,
                    optimizer_state_bytes)
from .quantized import QuantizedEmbeddingTable
from .table import (EmbeddingTable, EmbeddingTableConfig, SparseGradient,
                    lengths_to_offsets, offsets_to_lengths, validate_bags)
from .tt import TTEmbeddingTable, factorize_dims, tt_decompose

__all__ = [
    "EmbeddingTable",
    "EmbeddingTableConfig",
    "SparseGradient",
    "lengths_to_offsets",
    "offsets_to_lengths",
    "validate_bags",
    "FusedEmbeddingCollection",
    "EmbeddingArena",
    "segment_sum",
    "segment_mean",
    "expand_bag_ids",
    "rebase_jagged",
    "rank_bags",
    "merge_sorted_coo",
    "SparseOptimizer",
    "SparseSGD",
    "SparseAdaGrad",
    "RowWiseAdaGrad",
    "SparseAdam",
    "SparseLAMB",
    "merge_duplicate_rows",
    "optimizer_state_bytes",
    "QuantizedEmbeddingTable",
    "TTEmbeddingTable",
    "factorize_dims",
    "tt_decompose",
    "dedup_cache_read",
    "duplication_factor",
]

"""Data generation and ingestion: synthetic CTR workloads, sparse input
formats, redistribution kernels, and the reader service (paper Section 4.4)."""

from .criteo import (CRITEO_NUM_DENSE, CRITEO_NUM_SPARSE,
                     CriteoLikeDataset, criteo_dlrm_config,
                     criteo_table_configs, log_transform)
from .datagen import MiniBatch, SyntheticCTRDataset, zipf_indices
from .freq import FrequencyStats
from .formats import CombinedFormat, SeparateFormat, host_transfer_time
from .kernels import bucketize_sparse, permute_jagged, replicate_sparse
from .reader import DataIngestionService, IngestionStats

__all__ = [
    "MiniBatch",
    "SyntheticCTRDataset",
    "zipf_indices",
    "SeparateFormat",
    "CombinedFormat",
    "host_transfer_time",
    "permute_jagged",
    "bucketize_sparse",
    "replicate_sparse",
    "DataIngestionService",
    "IngestionStats",
    "FrequencyStats",
    "CriteoLikeDataset",
    "criteo_table_configs",
    "criteo_dlrm_config",
    "log_transform",
    "CRITEO_NUM_DENSE",
    "CRITEO_NUM_SPARSE",
]

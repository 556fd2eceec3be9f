"""Data generation and ingestion: synthetic CTR workloads in the combined
sparse format, transfer pricing, and the reader service (paper Section
4.4)."""

from .criteo import (CRITEO_NUM_DENSE, CRITEO_NUM_SPARSE,
                     CriteoLikeDataset, criteo_dlrm_config,
                     criteo_table_configs, log_transform)
from .datagen import MiniBatch, SyntheticCTRDataset, zipf_indices
from .freq import FrequencyStats
from .formats import host_transfer_time
from .reader import DataIngestionService, IngestionStats

__all__ = [
    "MiniBatch",
    "SyntheticCTRDataset",
    "zipf_indices",
    "host_transfer_time",
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

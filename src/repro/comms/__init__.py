"""Communication layer: exact simulated collectives, wire quantization,
cluster topology and the alpha-beta latency model (paper Sections 4.5, 5.1).

The process-group surface is re-exported here: typed AlltoAll dispatch
(:class:`AlltoAllKind`), collectives over one rank-stacked buffer each
(AlltoAll over a flat buffer and a split matrix), accounting-carrying
returns (:class:`CollectiveResult`) and the latency-model names
(``perf_model.all_to_all_time`` et al.).
"""

from . import collectives, perf_model
from .bucketing import Bucket, GradientBucketer
from .process_group import (AlltoAllKind, CollectiveResult, CommsLog,
                            SimProcessGroup)
from .quantization import CODECS, QuantizedCommsConfig, get_codec, wire_bytes
from .topology import PROTOTYPE_TOPOLOGY, ZION_TOPOLOGY, ClusterTopology

__all__ = [
    "collectives",
    "perf_model",
    "AlltoAllKind",
    "CollectiveResult",
    "SimProcessGroup",
    "CommsLog",
    "GradientBucketer",
    "Bucket",
    "QuantizedCommsConfig",
    "CODECS",
    "get_codec",
    "wire_bytes",
    "ClusterTopology",
    "PROTOTYPE_TOPOLOGY",
    "ZION_TOPOLOGY",
]

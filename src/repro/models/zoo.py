"""The paper's production model zoo: A1, A2, A3 and F1 (Table 3).

Two views of each model:

* :func:`full_spec` — the full-scale configuration (trillions of
  parameters). Table shapes are synthesized to match Table 3's reported
  statistics (table count, dim range/average, pooling, total parameters).
  These drive the sharding planner, capacity studies and the performance
  model — all of which only need *shapes*, never weights.
* :func:`mini_config` — a trainable shrunken model, following the paper's
  own Section 5.3.1 methodology ("shrink the embedding table cardinality
  while hashing inputs to be within the reduced number of rows"), sized
  for laptop-scale functional experiments. Here the data generator draws
  ids in the shrunk range directly instead of hashing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import zlib

import numpy as np

from ..embedding import EmbeddingTableConfig
from .dlrm import DLRMConfig

__all__ = ["ModelSpec", "full_spec", "mini_config", "zoo_config",
           "MODEL_NAMES", "ZOO_SIZES", "TABLE3_REFERENCE"]

MODEL_NAMES = ("A1", "A2", "A3", "F1")

# Size tiers of the serving-zoo configs (multi-tenant fleet studies).
ZOO_SIZES = ("small", "medium", "large")

# Table 3 of the paper, verbatim: the reference the synthesized specs are
# validated against (see tests/test_models_zoo.py).
TABLE3_REFERENCE: Dict[str, dict] = {
    "A1": {"num_parameters": 95e9, "mflops_per_sample": 89,
           "num_tables": 100, "dim_range": (4, 192), "dim_avg": 68,
           "avg_pooling": 27, "num_mlp_layers": 26, "avg_mlp_size": 914},
    "A2": {"num_parameters": 793e9, "mflops_per_sample": 638,
           "num_tables": 1000, "dim_range": (4, 384), "dim_avg": 93,
           "avg_pooling": 15, "num_mlp_layers": 20, "avg_mlp_size": 3375},
    "A3": {"num_parameters": 845e9, "mflops_per_sample": 784,
           "num_tables": 1000, "dim_range": (4, 960), "dim_avg": 231,
           "avg_pooling": 17, "num_mlp_layers": 26, "avg_mlp_size": 3210},
    "F1": {"num_parameters": 12e12, "mflops_per_sample": 5,
           "num_tables": 10, "dim_range": (256, 256), "dim_avg": 256,
           "avg_pooling": 20, "num_mlp_layers": 7, "avg_mlp_size": 490},
}


@dataclass(frozen=True)
class ModelSpec:
    """Full-scale model description (shapes only, no weights)."""

    name: str
    tables: Tuple[EmbeddingTableConfig, ...]
    dense_dim: int
    mlp_layer_sizes: Tuple[int, ...]
    declared_mflops_per_sample: float

    @property
    def num_embedding_parameters(self) -> int:
        return sum(t.num_parameters for t in self.tables)

    @property
    def num_mlp_parameters(self) -> int:
        sizes = (self.dense_dim,) + self.mlp_layer_sizes
        return sum(a * b + b for a, b in zip(sizes, sizes[1:]))

    @property
    def num_parameters(self) -> int:
        return self.num_embedding_parameters + self.num_mlp_parameters

    @property
    def avg_embedding_dim(self) -> float:
        return float(np.mean([t.embedding_dim for t in self.tables]))

    @property
    def avg_pooling(self) -> float:
        return float(np.mean([t.avg_pooling for t in self.tables]))

    def mlp_flops_per_sample(self) -> float:
        """Forward+backward MLP FLOPs per sample (2 MACs fwd, 4 bwd)."""
        sizes = (self.dense_dim,) + self.mlp_layer_sizes
        fwd = sum(2 * a * b for a, b in zip(sizes, sizes[1:]))
        return 3 * fwd

    def embedding_bytes(self, bytes_per_element: int = 4) -> int:
        return self.num_embedding_parameters * bytes_per_element


def _synth_dims(rng: np.random.Generator, n: int, lo: int, hi: int,
                avg: int) -> np.ndarray:
    """Sample embedding dims in [lo, hi] (multiples of 4) averaging ~avg."""
    if lo == hi:
        return np.full(n, lo, dtype=np.int64)
    # lognormal shape clipped to the range, then nudged toward the mean
    dims = rng.lognormal(mean=np.log(avg), sigma=0.6, size=n)
    dims = np.clip((dims // 4 * 4).astype(np.int64), lo, hi)
    return dims


def _synth_rows(rng: np.random.Generator, dims: np.ndarray,
                target_params: float) -> np.ndarray:
    """Sample skewed row counts whose total H*D matches target_params."""
    raw = rng.lognormal(mean=0.0, sigma=1.2, size=len(dims))
    scale = target_params / float(np.sum(raw * dims))
    rows = np.maximum((raw * scale).astype(np.int64), 1000)
    return rows


def full_spec(name: str, seed: int = 0) -> ModelSpec:
    """Synthesize the full-scale spec for one of the Table 3 models."""
    if name not in TABLE3_REFERENCE:
        raise ValueError(f"unknown model {name!r}; expected {MODEL_NAMES}")
    ref = TABLE3_REFERENCE[name]
    # zlib.crc32 is a stable hash; builtins.hash is randomized
    # per process and would make specs differ across runs
    rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
    n = ref["num_tables"]
    lo, hi = ref["dim_range"]
    dims = _synth_dims(rng, n, lo, hi, ref["dim_avg"])
    # leave a small budget for the MLP parameters
    rows = _synth_rows(rng, dims, ref["num_parameters"] * 0.995)
    if name == "F1":
        # Section 5.3.3: a few massive ~10B-row tables dominate F1
        rows = np.full(n, int(ref["num_parameters"] / (n * 256)),
                       dtype=np.int64)
    poolings = np.maximum(
        rng.poisson(ref["avg_pooling"], size=n), 1).astype(np.float64)
    tables = tuple(
        EmbeddingTableConfig(
            name=f"{name.lower()}_t{i}", num_embeddings=int(rows[i]),
            embedding_dim=int(dims[i]), avg_pooling=float(poolings[i]))
        for i in range(n))
    depth = ref["num_mlp_layers"]
    width = ref["avg_mlp_size"]
    return ModelSpec(
        name=name, tables=tables, dense_dim=width,
        mlp_layer_sizes=tuple([width] * depth),
        declared_mflops_per_sample=ref["mflops_per_sample"])


def mini_config(name: str, scale: int = 512, num_tables: int = 8,
                embedding_dim: int = 16, seed: int = 0,
                heterogeneous_dims: bool = False) -> DLRMConfig:
    """A trainable shrunken DLRM with the named model's *shape character*
    (relative pooling, MLP depth ratio) at laptop scale.

    ``scale`` is the per-table row count; the data generator draws ids
    in ``[0, scale)`` directly (give it these table configs).
    ``heterogeneous_dims`` scales each table's dim within the named
    model's declared dim range (relative to its average), enabling the
    per-feature-projection path — Table 3's production reality.
    """
    if name not in TABLE3_REFERENCE:
        raise ValueError(f"unknown model {name!r}; expected {MODEL_NAMES}")
    ref = TABLE3_REFERENCE[name]
    pooling = max(2.0, ref["avg_pooling"] / 5.0)
    if heterogeneous_dims:
        rng = np.random.default_rng((seed, zlib.crc32(name.encode()), 1))
        lo, hi = ref["dim_range"]
        scale_lo = max(2, int(embedding_dim * lo / ref["dim_avg"]))
        scale_hi = max(scale_lo + 1,
                       int(embedding_dim * hi / ref["dim_avg"]))
        dims = rng.integers(scale_lo, scale_hi + 1, size=num_tables)
    else:
        dims = np.full(num_tables, embedding_dim, dtype=np.int64)
    tables = tuple(
        EmbeddingTableConfig(name=f"{name.lower()}_t{i}",
                             num_embeddings=scale,
                             embedding_dim=int(dims[i]),
                             avg_pooling=pooling)
        for i in range(num_tables))
    depth = max(2, ref["num_mlp_layers"] // 8)
    hidden = 32
    return DLRMConfig(
        dense_dim=8,
        bottom_mlp=tuple([hidden] * (depth - 1) + [embedding_dim]),
        tables=tables,
        top_mlp=tuple([hidden] * depth),
        project_features=heterogeneous_dims)


def zoo_config(size: str, seed: int = 0) -> DLRMConfig:
    """A size-tiered zoo member for multi-tenant serving studies.

    The tenancy benchmarks need co-hosted models of *different* weights
    classes — the paper's production reality where F-family and A-family
    models share infrastructure. Three tiers, each a :func:`mini_config`
    of the matching Table 3 family:

    * ``small`` — F1 shape (few tables, shallow MLP): the cheap,
      latency-critical tenant;
    * ``medium`` — A1 shape: the mid-weight tenant;
    * ``large`` — A3 shape with heterogeneous dims: the heavy tenant
      whose batches head-of-line block a naive shared fleet.
    """
    if size not in ZOO_SIZES:
        raise ValueError(f"unknown zoo size {size!r}; expected {ZOO_SIZES}")
    if size == "small":
        return mini_config("F1", scale=256, num_tables=4, embedding_dim=8,
                           seed=seed)
    if size == "medium":
        return mini_config("A1", scale=512, num_tables=8, embedding_dim=16,
                           seed=seed)
    return mini_config("A3", scale=1024, num_tables=12, embedding_dim=24,
                       seed=seed, heterogeneous_dims=True)

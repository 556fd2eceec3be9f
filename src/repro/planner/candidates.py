"""Candidate enumeration: every representation one table could take.

For each table the planner measures the representation's *actual*
element error on the trained weights (fp16/bf16/int8 via
:mod:`repro.lowp` roundtrips, TT via a real TT-SVD decomposition
materialized back) and prices its pooled-lookup time with the existing
perf models: hot representations on the
:func:`repro.perf.embedding_achieved_bw` coalescing roofline inflated by
the sharding cost model's :meth:`~repro.sharding.cost_model.CostModelParams.locality_factor`,
TT contraction chains on the fp32 GEMM roofline (the same DeviceSpec
ceiling :func:`repro.perf.gemm_time` prices against, fused-kernel form),
and the cold tier as a hit-rate mix of HBM and the platform DRAM link
(:class:`repro.perf.PlatformSpec`). Nothing here is asserted from table
shape alone: error columns come from the weights the model actually
trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import check, lowp
from ..data.freq import FrequencyStats
from ..embedding.table import EmbeddingTableConfig
from ..embedding.tt import TTEmbeddingTable
from ..perf.devices import V100, DeviceSpec
from ..perf.embedding_bw import _COALESCE_HALF_BYTES
from ..perf.platform import ZIONEX_PLATFORM, PlatformSpec
from ..sharding.cost_model import CostModelParams
from .plan import TableAssignment

__all__ = ["PlannerCostModel", "TableCandidates", "enumerate_candidates"]


@dataclass(frozen=True)
class PlannerCostModel:
    """Hardware lens + search space the planner scores candidates with.

    ``batch_size`` sizes the pooled-lookup batch every ``lookup_s`` is
    priced for. ``cold_hit_rate`` is the expected software-cache hit rate
    of the cold tier when no :class:`~repro.data.freq.FrequencyStats` are
    available (the default matches ``ServingPerfModel.cache_hit_boost``);
    with stats, the hit rate is the *measured* coverage of the hottest
    ``cache_fraction`` of rows. ``time_weight`` converts normalized
    lookup-time regressions into error units for the greedy score (see
    :mod:`repro.planner.planner`).
    """

    device: DeviceSpec = V100
    platform: PlatformSpec = ZIONEX_PLATFORM
    sharding_params: CostModelParams = field(default_factory=CostModelParams)
    batch_size: int = 512
    precisions: Tuple[str, ...] = ("fp16", "bf16", "int8")
    tt_rank_options: Tuple[Tuple[int, ...], ...] = ((4, 4), (8, 8))
    allow_tt: bool = True
    allow_cold: bool = True
    cache_fraction: float = 0.25
    cold_hit_rate: float = 0.5
    time_weight: float = 1.0

    def __post_init__(self) -> None:
        check.count("batch_size", self.batch_size)
        for p in self.precisions:
            if p not in ("fp16", "bf16", "int8"):
                raise ValueError(f"unknown precision {p!r}")
        check.fraction("cache_fraction", self.cache_fraction, zero=False)
        check.fraction("cold_hit_rate", self.cold_hit_rate, one=False)
        check.nonnegative("time_weight", self.time_weight)

    # ------------------------------------------------------------------
    def _coalesced_bw(self, row_bytes: float) -> float:
        """Achieved HBM bytes/s for rows of ``row_bytes`` — the same
        coalescing roofline as :func:`repro.perf.embedding_achieved_bw`,
        generalized to arbitrary row widths (int8 rows carry their
        scale/offset pair)."""
        return self.device.hbm_achievable_bw * row_bytes / (
            row_bytes + _COALESCE_HALF_BYTES)

    def hot_lookup_s(self, cfg: EmbeddingTableConfig, row_bytes: float
                     ) -> float:
        """Pooled lookup seconds per batch for an arena-resident table."""
        nnz = self.batch_size * cfg.avg_pooling
        locality = self.sharding_params.locality_factor(cfg.num_embeddings)
        return (nnz * row_bytes * locality / self._coalesced_bw(row_bytes)
                + self.device.kernel_launch_overhead)

    def cold_lookup_s(self, cfg: EmbeddingTableConfig, hit_rate: float
                      ) -> float:
        """Pooled lookup seconds per batch through the cold-tier cache:
        hits stream from HBM, misses crawl over the per-GPU DRAM link."""
        nnz = self.batch_size * cfg.avg_pooling
        row_bytes = cfg.embedding_dim * 4.0
        link_bw = (self.platform.dram_link_bw_per_node
                   / self.platform.gpus_per_node)
        per_row = (hit_rate * row_bytes / self._coalesced_bw(row_bytes)
                   + (1.0 - hit_rate) * row_bytes / link_bw)
        return nnz * per_row + self.device.kernel_launch_overhead

    def tt_lookup_s(self, cfg: EmbeddingTableConfig, table: TTEmbeddingTable
                    ) -> float:
        """Pooled lookup seconds per batch for a TT table.

        TT-Rec runs the whole left-to-right contraction chain as one
        fused kernel, so it is priced like :func:`repro.perf.gemm_time`'s
        roofline — max(compute at the fp32 ceiling, bytes over achieved
        HBM bw) plus one kernel launch — without the per-step cuBLAS
        small-GEMM penalty a chain of tiny library calls would pay."""
        nnz = self.batch_size * cfg.avg_pooling
        flops = 0.0
        inter_elems = 0.0
        width = table.dim_factors[0]
        for k in range(1, len(table.cores)):
            r_prev = table.ranks[k]
            d_k = table.dim_factors[k]
            r_next = table.ranks[k + 1]
            # (nnz*width, r_prev) @ (r_prev, d_k*r_next) per chain step
            flops += 2.0 * nnz * width * r_prev * d_k * r_next
            inter_elems += nnz * width * r_prev  # step input spill
            width *= d_k
        ceiling = self.device.peak_flops["fp32"] \
            * self.device.max_efficiency["fp32"]
        compute = flops / ceiling
        core_bytes = sum(c.nbytes for c in table.cores)
        bytes_moved = core_bytes + 4.0 * (inter_elems
                                          + nnz * cfg.embedding_dim)
        memory = bytes_moved / self.device.hbm_achievable_bw
        return max(compute, memory) + self.device.kernel_launch_overhead

    def expected_cold_hit_rate(self, cfg: EmbeddingTableConfig,
                               frequency_stats: Optional[FrequencyStats]
                               ) -> float:
        """Measured coverage of a ``cache_fraction``-sized hot set when
        frequency stats exist, else the configured prior."""
        if frequency_stats is not None \
                and frequency_stats.total(cfg.name) > 0:
            capacity = max(1, int(cfg.num_embeddings * self.cache_fraction))
            ids = frequency_stats.top_ids(cfg.name, capacity)
            return min(0.999, frequency_stats.coverage(cfg.name, ids))
        return self.cold_hit_rate


@dataclass(frozen=True)
class TableCandidates:
    """All legal representations of one table, measured and priced.

    ``scale`` is the weight's max |element| — the denominator the greedy
    planner uses to compare errors across tables of different magnitude.
    Candidates are ordered highest fidelity first (``full`` is always
    index 0).
    """

    table: str
    scale: float
    options: Tuple[TableAssignment, ...]

    def option(self, kind: str) -> TableAssignment:
        for o in self.options:
            if o.kind == kind:
                return o
        raise KeyError(f"table {self.table!r} has no {kind!r} candidate")


def _tt_factor_count(cfg: EmbeddingTableConfig, ranks: Sequence[int]) -> bool:
    """TT only makes sense when the table factorizes non-trivially."""
    return cfg.num_embeddings >= 4 and cfg.embedding_dim >= 4 \
        and len(ranks) >= 1


def enumerate_candidates(cfg: EmbeddingTableConfig, weight: np.ndarray,
                         cost: PlannerCostModel,
                         frequency_stats: Optional[FrequencyStats] = None
                         ) -> TableCandidates:
    """Measure and price every representation ``cfg``'s table could take."""
    weight = np.asarray(weight, dtype=np.float32)
    if weight.shape != (cfg.num_embeddings, cfg.embedding_dim):
        raise ValueError(
            f"weight shape {weight.shape} does not match table "
            f"{cfg.name!r} ({cfg.num_embeddings}, {cfg.embedding_dim})")
    scale = float(np.max(np.abs(weight))) if weight.size else 0.0
    rows, dim = cfg.num_embeddings, cfg.embedding_dim
    full_bytes = lowp.table_bytes(rows, dim, "fp32")
    options: List[TableAssignment] = [TableAssignment(
        table=cfg.name, kind="full", hot_bytes=full_bytes,
        total_bytes=full_bytes, error=0.0,
        lookup_s=cost.hot_lookup_s(cfg, dim * 4.0))]

    for precision in cost.precisions:
        roundtrip = lowp.roundtrip(weight, precision)
        table_bytes = lowp.table_bytes(rows, dim, precision)
        error = float(np.max(np.abs(weight - roundtrip))) \
            if weight.size else 0.0
        options.append(TableAssignment(
            table=cfg.name, kind=precision, hot_bytes=table_bytes,
            total_bytes=table_bytes, error=error,
            lookup_s=cost.hot_lookup_s(
                cfg, float(lowp.table_bytes(1, dim, precision)))))

    if cost.allow_tt:
        for ranks in cost.tt_rank_options:
            if not _tt_factor_count(cfg, ranks):
                continue
            tt = TTEmbeddingTable.from_weight(cfg.name, weight, ranks=ranks)
            tt_bytes = int(sum(c.nbytes for c in tt.cores))
            if tt_bytes >= full_bytes:
                continue  # no compression at this rank — not a candidate
            error = float(np.max(np.abs(weight - tt.materialize()))) \
                if weight.size else 0.0
            options.append(TableAssignment(
                table=cfg.name, kind="tt", hot_bytes=tt_bytes,
                total_bytes=tt_bytes, error=error,
                lookup_s=cost.tt_lookup_s(cfg, tt),
                tt_ranks=tuple(tt.ranks[1:-1])))

    if cost.allow_cold:
        hit = cost.expected_cold_hit_rate(cfg, frequency_stats)
        options.append(TableAssignment(
            table=cfg.name, kind="cold", hot_bytes=0,
            total_bytes=full_bytes, error=0.0,
            lookup_s=cost.cold_lookup_s(cfg, hit)))

    return TableCandidates(table=cfg.name, scale=scale,
                           options=tuple(options))

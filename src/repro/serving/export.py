"""Freezing a trained model into an immutable servable artifact.

Training and serving want opposite things from the same weights:
training needs mutable shards, optimizer state and exact gradients;
serving needs an immutable forward-only snapshot that is cheap to
replicate, quantize and place across the memory hierarchy. ``freeze``
is the boundary: it snapshots a :class:`repro.core.NeoTrainer` (or a
single-process :class:`repro.models.DLRM`) into a
:class:`ServableModel`:

* **fp32 path** — bitwise-identical forward to the source model's eval
  forward (the parity tests assert this exactly);
* **quantized paths** — embedding weights round through fp16/bf16/int8
  storage at freeze time (Section 4.1.4 storage precisions), with the
  per-table max quantization error recorded on the artifact so serving
  error budgets are *measured*, not asserted;
* **hierarchical placement** — each table is placed once, as a
  ``(storage precision, tier)`` pair, then written once, straight into
  its tier's storage. The tier
  is the arena, the software cache in front of a DRAM backing store
  (the CacheEmbedding serving arrangement over :mod:`repro.cache`) or
  TT cores. Without a plan, an optional per-node HBM budget packs
  tables into the arena (smallest first, maximizing the count of
  arena-served tables) and the overflow takes the cache; with a
  :class:`repro.planner.RepresentationPlan`, each table's kind names
  its placement.

All weight arrays are marked read-only; an optimizer step against a
frozen model raises instead of silently corrupting the serving fleet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import check, lowp, nn
from ..cache import CACHE_KINDS, ArrayBackingStore, make_cache
from ..data.datagen import MiniBatch
from ..data.freq import FrequencyStats
from ..core.trainer import NeoTrainer
from ..embedding import (FusedEmbeddingCollection,
                         TTEmbeddingTable, lengths_to_offsets, validate_bags)
from ..embedding.dedup import dedup_cache_read, segment_keys
from ..embedding.kernels import (expand_bag_ids, mean_pool,
                                 segment_sum_gather)
from ..models.dlrm import DLRM, DLRMConfig
from ..nn import functional as F

__all__ = ["FreezeConfig", "ServableModel", "EmbeddedWindow", "freeze"]

# a plan's kind -> (storage precision, tier) of the table it assigns
_PLAN_PLACEMENT = {"full": ("fp32", "arena"), "fp16": ("fp16", "arena"),
                   "bf16": ("bf16", "arena"), "int8": ("int8", "arena"),
                   "cold": ("fp32", "cache"), "tt": ("fp32", "tt")}


@dataclass(frozen=True)
class FreezeConfig:
    """How to snapshot a model for serving.

    ``precision`` is the embedding *storage* precision (dense MLP weights
    always serve in fp32 — they are a rounding error of the footprint).
    ``hot_bytes`` is the HBM budget for arena-resident tables; ``None``
    serves everything from the arena. Cold tables are served through any
    :class:`repro.cache.RowCache`: ``cache_kind`` names the organization
    (built via :func:`repro.cache.make_cache` with its default knobs) and
    ``cache_fraction`` sizes its capacity as a fraction of each table's
    rows.
    """

    precision: str = "fp32"
    hot_bytes: Optional[float] = None
    cache_kind: str = "set_associative"
    cache_fraction: float = 0.25

    def __post_init__(self) -> None:
        lowp.bytes_per_element(self.precision)  # rejects an unknown one
        if self.hot_bytes is not None:
            check.nonnegative("hot_bytes", self.hot_bytes, inf=True)
        if self.cache_kind not in CACHE_KINDS:
            raise ValueError(
                f"cache_kind must be one of {list(CACHE_KINDS)}, "
                f"got {self.cache_kind!r}")
        check.fraction("cache_fraction", self.cache_fraction, zero=False)


class _ColdTable:
    """Forward-only pooled lookup through the software cache.

    Wraps a read-only backing store plus any :class:`repro.cache.RowCache`
    (built via :func:`repro.cache.make_cache`); rows are exact (the cache
    is a placement model, not an approximation) so the pooled output is
    bitwise-identical to a direct lookup while hit/miss traffic
    accumulates in ``cache.stats`` for the perf model. Each unique id in
    a dispatch touches the cache once
    (:func:`repro.embedding.dedup.dedup_cache_read`).
    """

    def __init__(self, name: str, weight: np.ndarray, pooling_mode: str,
                 cache_kind: str, cache_fraction: float) -> None:
        self.name = name
        self.pooling_mode = pooling_mode
        # the read-only store adopts freeze's private, frozen rows
        self.backing = ArrayBackingStore(_freeze_array(weight))
        target = max(1, int(weight.shape[0] * cache_fraction))
        self.cache = make_cache(cache_kind, capacity_rows=target)
        self.rows_requested = 0
        self.rows_read = 0

    def warm(self, histogram: np.ndarray) -> int:
        """Pre-pack the cache from a frequency histogram (kinds that
        support it); warm traffic is excluded from the byte counters."""
        warm = getattr(self.cache, "warm", None)
        if warm is None:
            return 0
        count = warm(histogram, self.backing)
        self.backing.reset_counters()
        return count

    def forward(self, indices: np.ndarray, offsets: np.ndarray,
                dispatches: Optional[np.ndarray] = None) -> np.ndarray:
        """Pooled lookup of ``(indices, offsets)``. ``dispatches`` (bag
        bounds, see :meth:`ServableModel.embed`) splits the bags into
        dispatches, and dedup then runs per dispatch: the cache sees, in
        one read, the id sequence one read per dispatch would show it."""
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        # before the cache sees them: a negative id would otherwise read
        # (and be cached as) a row counted from the end
        validate_bags(indices, offsets, self.backing.num_rows, self.name)
        rows, inverse = dedup_cache_read(self.cache, indices, self.backing,
                                         _segments(offsets, dispatches))
        self.rows_requested += len(indices)
        self.rows_read += len(rows)
        out = segment_sum_gather(rows, inverse, offsets)
        if self.pooling_mode == "mean":
            mean_pool(out, np.diff(offsets))
        return out


class _TTServingTable:
    """Forward-only pooled lookup over frozen TT cores.

    The representation planner may assign a table the ``tt`` path: the
    trained fp32 weight is TT-SVD-decomposed at freeze time
    (:meth:`repro.embedding.TTEmbeddingTable.from_weight`) and rows are
    re-materialized per lookup from the read-only cores — trading
    contraction FLOPs for an order-of-magnitude storage cut.
    """

    def __init__(self, name: str, weight: np.ndarray, pooling_mode: str,
                 ranks) -> None:
        self.name = name
        self.pooling_mode = pooling_mode
        self.table = TTEmbeddingTable.from_weight(name, weight, ranks=ranks)
        for core in self.table.cores:
            core.flags.writeable = False

    @property
    def storage_bytes(self) -> int:
        return int(sum(c.nbytes for c in self.table.cores))

    def max_error(self, weight: np.ndarray) -> float:
        """Measured max |fp32 - materialized| against the source weight."""
        if not weight.size:
            return 0.0
        return float(np.max(np.abs(weight - self.table.materialize())))

    def forward(self, indices: np.ndarray, offsets: np.ndarray,
                dispatches: Optional[np.ndarray] = None) -> np.ndarray:
        """Pooled lookup of ``(indices, offsets)``. With ``dispatches``
        (bag bounds) the cores are contracted once per dispatch, over
        that dispatch's ids alone: materialised rows are a contraction,
        whose bits may depend on how many rows it covers."""
        indices = np.asarray(indices, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        validate_bags(indices, offsets, self.table.num_embeddings, self.name)
        if dispatches is None or len(dispatches) <= 2:
            out = self.table.forward(indices, offsets)
        else:
            out = np.concatenate([
                self.table.forward(indices[offsets[lo]:offsets[hi]],
                                   offsets[lo:hi + 1] - offsets[lo])
                for lo, hi in zip(dispatches[:-1].tolist(),
                                  dispatches[1:].tolist())])
        if self.pooling_mode == "mean":
            mean_pool(out, np.diff(offsets))
        return out


def _segments(offsets: np.ndarray,
              dispatches: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """The dispatch of every id, given the dispatches' bag bounds; None
    for a single dispatch, whose ids need no dispatch key."""
    if dispatches is None or len(dispatches) <= 2:
        return None
    return expand_bag_ids(np.diff(offsets[dispatches]))


@dataclass
class EmbeddedWindow:
    """The embedding half of a window of dispatches
    (:meth:`ServableModel.embed`): the window's dense features and every
    table's pooled rows, one row per sample, plus ``bounds``, the
    ``(n+1,)`` sample (= bag) offsets where each dispatch starts."""

    dense: np.ndarray
    pooled: Dict[str, np.ndarray]
    bounds: np.ndarray


@dataclass
class ServableModel:
    """An immutable forward-only DLRM snapshot for the serving fleet.

    Built via :func:`freeze`; exposes :meth:`forward` (logits) and
    :meth:`predict` (probabilities) over :class:`MiniBatch` inputs,
    :meth:`predict_many` over several dispatches at once (one
    :meth:`embed`, then the dense half once per row count), plus the
    footprint/quantization metadata capacity planning needs. The
    underlying weight arrays are read-only numpy views.
    """

    config: DLRMConfig
    precision: str
    bottom: nn.MLP
    top: nn.MLP
    interaction: nn.Module
    projections: Dict[str, nn.Linear]
    hot_tables: Optional[FusedEmbeddingCollection]
    cold_tables: Dict[str, _ColdTable]
    quantization_error: Dict[str, float] = field(default_factory=dict)
    # training steps the source had completed at freeze time — snapshot
    # provenance the online hot-swap slot uses for staleness accounting
    source_step: int = 0
    # hot ids requested, and unique (dispatch, id) keys among them: the
    # rows a deduplicated read would touch (cold tables count their own)
    dedup_rows_requested: int = 0
    dedup_rows_read: int = 0
    # TT-compressed tables and the plan's per-table kind map (both empty
    # without a plan), and every table's stored bytes
    tt_tables: Dict[str, _TTServingTable] = field(default_factory=dict)
    representation: Dict[str, str] = field(default_factory=dict)
    table_storage_bytes: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def hot_table_names(self) -> List[str]:
        return self.hot_tables.names if self.hot_tables is not None else []

    @property
    def cold_table_names(self) -> List[str]:
        return sorted(self.cold_tables)

    def max_quantization_error(self) -> float:
        """Largest per-element |fp32 - stored| across all tables."""
        return max(self.quantization_error.values(), default=0.0)

    def embedding_storage_bytes(self) -> int:
        """Serving footprint of the embedding tables: the sum of the
        per-table stored bytes (int8 includes the per-row float32
        scale/offset pair, TT its cores)."""
        return int(sum(self.table_storage_bytes.values()))

    def dense_storage_bytes(self) -> int:
        return self.config.num_dense_parameters() * 4

    def storage_bytes(self) -> int:
        return self.embedding_storage_bytes() + self.dense_storage_bytes()

    # ------------------------------------------------------------------
    def embed(self, batch: MiniBatch, bounds: np.ndarray) -> EmbeddedWindow:
        """The embedding half of a window of dispatches, run once.

        ``batch`` holds the window's samples, dispatch after dispatch, and
        ``bounds`` is the ``(n+1,)`` sample offsets where each dispatch
        starts. The hot tables are pooled by one fused gather +
        segment-reduce per dimension group over all the window's bags,
        and every cold table by one cache read. Dedup stays per
        dispatch: a cold table reads the unique ``(dispatch, id)`` keys,
        in ``(dispatch, id)`` order, which is the sequence one read per
        dispatch would make. The window is the cold cache's admission
        unit: a ``set_associative`` or ``uvm`` cache ends where one read
        per dispatch leaves it, a ``freq_aware`` one makes one admission
        decision for the window; the rows, and so the outputs, are the
        same bits either way. TT tables contract their cores per
        dispatch.
        """
        if batch.dense.shape != (batch.batch_size, self.config.dense_dim):
            raise ValueError(f"dense must be (batch, {self.config.dense_dim})"
                             f", got {batch.dense.shape}")
        bounds = np.asarray(bounds, dtype=np.int64)
        if bounds.ndim != 1 or len(bounds) < 2 or bounds[0] != 0 \
                or bounds[-1] != batch.batch_size \
                or (np.diff(bounds) < 0).any():
            raise ValueError(f"bounds must rise from 0 to the batch's "
                             f"{batch.batch_size} samples")
        sparse = batch.sparse
        pooled: Dict[str, np.ndarray] = {}
        if self.hot_tables is not None:
            pooled.update(self.hot_tables.forward(sparse))
        for name, table in self.cold_tables.items():
            pooled[name] = table.forward(*sparse[name], dispatches=bounds)
        for name, tt_table in self.tt_tables.items():
            pooled[name] = tt_table.forward(*sparse[name], dispatches=bounds)
        # counted last, so a rejected input leaves the counters alone
        if self.hot_tables is not None:
            for t in self.hot_tables.tables:
                indices, offsets = sparse[t.name]
                keys = segment_keys(indices, t.config.num_embeddings,
                                    _segments(offsets, bounds))
                self.dedup_rows_requested += len(indices)
                self.dedup_rows_read += len(np.unique(keys))
        return EmbeddedWindow(dense=batch.dense, pooled=pooled,
                              bounds=bounds)

    def _dense_half(self, window: EmbeddedWindow):
        """The dense half of ``window``, run once per row count: yields
        ``(group, logits)``, the dispatches with ``m`` rows and their
        ``(k, m)`` logits. A group's rows are gathered into ``(k, m, .)``
        stacks, whose every slice gets the GEMM and einsum its dispatch
        would get alone (GEMM bits depend on the row count, so one
        window-wide GEMM would not reproduce a dispatch's own forward)."""
        counts = np.diff(window.bounds)
        for m in np.unique(counts).tolist():
            group = np.flatnonzero(counts == m)
            rows = window.bounds[group][:, None] + np.arange(m)
            features = [self.bottom.forward(window.dense[rows])]
            for t in self.config.tables:
                value = window.pooled[t.name][rows]
                if t.name in self.projections:
                    value = self.projections[t.name].forward(value)
                features.append(value)
            interacted = self.interaction.forward_list(features)
            yield group.tolist(), self.top.forward(interacted)[..., 0]

    def predict_window(self, window: EmbeddedWindow) -> List[np.ndarray]:
        """Click probabilities of every dispatch of an :meth:`embed`
        window, one array per dispatch."""
        probs: List[np.ndarray] = [None] * (len(window.bounds) - 1)
        for group, logits in self._dense_half(window):
            for i, p in zip(group, F.sigmoid(logits)):
                probs[i] = p
        return probs

    def predict_many(self, dispatches: Sequence[Sequence[MiniBatch]]
                     ) -> List[np.ndarray]:
        """One probability array per dispatch, embedding once for all of
        them; bitwise ``[predict(MiniBatch.concat(d)) for d in
        dispatches]``."""
        if not dispatches:
            return []
        if any(not d for d in dispatches):
            raise ValueError("every dispatch needs at least one batch")
        return self.predict_window(self.embed(
            MiniBatch.concat([b for d in dispatches for b in d]),
            lengths_to_offsets([sum(b.batch_size for b in d)
                                for d in dispatches])))

    def forward(self, batch: MiniBatch) -> np.ndarray:
        """Logits of shape (B,) — the same arithmetic as
        :meth:`repro.models.DLRM.forward` over frozen weights."""
        (_, logits), = self._dense_half(
            self.embed(batch, np.array([0, batch.batch_size])))
        return logits[0]

    def predict(self, batch: MiniBatch) -> np.ndarray:
        """Click probabilities of shape (B,): the one-dispatch case of
        :meth:`predict_many`."""
        return self.predict_many([[batch]])[0]

    def nnz(self, batch: MiniBatch) -> int:
        """Total embedding rows a batch touches (perf-model input)."""
        return batch.nnz


def _freeze_array(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float32)
    a.flags.writeable = False
    return a


def _packing(tables, cfg: FreezeConfig,
             frequency_stats: Optional[FrequencyStats]
             ) -> Dict[str, Tuple[str, str]]:
    """Every table at ``cfg.precision``, packed into the ``cfg.hot_bytes``
    arena budget (``num_parameters x bytes_per_element`` each); the
    overflow goes to the cache tier. With frequency stats the budget goes
    to the most observed accesses per byte; without, smallest first,
    which maximizes how many tables stay arena-served (the big cold
    tables are exactly the ones the cache tier is for)."""
    per_element = lowp.bytes_per_element(cfg.precision)
    if frequency_stats is not None:
        def key(t):
            return (-frequency_stats.total(t.name)
                    / max(1, t.num_parameters * per_element), t.name)
    else:
        def key(t):
            return (t.num_parameters, t.name)
    budget = cfg.hot_bytes if cfg.hot_bytes is not None else float("inf")
    placement: Dict[str, Tuple[str, str]] = {}
    for t in sorted(tables, key=key):
        table_bytes = t.num_parameters * per_element
        tier = "arena" if table_bytes <= budget else "cache"
        if tier == "arena":
            budget -= table_bytes
        placement[t.name] = (cfg.precision, tier)
    return placement


def _planned(tables, plan) -> Dict[str, Tuple[str, str]]:
    """Each table's placement from a :class:`repro.planner.RepresentationPlan`
    (duck-typed: anything with an ``assignments`` name->assignment map
    carrying ``kind`` works, so serving never imports the planner)."""
    missing = [t.name for t in tables if t.name not in plan.assignments]
    if missing:
        raise ValueError(f"plan has no assignment for tables {missing}")
    placement: Dict[str, Tuple[str, str]] = {}
    for t in tables:
        kind = plan.assignments[t.name].kind
        if kind not in _PLAN_PLACEMENT:
            raise ValueError(
                f"plan assigns table {t.name!r} unknown kind {kind!r}")
        placement[t.name] = _PLAN_PLACEMENT[kind]
    return placement


def _max_error(weight: np.ndarray, stored: np.ndarray) -> float:
    """Largest per-element |fp32 - stored| of one table (0 if empty)."""
    if not weight.size:
        return 0.0
    diff = weight - stored
    return float(np.abs(diff, out=diff).max())


def _reader(source):
    """``(config, dense parameters, read)`` of a freeze source, where
    ``read(name)`` returns one table's fp32 weight for reading, in place
    wherever the source stores the table whole."""
    if isinstance(source, NeoTrainer):
        return (source.config, source.ranks[0].dense_parameters(),
                source.exchange.read)
    if isinstance(source, DLRM):
        return (source.config, source.dense_parameters(),
                lambda name: source.embeddings.table(name).weight)
    raise TypeError(
        f"freeze() needs a NeoTrainer or DLRM, got {type(source)!r}")


def freeze(source, config: Optional[FreezeConfig] = None,
           step: Optional[int] = None,
           frequency_stats: Optional[FrequencyStats] = None,
           plan=None) -> ServableModel:
    """Snapshot a trainer or reference model into a :class:`ServableModel`.

    ``source`` is a :class:`repro.core.NeoTrainer` (rank 0's dense
    replicas and the stored embedding tables) or a
    :class:`repro.models.DLRM`. ``step`` overrides the recorded
    training-step provenance; by default a trainer's own step counter is
    stamped onto the artifact (``source_step``).

    Each table is placed once, as a storage precision and a tier
    (``arena``, ``cache`` or ``tt``), then built, recording its max
    rounding error (``quantization_error``) and stored bytes
    (``table_storage_bytes``). Without ``plan``, every table
    stores at ``cfg.precision`` and tables are packed into the
    ``cfg.hot_bytes`` arena budget smallest first, or by observed
    accesses *per byte* given ``frequency_stats`` (a
    :class:`repro.data.FrequencyStats`, typically from the ingestion
    service's ``track_frequencies``); the rest take the cache tier.

    ``plan`` is a :class:`repro.planner.RepresentationPlan` whose kinds
    name the placements: ``full`` (fp32) and ``fp16``/``bf16``/``int8``
    in the arena, ``cold`` (fp32) in the cache tier, or ``tt``
    (TT-SVD-compressed cores). ``cfg.precision`` and ``cfg.hot_bytes``
    are then ignored, ``precision`` reads ``"mixed"`` and
    ``representation`` maps each table to its kind. Either way the cache
    knobs shape the cache tier, and with ``frequency_stats`` caches that
    support histogram warm-up (the ``freq_aware`` kind) are pre-packed
    with each table's hottest rows.

    Tables stream: each is read from the source on its own (a trainer's
    stored table in place; a column-wise table's slices joined) and
    written once, into its tier's final storage. An arena table is
    rounded straight into its view of the arena, a cold table's backing
    store adopts its rounded rows, and a TT table decomposes from the
    weight read. The export holds one copy of each table, plus one
    table's temporaries at a time.
    """
    cfg = config if config is not None else FreezeConfig()
    if step is None:
        step = int(getattr(source, "steps", 0))
    dlrm_config, dense, read = _reader(source)
    tables = dlrm_config.tables
    placement = _packing(tables, cfg, frequency_stats) if plan is None \
        else _planned(tables, plan)

    # dense stack: fresh layers with copied, read-only weights
    bottom = nn.MLP((dlrm_config.dense_dim,) + dlrm_config.bottom_mlp,
                    final_activation="relu", name="bottom")
    top = nn.MLP((dlrm_config.interaction_dim,) + dlrm_config.top_mlp + (1,),
                 name="top")
    projections: Dict[str, nn.Linear] = {}
    if dlrm_config.project_features:
        for t in tables:
            projections[t.name] = nn.Linear(
                t.embedding_dim, dlrm_config.embedding_dim,
                name=f"proj.{t.name}")
    dst_params = bottom.parameters()
    for t in tables:
        if t.name in projections:
            dst_params.extend(projections[t.name].parameters())
    dst_params += top.parameters()
    for dst, src in zip(dst_params, dense):
        dst.data = _freeze_array(src.data.copy())

    errors: Dict[str, float] = {}
    # the arena tier: each table rounded straight into its view
    hot = [t for t in tables if placement[t.name][1] == "arena"]

    def fill(i: int, view: np.ndarray) -> None:
        name = hot[i].name
        weight = read(name)
        precision = placement[name][0]
        view[...] = weight if precision == "fp32" \
            else lowp.roundtrip(weight, precision)
        errors[name] = _max_error(weight, view)
    hot_collection = None
    if hot:
        hot_collection = FusedEmbeddingCollection(hot, fill)
        # a view's writeable flag is captured at creation, so freeze the
        # arena storage AND every table's view of it
        for group in hot_collection.arena.groups:
            group.storage.flags.writeable = False
            for view in group.views:
                view.flags.writeable = False

    # the cache and TT tiers, in config order
    cold: Dict[str, _ColdTable] = {}
    tt_tables: Dict[str, _TTServingTable] = {}
    for t in tables:
        precision, tier = placement[t.name]
        if tier == "arena":
            continue
        weight = read(t.name)
        if tier == "tt":
            ranks = plan.assignments[t.name].tt_ranks or (8, 8)
            tt_tables[t.name] = tt = _TTServingTable(
                t.name, weight, t.pooling_mode, ranks)
            errors[t.name] = tt.max_error(weight)
            continue
        stored = lowp.roundtrip(weight, precision)
        errors[t.name] = _max_error(weight, stored)
        cold[t.name] = _ColdTable(t.name, stored, t.pooling_mode,
                                  cfg.cache_kind, cfg.cache_fraction)
        if frequency_stats is not None:
            cold[t.name].warm(frequency_stats.histogram(
                t.name, t.num_embeddings))

    return ServableModel(
        config=dlrm_config,
        precision=cfg.precision if plan is None else "mixed",
        bottom=bottom, top=top,
        interaction=dlrm_config.make_interaction(), projections=projections,
        hot_tables=hot_collection, cold_tables=cold,
        quantization_error={t.name: errors[t.name] for t in tables},
        source_step=step, tt_tables=tt_tables,
        representation={} if plan is None else {
            t.name: plan.assignments[t.name].kind for t in tables},
        table_storage_bytes={
            t.name: tt_tables[t.name].storage_bytes if t.name in tt_tables
            else lowp.table_bytes(t.num_embeddings, t.embedding_dim,
                                  placement[t.name][0])
            for t in tables})

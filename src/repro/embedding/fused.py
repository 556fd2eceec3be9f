"""Fused multi-table embedding lookup (paper Section 4.1.1, FBGEMM-style).

A DLRM can have ~1000s of embedding tables. Launching one lookup kernel per
table wastes launch overhead and bandwidth; the paper fuses all tables of a
device into a single batched kernel and additionally fuses the backward
pass with the sparse optimizer, avoiding materializing the full gradient
(which is ``L`` times larger than the update it produces).

Both fusions are reproduced *for real*, not just contractually: the
collection packs all same-``D`` tables into a single contiguous weight
arena (:class:`repro.embedding.arena.EmbeddingArena`) so that

* :meth:`FusedEmbeddingCollection.forward` is one fancy-index gather over
  rebased indices plus one segment-sum per dimension group —
  ``kernel_launches`` counts true dispatches (1 per call for uniform-D
  models), and ``benchmarks/bench_fused_kernel.py`` measures the
  wall-clock win over a per-table loop;
* :meth:`FusedEmbeddingCollection.backward_and_update` keeps each
  table's gradient in bag form (``(B, D)`` plus bag ids, never the
  ``L``-times-larger per-entry array), merges it with one integer-key
  sort-and-reduce (``merge_sorted_coo``) and applies the exact sparse
  optimizer.

Both are bitwise identical to a per-table loop of
:meth:`EmbeddingTable.forward`/:meth:`~EmbeddingTable.backward` — the
oracle ``tests/reference_kernels.py`` keeps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracer import as_tracer
from .arena import EmbeddingArena
from .optim import SparseOptimizer
from .table import (EmbeddingTable, EmbeddingTableConfig, SparseGradient,
                    init_rows)

__all__ = ["FusedEmbeddingCollection"]


class FusedEmbeddingCollection:
    """A set of embedding tables updated and queried as one fused operator.

    The tables live in per-dimension weight arenas and every call is one
    single-dispatch fused kernel per arena group; ``kernel_launches``
    counts those real dispatches (1 per dimension group per call).

    Optionally instrumented: pass ``tracer=``/``registry=`` (or call
    :meth:`instrument`) to record ``embedding.fused_*`` spans and
    per-table ``embedding.lookup_rows`` counters. Instrumentation is
    read-only; the numerics are identical with it on or off.
    """

    def __init__(self, configs: Sequence[EmbeddingTableConfig],
                 fill: Callable[[int, np.ndarray], None], tracer=None,
                 registry=None) -> None:
        """One table per config, each written by ``fill(i, view)`` straight
        into its view of the arena (:class:`EmbeddingArena`)."""
        self.arena = EmbeddingArena(configs, fill)
        self.tables = self.arena.tables
        self._by_name = {t.name: t for t in self.tables}
        self.kernel_launches = 0  # true dispatch count (see class docstring)
        self._pending_grads: Dict[str, SparseGradient] = {}
        self.tracer = as_tracer(tracer)
        self._scope = registry.scope("embedding") \
            if registry is not None else None

    def instrument(self, tracer=None, registry=None) -> None:
        """Attach a tracer and/or metric registry after construction."""
        if tracer is not None:
            self.tracer = as_tracer(tracer)
        if registry is not None:
            self._scope = registry.scope("embedding")

    def _count(self, name: str, table: str, rows: int) -> None:
        if self._scope is not None:
            self._scope.counter(name, table=table).inc(rows)

    @classmethod
    def from_configs(cls, configs: Sequence[EmbeddingTableConfig],
                     rng: Optional[np.random.Generator] = None
                     ) -> "FusedEmbeddingCollection":
        """New tables drawn by the reference init straight into the arena
        storage, table after table from one ``rng`` (the draws of
        ``[EmbeddingTable(c, rng=rng) for c in configs]``)."""
        rng = rng if rng is not None else np.random.default_rng(0)
        return cls(configs,
                   lambda i, view: init_rows(configs[i], rng, [view]))

    @property
    def names(self) -> List[str]:
        return [t.name for t in self.tables]

    def table(self, name: str) -> EmbeddingTable:
        return self._by_name[name]

    def num_parameters(self) -> int:
        return sum(t.num_parameters() for t in self.tables)

    def forward(self, batch: Dict[str, Tuple[np.ndarray, np.ndarray]]
                ) -> Dict[str, np.ndarray]:
        """Pooled lookup for every table; one fused call.

        ``batch`` maps table name to ``(indices, offsets)``. Tables not
        present in the batch are an error — a DLRM feeds every feature every
        iteration.
        """
        missing = set(self.names) - set(batch)
        if missing:
            raise KeyError(f"batch missing inputs for tables {sorted(missing)}")
        self.kernel_launches += self.arena.num_groups
        with self.tracer.span("embedding.fused_fwd", cat="embedding",
                              tables=len(self.tables)):
            out = self.arena.forward(batch)
        if self._scope is not None:
            for t in self.tables:
                self._count("lookup_rows", t.name,
                            int(len(batch[t.name][0])))
        return out

    def backward(self, d_pooled: Dict[str, np.ndarray]
                 ) -> Dict[str, SparseGradient]:
        """Backward to per-table sparse gradients (optimizer not fused)."""
        self.kernel_launches += self.arena.num_groups
        with self.tracer.span("embedding.fused_bwd", cat="embedding",
                              tables=len(self.tables)):
            grads = self.arena.backward(d_pooled)
        self._pending_grads = grads
        return grads

    def backward_and_update(self, d_pooled: Dict[str, np.ndarray],
                            optimizer: SparseOptimizer) -> None:
        """Fused backward + exact sparse optimizer (Section 4.1.1).

        Never materializes a per-entry gradient: each table's bag-form
        gradient goes straight into its merge — the memory saving the
        paper attributes to this fusion.
        """
        self.kernel_launches += self.arena.num_groups
        with self.tracer.span("embedding.fused_bwd_update", cat="embedding",
                              tables=len(self.tables)):
            updated = self.arena.backward_and_update(d_pooled, optimizer)
            if self._scope is not None:
                for name, rows in updated.items():
                    self._count("update_rows", name, rows)

    def apply_optimizer(self, optimizer: SparseOptimizer) -> None:
        """Apply the optimizer to gradients captured by :meth:`backward`."""
        if not self._pending_grads:
            raise RuntimeError("no pending gradients; call backward first")
        for t in self.tables:
            optimizer.step(t, self._pending_grads[t.name])
        self._pending_grads = {}

    def memory_bytes(self, precision: Optional[str] = None) -> int:
        return sum(t.config.memory_bytes(precision) for t in self.tables)

"""Process-group facade: collectives + traffic accounting + modeled time.

This is the reproduction's analogue of the PyTorch ProcessGroup (NCCL)
interface the paper extends (Section 4.5). It binds together

* the exact functional collectives (data really moves between ranks),
* optional wire quantization (:class:`QuantizedCommsConfig`),
* byte accounting per collective type, and
* the alpha-beta latency model, accumulating a modeled communication time
  alongside the real computation.

Accounting is published through a :class:`repro.obs.MetricRegistry`
scope (``comms.calls`` / ``comms.wire_bytes`` / ``comms.modeled_seconds``,
labelled by collective), and every collective runs inside a tracer span
carrying its byte/latency attribution — so a traced run reports, per
collective kind, exactly the traffic the legacy :class:`CommsLog`
accessors aggregate.

Conventions:

* AlltoAll flavours are selected with the typed :class:`AlltoAllKind`
  enum; ``direction=`` raises ``TypeError`` and string kinds raise
  ``ValueError``.
* Every collective takes one rank-stacked buffer, as NCCL does: a
  ``(W, ...)`` stack for AllReduce and AllGather, a ``(W, W*B, ...)``
  stack for ReduceScatter, and for AlltoAll a flat send buffer plus a
  ``(W, W)`` matrix of row counts (AlltoAllv).
* Every collective returns a :class:`CollectiveResult` carrying the one
  result array *and* the accounting (wire bytes, modeled seconds) of
  that call, so callers never re-derive byte counts from payload shapes.
* Byte accounting never hard-codes an element width: float payloads are
  billed at the configured wire precision and everything else at the
  arrays' true ``nbytes``.

Byte-accounting conventions (audited for the sliced-gradient AlltoAll
paths of column-wise sharding):

* Float payloads are counted as ``elements x wire precision`` — the
  quantization codec determines bytes, not the host dtype. An AlltoAll
  whose per-destination slices are uneven (e.g. uneven column splits)
  counts exactly ``sum(slice sizes)``; for a column-wise table that is
  ``sum(shard_cols) * batch`` elements per iteration, however the columns
  were cut.
* Index payloads (the :attr:`AlltoAllKind.INDEX` AlltoAll) and the
  unquantized collectives (``reduce_scatter`` / ``all_gather``) are
  counted from the arrays' real ``nbytes`` — an fp16 or int32 payload
  is billed at 2 or 4 bytes per element, not a hard-coded width.
* Self-sends (rank r -> rank r) are included, matching the analytical
  model in :mod:`repro.comms.perf_model` and the paper's Fig. 20
  convention of quoting full AlltoAll volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..obs.metrics import Counter, MetricRegistry, MetricScope
from ..obs.tracer import NULL_TRACER, as_tracer
from . import collectives, perf_model
from .quantization import QuantizedCommsConfig, wire_bytes
from .topology import ClusterTopology

__all__ = ["AlltoAllKind", "CollectiveResult", "CommsLog",
           "SimProcessGroup"]


class AlltoAllKind(Enum):
    """Typed dispatch for the three AlltoAll flavours (v2 API).

    Replaces the pre-v2 ``direction=`` string argument; the enum values
    are the historical strings so metric/span labels are unchanged.
    """

    FORWARD = "forward_alltoall"
    BACKWARD = "backward_alltoall"
    INDEX = "index"


def _coerce_alltoall_kind(kind: Union[AlltoAllKind, str]) -> AlltoAllKind:
    """Require the typed v2 ``kind``; the string forms are gone."""
    if isinstance(kind, AlltoAllKind):
        return kind
    raise ValueError(
        f"AlltoAll dispatch takes kind=AlltoAllKind.FORWARD / .BACKWARD "
        f"/ .INDEX; the string form ({kind!r}) was removed after its "
        f"deprecation window")


@dataclass
class CollectiveResult:
    """One collective's result array plus its accounting.

    ``output`` is the one array the collective returns (see
    :mod:`repro.comms.collectives` for each layout); ``wire_bytes`` and
    ``modeled_seconds`` are exactly what the process group recorded for
    this call, so callers need not re-derive traffic from payload shapes.
    """

    output: np.ndarray
    collective: str = ""
    wire_bytes: int = 0
    modeled_seconds: float = 0.0
    per_rank_seconds: List[float] = field(default_factory=list)


class CommsLog:
    """Per-collective traffic and modeled time, backed by a metric scope.

    The historical interface (``calls`` / ``wire_bytes`` /
    ``modeled_seconds`` dicts keyed by collective name, ``total_bytes``,
    ``total_seconds``) is preserved as views over registry counters, so
    existing callers and the new observability layer read the same
    numbers by construction.
    """

    def __init__(self, scope: Optional[MetricScope] = None) -> None:
        self._scope = scope if scope is not None \
            else MetricRegistry().scope("comms")
        # collective name -> its (calls, wire_bytes, modeled_seconds)
        # counters, valid while the registry's generation is unchanged
        self._counters: Dict[str, Tuple[Counter, Counter, Counter]] = {}
        self._generation = self._scope.registry.generation

    @property
    def scope(self) -> MetricScope:
        return self._scope

    def record(self, name: str, bytes_on_wire: float,
               seconds: float) -> None:
        if self._generation != self._scope.registry.generation:
            # a reset dropped the cached counters from the registry
            self._counters.clear()
            self._generation = self._scope.registry.generation
        counters = self._counters.get(name)
        if counters is None:
            counters = self._counters[name] = tuple(
                self._scope.counter(metric, collective=name)
                for metric in ("calls", "wire_bytes", "modeled_seconds"))
        calls, wire, modeled = counters
        calls.inc(1)
        wire.inc(int(bytes_on_wire))
        modeled.inc(float(seconds))

    @property
    def calls(self) -> Dict[str, int]:
        return self._scope.by_label("calls", "collective")

    @property
    def wire_bytes(self) -> Dict[str, int]:
        return self._scope.by_label("wire_bytes", "collective")

    @property
    def modeled_seconds(self) -> Dict[str, float]:
        return self._scope.by_label("modeled_seconds", "collective")

    @property
    def total_bytes(self) -> int:
        return sum(self.wire_bytes.values())

    @property
    def total_seconds(self) -> float:
        return sum(self.modeled_seconds.values())

    def reset(self) -> None:
        self._scope.reset()


class SimProcessGroup:
    """All-rank collectives with accounting, for the lock-step trainer."""

    def __init__(self, topology: ClusterTopology,
                 comms_config: Optional[QuantizedCommsConfig] = None,
                 registry: Optional[MetricRegistry] = None,
                 tracer=None) -> None:
        self.topology = topology
        self.comms_config = comms_config or QuantizedCommsConfig()
        self.registry = registry if registry is not None else MetricRegistry()
        self.tracer = as_tracer(tracer)
        self.log = CommsLog(self.registry.scope("comms"))

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    def instrument(self, tracer=None,
                   registry: Optional[MetricRegistry] = None) -> None:
        """Swap in a tracer and/or registry after construction."""
        if tracer is not None:
            self.tracer = as_tracer(tracer)
        if registry is not None:
            self.registry = registry
            self.log = CommsLog(registry.scope("comms"))

    def on_iteration_start(self, step: int) -> None:
        """Iteration-boundary hook (v2 API).

        The trainer announces the logical step before issuing any of an
        iteration's collectives; the base group ignores it, wrappers
        (:class:`repro.resilience.FaultyProcessGroup`) key scheduled
        faults on it.
        """

    def _check_world(self, stacked: np.ndarray, name: str) -> None:
        if len(stacked) != self.world_size:
            raise ValueError(
                f"{name} expects one input per rank "
                f"({self.world_size}), got {len(stacked)}")

    def _record(self, name: str, total_wire: float, seconds: float) -> None:
        self.log.record(name, total_wire, seconds)

    def _execute(self, name: str, send: np.ndarray, total_wire: float,
                 seconds: float, fn: Callable[[], np.ndarray],
                 splits: Optional[np.ndarray] = None) -> CollectiveResult:
        """Run one collective under a span and record its accounting.

        Every public collective funnels through here with its send
        buffer (and, for AlltoAll, its split matrix), so a wrapper can
        intercept a single method to adjust modeled time, fail attempts,
        kill ranks or read any rank's send rows
        (:class:`repro.resilience.FaultyProcessGroup` overrides this).
        """
        with self.tracer.span(f"comms.{name}", cat="comms",
                              wire_bytes=total_wire,
                              modeled_seconds=seconds):
            out = fn()
        self._record(name, total_wire, seconds)
        return CollectiveResult(output=out, collective=name,
                                wire_bytes=int(total_wire),
                                modeled_seconds=seconds)

    # ------------------------------------------------------------------
    def all_reduce(self, stacked: np.ndarray) -> CollectiveResult:
        """Elementwise-sum AllReduce of one ``(W, ...)`` stack whose
        leading axis enumerates ranks. The sum is computed once:
        ``.output`` is a read-only ``(W, ...)`` view of that one vector.
        """
        self._check_world(stacked, "all_reduce")
        per_gpu = wire_bytes(int(stacked[0].size), self.comms_config.allreduce)
        return self._execute(
            "all_reduce", stacked, per_gpu * self.world_size,
            perf_model.all_reduce_time(per_gpu, self.topology),
            lambda: collectives.all_reduce(
                stacked, codec=self.comms_config.allreduce_codec()))

    def all_to_all(self, send: np.ndarray, splits: np.ndarray,
                   kind: Union[AlltoAllKind, str] = AlltoAllKind.FORWARD
                   ) -> CollectiveResult:
        """AlltoAllv of one flat ``send`` buffer: ``splits[src, dst]``
        rows go from ``src`` to ``dst`` (see
        :func:`repro.comms.collectives.all_to_all` for the layouts)."""
        splits = np.asarray(splits)
        self._check_world(splits, "all_to_all")
        kind = _coerce_alltoall_kind(kind)
        if kind is AlltoAllKind.FORWARD:
            codec = self.comms_config.forward_codec()
            precision = self.comms_config.forward_alltoall
        elif kind is AlltoAllKind.BACKWARD:
            codec = self.comms_config.backward_codec()
            precision = self.comms_config.backward_alltoall
        else:
            # index redistribution is integer data: never quantized
            codec = None
            precision = None
        send = np.asarray(send)
        if kind is AlltoAllKind.INDEX:
            # integer payloads are billed at their true width (ids are
            # int64 today; nbytes keeps this honest if that ever changes)
            total_wire = int(send.nbytes)
        else:
            # float payloads are billed at the wire precision, summed
            # over every (src, dst) slice — exact under uneven splits
            total_wire = wire_bytes(int(send.size), precision)
        per_gpu = total_wire / max(self.world_size, 1)
        seconds = perf_model.all_to_all_time(per_gpu, self.topology)
        return self._execute(
            f"all_to_all/{kind.value}", send, total_wire, seconds,
            lambda: collectives.all_to_all(send, splits, codec=codec),
            splits=splits)

    def reduce_scatter(self, stacked: np.ndarray) -> CollectiveResult:
        """ReduceScatter of one ``(W, W*B, ...)`` stack: ``.output`` is
        the ``(W, B, ...)`` stack of every rank's summed chunk."""
        self._check_world(stacked, "reduce_scatter")
        per_gpu = int(stacked[0].nbytes)
        return self._execute(
            "reduce_scatter", stacked, per_gpu * self.world_size,
            perf_model.reduce_scatter_time(per_gpu, self.topology),
            lambda: collectives.reduce_scatter(stacked))

    def all_gather(self, stacked: np.ndarray) -> CollectiveResult:
        """AllGather of one ``(W, ...)`` stack: ``.output`` is the
        gathered ``(W, ...)`` payload every rank receives (read-only by
        convention)."""
        self._check_world(stacked, "all_gather")
        per_gpu = int(stacked[0].nbytes)
        return self._execute(
            "all_gather", stacked, per_gpu * self.world_size,
            perf_model.all_gather_time(per_gpu, self.topology),
            lambda: collectives.all_gather(stacked))

    def reset_log(self) -> None:
        self.log.reset()

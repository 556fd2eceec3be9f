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

The v2 surface (this module) differs from the original in three ways:

* AlltoAll flavours are selected with the typed :class:`AlltoAllKind`
  enum. The old ``direction="forward_alltoall"`` string form was removed
  after its deprecation window — ``direction=`` raises ``TypeError`` and
  string kinds raise ``ValueError``.
* Every collective returns a :class:`CollectiveResult` carrying the
  outputs *and* the accounting (wire bytes, modeled seconds) of that
  call, so callers no longer re-derive byte counts from payload shapes.
  ``CollectiveResult`` is a sequence over its outputs, so pre-v2 callers
  that indexed or iterated the return value keep working unchanged.
* Byte accounting never hard-codes an element width: float payloads are
  billed at the configured wire precision and everything else at the
  arrays' true ``nbytes`` (``reduce_scatter`` / ``all_gather`` /
  ``broadcast`` previously assumed 4 bytes/element).

Byte-accounting conventions (audited for the sliced-gradient AlltoAll
paths of column-wise sharding):

* Float payloads are counted as ``elements x wire precision`` — the
  quantization codec determines bytes, not the host dtype. An AlltoAll
  whose per-destination slices are uneven (e.g. uneven column splits)
  counts exactly ``sum(slice sizes)``; for a column-wise table that is
  ``sum(shard_cols) * batch`` elements per iteration, however the columns
  were cut.
* Index payloads (the :attr:`AlltoAllKind.INDEX` AlltoAll) and the
  unquantized collectives (``reduce_scatter`` / ``all_gather`` /
  ``broadcast``) are counted from the arrays' real ``nbytes`` — an fp16
  or int32 payload is billed at 2 or 4 bytes per element, not a
  hard-coded width.
* Self-sends (rank r -> rank r) are included, matching the analytical
  model in :mod:`repro.comms.perf_model` and the paper's Fig. 20
  convention of quoting full AlltoAll volume.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

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
class CollectiveResult(Sequence):
    """One collective's outputs plus its accounting (v2 API).

    ``outputs`` is the per-rank result list the functional collectives
    produce; ``wire_bytes`` and ``modeled_seconds`` are exactly what the
    process group recorded for this call, so callers need not re-derive
    traffic from payload shapes. The object is a sequence over
    ``outputs`` (indexing, iteration, ``len``) as a thin
    backward-compat shim for pre-v2 callers that treated the return
    value as the output list itself.
    """

    outputs: List[Any]
    collective: str = ""
    wire_bytes: int = 0
    modeled_seconds: float = 0.0
    per_rank_seconds: List[float] = field(default_factory=list)
    #: rank-stacked fast path only: the full ``(W, ...)`` result array
    #: (``outputs`` then holds per-rank views into it). ``None`` for the
    #: list-based collectives.
    stacked: Optional[np.ndarray] = None

    def __getitem__(self, index):
        return self.outputs[index]

    def __len__(self) -> int:
        return len(self.outputs)


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

    def _check_world(self, inputs: Sequence, name: str) -> None:
        if len(inputs) != self.world_size:
            raise ValueError(
                f"{name} expects one input per rank "
                f"({self.world_size}), got {len(inputs)}")

    def _record(self, name: str, total_wire: float, seconds: float) -> None:
        self.log.record(name, total_wire, seconds)

    def _execute(self, name: str, inputs: Sequence, total_wire: float,
                 seconds: float, fn: Callable[[], list]) -> CollectiveResult:
        """Run one collective under a span and record its accounting.

        Every public collective funnels through here, so a wrapper can
        intercept a single method to adjust modeled time, fail attempts,
        or kill ranks (:class:`repro.resilience.FaultyProcessGroup`
        overrides this).
        """
        with self.tracer.span(f"comms.{name}", cat="comms",
                              wire_bytes=total_wire,
                              modeled_seconds=seconds):
            out = fn()
        self._record(name, total_wire, seconds)
        return CollectiveResult(outputs=out, collective=name,
                                wire_bytes=int(total_wire),
                                modeled_seconds=seconds)

    # ------------------------------------------------------------------
    def all_reduce(self, inputs: Union[List[np.ndarray], np.ndarray]
                   ) -> CollectiveResult:
        """Elementwise-sum AllReduce.

        ``inputs`` is either the classic per-rank list or — the
        rank-stacked fast path — one ``(W, ...)`` array whose leading
        axis enumerates ranks. Both forms bill identical wire bytes and
        modeled latency (the per-GPU payload is one rank's slice either
        way), produce bitwise-identical per-rank outputs, and funnel
        through :meth:`_execute` so fault wrappers see the same
        collective name and per-rank input views. The stacked form
        computes the sum once: ``.stacked`` and every entry of
        ``outputs`` are read-only views of that one vector.
        """
        if isinstance(inputs, np.ndarray):
            return self._all_reduce_stacked(inputs)
        self._check_world(inputs, "all_reduce")
        precision = self.comms_config.allreduce
        per_gpu = wire_bytes(int(inputs[0].size), precision)
        seconds = perf_model.all_reduce_time(per_gpu, self.topology)
        total_wire = per_gpu * self.world_size
        return self._execute(
            "all_reduce", inputs, total_wire, seconds,
            lambda: collectives.all_reduce(
                inputs, codec=self.comms_config.allreduce_codec()))

    def _all_reduce_stacked(self, stacked: np.ndarray) -> CollectiveResult:
        self._check_world(stacked, "all_reduce")
        precision = self.comms_config.allreduce
        per_gpu = wire_bytes(int(stacked[0].size), precision)
        seconds = perf_model.all_reduce_time(per_gpu, self.topology)
        total_wire = per_gpu * self.world_size
        holder: Dict[str, np.ndarray] = {}

        def run() -> list:
            out = collectives.all_reduce_stacked(
                stacked, codec=self.comms_config.allreduce_codec())
            holder["out"] = out
            return [out[r] for r in range(self.world_size)]

        result = self._execute(
            "all_reduce", [stacked[r] for r in range(self.world_size)],
            total_wire, seconds, run)
        result.stacked = holder["out"]
        return result

    def all_to_all(self, inputs: List[List[np.ndarray]],
                   kind: Union[AlltoAllKind, str] = AlltoAllKind.FORWARD
                   ) -> CollectiveResult:
        self._check_world(inputs, "all_to_all")
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
        if kind is AlltoAllKind.INDEX:
            # integer payloads are billed at their true width (ids are
            # int64 today; nbytes keeps this honest if that ever changes)
            total_wire = sum(int(np.asarray(x).nbytes) for row in inputs
                             for x in row)
        else:
            # float payloads are billed at the wire precision, summed
            # over every (src, dst) slice — exact under uneven splits
            total_elems = sum(int(np.asarray(x).size) for row in inputs
                              for x in row)
            total_wire = wire_bytes(total_elems, precision)
        per_gpu = total_wire / max(self.world_size, 1)
        seconds = perf_model.all_to_all_time(per_gpu, self.topology)
        name = f"all_to_all/{kind.value}"
        return self._execute(
            name, inputs, total_wire, seconds,
            lambda: collectives.all_to_all(inputs, codec=codec))

    def reduce_scatter(self, inputs: List[List[np.ndarray]]
                       ) -> CollectiveResult:
        self._check_world(inputs, "reduce_scatter")
        per_gpu = sum(int(np.asarray(x).nbytes) for x in inputs[0])
        seconds = perf_model.reduce_scatter_time(per_gpu, self.topology)
        total_wire = per_gpu * self.world_size
        return self._execute(
            "reduce_scatter", inputs, total_wire, seconds,
            lambda: collectives.reduce_scatter(inputs))

    def all_gather(self, inputs: Union[List[np.ndarray], np.ndarray]
                   ) -> CollectiveResult:
        """AllGather; accepts a per-rank list or (rank-stacked fast
        path) one ``(W, ...)`` array. Billing is identical either way;
        the stacked result (``.stacked``) is the gathered ``(W, ...)``
        payload every rank receives, and ``outputs`` holds the usual
        per-destination lists as views into it (read-only by
        convention)."""
        if isinstance(inputs, np.ndarray):
            return self._all_gather_stacked(inputs)
        self._check_world(inputs, "all_gather")
        per_gpu = int(np.asarray(inputs[0]).nbytes)
        seconds = perf_model.all_gather_time(per_gpu, self.topology)
        total_wire = per_gpu * self.world_size
        return self._execute(
            "all_gather", inputs, total_wire, seconds,
            lambda: collectives.all_gather(inputs))

    def _all_gather_stacked(self, stacked: np.ndarray) -> CollectiveResult:
        self._check_world(stacked, "all_gather")
        per_gpu = int(np.asarray(stacked[0]).nbytes)
        seconds = perf_model.all_gather_time(per_gpu, self.topology)
        total_wire = per_gpu * self.world_size
        holder: Dict[str, np.ndarray] = {}

        def run() -> list:
            out = collectives.all_gather_stacked(stacked)
            holder["out"] = out
            received = [out[s] for s in range(self.world_size)]
            return [received for _ in range(self.world_size)]

        result = self._execute(
            "all_gather", [stacked[r] for r in range(self.world_size)],
            total_wire, seconds, run)
        result.stacked = holder["out"]
        return result

    def broadcast(self, inputs: List[np.ndarray],
                  root: int = 0) -> CollectiveResult:
        self._check_world(inputs, "broadcast")
        payload = int(np.asarray(inputs[root]).nbytes)
        seconds = perf_model.broadcast_time(payload, self.topology)
        total_wire = payload * self.world_size
        return self._execute(
            "broadcast", inputs, total_wire, seconds,
            lambda: collectives.broadcast(inputs, root=root))

    def reset_log(self) -> None:
        self.log.reset()

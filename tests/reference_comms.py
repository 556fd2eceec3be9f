"""The list-form collectives the product replaced, kept as the oracle.

``repro.comms`` moves one rank-stacked buffer per collective: AlltoAll
takes a flat send buffer and a ``(W, W)`` split matrix, ReduceScatter a
``(W, W*B, ...)`` stack. This module keeps the forms they replaced, over
python lists: ``all_to_all(xss)`` sends ``xss[src][dst]`` from src to dst
and delivers ``out[dst][src]``, one fresh copy per ``(src, dst)`` slot;
``reduce_scatter(xss)`` sums ``xss[src][r]`` over sources for rank r.
:class:`ReferenceProcessGroup` bills each of them as the list-form
process group did, slice by slice.

``to_buffer`` and ``to_slices`` convert between the two forms, so tests
can feed both the same payload and compare what arrives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.comms import AlltoAllKind, QuantizedCommsConfig, perf_model
from repro.comms.quantization import wire_bytes

Codec = Callable[[np.ndarray], np.ndarray]


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _check_world(inputs: list) -> int:
    if not inputs:
        raise ValueError("collective needs at least one rank")
    return len(inputs)


def all_reduce(inputs: List[np.ndarray],
               codec: Optional[Codec] = None) -> List[np.ndarray]:
    """Elementwise sum over ranks in rank order, one copy per rank."""
    world = _check_world(inputs)
    codec = codec or _identity
    total = codec(np.asarray(inputs[0], dtype=np.float32)).copy()
    for x in inputs[1:]:
        total = total + codec(np.asarray(x, dtype=np.float32))
    return [total.copy() for _ in range(world)]


def all_gather(inputs: List[np.ndarray],
               codec: Optional[Codec] = None) -> List[List[np.ndarray]]:
    world = _check_world(inputs)
    codec = codec or _identity
    gathered = [codec(np.asarray(x)).copy() for x in inputs]
    return [[g.copy() for g in gathered] for _ in range(world)]


def reduce_scatter(inputs: List[List[np.ndarray]],
                   codec: Optional[Codec] = None) -> List[np.ndarray]:
    """``inputs[rank][chunk]``: rank r receives sum over ranks of chunk r."""
    world = _check_world(inputs)
    codec = codec or _identity
    outputs = []
    for r in range(world):
        total = codec(np.asarray(inputs[0][r], dtype=np.float32)).copy()
        for src in range(1, world):
            total = total + codec(np.asarray(inputs[src][r],
                                             dtype=np.float32))
        outputs.append(total)
    return outputs


def all_to_all(inputs: List[List[np.ndarray]],
               codec: Optional[Codec] = None) -> List[List[np.ndarray]]:
    """``inputs[src][dst]`` -> ``outputs[dst][src]``, one delivery each."""
    world = _check_world(inputs)
    codec = codec or _identity
    return [[codec(np.asarray(inputs[src][dst])).copy()
             for src in range(world)] for dst in range(world)]


def to_buffer(payload: List[List[np.ndarray]]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """``[src][dst]`` slices as one send buffer (source-major, then by
    destination) and its ``(W, W)`` split matrix."""
    splits = np.array([[len(x) for x in row] for row in payload],
                      dtype=np.int64)
    return np.concatenate([x for row in payload for x in row]), splits


def to_slices(buffer: np.ndarray, splits: np.ndarray
              ) -> List[List[np.ndarray]]:
    """The ``[i][j]`` slices of a buffer that holds ``splits[i, j]`` rows
    per slot, row-major over the matrix: a send buffer's ``[src][dst]``,
    or, with ``splits.T``, a receive buffer's ``[dst][src]``."""
    ends = np.cumsum(splits.ravel())
    flat = [buffer[end - n:end] for end, n in zip(ends, splits.ravel())]
    w = splits.shape[1]
    return [flat[i * w:(i + 1) * w] for i in range(splits.shape[0])]


@dataclass
class Billed:
    """One list-form collective's outputs and its accounting."""

    outputs: list
    wire_bytes: int
    modeled_seconds: float


class ReferenceProcessGroup:
    """The list-form process group: codecs and billing as
    ``SimProcessGroup`` applied them before it took buffers."""

    def __init__(self, topology,
                 comms_config: Optional[QuantizedCommsConfig] = None):
        self.topology = topology
        self.comms_config = comms_config or QuantizedCommsConfig()

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    def all_reduce(self, inputs: List[np.ndarray]) -> Billed:
        per_gpu = wire_bytes(int(inputs[0].size), self.comms_config.allreduce)
        return Billed(all_reduce(inputs,
                                 codec=self.comms_config.allreduce_codec()),
                      per_gpu * self.world_size,
                      perf_model.all_reduce_time(per_gpu, self.topology))

    def all_to_all(self, inputs: List[List[np.ndarray]],
                   kind: AlltoAllKind) -> Billed:
        if kind is AlltoAllKind.INDEX:
            codec = None
            total_wire = sum(int(np.asarray(x).nbytes) for row in inputs
                             for x in row)
        else:
            forward = kind is AlltoAllKind.FORWARD
            codec = self.comms_config.forward_codec() if forward \
                else self.comms_config.backward_codec()
            precision = self.comms_config.forward_alltoall if forward \
                else self.comms_config.backward_alltoall
            total_wire = wire_bytes(sum(int(np.asarray(x).size)
                                        for row in inputs for x in row),
                                    precision)
        per_gpu = total_wire / max(self.world_size, 1)
        return Billed(all_to_all(inputs, codec=codec), total_wire,
                      perf_model.all_to_all_time(per_gpu, self.topology))

    def reduce_scatter(self, inputs: List[List[np.ndarray]]) -> Billed:
        per_gpu = sum(int(np.asarray(x).nbytes) for x in inputs[0])
        return Billed(reduce_scatter(inputs), per_gpu * self.world_size,
                      perf_model.reduce_scatter_time(per_gpu, self.topology))

    def all_gather(self, inputs: List[np.ndarray]) -> Billed:
        per_gpu = int(np.asarray(inputs[0]).nbytes)
        return Billed(all_gather(inputs), per_gpu * self.world_size,
                      perf_model.all_gather_time(per_gpu, self.topology))

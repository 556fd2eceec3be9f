"""Numerically exact collectives over simulated ranks.

The reproduction runs every rank inside one process in lock-step, so a
collective is a pure function from per-rank inputs to per-rank outputs.
This gives the *correctness* path of the comms stack (real data actually
moves between ranks and training results are exact); the *performance*
path is the analytical model in :mod:`repro.comms.perf_model`.

Conventions match ``torch.distributed``:

* ``all_reduce(xs)`` — every rank receives the elementwise sum.
* ``all_gather(xs)`` — every rank receives the list of all inputs.
* ``reduce_scatter(xs)`` — rank r receives the sum of everyone's r-th chunk.
* ``all_to_all(xss)`` — ``xss[src][dst]`` is sent from src to dst; rank r
  receives ``[xss[0][r], xss[1][r], ...]``.
* ``broadcast(xs, root)`` — every rank receives ``xs[root]``.

Reductions are performed in a canonical order (rank 0 + rank 1 + ...) so
results are bitwise identical across repeated runs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

__all__ = ["all_reduce", "all_gather", "reduce_scatter", "all_to_all",
           "all_to_all_single", "broadcast", "all_reduce_stacked",
           "all_gather_stacked"]

Codec = Callable[[np.ndarray], np.ndarray]


def _check_world(inputs: list) -> int:
    if not inputs:
        raise ValueError("collective needs at least one rank")
    return len(inputs)


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _check_world_stacked(stacked: np.ndarray) -> int:
    stacked = np.asarray(stacked)
    if stacked.ndim == 0 or stacked.shape[0] == 0:
        raise ValueError("collective needs at least one rank")
    return int(stacked.shape[0])


def all_reduce(inputs: List[np.ndarray],
               codec: Optional[Codec] = None) -> List[np.ndarray]:
    """Elementwise sum over ranks, delivered to every rank.

    ``codec`` (e.g. a bf16 round-trip) is applied to each rank's
    contribution before reduction, modelling quantized collectives.
    """
    world = _check_world(inputs)
    shapes = {x.shape for x in inputs}
    if len(shapes) != 1:
        raise ValueError(f"all_reduce inputs must share a shape, got {shapes}")
    codec = codec or _identity
    total = codec(np.asarray(inputs[0], dtype=np.float32)).copy()
    for x in inputs[1:]:
        total = total + codec(np.asarray(x, dtype=np.float32))
    return [total.copy() for _ in range(world)]


def all_reduce_stacked(stacked: np.ndarray,
                       codec: Optional[Codec] = None) -> np.ndarray:
    """Leading-axis :func:`all_reduce`: ``stacked[r]`` is rank ``r``'s
    contribution; the returned ``(W, ...)`` array is every rank's
    (identical) reduced result.

    The sum is computed once and returned as a read-only
    ``np.broadcast_to`` view: all ``W`` rows are the same memory, the
    same "destinations share storage" contract as
    :func:`all_gather_stacked`, enforced here by the writeable flag.

    The reduction is an explicit sequential sum over leading-axis
    slices — NOT ``np.sum(axis=0)``, whose pairwise summation would
    change the float accumulation order — so each output slice is
    bitwise identical to the list-based collective on the same data.
    """
    world = _check_world_stacked(stacked)
    codec = codec or _identity
    total = codec(np.asarray(stacked[0], dtype=np.float32)).copy()
    for r in range(1, world):
        total += codec(np.asarray(stacked[r], dtype=np.float32))
    return np.broadcast_to(total, (world,) + total.shape)


def all_gather_stacked(stacked: np.ndarray,
                       codec: Optional[Codec] = None) -> np.ndarray:
    """Leading-axis :func:`all_gather`: returns one ``(W, ...)`` array —
    the gathered payload every rank receives (slice ``s`` is rank
    ``s``'s contribution). Callers must treat the result as read-only;
    unlike the list form, destinations share storage."""
    world = _check_world_stacked(stacked)
    codec = codec or _identity
    return np.stack([codec(np.asarray(stacked[r])) for r in range(world)],
                    axis=0)


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
    for chunks in inputs:
        if len(chunks) != world:
            raise ValueError(
                f"each rank must provide {world} chunks, got {len(chunks)}")
    codec = codec or _identity
    outputs = []
    for r in range(world):
        total = codec(np.asarray(inputs[0][r], dtype=np.float32)).copy()
        for src in range(1, world):
            total = total + codec(
                np.asarray(inputs[src][r], dtype=np.float32))
        outputs.append(total)
    return outputs


def all_to_all(inputs: List[List[np.ndarray]],
               codec: Optional[Codec] = None) -> List[List[np.ndarray]]:
    """``inputs[src][dst]`` -> ``outputs[dst][src]`` (NCCL AlltoAllv)."""
    world = _check_world(inputs)
    for row in inputs:
        if len(row) != world:
            raise ValueError(
                f"each rank must address {world} peers, got {len(row)}")
    codec = codec or _identity
    return [[_deliver(inputs[src][dst], codec) for src in range(world)]
            for dst in range(world)]


def _deliver(payload, codec: Codec) -> np.ndarray:
    """What the destination receives: a fresh copy through the codec. A
    zero-size payload carries no data, so it is not copied."""
    received = codec(np.asarray(payload))
    return received if received.size == 0 else received.copy()


def all_to_all_single(inputs: List[np.ndarray],
                      codec: Optional[Codec] = None) -> List[np.ndarray]:
    """Equal-split AlltoAll: each rank's input splits into W equal chunks
    along axis 0; output concatenates the received chunks."""
    world = _check_world(inputs)
    split = [np.array_split(np.asarray(x), world, axis=0) for x in inputs]
    exchanged = all_to_all(split, codec=codec)
    return [np.concatenate(chunks, axis=0) for chunks in exchanged]


def broadcast(inputs: List[np.ndarray], root: int = 0,
              codec: Optional[Codec] = None) -> List[np.ndarray]:
    world = _check_world(inputs)
    if not 0 <= root < world:
        raise ValueError(f"root {root} outside world size {world}")
    codec = codec or _identity
    payload = codec(np.asarray(inputs[root])).copy()
    return [payload.copy() for _ in range(world)]

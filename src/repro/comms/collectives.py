"""Numerically exact collectives over simulated ranks.

The reproduction runs every rank inside one process in lock-step, so a
collective is a pure function from per-rank inputs to per-rank outputs.
This gives the *correctness* path of the comms stack (real data actually
moves between ranks and training results are exact); the *performance*
path is the analytical model in :mod:`repro.comms.perf_model`.

Every collective takes one rank-stacked buffer and returns one, as NCCL
moves one contiguous buffer per rank:

* ``all_reduce(stack)`` — ``stack[r]`` is rank r's input; every rank
  receives the elementwise sum.
* ``all_gather(stack)`` — every rank receives the whole ``(W, ...)``
  stack.
* ``reduce_scatter(stack)`` — ``stack`` is ``(W, W*B, ...)``; rank r
  receives the sum over ranks of rows ``[r*B, (r+1)*B)``.
* ``all_to_all(send, splits)`` — AlltoAllv. ``splits[src, dst]`` rows of
  the flat ``send`` buffer go from src to dst; ``send`` holds them
  source-major, then by destination, and the result holds them
  destination-major, then by source.

Reductions are performed in a canonical order (rank 0 + rank 1 + ...) so
results are bitwise identical across repeated runs. Every codec is
elementwise, so applying it once to a whole buffer gives the bits of
applying it to each rank's slice.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = ["all_reduce", "all_gather", "reduce_scatter", "all_to_all",
           "rank_rows"]

Codec = Callable[[np.ndarray], np.ndarray]


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def _check_world(stacked: np.ndarray) -> int:
    stacked = np.asarray(stacked)
    if stacked.ndim == 0 or stacked.shape[0] == 0:
        raise ValueError("collective needs at least one rank")
    return int(stacked.shape[0])


def rank_rows(buffer: np.ndarray, counts: np.ndarray,
              rank: int) -> np.ndarray:
    """Rank ``rank``'s rows of a buffer laid out rank after rank,
    ``counts[r]`` rows each: a view."""
    start = int(np.sum(counts[:rank]))
    return buffer[start:start + int(counts[rank])]


def all_reduce(stacked: np.ndarray,
               codec: Optional[Codec] = None) -> np.ndarray:
    """Elementwise sum over the leading (rank) axis, delivered to every
    rank: the returned ``(W, ...)`` array is every rank's result.

    ``codec`` (e.g. a bf16 round-trip) is applied to each rank's
    contribution before reduction, modelling quantized collectives.

    The sum is computed once and returned as a read-only
    ``np.broadcast_to`` view: all ``W`` rows are the same memory, and
    the writeable flag keeps one rank's consumer from changing
    another's result.

    The reduction is an explicit sequential sum over leading-axis
    slices — NOT ``np.sum(axis=0)``, whose pairwise summation would
    change the float accumulation order.
    """
    world = _check_world(stacked)
    codec = codec or _identity
    total = codec(np.asarray(stacked[0], dtype=np.float32)).copy()
    for r in range(1, world):
        total += codec(np.asarray(stacked[r], dtype=np.float32))
    return np.broadcast_to(total, (world,) + total.shape)


def all_gather(stacked: np.ndarray,
               codec: Optional[Codec] = None) -> np.ndarray:
    """Returns the gathered ``(W, ...)`` payload every rank receives
    (slice ``s`` is rank ``s``'s contribution). Every rank shares this
    one array, so callers must treat it as read-only."""
    _check_world(stacked)
    return np.array((codec or _identity)(np.asarray(stacked)))


def reduce_scatter(stacked: np.ndarray,
                   codec: Optional[Codec] = None) -> np.ndarray:
    """``stacked`` is ``(W, W*B, ...)``: rank r's ``W`` chunks of ``B``
    rows. Returns the ``(W, B, ...)`` stack whose slice ``r`` is the sum
    over ranks of chunk ``r``, added in rank order as :func:`all_reduce`
    does."""
    world = _check_world(stacked)
    stacked = np.asarray(stacked)
    if stacked.ndim < 2 or stacked.shape[1] % world:
        raise ValueError(
            f"each rank must provide {world} equal chunks, got a stack "
            f"of shape {stacked.shape}")
    chunks = stacked.reshape((world, world, stacked.shape[1] // world)
                             + stacked.shape[2:])
    codec = codec or _identity
    total = codec(np.asarray(chunks[0], dtype=np.float32)).copy()
    for src in range(1, world):
        total += codec(np.asarray(chunks[src], dtype=np.float32))
    return total


def all_to_all(send: np.ndarray, splits: np.ndarray,
               codec: Optional[Codec] = None) -> np.ndarray:
    """AlltoAllv: ``splits[src, dst]`` rows of ``send`` (laid out
    source-major, then by destination) go from ``src`` to ``dst``.

    Returns the receive buffer, destination-major and then by source:
    rank ``r``'s rows are ``rank_rows(out, splits.sum(axis=0), r)``.
    Delivery is one permutation gather and one codec call.
    """
    splits = np.asarray(splits)
    if splits.ndim != 2 or splits.shape[0] != splits.shape[1] \
            or splits.shape[0] == 0:
        raise ValueError(f"splits must be a (W, W) matrix with W >= 1, "
                         f"got shape {splits.shape}")
    if (splits < 0).any() or int(splits.sum()) != len(send):
        raise ValueError(
            f"splits must be non-negative and sum to the {len(send)} "
            f"rows of the send buffer, got {int(splits.sum())}")
    # slot (src, dst) is one contiguous block of rows on either side:
    # list the blocks in receive order and gather each block's rows
    world = splits.shape[0]
    sizes = splits.ravel()
    first = (np.cumsum(sizes) - sizes).reshape(world, world).T.ravel()
    received = splits.T.ravel()
    ends = np.cumsum(received)
    rows = np.repeat(first - ends + received, received) + np.arange(ends[-1])
    return (codec or _identity)(np.take(send, rows, axis=0))

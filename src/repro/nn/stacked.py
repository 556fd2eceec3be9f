"""Rank-stacked module construction: R replicas -> one leading-axis model.

The simulator's data-parallel ranks hold bitwise-identical copies of every
dense module. Rather than looping ``for r in range(R)`` over R small
``nn`` calls per layer, the rank-stacked training mode packs all
replicas' parameters into single ``(R, ...)`` arrays so one batched
``np.matmul`` (or einsum) per layer advances every rank at once — the
same batched-kernel discipline the fused embedding arena applies to the
table dimension.

The helpers here build that stacked model *structurally* from a list of
per-rank modules:

* :func:`stack_parameters` — stack R same-shape parameters into one
  ``(R, ...)`` :class:`Parameter`;
* :func:`stack_modules` — recursively clone a module tree (``Linear``,
  activations, ``Sequential``/``MLP``) with every parameter stacked.

The first rule for a stacked kernel (see docs/performance.md):
**the leading axis is inert** — a stacked op must compute slice ``r``
exactly as the unstacked op computes rank ``r``'s data, bitwise. Batched
``np.matmul`` / leading-axis einsum / elementwise ops satisfy this;
anything that reduces *across* the leading axis (``np.sum(axis=0)``,
pairwise-summing helpers) does not and needs an explicit sequential
per-rank formulation (see ``repro.comms.collectives.all_reduce_stacked``).

The second rule covers what happens after the gradients are reduced:
**a value identical on every rank by construction is computed once and
broadcast** — the trainer steps one optimizer over rank 0's views and
copies row 0 of each stacked parameter into the other rows, instead of
repeating the same update R times over the stack.

Per-rank views into the stacked storage (``stacked.data[r]`` is a
contiguous view) let existing per-rank consumers — checkpointing,
``freeze()`` export, replica-sync checks — keep reading rank state
without copies.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .layers import Identity, Linear, Module, ReLU, Sequential, Sigmoid
from .parameter import Parameter

__all__ = ["stack_parameters", "stack_modules"]


def stack_parameters(params: Sequence[Parameter]) -> Parameter:
    """Stack R same-shape parameters into one ``(R, ...)`` parameter.

    The result is C-contiguous, so ``out.data[r]`` is a contiguous view
    bitwise equal to ``params[r].data``.
    """
    if not params:
        raise ValueError("need at least one parameter to stack")
    shapes = {p.data.shape for p in params}
    if len(shapes) != 1:
        raise ValueError(f"stacked parameters must share a shape, "
                         f"got {shapes}")
    return Parameter(np.stack([p.data for p in params], axis=0),
                     name=params[0].name)


def _stack_linear(layers: Sequence[Linear]) -> Linear:
    first = layers[0]
    stacked = Linear(first.in_features, first.out_features,
                     bias=first.bias is not None,
                     name=first.weight.name.rsplit(".weight", 1)[0])
    stacked.weight = stack_parameters([l.weight for l in layers])
    if first.bias is not None:
        stacked.bias = stack_parameters([l.bias for l in layers])
    return stacked


def stack_modules(modules: Sequence[Module]) -> Module:
    """Structurally clone R identical-architecture modules with every
    parameter stacked along a new leading axis.

    Supports the dense module vocabulary the trainer replicates per
    rank: ``Linear``, ``ReLU``/``Sigmoid``/``Identity`` and
    ``Sequential`` (including ``MLP``, which flattens to a plain
    ``Sequential`` of stacked layers — ``parameters()`` order is
    preserved, which checkpointing and bucketing rely on).
    """
    if not modules:
        raise ValueError("need at least one module to stack")
    first = modules[0]
    if any(type(m) is not type(first) for m in modules[1:]):
        raise TypeError("all modules must share a type, got "
                        f"{sorted({type(m).__name__ for m in modules})}")
    if isinstance(first, Linear):
        return _stack_linear(modules)
    if isinstance(first, (ReLU, Sigmoid, Identity)):
        return type(first)()
    if isinstance(first, Sequential):
        counts = {len(m.layers) for m in modules}
        if len(counts) != 1:
            raise ValueError(f"Sequential depth mismatch: {counts}")
        stacked_layers: List[Module] = [
            stack_modules([m.layers[i] for m in modules])
            for i in range(len(first.layers))]
        return Sequential(stacked_layers)
    raise TypeError(f"cannot stack module type {type(first).__name__}")

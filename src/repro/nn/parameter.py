"""Trainable parameter container used by every dense layer.

The reproduction deliberately avoids a tape-based autograd: every layer
implements an explicit ``backward`` that accumulates into ``Parameter.grad``.
This mirrors how the paper's stack separates dense parameters (synchronized
with AllReduce) from sparse embedding parameters (updated with exact sparse
optimizers), and it keeps the numerics fully inspectable.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Parameter"]


class Parameter:
    """A named, trainable dense tensor with an accumulated gradient.

    Parameters
    ----------
    data:
        Initial value. Stored as ``float32`` (the paper trains dense layers
        in FP32; reduced precision is applied to embeddings and comms only).
    name:
        Stable identifier, used for checkpointing and AllReduce bucketing.
    """

    def __init__(self, data: np.ndarray, name: str = "param") -> None:
        self.data = np.ascontiguousarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        #: preallocated storage the next gradient is written into (the
        #: trainer binds each parameter's slot of the AllReduce buckets);
        #: ``None`` lets the layer allocate
        self.grad_slot: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def grad_out(self) -> np.ndarray | None:
        """The ``out=`` array for the next gradient: the bound
        :attr:`grad_slot` while no gradient is held, else ``None`` (a
        fresh array, which :meth:`accumulate_grad` then adds in)."""
        return self.grad_slot if self.grad is None else None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the stored gradient.

        ``grad`` has the parameter's shape, or that shape behind leading
        axes: the trainer's backward yields one slice per rank,
        ``(R, *shape)``, from the one stored parameter.

        Ownership: the first gradient after :meth:`zero_grad` is
        *adopted*, not copied, when it is already float32 — the caller
        must pass a freshly computed array or the :meth:`grad_out` slot
        it wrote, and neither keep nor write to it afterwards. Later
        gradients are added into the adopted array.
        """
        if grad.shape[grad.ndim - self.data.ndim:] != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name} shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=False)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def copy(self) -> "Parameter":
        """Deep copy (used by data-parallel replication and checkpoints)."""
        clone = Parameter(self.data.copy(), self.name)
        if self.grad is not None:
            clone.grad = self.grad.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"

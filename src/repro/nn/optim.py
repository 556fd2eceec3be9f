"""Dense optimizers for the data-parallel (MLP) half of DLRM training.

These are the "dense" counterparts of the exact sparse optimizers in
:mod:`repro.embedding.optim`. The sparse/dense pairs share update math so
that the "exact sparse optimizer == dense reference" invariant (DESIGN.md
section 4, item 4) can be asserted in tests.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .. import check
from .parameter import Parameter

__all__ = ["Optimizer", "SGD", "AdaGrad", "Adam", "LAMB"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float) -> None:
        check.positive("lr", lr)
        self.params = list(params)
        self.lr = lr
        self._state: Dict[int, Dict[str, np.ndarray]] = {}

    def state_for(self, param: Parameter) -> Dict[str, np.ndarray]:
        return self._state.setdefault(id(param), {})

    def _slot(self, p: Parameter, name: str) -> np.ndarray:
        """State array ``name`` of ``p``; zeros (allocated only now)
        when the slot does not exist yet."""
        value = self.state_for(p).get(name)
        return np.zeros_like(p.data) if value is None else value

    def step(self) -> None:
        for p in self.params:
            if p.grad is not None:
                self._update(p)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def _update(self, p: Parameter) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, params: Sequence[Parameter], lr: float = 0.1,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        check.fraction("momentum", momentum, one=False)
        self.momentum = momentum
        self.weight_decay = weight_decay

    def _update(self, p: Parameter) -> None:
        grad = p.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * p.data
        if self.momentum:
            state = self.state_for(p)
            buf = state.get("momentum")
            if buf is None:
                buf = grad.astype(np.float32).copy()
            else:
                buf = self.momentum * buf + grad
            state["momentum"] = buf
            grad = buf
        p.data -= (self.lr * grad).astype(np.float32)


class AdaGrad(Optimizer):
    """AdaGrad with per-element accumulated squared gradients [Duchi 2011]."""

    def __init__(self, params: Sequence[Parameter], lr: float = 0.01,
                 eps: float = 1e-8) -> None:
        super().__init__(params, lr)
        self.eps = eps

    def _update(self, p: Parameter) -> None:
        acc = self._slot(p, "sum_sq") + p.grad * p.grad
        self.state_for(p)["sum_sq"] = acc
        p.data -= (self.lr * p.grad / (np.sqrt(acc) + self.eps)).astype(np.float32)


class Adam(Optimizer):
    """Adam [Kingma & Ba 2014] with bias correction."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps

    def _update(self, p: Parameter) -> None:
        state = self.state_for(p)
        m, v = self._slot(p, "m"), self._slot(p, "v")
        t = int(state.get("t", np.zeros(1))[0]) + 1
        m = self.beta1 * m + (1 - self.beta1) * p.grad
        v = self.beta2 * v + (1 - self.beta2) * (p.grad * p.grad)
        state["m"], state["v"] = m, v
        state["t"] = np.array([t])
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        p.data -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(np.float32)


class LAMB(Optimizer):
    """Layer-wise adaptive moments (LAMB) [You et al. 2019].

    The paper cites LAMB as one of the advanced optimizers whose
    non-linearity makes naive duplicated sparse updates incorrect — which is
    why the exact (sorted/merged) sparse update path exists.

    The trust ratio is a norm over the whole of ``p.data``, so a
    parameter must be one layer's weight — the rank-stacked trainer
    therefore steps LAMB over rank 0's per-rank-shaped parameters, never
    over an ``(R, ...)`` stack.
    """

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-6,
                 weight_decay: float = 0.01) -> None:
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay

    def _update(self, p: Parameter) -> None:
        state = self.state_for(p)
        m, v = self._slot(p, "m"), self._slot(p, "v")
        t = int(state.get("t", np.zeros(1))[0]) + 1
        m = self.beta1 * m + (1 - self.beta1) * p.grad
        v = self.beta2 * v + (1 - self.beta2) * (p.grad * p.grad)
        state["m"], state["v"] = m, v
        state["t"] = np.array([t])
        m_hat = m / (1 - self.beta1 ** t)
        v_hat = v / (1 - self.beta2 ** t)
        update = m_hat / (np.sqrt(v_hat) + self.eps)
        if self.weight_decay:
            update = update + self.weight_decay * p.data
        w_norm = float(np.linalg.norm(p.data))
        u_norm = float(np.linalg.norm(update))
        trust = w_norm / u_norm if w_norm > 0 and u_norm > 0 else 1.0
        p.data -= (self.lr * trust * update).astype(np.float32)

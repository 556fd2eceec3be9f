"""Dense layers with explicit forward/backward passes.

Each layer caches exactly the activations its backward pass needs, mirroring
how a training framework holds activations between the forward and backward
halves of an iteration (the quantity the pipeline model in
:mod:`repro.core.pipeline` charges against HBM capacity).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init as initializers
from .parameter import Parameter

__all__ = ["Module", "Linear", "ReLU", "Sigmoid", "Identity", "Sequential", "MLP"]


class Module:
    """Minimal layer interface: ``forward``/``backward``/``parameters``."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> List[Parameter]:
        return []

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Fully-connected layer: ``y = x @ W.T + b``.

    Weight shape is ``(out_features, in_features)`` to match the PyTorch
    convention, which keeps checkpoints interchangeable with the reference
    DLRM implementation.

    Rank-stacked inputs: ``forward``/``backward`` also take ``(R, B, in)``
    / ``(R, B, out)`` arrays, one slice per data-parallel rank, against
    the one stored weight, and return per-rank gradients ``(R, *shape)``.
    The leading axis is inert: ``np.matmul`` broadcasts the weight and
    computes slice ``r`` with the GEMM the 2-D ``@`` runs on rank ``r``'s
    data alone, so every slice is bitwise the per-rank result. (The one
    GEMM over ``(R*B, in)`` rows is not: BLAS may pick other kernels per
    row count.) Each gradient is written into the parameter's
    :meth:`~repro.nn.Parameter.grad_out` slot when one is bound.
    """

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 init: Callable = initializers.xavier_uniform,
                 bias: bool = True, name: str = "linear") -> None:
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init((out_features, in_features), rng),
                                name=f"{name}.weight")
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32),
                              name=f"{name}.bias") if bias else None
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        y = x @ self.weight.data.T
        if self.bias is not None:
            y = y + self.bias.data
        return y.astype(np.float32, copy=False)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        # per-rank dy.T @ x and dy.sum, straight into the bound slots
        self.weight.accumulate_grad(np.matmul(
            np.swapaxes(dy, -1, -2), self._input,
            out=self.weight.grad_out()))
        if self.bias is not None:
            self.bias.accumulate_grad(
                dy.sum(axis=-2, out=self.bias.grad_out()))
        return (dy @ self.weight.data).astype(np.float32, copy=False)

    def parameters(self) -> List[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params

    def flops_per_sample(self) -> int:
        """Multiply-accumulate FLOPs for one sample, fwd pass (2*m*n)."""
        return 2 * self.in_features * self.out_features


class ReLU(Module):
    """Rectified linear activation with cached-input backward."""

    def __init__(self) -> None:
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return F.relu(x)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        return F.relu_grad(self._input, dy)


class Sigmoid(Module):
    """Logistic activation; backward uses the cached output."""

    def __init__(self) -> None:
        self._output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._output = F.sigmoid(x)
        return self._output

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise RuntimeError("backward called before forward")
        s = self._output
        return (dy * s * (1.0 - s)).astype(np.float32)


class Identity(Module):
    """Pass-through layer (placeholder in configurable stacks)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy


class Sequential(Module):
    """Runs layers in order; backward replays them in reverse."""

    def __init__(self, layers: Iterable[Module]) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dy: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
        return dy

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params


class MLP(Sequential):
    """Stack of Linear+ReLU blocks, as used for DLRM bottom/top MLPs.

    Parameters
    ----------
    layer_sizes:
        ``[in, h1, ..., out]``. A DLRM bottom MLP maps dense features to the
        embedding dimension; the top MLP maps interaction output to 1 logit.
    final_activation:
        ``"relu"``, ``"sigmoid"`` or ``None`` (raw logits, the usual choice
        when paired with :func:`repro.nn.functional.bce_with_logits`).
    """

    def __init__(self, layer_sizes: Sequence[int],
                 rng: Optional[np.random.Generator] = None,
                 final_activation: Optional[str] = None,
                 name: str = "mlp") -> None:
        if len(layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least [in, out]")
        rng = rng if rng is not None else np.random.default_rng(0)
        layers: List[Module] = []
        n_pairs = len(layer_sizes) - 1
        for i in range(n_pairs):
            layers.append(Linear(layer_sizes[i], layer_sizes[i + 1], rng=rng,
                                 name=f"{name}.{i}"))
            is_last = i == n_pairs - 1
            if not is_last:
                layers.append(ReLU())
            elif final_activation == "relu":
                layers.append(ReLU())
            elif final_activation == "sigmoid":
                layers.append(Sigmoid())
            elif final_activation is not None:
                raise ValueError(f"unknown final_activation {final_activation!r}")
        super().__init__(layers)
        self.layer_sizes = list(layer_sizes)

    def flops_per_sample(self) -> int:
        return sum(l.flops_per_sample() for l in self.layers
                   if isinstance(l, Linear))

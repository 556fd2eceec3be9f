"""GEMM and MLP operator performance models (Appendix A, Figs. 14-17).

Times one GEMM (or a whole MLP stack) with a roofline: the larger of the
compute time at size-dependent achievable FLOP/s and the memory time at
achievable HBM bandwidth, plus kernel launch overhead. This reproduces the
Fig. 14-17 curve shapes: TF/s grows with problem size, saturates at the
measured efficiency ceiling, and reduced precisions lift the ceiling.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import check
from .devices import DeviceSpec

__all__ = ["gemm_time", "gemm_tflops", "MLPBenchResult", "mlp_time",
           "mlp_benchmark"]

_DTYPE_BYTES = {"fp32": 4, "tf32": 4, "fp16": 2, "bf16": 2}


def gemm_time(m: int, n: int, k: int, device: DeviceSpec,
              precision: str = "fp32") -> float:
    """Seconds for one (m x k) @ (k x n) GEMM."""
    check.count("m", m)
    check.count("n", n)
    check.count("k", k)
    flops = 2.0 * m * n * k
    compute = flops / device.achievable_flops(precision, flops)
    bytes_moved = (m * k + k * n + m * n) * _DTYPE_BYTES[precision]
    memory = bytes_moved / device.hbm_achievable_bw
    return max(compute, memory) + device.kernel_launch_overhead


def gemm_tflops(m: int, n: int, k: int, device: DeviceSpec,
                precision: str = "fp32") -> float:
    """Achieved TF/s, the y-axis of Figs. 14-15."""
    return 2.0 * m * n * k / gemm_time(m, n, k, device, precision) / 1e12


@dataclass(frozen=True)
class MLPBenchResult:
    """One row of the Fig. 16-17 MLP benchmark."""

    batch_size: int
    layer_width: int
    num_layers: int
    precision: str
    forward_seconds: float
    backward_seconds: float
    achieved_tflops: float

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds


def mlp_time(batch_size: int, layer_sizes, device: DeviceSpec,
             precision: str = "fp32", backward: bool = False) -> float:
    """Seconds for one forward (or backward) pass through an MLP stack.

    Backward runs two GEMMs per layer (dX and dW) — 2x the forward work,
    matching the Appendix A benchmark's SGD-included backward.
    """
    total = 0.0
    sizes = list(layer_sizes)
    for k, n in zip(sizes, sizes[1:]):
        t = gemm_time(batch_size, n, k, device, precision)
        total += 2 * t if backward else t
    return total


def mlp_benchmark(batch_size: int, layer_width: int, num_layers: int,
                  device: DeviceSpec,
                  precision: str = "fp32") -> MLPBenchResult:
    """The Appendix A MLP benchmark: ``num_layers`` square layers."""
    sizes = [layer_width] * (num_layers + 1)
    fwd = mlp_time(batch_size, sizes, device, precision)
    bwd = mlp_time(batch_size, sizes, device, precision, backward=True)
    flops = 3 * sum(2.0 * batch_size * a * b
                    for a, b in zip(sizes, sizes[1:]))
    return MLPBenchResult(
        batch_size=batch_size, layer_width=layer_width,
        num_layers=num_layers, precision=precision,
        forward_seconds=fwd, backward_seconds=bwd,
        achieved_tflops=flops / (fwd + bwd) / 1e12)

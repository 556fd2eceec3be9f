"""Low-precision numerics shared by embedding storage and comms quantization.

The paper uses three reduced-precision paths:

* FP16 embedding tables (Section 5.3.2) and FP16 forward AlltoAll,
* BF16 backward AlltoAll (quantized collectives, [58]),
* INT8 row-wise quantized embedding storage (quantized tables, [57]).

numpy has native float16; bfloat16 is emulated bit-exactly by operating on
the upper 16 bits of the IEEE-754 float32 representation with
round-to-nearest-even, which matches hardware BF16 conversion.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "fp16_roundtrip",
    "to_bf16",
    "from_bf16",
    "bf16_roundtrip",
    "quantize_int8_rowwise",
    "dequantize_int8_rowwise",
    "bytes_per_element",
    "roundtrip",
    "table_bytes",
]

_DTYPE_BYTES = {"fp32": 4, "fp16": 2, "bf16": 2, "int8": 1}
# int8 row-wise storage carries a float32 (scale, offset) pair per row
_INT8_ROW_SCALE_BYTES = 8
_F32_MAX = float(np.finfo(np.float32).max)


def bytes_per_element(dtype: str) -> int:
    """Storage bytes per element for a named precision."""
    try:
        return _DTYPE_BYTES[dtype]
    except KeyError:
        raise ValueError(f"unknown precision {dtype!r}; "
                         f"expected one of {sorted(_DTYPE_BYTES)}") from None


def table_bytes(rows: int, dim: int, precision: str) -> int:
    """Stored bytes of a ``rows x dim`` table at ``precision``.

    int8 adds its float32 (scale, offset) pair per row."""
    overhead = rows * _INT8_ROW_SCALE_BYTES if precision == "int8" else 0
    return rows * dim * bytes_per_element(precision) + overhead


def fp16_roundtrip(x: np.ndarray) -> np.ndarray:
    """float32 -> float16 -> float32, i.e. what an FP16 wire transfer does.

    Values beyond the fp16 range become inf, matching hardware conversion.
    """
    with np.errstate(over="ignore"):
        return x.astype(np.float16).astype(np.float32)


def to_bf16(x: np.ndarray) -> np.ndarray:
    """Convert float32 to bfloat16 stored as uint16 (upper half of fp32).

    Applies round-to-nearest-even on the truncated 16 bits, the same
    behaviour as CUDA ``__float2bfloat16``.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    bits = x.view(np.uint32)
    # round-to-nearest-even: add 0x7FFF + LSB of the surviving mantissa bit
    rounding_bias = np.uint32(0x7FFF) + ((bits >> np.uint32(16)) & np.uint32(1))
    rounded = bits + rounding_bias
    return (rounded >> np.uint32(16)).astype(np.uint16)


def from_bf16(x: np.ndarray) -> np.ndarray:
    """Expand uint16 bfloat16 back to float32 (exact, zero-padded mantissa)."""
    expanded = x.astype(np.uint32) << np.uint32(16)
    return expanded.view(np.float32).reshape(x.shape).copy()


def bf16_roundtrip(x: np.ndarray) -> np.ndarray:
    """float32 -> bf16 -> float32, i.e. what a BF16 wire transfer does."""
    return from_bf16(to_bf16(x))


def quantize_int8_rowwise(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise affine INT8 quantization: per-row scale and zero offset.

    Returns ``(codes, scale, offset)`` where
    ``x ~= codes * scale[:, None] + offset[:, None]``. This is the scheme of
    the FBGEMM rowwise-quantized embedding formats. A row of finite values
    whose float32 span ``hi - lo`` overflows is scaled in float64.
    """
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {x.shape}")
    x = x.astype(np.float32)
    lo = x.min(axis=1)
    hi = x.max(axis=1)
    with np.errstate(over="ignore"):
        span = hi - lo
        wide = np.flatnonzero(np.isinf(span) & np.isfinite(lo + hi))
        # degenerate rows (constant) get scale 1 to avoid division by zero
        scale = np.where(span > 0, span / 255.0, 1.0).astype(np.float32)
        scale[wide] = (hi[wide] - lo[wide].astype(np.float64)) / 255.0
        codes = np.clip(np.rint((x - lo[:, None]) / scale[:, None]), 0, 255)
    codes[wide] = np.clip(np.rint((x[wide] - lo[wide, None].astype(
        np.float64)) / scale[wide, None]), 0, 255)
    return codes.astype(np.uint8), scale, lo


def dequantize_int8_rowwise(codes: np.ndarray, scale: np.ndarray,
                            offset: np.ndarray) -> np.ndarray:
    """``codes * scale + offset`` per row, in float32; a finite row that
    overflows it is read in float64, clipped to the float32 range."""
    with np.errstate(over="ignore"):
        out = codes.astype(np.float32) * scale[:, None] + offset[:, None]
    wide = np.isinf(out).any(axis=1) & np.isfinite(scale + offset)
    out[wide] = np.clip(codes[wide] * scale[wide, None].astype(np.float64)
                        + offset[wide, None], -_F32_MAX, _F32_MAX)
    return out


def roundtrip(x: np.ndarray, precision: str) -> np.ndarray:
    """Store ``x`` at ``precision`` and read it back as a new float32 array.

    fp32 is a plain copy; int8 rounds row-wise, so ``x`` is 2-D."""
    if precision == "fp16":
        return fp16_roundtrip(x)
    if precision == "bf16":
        return bf16_roundtrip(x)
    if precision == "int8":
        return dequantize_int8_rowwise(*quantize_int8_rowwise(x))
    bytes_per_element(precision)  # rejects an unknown precision
    return x.astype(np.float32)

"""Tests for low-precision numerics (fp16/bf16/int8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lowp


class TestFP16:
    def test_roundtrip_exact_for_representable(self):
        x = np.array([1.0, 0.5, -2.0, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(lowp.fp16_roundtrip(x), x)

    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000).astype(np.float32)
        err = np.abs(lowp.fp16_roundtrip(x) - x)
        # fp16 has 10 mantissa bits -> relative error <= 2^-11
        assert np.all(err <= np.abs(x) * 2 ** -11 + 1e-8)


class TestBF16:
    def test_roundtrip_exact_for_representable(self):
        # bf16 has 7 mantissa bits: 1.0, 1.5, -0.25 are representable
        x = np.array([1.0, 1.5, -0.25, 0.0], dtype=np.float32)
        np.testing.assert_array_equal(lowp.bf16_roundtrip(x), x)

    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=1000).astype(np.float32)
        err = np.abs(lowp.bf16_roundtrip(x) - x)
        # 7 mantissa bits -> relative error <= 2^-8
        assert np.all(err <= np.abs(x) * 2 ** -8 + 1e-12)

    def test_preserves_fp32_range(self):
        """bf16 keeps the fp32 exponent, unlike fp16 which overflows."""
        x = np.array([1e38, -1e38], dtype=np.float32)
        out = lowp.bf16_roundtrip(x)
        assert np.all(np.isfinite(out))
        fp16_out = lowp.fp16_roundtrip(x)
        assert np.all(np.isinf(fp16_out))

    def test_round_to_nearest_even(self):
        # 1.0 + 2^-8 is exactly halfway between bf16 neighbours 1.0 and
        # 1.0078125; round-to-even picks 1.0 (even mantissa).
        halfway = np.float32(1.0) + np.float32(2.0 ** -8)
        out = lowp.bf16_roundtrip(np.array([halfway], dtype=np.float32))
        assert out[0] == np.float32(1.0)

    def test_uint16_storage(self):
        x = np.array([1.0], dtype=np.float32)
        stored = lowp.to_bf16(x)
        assert stored.dtype == np.uint16
        assert stored[0] == 0x3F80  # upper half of fp32 1.0

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=100)
    def test_monotone_property(self, v):
        """Rounding never moves a value past its bf16 neighbours."""
        x = np.array([v], dtype=np.float32)
        out = lowp.bf16_roundtrip(x)
        assert abs(float(out[0]) - v) <= max(abs(v) * 2 ** -8, 1e-38)

    def test_shape_preserved(self):
        x = np.zeros((3, 4, 5), dtype=np.float32)
        assert lowp.bf16_roundtrip(x).shape == (3, 4, 5)


class TestInt8Rowwise:
    def test_reconstruction_error_bounded(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 32)).astype(np.float32)
        codes, scale, offset = lowp.quantize_int8_rowwise(x)
        recon = lowp.dequantize_int8_rowwise(codes, scale, offset)
        # max error is half a quantization step per row
        row_span = x.max(axis=1) - x.min(axis=1)
        bound = row_span / 255.0 / 2.0 + 1e-6
        assert np.all(np.abs(recon - x) <= bound[:, None])

    def test_constant_row(self):
        x = np.full((1, 8), 3.25, dtype=np.float32)
        codes, scale, offset = lowp.quantize_int8_rowwise(x)
        recon = lowp.dequantize_int8_rowwise(codes, scale, offset)
        np.testing.assert_allclose(recon, x, atol=1e-6)

    def test_extremes_exact(self):
        """Row min and max reconstruct exactly (codes 0 and 255)."""
        x = np.array([[0.0, 1.0, 0.25, 0.5]], dtype=np.float32)
        codes, scale, offset = lowp.quantize_int8_rowwise(x)
        recon = lowp.dequantize_int8_rowwise(codes, scale, offset)
        assert recon[0, 0] == pytest.approx(0.0, abs=1e-6)
        assert recon[0, 1] == pytest.approx(1.0, rel=1e-5)

    def test_codes_dtype(self):
        x = np.zeros((2, 4), dtype=np.float32)
        codes, _, _ = lowp.quantize_int8_rowwise(x)
        assert codes.dtype == np.uint8

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            lowp.quantize_int8_rowwise(np.zeros(4, dtype=np.float32))


class TestBytesPerElement:
    @pytest.mark.parametrize("dtype,expected", [
        ("fp32", 4), ("fp16", 2), ("bf16", 2), ("int8", 1)])
    def test_values(self, dtype, expected):
        assert lowp.bytes_per_element(dtype) == expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            lowp.bytes_per_element("fp8")


def _stored_weight_oracle(weight, precision):
    """The export's former per-precision rounding, kept as the oracle
    for ``lowp.roundtrip``."""
    if precision == "fp32":
        return weight.astype(np.float32)
    if precision == "fp16":
        return lowp.fp16_roundtrip(weight).astype(np.float32)
    if precision == "bf16":
        return lowp.bf16_roundtrip(weight).astype(np.float32)
    codes, scale, offset = lowp.quantize_int8_rowwise(weight)
    return lowp.dequantize_int8_rowwise(codes, scale, offset).astype(
        np.float32)


def _former_int8(x):
    """The float32-only int8 round trip ``lowp`` used before it learned
    to scale rows whose span overflows float32."""
    lo, hi = x.min(axis=1), x.max(axis=1)
    span = hi - lo
    scale = np.where(span > 0, span / 255.0, 1.0).astype(np.float32)
    codes = np.clip(np.rint((x - lo[:, None]) / scale[:, None]), 0, 255)
    return codes.astype(np.uint8).astype(np.float32) * scale[:, None] \
        + lo[:, None]


def _table_bytes_oracle(rows, dim, precision):
    """The export's former stored-bytes formula: bytes per element, plus
    a float32 (scale, offset) pair per int8 row."""
    per_element = {"fp32": 4, "fp16": 2, "bf16": 2, "int8": 1}[precision]
    return rows * dim * per_element + (rows * 8 if precision == "int8"
                                       else 0)


PRECISIONS = ("fp32", "fp16", "bf16", "int8")
TINY = np.finfo(np.float32).tiny
EDGE_ROWS = np.array([
    [np.nan, 1.0, -2.0, 0.5],                    # NaN in a row
    [np.inf, -np.inf, 0.0, 1.0],                 # both infinities
    [-0.0, 0.0, -0.0, 0.0],                      # signed zeros
    [TINY / 2, -TINY / 4, 1e-45, TINY],          # subnormals
    [3.25, 3.25, 3.25, 3.25],                    # constant int8 row
    [-7.0, -7.0, -7.0, -7.0],                    # constant, negative
    [1e5, -1e5, 65504.0, 65520.0],               # past fp16 range
    [0.1, 0.2, 0.3, 0.4],
], dtype=np.float32)


class TestStorageRoundtrip:
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_matches_the_former_formula_on_edge_values(self, precision):
        with np.errstate(all="ignore"):
            got = lowp.roundtrip(EDGE_ROWS, precision)
            want = _stored_weight_oracle(EDGE_ROWS, precision)
        assert got.dtype == np.float32 and got.shape == EDGE_ROWS.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PRECISIONS), st.integers(1, 6),
           st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_matches_the_former_formula(self, precision, rows, dim, seed):
        bits = np.random.default_rng(seed).integers(
            0, 2 ** 32, size=(rows, dim), dtype=np.uint32)
        x = bits.view(np.float32)  # every float32 pattern, NaNs included
        with np.errstate(all="ignore"):
            got = lowp.roundtrip(x, precision)
            want = _stored_weight_oracle(x, precision)
        assert got.tobytes() == want.tobytes()

    def test_int8_row_whose_span_overflows_round_trips_finite(self):
        """Regression: ``hi - lo`` overflowed float32 and every entry of
        the row came back NaN."""
        x = np.array([[3e38, -3e38, 0.5, 1.0], [0.1, 0.2, 0.3, 0.4]],
                     dtype=np.float32)
        got = lowp.roundtrip(x, "int8")
        assert np.isfinite(got).all()
        # within half a code step of every entry
        step = (3e38 - -3e38) / 255
        assert np.abs(got[0].astype(np.float64) - x[0]).max() <= step / 2
        assert got[1].tobytes() == _former_int8(x[1:]).tobytes()
        limit = np.finfo(np.float32).max
        edge = np.array([[limit, -limit, 0.0, 1.0]], dtype=np.float32)
        np.testing.assert_array_equal(lowp.roundtrip(edge, "int8")[0, :2],
                                      [limit, -limit])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6),
           st.integers(0, 2 ** 32 - 1))
    def test_int8_keeps_the_former_bytes_where_the_span_is_finite(
            self, rows, dim, seed):
        bits = np.random.default_rng(seed).integers(
            0, 2 ** 32, size=(rows, dim), dtype=np.uint32)
        x = bits.view(np.float32)
        with np.errstate(all="ignore"):
            finite_span = np.isfinite(x.max(axis=1) - x.min(axis=1))
            got = lowp.roundtrip(x, "int8")
            want = _former_int8(x)
        assert got[finite_span].tobytes() == want[finite_span].tobytes()

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_returns_a_new_array(self, precision):
        x = EDGE_ROWS[4:].copy()
        got = lowp.roundtrip(x, precision)
        assert not np.shares_memory(got, x)

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError, match="fp8"):
            lowp.roundtrip(EDGE_ROWS, "fp8")


class TestTableBytes:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("rows,dim", [(1, 1), (1, 64), (150, 8),
                                          (10 ** 6, 128)])
    def test_matches_the_former_formula(self, precision, rows, dim):
        assert lowp.table_bytes(rows, dim, precision) == \
            _table_bytes_oracle(rows, dim, precision)

    def test_unknown_precision_raises(self):
        with pytest.raises(ValueError, match="fp8"):
            lowp.table_bytes(4, 4, "fp8")

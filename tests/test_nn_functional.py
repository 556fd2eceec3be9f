"""Tests for repro.nn.functional: numerical stability and exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra.numpy import array_shapes, arrays

from repro.nn import functional as F

from .reference_kernels import relu_grad_reference

# every float32 bit pattern: NaN payloads, +-inf, +-0.0 and subnormals
ANY_FLOAT32 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda bits: np.uint32(bits).view(np.float32))


class TestSigmoid:
    def test_midpoint(self):
        assert F.sigmoid(np.array([0.0], dtype=np.float32))[0] == pytest.approx(0.5)

    def test_symmetry(self):
        x = np.linspace(-10, 10, 41).astype(np.float32)
        np.testing.assert_allclose(F.sigmoid(x) + F.sigmoid(-x),
                                   np.ones_like(x), rtol=1e-6)

    def test_extreme_values_do_not_overflow(self):
        x = np.array([-1e4, 1e4], dtype=np.float32)
        out = F.sigmoid(x)
        assert out[0] == pytest.approx(0.0)
        assert out[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))

    def test_monotonic(self):
        x = np.linspace(-50, 50, 1001).astype(np.float32)
        y = F.sigmoid(x)
        assert np.all(np.diff(y) >= 0)

    @given(st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50)
    def test_matches_naive_formula_in_safe_range(self, v):
        x = np.array([v], dtype=np.float32)
        naive = 1.0 / (1.0 + np.exp(-v))
        assert F.sigmoid(x)[0] == pytest.approx(naive, rel=1e-5)


class TestRelu:
    def test_values(self):
        x = np.array([-2.0, 0.0, 3.0], dtype=np.float32)
        np.testing.assert_array_equal(F.relu(x), [0.0, 0.0, 3.0])

    def test_grad_masks_negative(self):
        x = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        dy = np.ones_like(x)
        np.testing.assert_array_equal(F.relu_grad(x, dy), [0.0, 0.0, 1.0])

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_grad_is_bitwise_the_where_oracle(self, data):
        shape = data.draw(array_shapes(min_dims=1, max_dims=3, max_side=9))
        x = data.draw(arrays(np.float32, shape, elements=ANY_FLOAT32))
        dy = data.draw(arrays(np.float32, shape, elements=ANY_FLOAT32))
        got = F.relu_grad(x, dy)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == relu_grad_reference(x, dy).tobytes()

    def test_grad_of_a_strided_view(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 8)).astype(np.float32)[:, ::2]
        dy = rng.normal(size=(4, 6)).astype(np.float32).T
        assert F.relu_grad(x, dy).tobytes() == \
            relu_grad_reference(x, dy).tobytes()

    @pytest.mark.parametrize("dy, error", [
        (np.ones((2, 3), np.float64), TypeError),
        (np.ones((2, 3), np.float16), TypeError),
        (np.ones(3, np.float32), ValueError),
        (np.ones((1, 3), np.float32), ValueError)])
    def test_grad_refuses_other_dtypes_and_broadcasts(self, dy, error):
        with pytest.raises(error):
            F.relu_grad(np.ones((2, 3), np.float32), dy)

    @given(st.integers(min_value=1, max_value=64))
    @settings(max_examples=20)
    def test_idempotent(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n).astype(np.float32)
        np.testing.assert_array_equal(F.relu(F.relu(x)), F.relu(x))


class TestBCEWithLogits:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=32).astype(np.float32)
        labels = (rng.random(32) > 0.5).astype(np.float32)
        p = F.sigmoid(logits)
        naive = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        assert F.bce_with_logits(logits, labels) == pytest.approx(naive, rel=1e-4)

    def test_perfect_prediction_near_zero_loss(self):
        logits = np.array([100.0, -100.0], dtype=np.float32)
        labels = np.array([1.0, 0.0], dtype=np.float32)
        assert F.bce_with_logits(logits, labels) == pytest.approx(0.0, abs=1e-6)

    def test_wrong_prediction_large_loss(self):
        logits = np.array([100.0], dtype=np.float32)
        labels = np.array([0.0], dtype=np.float32)
        assert F.bce_with_logits(logits, labels) == pytest.approx(100.0, rel=1e-3)

    def test_extreme_logits_finite(self):
        logits = np.array([1e6, -1e6], dtype=np.float32)
        labels = np.array([0.0, 1.0], dtype=np.float32)
        assert np.isfinite(F.bce_with_logits(logits, labels))

    def test_grad_matches_numerical(self):
        from .helpers import numerical_gradient
        rng = np.random.default_rng(2)
        logits = rng.normal(size=8).astype(np.float32)
        labels = (rng.random(8) > 0.5).astype(np.float32)
        analytic = F.bce_with_logits_grad(logits, labels)
        numeric = numerical_gradient(lambda x: F.bce_with_logits(x, labels), logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-2, atol=1e-5)

    def test_grad_zero_at_match(self):
        logits = np.array([50.0], dtype=np.float32)
        labels = np.array([1.0], dtype=np.float32)
        assert F.bce_with_logits_grad(logits, labels)[0] == pytest.approx(0.0, abs=1e-6)

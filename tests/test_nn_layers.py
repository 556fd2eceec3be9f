"""Tests for dense layers: gradient checks, shapes, parameter plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.models import zoo_config
from repro.nn import functional as F

from .helpers import numerical_gradient


def scalar_loss(y):
    """Simple deterministic scalar reduction for gradient checking."""
    return float(np.sum(y.astype(np.float64) ** 2) / 2.0)


def scalar_loss_grad(y):
    return y.astype(np.float32)


class TestParameter:
    def test_accumulates(self):
        p = nn.Parameter(np.zeros(3))
        p.accumulate_grad(np.ones(3, dtype=np.float32))
        p.accumulate_grad(np.ones(3, dtype=np.float32))
        np.testing.assert_array_equal(p.grad, [2.0, 2.0, 2.0])

    def test_shape_mismatch_raises(self):
        p = nn.Parameter(np.zeros(3))
        with pytest.raises(ValueError):
            p.accumulate_grad(np.ones(4, dtype=np.float32))

    def test_zero_grad(self):
        p = nn.Parameter(np.zeros(2))
        p.accumulate_grad(np.ones(2, dtype=np.float32))
        p.zero_grad()
        assert p.grad is None

    def test_copy_is_deep(self):
        p = nn.Parameter(np.ones(2))
        q = p.copy()
        q.data += 1.0
        np.testing.assert_array_equal(p.data, [1.0, 1.0])

    def test_casts_to_float32(self):
        p = nn.Parameter(np.zeros(2, dtype=np.float64))
        assert p.data.dtype == np.float32


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        y = layer.forward(np.zeros((7, 5), dtype=np.float32))
        assert y.shape == (7, 3)

    def test_forward_matches_matmul(self):
        rng = np.random.default_rng(1)
        layer = nn.Linear(4, 2, rng=rng)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer.forward(x), expected, rtol=1e-6)

    def test_input_gradient_check(self):
        rng = np.random.default_rng(2)
        layer = nn.Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4)).astype(np.float32)

        def f(xv):
            return scalar_loss(layer.forward(xv))

        y = layer.forward(x)
        dx = layer.backward(scalar_loss_grad(y))
        np.testing.assert_allclose(dx, numerical_gradient(f, x), rtol=2e-2,
                                   atol=1e-3)

    def test_weight_gradient_check(self):
        rng = np.random.default_rng(3)
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)

        def f(w):
            saved = layer.weight.data
            layer.weight.data = w.astype(np.float32)
            out = scalar_loss(layer.forward(x))
            layer.weight.data = saved
            return out

        y = layer.forward(x)
        layer.zero_grad()
        layer.backward(scalar_loss_grad(y))
        np.testing.assert_allclose(layer.weight.grad,
                                   numerical_gradient(f, layer.weight.data),
                                   rtol=2e-2, atol=1e-3)

    def test_bias_gradient_is_column_sum(self):
        rng = np.random.default_rng(4)
        layer = nn.Linear(3, 2, rng=rng)
        x = rng.normal(size=(5, 3)).astype(np.float32)
        layer.forward(x)
        dy = rng.normal(size=(5, 2)).astype(np.float32)
        layer.backward(dy)
        np.testing.assert_allclose(layer.bias.grad, dy.sum(axis=0), rtol=1e-5)

    def test_no_bias(self):
        layer = nn.Linear(3, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_backward_before_forward_raises(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2), dtype=np.float32))

    def test_flops_per_sample(self):
        layer = nn.Linear(10, 20, rng=np.random.default_rng(0))
        assert layer.flops_per_sample() == 2 * 10 * 20


    def test_stacked_ranks_write_the_bound_slots(self):
        """``(R, B, in)`` inputs against the one weight: slice ``r`` of
        the output and of the per-rank gradients, written into the
        bound slots, is bitwise the 2-D layer on rank ``r``'s data; a
        second backward without ``zero_grad`` allocates and adds."""
        rng = np.random.default_rng(3)
        layer = nn.Linear(5, 4, rng=rng)
        x = rng.normal(size=(3, 6, 5)).astype(np.float32)
        dy = rng.normal(size=(3, 6, 4)).astype(np.float32)
        slots = [np.full((3,) + p.shape, np.nan, dtype=np.float32)
                 for p in layer.parameters()]
        for p, slot in zip(layer.parameters(), slots):
            p.grad_slot = slot
        y = layer.forward(x)
        dx = layer.backward(dy)
        for p, slot in zip(layer.parameters(), slots):
            assert p.grad is slot
        for r in range(3):
            ref = nn.Linear(5, 4)
            ref.weight.data = layer.weight.data.copy()
            np.testing.assert_array_equal(ref.forward(x[r]), y[r])
            np.testing.assert_array_equal(ref.backward(dy[r]), dx[r])
            for p, slot in zip(ref.parameters(), slots):
                np.testing.assert_array_equal(p.grad, slot[r])
        first = [slot.copy() for slot in slots]
        layer.backward(dy)
        for slot, kept in zip(slots, first):
            np.testing.assert_array_equal(slot, kept + kept)


def large_widths():
    """Every Linear (in, out) of the serving dense half at
    ``zoo_config("large")``: bottom MLP, per-table projections, top MLP."""
    config = zoo_config("large")
    sizes = [(config.dense_dim,) + config.bottom_mlp,
             (config.interaction_dim,) + config.top_mlp + (1,)]
    pairs = [p for s in sizes for p in zip(s, s[1:])]
    return pairs + sorted({(t.embedding_dim, config.embedding_dim)
                           for t in config.tables})


class TestStackedSlices:
    """The premise of serving a window's dense half once per row count:
    a ``(k, m, in)`` stack gives every slice the bits of its own 2-D
    call, for every row count a serving dispatch can have."""

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_linear_slice_equals_2d_call(self, k):
        rng = np.random.default_rng(k)
        for fan_in, fan_out in large_widths():
            layer = nn.Linear(fan_in, fan_out, rng=rng)
            layer.bias.data = rng.normal(size=fan_out).astype(np.float32)
            for m in range(1, 70):
                x = rng.normal(size=(k, m, fan_in)).astype(np.float32)
                stacked = layer.forward(x)
                for j in range(k):
                    alone = layer.forward(x[j].copy())
                    assert stacked[j].shape == alone.shape
                    assert stacked[j].tobytes() == alone.tobytes(), \
                        (fan_in, fan_out, m, j)


class TestActivations:
    def test_relu_gradient_check(self):
        rng = np.random.default_rng(5)
        layer = nn.ReLU()
        # keep inputs away from the kink at 0
        x = rng.normal(size=(3, 4)).astype(np.float32)
        x[np.abs(x) < 0.1] = 0.5
        y = layer.forward(x)
        dx = layer.backward(scalar_loss_grad(y))
        np.testing.assert_allclose(
            dx, numerical_gradient(lambda v: scalar_loss(F.relu(v)), x),
            rtol=2e-2, atol=1e-3)

    def test_sigmoid_gradient_check(self):
        rng = np.random.default_rng(6)
        layer = nn.Sigmoid()
        x = rng.normal(size=(3, 4)).astype(np.float32)
        y = layer.forward(x)
        dx = layer.backward(scalar_loss_grad(y))
        np.testing.assert_allclose(
            dx, numerical_gradient(lambda v: scalar_loss(F.sigmoid(v)), x),
            rtol=2e-2, atol=1e-3)

    def test_identity_passthrough(self):
        layer = nn.Identity()
        x = np.arange(6, dtype=np.float32).reshape(2, 3)
        np.testing.assert_array_equal(layer.forward(x), x)
        np.testing.assert_array_equal(layer.backward(x), x)


class TestMLP:
    def test_structure(self):
        mlp = nn.MLP([8, 16, 4, 1], rng=np.random.default_rng(0))
        linears = [l for l in mlp.layers if isinstance(l, nn.Linear)]
        assert [l.in_features for l in linears] == [8, 16, 4]
        assert [l.out_features for l in linears] == [16, 4, 1]

    def test_no_final_activation_by_default(self):
        mlp = nn.MLP([4, 4], rng=np.random.default_rng(0))
        assert isinstance(mlp.layers[-1], nn.Linear)

    def test_final_activation_options(self):
        mlp = nn.MLP([4, 4], final_activation="sigmoid",
                      rng=np.random.default_rng(0))
        assert isinstance(mlp.layers[-1], nn.Sigmoid)
        mlp = nn.MLP([4, 4], final_activation="relu",
                      rng=np.random.default_rng(0))
        assert isinstance(mlp.layers[-1], nn.ReLU)

    def test_invalid_final_activation(self):
        with pytest.raises(ValueError):
            nn.MLP([4, 4], final_activation="tanh")

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            nn.MLP([4])

    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(7)
        mlp = nn.MLP([5, 8, 1], rng=rng)
        x = rng.normal(size=(3, 5)).astype(np.float32)

        def f(xv):
            return scalar_loss(mlp.forward(xv))

        y = mlp.forward(x)
        dx = mlp.backward(scalar_loss_grad(y))
        np.testing.assert_allclose(dx, numerical_gradient(f, x), rtol=3e-2,
                                   atol=1e-3)

    def test_num_parameters(self):
        mlp = nn.MLP([4, 8, 2], rng=np.random.default_rng(0))
        expected = 4 * 8 + 8 + 8 * 2 + 2
        assert mlp.num_parameters() == expected

    def test_flops_per_sample(self):
        mlp = nn.MLP([4, 8, 2], rng=np.random.default_rng(0))
        assert mlp.flops_per_sample() == 2 * (4 * 8 + 8 * 2)

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_output_shape_property(self, batch, width):
        mlp = nn.MLP([width, width * 2, 1], rng=np.random.default_rng(0))
        x = np.zeros((batch, width), dtype=np.float32)
        assert mlp.forward(x).shape == (batch, 1)

    def test_deterministic_init(self):
        a = nn.MLP([4, 4], rng=np.random.default_rng(42))
        b = nn.MLP([4, 4], rng=np.random.default_rng(42))
        np.testing.assert_array_equal(a.layers[0].weight.data,
                                      b.layers[0].weight.data)


class TestLoss:
    def test_bce_loss_backward_matches_functional(self):
        rng = np.random.default_rng(8)
        loss = nn.BCEWithLogitsLoss()
        logits = rng.normal(size=6).astype(np.float32)
        labels = (rng.random(6) > 0.5).astype(np.float32)
        loss.forward(logits, labels)
        np.testing.assert_allclose(loss.backward(),
                                   F.bce_with_logits_grad(logits, labels))

    def test_shape_mismatch_raises(self):
        loss = nn.BCEWithLogitsLoss()
        with pytest.raises(ValueError):
            loss.forward(np.zeros(3, dtype=np.float32),
                         np.zeros(4, dtype=np.float32))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            nn.BCEWithLogitsLoss().backward()

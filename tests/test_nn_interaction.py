"""Tests for DLRM interaction layers (dot-product and concat)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import zoo_config
from repro.nn import CatInteraction, DotInteraction

from .helpers import numerical_gradient


def scalar_loss(y):
    return float(np.sum(y.astype(np.float64) ** 2) / 2.0)


class TestDotInteraction:
    def test_output_dim_formula(self):
        layer = DotInteraction()
        assert layer.output_dim(num_features=4, dim=16) == 16 + 6
        assert layer.output_dim(num_features=2, dim=8) == 8 + 1

    def test_output_shape(self):
        layer = DotInteraction()
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(5, 8)).astype(np.float32) for _ in range(3)]
        out = layer.forward_list(feats)
        assert out.shape == (5, layer.output_dim(3, 8))

    def test_dense_passthrough(self):
        """First `dim` columns of the output are the dense feature itself."""
        layer = DotInteraction()
        rng = np.random.default_rng(1)
        feats = [rng.normal(size=(4, 6)).astype(np.float32) for _ in range(3)]
        out = layer.forward_list(feats)
        np.testing.assert_array_equal(out[:, :6], feats[0])

    def test_pairwise_dot_values(self):
        layer = DotInteraction()
        a = np.array([[1.0, 0.0]], dtype=np.float32)
        b = np.array([[0.0, 2.0]], dtype=np.float32)
        c = np.array([[3.0, 4.0]], dtype=np.float32)
        out = layer.forward_list([a, b, c])
        # tril(k=-1) ordering over features (a,b,c): (b,a), (c,a), (c,b)
        np.testing.assert_allclose(out[0, 2:], [0.0, 3.0, 8.0])

    def test_mismatched_shapes_raise(self):
        layer = DotInteraction()
        with pytest.raises(ValueError):
            layer.forward_list([np.zeros((2, 3), dtype=np.float32),
                                np.zeros((2, 4), dtype=np.float32)])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            DotInteraction().forward_list([])

    def test_gradient_check(self):
        rng = np.random.default_rng(2)
        layer = DotInteraction()
        feats = [rng.normal(size=(2, 4)).astype(np.float32) for _ in range(3)]
        out = layer.forward_list(feats)
        grads = layer.backward_list(out.astype(np.float32))

        for i in range(3):
            def f(v, i=i):
                trial = list(feats)
                trial[i] = v.astype(np.float32)
                return scalar_loss(DotInteraction().forward_list(trial))

            np.testing.assert_allclose(grads[i], numerical_gradient(f, feats[i]),
                                       rtol=3e-2, atol=1e-3)

    def test_self_interaction_gradient_check(self):
        rng = np.random.default_rng(3)
        layer = DotInteraction(self_interaction=True)
        feats = [rng.normal(size=(2, 3)).astype(np.float32) for _ in range(2)]
        out = layer.forward_list(feats)
        grads = layer.backward_list(out.astype(np.float32))

        for i in range(2):
            def f(v, i=i):
                trial = list(feats)
                trial[i] = v.astype(np.float32)
                return scalar_loss(
                    DotInteraction(self_interaction=True).forward_list(trial))

            np.testing.assert_allclose(grads[i], numerical_gradient(f, feats[i]),
                                       rtol=3e-2, atol=1e-3)

    def test_module_interface_matches_list_interface(self):
        rng = np.random.default_rng(4)
        stacked = rng.normal(size=(3, 4, 5)).astype(np.float32)
        out_mod = DotInteraction().forward(stacked)
        out_list = DotInteraction().forward_list(
            [stacked[:, i, :] for i in range(4)])
        np.testing.assert_array_equal(out_mod, out_list)

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_output_dim_matches_actual(self, f, d):
        layer = DotInteraction()
        feats = [np.ones((2, d), dtype=np.float32) for _ in range(f)]
        assert layer.forward_list(feats).shape[1] == layer.output_dim(f, d)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            DotInteraction().backward_list(np.zeros((1, 1), dtype=np.float32))


class TestStackedSlices:
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_forward_list_slice_equals_2d_call(self, k):
        """A ``(k, m, D)`` stack of the ``zoo_config("large")`` features
        (the dense vector plus one per table) gives every slice the bits
        of its own 2-D call: the serving window's dense half rests on
        it."""
        config = zoo_config("large")
        f, d = len(config.tables) + 1, config.embedding_dim
        rng = np.random.default_rng(k)
        layer = DotInteraction()
        for m in range(1, 70):
            feats = [rng.normal(size=(k, m, d)).astype(np.float32)
                     for _ in range(f)]
            stacked = layer.forward_list(feats)
            for j in range(k):
                alone = layer.forward_list([x[j].copy() for x in feats])
                assert stacked[j].shape == alone.shape == \
                    (m, config.interaction_dim)
                assert stacked[j].tobytes() == alone.tobytes(), (m, j)

    def test_one_layer_serves_several_feature_counts(self):
        rng = np.random.default_rng(9)
        layer = DotInteraction()
        for f in (3, 5, 3):
            feats = [rng.normal(size=(2, 4)).astype(np.float32)
                     for _ in range(f)]
            assert layer.forward_list(feats).tobytes() == \
                DotInteraction().forward_list(feats).tobytes()


class TestCatInteraction:
    def test_round_trip(self):
        layer = CatInteraction()
        rng = np.random.default_rng(5)
        feats = [rng.normal(size=(3, 4)).astype(np.float32) for _ in range(3)]
        out = layer.forward_list(feats)
        assert out.shape == (3, 12)
        grads = layer.backward_list(out)
        for g, f in zip(grads, feats):
            np.testing.assert_array_equal(g, f)

    def test_output_dim(self):
        assert CatInteraction().output_dim(5, 8) == 40

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CatInteraction().backward_list(np.zeros((1, 1), dtype=np.float32))

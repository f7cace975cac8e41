"""Layer modules: parameter discovery, state round trips, encoder properties."""

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.layers import (
    MLP,
    Conv1d,
    Linear,
    Module,
    SelfAttentionEncoder,
    glorot_uniform,
)
from tapgkit.autodiff.tensor import Tape, Tensor
from tapgkit.errors import ShapeError

from gradcheck import check_gradients, scalarize


class TestModuleTree:
    def test_named_parameters_walks_nested_modules_and_lists(self):
        rng = np.random.default_rng(0)

        class Wrapper(Module):
            def __init__(self):
                self.inner = Linear(rng, 3, 2)
                self.stack = [Linear(rng, 2, 2), Linear(rng, 2, 1)]

        names = {name for name, _ in Wrapper().named_parameters()}
        assert names == {
            "inner.weight", "inner.bias",
            "stack.0.weight", "stack.0.bias",
            "stack.1.weight", "stack.1.bias",
        }

    def test_state_dict_round_trip(self):
        rng = np.random.default_rng(1)
        src = MLP(rng, [3, 4, 2])
        dst = MLP(np.random.default_rng(2), [3, 4, 2])
        dst.load_state_dict(src.state_dict())
        x = Tensor(rng.standard_normal((5, 3)))
        np.testing.assert_allclose(src(x).data, dst(x).data)

    def test_state_dict_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        src = MLP(rng, [3, 4, 2])
        wrong = MLP(rng, [3, 5, 2])
        with pytest.raises(ShapeError):
            wrong.load_state_dict(src.state_dict())

    def test_state_with_only_missing_keys_rejected(self):
        model = MLP(np.random.default_rng(3), [3, 4, 2])
        state = model.state_dict()
        del state["layers.1.bias"]
        with pytest.raises(ShapeError, match=r"missing \['layers\.1\.bias'\], unexpected \[\]"):
            model.load_state_dict(state)

    def test_state_with_only_extra_keys_rejected(self):
        model = MLP(np.random.default_rng(3), [3, 4, 2])
        state = model.state_dict()
        state["layers.2.weight"] = np.ones((2, 2))
        with pytest.raises(ShapeError, match=r"missing \[\], unexpected \['layers\.2\.weight'\]"):
            model.load_state_dict(state)

    def test_zero_grad_resets_accumulators(self):
        rng = np.random.default_rng(4)
        layer = Linear(rng, 3, 2)
        with Tape() as tape:
            loss = T.sum_(layer(Tensor(np.ones((2, 3)))))
            tape.backward(loss)
        assert np.abs(layer.weight.grad).sum() > 0
        for p in layer.parameters():
            p.zero_grad()
        np.testing.assert_allclose(layer.weight.grad, 0.0)


class TestInit:
    def test_glorot_bounds_and_determinism(self):
        a = glorot_uniform(np.random.default_rng(7), (100, 50), 100, 50)
        b = glorot_uniform(np.random.default_rng(7), (100, 50), 100, 50)
        np.testing.assert_array_equal(a, b)
        limit = np.sqrt(6.0 / 150)
        assert np.all(np.abs(a) <= limit)

    def test_mlp_needs_two_widths(self):
        with pytest.raises(ShapeError):
            MLP(np.random.default_rng(0), [4])


class TestMLP:
    @pytest.mark.parametrize("widths", [[3, 4], [3, 5, 2], [3, 5, 4, 2]])
    def test_forward_matches_a_numpy_oracle(self, widths):
        # a ReLU between layers and none after the last
        rng = np.random.default_rng(len(widths))
        with T.default_dtype(np.float64):
            mlp = MLP(rng, widths)
            for layer in mlp.layers:
                layer.bias.data = rng.standard_normal(layer.bias.data.shape)
            x = rng.standard_normal((16, widths[0]))
            got = mlp(Tensor(x)).data
        want = x
        for i, layer in enumerate(mlp.layers):
            want = want @ layer.weight.data + layer.bias.data
            assert (want < 0).any()     # so a ReLU here would change the output
            if i < len(mlp.layers) - 1:
                want = np.maximum(want, 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


class TestSelfAttentionEncoder:
    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(5)
        enc = SelfAttentionEncoder(rng, 6)
        x = Tensor(rng.standard_normal((4, 6)))
        assert enc(x).data.shape == (4, 6)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        enc = SelfAttentionEncoder(rng, 5)
        x = rng.standard_normal((6, 5))
        perm = rng.permutation(6)
        out = enc(Tensor(x)).data
        out_perm = enc(Tensor(x[perm])).data
        np.testing.assert_allclose(out_perm, out[perm], rtol=1e-5, atol=1e-6)

    def test_single_row_works(self):
        rng = np.random.default_rng(7)
        enc = SelfAttentionEncoder(rng, 4)
        assert enc(Tensor(rng.standard_normal((1, 4)))).data.shape == (1, 4)

    @pytest.mark.parametrize("seed", range(3))
    def test_masked_stack_equals_each_set_alone(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(20 + seed)
            enc = SelfAttentionEncoder(rng, 5)
            sizes = [4, 1, 2, 3]
            x = rng.standard_normal((len(sizes), 4, 5))
            mask = np.arange(4) < np.array(sizes)[:, None]
            x[~mask] = 1e3 * rng.standard_normal((int((~mask).sum()), 5))
            out = enc(Tensor(x), mask).data
            for i, n in enumerate(sizes):
                alone = enc(Tensor(x[i, :n])).data
                np.testing.assert_allclose(out[i, :n], alone, rtol=1e-12, atol=1e-12)

    def test_mask_must_cover_the_rows(self):
        enc = SelfAttentionEncoder(np.random.default_rng(9), 4)
        with pytest.raises(ShapeError):
            enc(Tensor(np.ones((2, 3, 4))), np.ones((2, 4), dtype=bool))

    def test_rejects_non_matrix(self):
        enc = SelfAttentionEncoder(np.random.default_rng(8), 4)
        with pytest.raises(ShapeError):
            enc(Tensor(np.ones(4)))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(seed)
            enc = SelfAttentionEncoder(rng, 4)
            x = T.parameter(rng.standard_normal((3, 4)))
            params = [x] + enc.parameters()
            check_gradients(lambda: scalarize(enc(x)), params, 1e-4)


class TestConvLayers:
    def test_conv1d_layer_shapes(self):
        rng = np.random.default_rng(9)
        layer = Conv1d(rng, 3, 5, 3, padding=1)
        out = layer(Tensor(rng.standard_normal((3, 8))))
        assert out.data.shape == (5, 8)

    def test_kernel_rank_checked(self):
        with pytest.raises(ShapeError):
            Conv1d(np.random.default_rng(0), 2, 2, (3, 3))

"""Adam: hand-worked first step, bias correction, convergence."""

import numpy as np
import pytest

from tapgkit.autodiff import tensor as T
from tapgkit.autodiff.optim import Adam
from tapgkit.autodiff.tensor import Tape
from tapgkit.errors import EmptyInputError, GraphError, ShapeError


class TestAdam:
    def test_first_step_on_quadratic_matches_hand_calculation(self):
        # f(x) = x^2 at x = 1: g = 2. m_hat = 2, v_hat = 4,
        # step = lr * m_hat / (sqrt(v_hat) + eps) ~= 0.1, so x -> 0.9.
        with T.default_dtype(np.float64):
            x = T.parameter(np.array([1.0]))
            opt = Adam([x], lr=0.1)
            with Tape() as tape:
                loss = T.sum_(T.mul(x, x))
                tape.backward(loss)
            opt.step()
            np.testing.assert_allclose(x.data, [0.9], atol=1e-8)

    def test_second_step_uses_bias_corrected_moments(self):
        with T.default_dtype(np.float64):
            x = T.parameter(np.array([1.0]))
            opt = Adam([x], lr=0.1, betas=(0.9, 0.999), eps=1e-8)
            m = v = 0.0
            expected = 1.0
            for t in range(1, 3):
                with Tape() as tape:
                    loss = T.sum_(T.mul(x, x))
                    tape.backward(loss)
                g = 2.0 * expected
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                m_hat = m / (1 - 0.9 ** t)
                v_hat = v / (1 - 0.999 ** t)
                expected -= 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
                opt.step()
                np.testing.assert_allclose(x.data, [expected], rtol=1e-10)

    def test_converges_on_quadratic_bowl(self):
        with T.default_dtype(np.float64):
            rng = np.random.default_rng(0)
            x = T.parameter(rng.standard_normal(6) * 3.0)
            target = T.constant(rng.standard_normal(6))
            opt = Adam([x], lr=0.05)
            for _ in range(500):
                with Tape() as tape:
                    diff = T.sub(x, target)
                    loss = T.sum_(T.mul(diff, diff))
                    tape.backward(loss)
                opt.step()
            np.testing.assert_allclose(x.data, target.data, atol=1e-3)

    def test_unused_parameter_is_left_alone(self):
        x = T.parameter(np.array([1.0]))
        idle = T.parameter(np.array([5.0]))
        opt = Adam([x, idle], lr=0.1)
        with Tape() as tape:
            loss = T.sum_(T.mul(x, x))
            tape.backward(loss)
        opt.step()
        # idle has an all-zero gradient, so Adam must not move it
        np.testing.assert_allclose(idle.data, [5.0])

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(EmptyInputError):
            Adam([], lr=0.1)

    def test_fixed_tensor_rejected(self):
        x = T.parameter(np.array([1.0]))
        fixed = T.constant(np.array([2.0]))
        with pytest.raises(GraphError, match=r"requires_grad at \[1\]"):
            Adam([x, fixed], lr=0.1)

    def test_moment_entries_follow_parameter_order(self):
        rng = np.random.default_rng(3)
        params = [T.parameter(rng.standard_normal(s)) for s in [(4, 3), (7,), (2, 1, 3)]]
        named = Adam(params).state_dict()
        assert list(named) == ["optim.t"] + [f"optim.{k}.{i}" for i in range(len(params))
                                             for k in "mv"]
        for i, p in enumerate(params):
            assert named[f"optim.m.{i}"].shape == named[f"optim.v.{i}"].shape == p.data.shape
            assert named[f"optim.m.{i}"].dtype == p.data.dtype

    def test_state_round_trip_continues_the_same_steps(self):
        rng = np.random.default_rng(4)
        start = [rng.standard_normal(s) for s in [(4, 3), (5,)]]
        grads = [[rng.standard_normal(a.shape) for a in start] for _ in range(4)]

        def run(resume_after):
            params = [T.parameter(a) for a in start]
            opt = Adam(params, lr=0.01)
            for k, step_grads in enumerate(grads):
                if k == resume_after:
                    saved = {name: a.copy() for name, a in opt.state_dict().items()}
                    opt = Adam(params, lr=0.01)
                    opt.load_state_dict(saved)
                for p, g in zip(params, step_grads):
                    p.grad[...] = g
                opt.step()
            return opt, params

        straight, resumed = run(None), run(2)
        assert resumed[0].t == straight[0].t == 4
        for a, b in zip(straight[1], resumed[1]):
            assert np.array_equal(a.data, b.data)
        for name, a in straight[0].state_dict().items():
            assert np.array_equal(a, resumed[0].state_dict()[name]), name

    @pytest.mark.parametrize("change", ["missing", "extra", "shape"])
    def test_state_for_other_parameters_rejected(self, change):
        opt = Adam([T.parameter(np.ones((2, 3))), T.parameter(np.ones(4))])
        state = dict(opt.state_dict())
        if change == "missing":
            del state["optim.v.1"]
        elif change == "extra":
            state["optim.m.2"] = np.zeros(1)
        else:
            state["optim.m.0"] = np.zeros((3, 2))
        with pytest.raises(ShapeError, match="optimizer state"):
            opt.load_state_dict(state)


def _loop_adam(params, grads_per_step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam loop, as written before the flat update."""
    data = [p.copy() for p in params]
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for p, m, v, g in zip(data, ms, vs, grads):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p -= (lr * (m / c1) / (np.sqrt(v / c2) + eps)).astype(p.dtype)
    return data, ms, vs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_step_equals_per_parameter_loop(dtype):
    rng = np.random.default_rng(5)
    shapes = [(4, 3), (7,), (2, 1, 3), (5,)]
    with T.default_dtype(dtype):
        params = [T.parameter(rng.standard_normal(s)) for s in shapes]
        start = [p.data.copy() for p in params]
        grads_per_step = [
            [(rng.standard_normal(s) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
             for s in shapes]
            for _ in range(5)]
        for grads in grads_per_step:
            grads[3][...] = 0.0   # one parameter never gets a gradient
        opt = Adam(params, lr=0.01)
        for grads in grads_per_step:
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
    data, ms, vs = _loop_adam(start, grads_per_step, lr=0.01)
    for p, want, m, want_m, v, want_v in zip(params, data, opt._m, ms, opt._v, vs):
        assert p.data.dtype == m.dtype == v.dtype == np.dtype(dtype)
        assert np.array_equal(p.data, want)
        assert np.array_equal(m, want_m) and np.array_equal(v, want_v)
    assert np.array_equal(params[3].data, start[3])


def _expression_adam(params, grads_per_step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """The flat Adam step written as one expression per moment and update,
    each allocating its temporaries."""
    data = np.concatenate([p.reshape(-1) for p in params])
    m, v = np.zeros_like(data), np.zeros_like(data)
    for t, grads in enumerate(grads_per_step, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        g = np.concatenate([x.reshape(-1) for x in grads])
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / c1
        v_hat = v / c2
        data -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return data, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_step_equals_the_expression_bit_for_bit(dtype):
    rng = np.random.default_rng(11)
    shapes = [(3, 5), (8,), (2, 2, 2)]
    with T.default_dtype(dtype):
        params = [T.parameter(rng.standard_normal(s)) for s in shapes]
        start = [p.data.copy() for p in params]
        grads_per_step = [
            [(rng.standard_normal(s) * 10.0 ** rng.integers(-30, 3)).astype(dtype)
             for s in shapes]
            for _ in range(6)]
        opt = Adam(params, lr=0.02, betas=(0.8, 0.99), eps=1e-6)
        for grads in grads_per_step:
            for p, g in zip(params, grads):
                p.grad[...] = g
            opt.step()
    data, m, v = _expression_adam(start, grads_per_step, lr=0.02, b1=0.8, b2=0.99, eps=1e-6)
    got = np.concatenate([p.data.reshape(-1) for p in params])
    assert got.dtype == data.dtype == np.dtype(dtype)
    assert np.array_equal(got, data)
    assert np.array_equal(opt._flat[1], m) and np.array_equal(opt._flat[2], v)

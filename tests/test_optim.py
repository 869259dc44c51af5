import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltelab.optim import AdamState, OptimConfig, adamw_step, sgd_step


class TestSgd:
    def test_zero_grad(self):
        p = np.array([[1.0, -2.0]])
        np.testing.assert_array_equal(sgd_step(p, np.zeros_like(p), 0.1), p)

    def test_arithmetic(self):
        out = sgd_step(np.array([[1.0]]), np.array([[2.0]]), 0.1)
        np.testing.assert_allclose(out, [[0.8]])

    def test_two_steps_equal_summed_grads(self):
        rng = np.random.default_rng(0)
        p = rng.standard_normal((3, 3))
        g1 = rng.standard_normal((3, 3))
        g2 = rng.standard_normal((3, 3))
        stepped = sgd_step(sgd_step(p, g1, 0.05), g2, 0.05)
        summed = sgd_step(p, g1 + g2, 0.05)
        np.testing.assert_allclose(stepped, summed, atol=1e-15)

    def test_scale_covariance(self):
        # contrast case: SGD updates scale exactly with the gradient scale
        rng = np.random.default_rng(1)
        p = rng.standard_normal((4, 4))
        g = rng.standard_normal((4, 4))
        np.testing.assert_array_equal(sgd_step(p, 64.0 * g, 0.1), p - 64.0 * (0.1 * g))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_step(np.ones((2, 2)), np.ones((2, 3)), 0.1)


class TestAdamW:
    def test_first_step_is_signed_eta(self):
        # constant gradient, eps=0: bias corrections cancel and m_hat/sqrt(v_hat) = sign(g)
        cfg = OptimConfig(eta=0.01, eps=0.0)
        p = np.array([[1.0, 1.0]])
        g = np.array([[3.0, -0.2]])
        new, state = adamw_step(p, g, AdamState.zeros(p.shape), cfg)
        np.testing.assert_allclose(new, p - 0.01 * np.sign(g), atol=1e-15)
        assert state.step_count == 1

    def test_zero_grad_fresh_state(self):
        cfg = OptimConfig(eta=0.01)
        p = np.array([[2.0, -1.0]])
        new, _ = adamw_step(p, np.zeros_like(p), AdamState.zeros(p.shape), cfg)
        np.testing.assert_array_equal(new, p)

    def test_scale_invariance_without_eps(self):
        # multiplying the whole gradient history by 64 changes nothing when eps = 0
        cfg = OptimConfig(eta=0.01, eps=0.0)
        rng = np.random.default_rng(2)
        grads = [rng.standard_normal((3, 2)) for _ in range(50)]
        p_a = np.ones((3, 2))
        p_b = np.ones((3, 2))
        st_a = AdamState.zeros((3, 2))
        st_b = AdamState.zeros((3, 2))
        for g in grads:
            p_a, st_a = adamw_step(p_a, g, st_a, cfg)
            p_b, st_b = adamw_step(p_b, 64.0 * g, st_b, cfg)
        assert np.abs(p_a - p_b).max() <= 1e-12

    def test_scale_sensitivity_with_eps(self):
        # with eps > 0 the invariance must measurably break
        cfg = OptimConfig(eta=0.01, eps=1e-8)
        p_a = np.ones((2, 2))
        p_b = np.ones((2, 2))
        st_a = AdamState.zeros((2, 2))
        st_b = AdamState.zeros((2, 2))
        g = np.full((2, 2), 1e-6)
        for _ in range(50):
            p_a, st_a = adamw_step(p_a, g, st_a, cfg)
            p_b, st_b = adamw_step(p_b, 64.0 * g, st_b, cfg)
        assert np.abs(p_a - p_b).max() > 1e-6

    def test_decoupled_decay(self):
        # zero gradient history: only the decay term moves the parameter
        cfg = OptimConfig(eta=0.1, weight_decay=0.5)
        p = np.array([[2.0]])
        new, _ = adamw_step(p, np.zeros_like(p), AdamState.zeros(p.shape), cfg)
        np.testing.assert_allclose(new, [[2.0 - 0.1 * 0.5 * 2.0]])

    def test_state_shapes_validated(self):
        cfg = OptimConfig(eta=0.1)
        with pytest.raises(ValueError):
            adamw_step(np.ones((2, 2)), np.ones((2, 2)), AdamState.zeros((3, 3)), cfg)

    def test_second_moment_nonnegative_and_count(self):
        cfg = OptimConfig(eta=0.1)
        st = AdamState.zeros((2, 2))
        p = np.zeros((2, 2))
        for i in range(5):
            p, st = adamw_step(p, np.random.default_rng(i).standard_normal((2, 2)), st, cfg)
            assert st.step_count == i + 1
            assert np.all(st.v >= 0)


def _textbook_adamw(param, grad, state, cfg):
    """AdamW as the docstring writes it, one fresh array per operation."""
    t = state.step_count + 1
    m = cfg.beta1 * state.m + (1.0 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1.0 - cfg.beta2) * (grad * grad)
    m_hat = m / (1.0 - cfg.beta1**t)
    v_hat = v / (1.0 - cfg.beta2**t)
    new = param - cfg.eta * cfg.weight_decay * param - cfg.eta * m_hat / (np.sqrt(v_hat) + cfg.eps)
    return new, AdamState(m=m, v=v, step_count=t)


class TestAdamWFewerTemporaries:
    """`adamw_step` works on a few fresh arrays in place, yet stays pure and
    bitwise equal to the textbook out-of-place formula."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(shape=st.lists(st.integers(1, 7), min_size=1, max_size=3).map(tuple),
           weight_decay=st.sampled_from([0.0, 0.01, 0.5]), steps=st.integers(1, 6),
           eps=st.sampled_from([0.0, 1e-8]), seed=st.integers(0, 2**32 - 1))
    def test_bitwise_textbook_and_pure(self, shape, weight_decay, steps, eps, seed):
        cfg = OptimConfig(eta=0.03, eps=eps, weight_decay=weight_decay)
        rng = np.random.default_rng(seed)
        p_got = p_want = rng.standard_normal(shape)
        st_got, st_want = AdamState.zeros(shape), AdamState.zeros(shape)
        for _ in range(steps):
            g = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 3)
            inputs = (p_got, g, st_got.m, st_got.v)
            before = [a.copy() for a in inputs]
            p_got, st_got = adamw_step(p_got, g, st_got, cfg)
            p_want, st_want = _textbook_adamw(p_want, g, st_want, cfg)
            for a, b in zip(inputs, before):
                assert a.tobytes() == b.tobytes()
            outputs = (p_got, st_got.m, st_got.v)
            assert not any(np.shares_memory(a, b) for a in outputs for b in inputs)
            assert p_got.tobytes() == p_want.tobytes()
            assert st_got.m.tobytes() == st_want.m.tobytes()
            assert st_got.v.tobytes() == st_want.v.tobytes()
            assert st_got.step_count == st_want.step_count


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": 0.1, "beta1": 1.0},
            {"eta": 0.1, "beta2": -0.1},
            {"eta": 0.1, "eps": -1e-9},
            {"eta": 0.1, "weight_decay": -0.1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            OptimConfig(**kwargs)

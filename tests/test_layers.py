import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltelab.layers import LoraHead, LoraLinear, split_product
from ltelab.network import (Batch, Mode, Network, effective_weight, fd_check, forward, head_product,
                            loss_and_grad)
from ltelab.numerics import InitScheme, RandomSource


def random_layer(rng, m=5, n=4, r=2, n_heads=3, alpha=None, zero_b=False):
    heads = []
    for i in range(n_heads):
        a = rng.child("A", i).standard_normal((r, n))
        b = np.zeros((m, r)) if zero_b else rng.child("B", i).standard_normal((m, r))
        heads.append(LoraHead(A=a, B=b))
    w = rng.child("W").standard_normal((m, n))
    return LoraLinear(W=w, alpha=float(alpha if alpha is not None else r), heads=heads)


def stale_pair(rng, m, n, r):
    """A random stale correction (A°, B°) for an m x n layer of rank r."""
    return rng.child("A°").standard_normal((r, n)), rng.child("B°").standard_normal((m, r))


def layer_out(layer, x, mode, correction=None):
    """One layer's output under `mode`, through the network forward pass."""
    out, _ = forward(Network([layer]), x, mode, None if correction is None else [correction])
    return out


class TestConstruction:
    def test_fresh_head_has_zero_b(self):
        h = LoraHead.fresh(6, 4, 2, InitScheme("kaiming"), RandomSource(0).child(0))
        np.testing.assert_array_equal(h.B, np.zeros((6, 2)))
        assert h.rank == 2

    def test_rank_bound_enforced(self):
        with pytest.raises(ValueError, match="rank"):
            LoraHead(A=np.ones((5, 4)), B=np.ones((4, 5)))

    def test_heads_share_rank(self):
        w = np.zeros((4, 4))
        h1 = LoraHead.fresh(4, 4, 1, InitScheme("kaiming"), RandomSource(1).child(0))
        h2 = LoraHead.fresh(4, 4, 2, InitScheme("kaiming"), RandomSource(1).child(1))
        with pytest.raises(ValueError, match="share"):
            LoraLinear(W=w, alpha=1.0, heads=[h1, h2])

    def test_heads_are_views_on_stacks(self):
        layer = random_layer(RandomSource(26), m=5, n=4, r=2, n_heads=3)
        assert layer.A.shape == (3, 2, 4) and layer.B.shape == (3, 5, 2)
        A1, B1 = layer.factors(1)
        np.testing.assert_array_equal(A1, layer.A[1])
        B1[...] = 1.0  # a write into the view is a write into the stack
        np.testing.assert_array_equal(layer.B[1], np.ones((5, 2)))
        A, B = layer.factors(range(1, 3))
        np.testing.assert_array_equal(A, layer.A[1:3])
        A[...] = 0.0  # views, never copies
        B[...] = 0.0
        assert not layer.A[1:].any() and not layer.B[1:].any() and layer.A[0].all()

    def test_factors_out_of_range_named(self):
        # an index past the end, or a negative one, names the layer's head
        # count instead of indexing a tuple or picking a head from the end
        layer = random_layer(RandomSource(27), n_heads=3)
        for bad in (3, -1):
            with pytest.raises(IndexError, match=f"head {bad} is not one of the layer's 3"):
                layer.factors(bad)
        for bad in (range(2, 4), range(-1, 1)):
            with pytest.raises(IndexError, match="are outside the layer's 3"):
                layer.factors(bad)

    def test_scale_is_alpha_over_rank(self):
        layer = random_layer(RandomSource(2), m=64, n=64, r=64, n_heads=1, alpha=4096.0)
        assert layer.s == 64.0


class TestForwards:
    def test_fresh_head_is_base_map(self):
        layer = random_layer(RandomSource(3), zero_b=True)
        x = RandomSource(4).standard_normal((4, 6))
        expected = layer.W @ x
        np.testing.assert_array_equal(layer_out(layer, x, Mode.single(0)), expected)
        np.testing.assert_array_equal(layer_out(layer, x, Mode.multi()), expected)
        np.testing.assert_array_equal(layer_out(layer, x, Mode.worker(1)), expected)

    def test_single_head_hand_case(self):
        # W = 0, s = 2 via alpha=2 r=1, B A x picks the second coordinate
        layer = LoraLinear(
            W=np.zeros((2, 2)), alpha=2.0,
            heads=[LoraHead(A=np.array([[0.0, 1.0]]), B=np.array([[1.0], [0.0]]))],
        )
        out = layer_out(layer, np.array([[3.0], [4.0]]), Mode.single(0))
        np.testing.assert_array_equal(out, np.array([[8.0], [0.0]]))

    def test_large_alpha_scale_in_forward(self):
        layer = LoraLinear(
            W=np.zeros((64, 64)), alpha=4096.0,
            heads=[LoraHead(A=np.eye(64), B=np.eye(64))],
        )
        x = np.ones((64, 1))
        np.testing.assert_array_equal(layer_out(layer, x, Mode.single(0)), 64.0 * x)

    def test_mhlora_single_head_degenerates(self):
        layer = random_layer(RandomSource(5), n_heads=1)
        x = RandomSource(6).standard_normal((4, 3))
        np.testing.assert_array_equal(layer_out(layer, x, Mode.multi()), layer_out(layer, x, Mode.single(0)))

    def test_mhlora_duplicate_heads(self):
        rng = RandomSource(7)
        a = rng.child("A").standard_normal((2, 4))
        b = rng.child("B").standard_normal((5, 2))
        w = rng.child("W").standard_normal((5, 4))
        layer = LoraLinear(W=w, alpha=2.0, heads=[LoraHead(A=a, B=b), LoraHead(A=a.copy(), B=b.copy())])
        x = rng.child("x").standard_normal((4, 3))
        expected = w @ x + layer.s * (b @ (a @ x))
        np.testing.assert_allclose(layer_out(layer, x, Mode.multi()), expected, atol=1e-13)

    def test_worker_view_single_worker_equals_lora(self):
        layer = random_layer(RandomSource(8), n_heads=1)
        x = RandomSource(9).standard_normal((4, 3))
        np.testing.assert_array_equal(layer_out(layer, x, Mode.worker(0)), layer_out(layer, x, Mode.single(0)))

    def test_worker_shares_sum_to_multi_head(self):
        # the N worker views jointly realize the multi-head map: the base plus
        # the sum of per-worker shares equals the multi-head forward
        layer = random_layer(RandomSource(10), n_heads=4)
        x = RandomSource(11).standard_normal((4, 5))
        base = layer.W @ x
        acc = base.copy()
        for h in range(4):
            acc += layer_out(layer, x, Mode.worker(h)) - base
        np.testing.assert_allclose(acc, layer_out(layer, x, Mode.multi()), atol=1e-13)

    def test_worker_view_correction(self):
        layer = random_layer(RandomSource(12), n_heads=2)
        x = RandomSource(13).standard_normal((4, 3))
        a0, b0 = stale_pair(RandomSource(14), m=5, n=4, r=2)
        c = layer.s / 2
        expected = layer_out(layer, x, Mode.worker(0)) - c * ((b0 @ a0) @ x)
        out = layer_out(layer, x, Mode.worker(0), correction=(a0, b0))
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_shape_errors(self):
        layer = random_layer(RandomSource(15))
        with pytest.raises(ValueError):
            layer_out(layer, np.ones((3, 2)), Mode.single(0))


class TestEffectiveWeight:
    def test_zero_heads_give_base(self):
        layer = random_layer(RandomSource(16), zero_b=True)
        np.testing.assert_array_equal(effective_weight(layer), layer.W)

    def test_hand_average(self):
        heads = [
            LoraHead(A=np.array([[1.0]]), B=np.array([[1.0]])),
            LoraHead(A=np.array([[3.0]]), B=np.array([[1.0]])),
        ]
        layer = LoraLinear(W=np.zeros((1, 1)), alpha=1.0, heads=heads)
        np.testing.assert_array_equal(effective_weight(layer), [[2.0]])
        # stale corrections B° A° = 1 and 2 come off before the shared s/N scale,
        # given as the product P° of (A°, B°) stacks shaped like the head stacks
        stale = (np.array([[[1.0]], [[2.0]]]), np.array([[[1.0]], [[1.0]]]))
        np.testing.assert_array_equal(effective_weight(layer, head_product(*stale)), [[0.5]])
        # the factor pair is no product: it would broadcast, so it is refused
        for stale_prod, prod in ((stale, None), (None, stale), (np.stack(stale), None)):
            with pytest.raises(ValueError, match="shaped like W"):
                effective_weight(layer, stale_prod, prod)

    def test_forward_consistency(self):
        layer = random_layer(RandomSource(17), n_heads=3)
        x = RandomSource(18).standard_normal((4, 6))
        np.testing.assert_allclose(effective_weight(layer) @ x, layer_out(layer, x, Mode.multi()), atol=1e-12)


@st.composite
def split_cases(draw):
    """(m, d, n, k, seed): an (m x d) B and a (d x n) A, d >= 2, cut at
    1 <= k < d."""
    m, d, n = draw(st.integers(1, 8)), draw(st.integers(2, 8)), draw(st.integers(1, 8))
    return m, d, n, draw(st.integers(1, d - 1)), draw(st.integers(0, 2**32 - 1))


def split_factors(m, d, n, seed):
    rng = RandomSource(seed)
    return rng.child("b").standard_normal((m, d)), rng.child("a").standard_normal((d, n))


class TestSplitProduct:
    def test_exact_reconstruction_small(self):
        rng = RandomSource(19)
        b = rng.child("b").standard_normal((3, 2))
        a = rng.child("a").standard_normal((2, 3))
        (b1, a1), (b2, a2) = split_product(b, a, 1)
        assert np.abs(b1 @ a1 + b2 @ a2 - b @ a).max() <= 1e-15

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(split_cases())
    def test_split_ranks(self, case):
        # the pieces are copies of B's first k columns and A's first k rows,
        # and of the rest, so their products have rank <= k and <= d - k
        m, d, n, k, seed = case
        b, a = split_factors(m, d, n, seed)
        (b1, a1), (b2, a2) = split_product(b, a, k)
        for got, want in ((b1, b[:, :k]), (a1, a[:k]), (b2, b[:, k:]), (a2, a[k:])):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, b) and not np.shares_memory(got, a)
        for prod, cap in ((b1 @ a1, k), (b2 @ a2, d - k)):
            sv = np.linalg.svd(prod, compute_uv=False)
            assert np.sum(sv > 1e-10 * sv[0]) <= cap

    def test_zero_tail_column(self):
        b = np.array([[1.0, 0.0], [2.0, 0.0]])
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        (_, _), (b2, a2) = split_product(b, a, 1)
        np.testing.assert_array_equal(b2 @ a2, np.zeros((2, 2)))

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(split_cases())
    def test_reconstruction_random_shapes(self, case):
        # B1 A1 + B2 A2 is B A up to the rounding of a d-term sum
        m, d, n, k, seed = case
        b, a = split_factors(m, d, n, seed)
        (b1, a1), (b2, a2) = split_product(b, a, k)
        np.testing.assert_allclose(b1 @ a1 + b2 @ a2, b @ a, rtol=0,
                                   atol=d * 1e-15 * (np.abs(b) @ np.abs(a)).max())

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.integers(1, 6), st.integers(-3, 9))
    def test_k_out_of_range(self, d, k):
        assume(not 1 <= k < d)
        with pytest.raises(ValueError, match="k must be in"):
            split_product(np.ones((2, d)), np.ones((d, 2)), k)


class TestBackward:
    def test_zero_upstream(self):
        # targets equal to the output make the upstream gradient exactly zero
        layer = random_layer(RandomSource(22))
        x = RandomSource(23).standard_normal((4, 3))
        net = Network([layer])
        batch = Batch(inputs=x, targets=layer_out(layer, x, Mode.single(0)))
        _, grads = loss_and_grad(net, batch, Mode.single(0))
        np.testing.assert_array_equal(grads[0].dA, np.zeros((2, 4)))
        np.testing.assert_array_equal(grads[0].dB, np.zeros((5, 2)))

    def test_scalar_chain_rule(self):
        # 1-D case at s = 1 with upstream u = 0.5: dB = u*a*x, dA = b*u*x
        layer = LoraLinear(
            W=np.zeros((1, 1)), alpha=1.0,
            heads=[LoraHead(A=np.array([[0.7]]), B=np.array([[-1.3]]))],
        )
        x = np.array([[2.0]])
        target = layer_out(layer, x, Mode.single(0)) - 0.5
        _, grads = loss_and_grad(Network([layer]), Batch(inputs=x, targets=target), Mode.single(0))
        np.testing.assert_allclose(grads[0].dB, [[0.5 * 0.7 * 2.0]])
        np.testing.assert_allclose(grads[0].dA, [[-1.3 * 0.5 * 2.0]])

    def test_matches_finite_differences(self):
        rng = RandomSource(24)
        for trial in range(5):
            net = Network([random_layer(rng.child(trial), m=4, n=3, r=2, n_heads=2)])
            batch = Batch(
                inputs=rng.child("x", trial).standard_normal((3, 2)),
                targets=rng.child("y", trial).standard_normal((4, 2)),
            )
            for mode in (Mode.single(1), Mode.worker(1)):
                assert fd_check(net, batch, mode, rng=rng.child("probe", trial)) <= 1e-6

    def test_scale_mode_validated(self):
        # the head coefficient comes from the Mode, which accepts only its own kinds
        net = Network([random_layer(RandomSource(25))])
        batch = Batch(inputs=np.ones((4, 1)), targets=np.ones((5, 1)))
        for bad in (lambda: Mode("mean"), lambda: Mode("worker"), lambda: Mode("multi", 0)):
            with pytest.raises(ValueError):
                loss_and_grad(net, batch, bad())


@st.composite
def layer_shapes(draw, max_dim=6, max_heads=4):
    """(m, n, r, N, head, seed) for a random layer and one of its heads."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    r = draw(st.integers(1, min(m, n)))
    n_heads = draw(st.integers(1, max_heads))
    head = draw(st.integers(0, n_heads - 1))
    return m, n, r, n_heads, head, draw(st.integers(0, 2**32 - 1))


PROPERTY_SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)


class TestProperties:
    @PROPERTY_SETTINGS
    @given(layer_shapes())
    def test_multi_forward_is_effective_weight(self, shape):
        m, n, r, n_heads, _, seed = shape
        rng = RandomSource(seed)
        layer = random_layer(rng, m=m, n=n, r=r, n_heads=n_heads)
        x = rng.child("x").standard_normal((n, 3))
        np.testing.assert_allclose(
            layer_out(layer, x, Mode.multi()), effective_weight(layer) @ x, rtol=1e-10, atol=1e-10
        )
        # with stale corrections (A°_n, B°_n), the corrected worker shares sum
        # to the corrected effective weight
        stale = [stale_pair(rng.child("stale", h), m, n, r) for h in range(n_heads)]
        base = layer.W @ x
        acc = base.copy()
        for h in range(n_heads):
            acc += layer_out(layer, x, Mode.worker(h), correction=stale[h]) - base
        stacks = tuple(np.stack(f) for f in zip(*stale))
        np.testing.assert_allclose(acc, effective_weight(layer, head_product(*stacks)) @ x,
                                   rtol=1e-10, atol=1e-10)

    @PROPERTY_SETTINGS
    @given(layer_shapes(max_heads=1))
    def test_one_head_views_bitwise_equal(self, shape):
        m, n, r, _, _, seed = shape
        rng = RandomSource(seed)
        layer = random_layer(rng, m=m, n=n, r=r, n_heads=1)
        x = rng.child("x").standard_normal((n, 3))
        single = layer_out(layer, x, Mode.single(0))
        np.testing.assert_array_equal(layer_out(layer, x, Mode.multi()), single)
        np.testing.assert_array_equal(layer_out(layer, x, Mode.worker(0)), single)

    @PROPERTY_SETTINGS
    @given(layer_shapes(), st.integers(1, 6))
    def test_fd_check_every_mode_two_layer_relu(self, shape, hidden):
        m, n, r, n_heads, head, seed = shape
        r = min(r, hidden)
        rng = RandomSource(seed)
        # fan-scaled weights keep the loss O(1), so central-difference rounding
        # noise stays far below the tolerance
        layers = [
            random_layer(rng.child("l0"), m=hidden, n=n, r=r, n_heads=n_heads),
            random_layer(rng.child("l1"), m=m, n=hidden, r=r, n_heads=n_heads),
        ]
        for layer in layers:
            layer.W = layer.W / np.sqrt(layer.n)
            layer.A /= np.sqrt(layer.n)
            layer.B *= 0.5
        net = Network(layers, activations=["relu", "identity"])
        batch = Batch(
            inputs=rng.child("x").standard_normal((n, 3)),
            targets=rng.child("y").standard_normal((m, 3)),
        )
        corr = []
        for i, layer in enumerate(layers):
            a0, b0 = stale_pair(rng.child("stale", i), layer.m, layer.n, r)
            corr.append((a0 / np.sqrt(layer.n), 0.5 * b0))
        modes = ((Mode.full(), None), (Mode.single(head), None), (Mode.multi(), None),
                 (Mode.worker(head), None), (Mode.worker(head), corr))
        # keep the hidden pre-activations away from the ReLU kink in every mode
        for mode, c in modes:
            _, cache = forward(net, batch.inputs, mode, c)
            assume(np.abs(cache[0]["z"]).min() > 1e-2)
        # away from kinks the loss is quadratic in each coordinate, so central
        # differences carry no truncation error; step 1e-4 keeps their rounding
        # noise below 1e-6 of even the small gradients tiny shapes produce
        for mode, c in modes:
            err = fd_check(net, batch, mode, step=1e-4, corrections=c,
                           rng=rng.child("probe", mode.kind))
            assert err <= 1e-6, (mode, c is not None, err)

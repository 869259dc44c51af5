import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltelab.layers import LoraHead, LoraLinear
from ltelab.network import Batch, Mode, Network, fd_check, forward, loss_and_grad, loss_value
from ltelab.numerics import InitScheme, RandomSource


def random_net(rng, dims=(4, 5), n_heads=2, r=2, alpha=None, activation="identity",
               loss="mse", zero_b=False, fan_scaled=False):
    layers = []
    for li, (n, m) in enumerate(zip(dims, dims[1:])):
        scale = 1.0 / np.sqrt(n) if fan_scaled else 1.0
        heads = []
        for i in range(n_heads):
            a = rng.child("A", li, i).standard_normal((r, n)) * scale
            b = np.zeros((m, r)) if zero_b else rng.child("B", li, i).standard_normal((m, r)) * 0.5
            heads.append(LoraHead(A=a, B=b))
        w = rng.child("W", li).standard_normal((m, n)) * scale
        layers.append(LoraLinear(W=w, alpha=float(alpha if alpha is not None else r), heads=heads))
    acts = [activation] * (len(layers) - 1) + ["identity"]
    return Network(layers, activations=acts, loss=loss)


def mse_batch(rng, net, b=3):
    x = rng.child("x").standard_normal((net.in_dim, b))
    y = rng.child("y").standard_normal((net.layers[-1].m, b))
    return Batch(inputs=x, targets=y)


class TestForward:
    def test_one_layer_matches_layer_ops(self):
        net = random_net(RandomSource(0))
        layer = net.layers[0]
        (a0, b0), (a1, b1) = layer.factors(0), layer.factors(1)
        s = layer.s
        x = RandomSource(1).standard_normal((4, 3))
        ao = RandomSource(2).child("A°").standard_normal((2, 4))
        bo = RandomSource(2).child("B°").standard_normal((5, 2))
        cases = [
            (Mode.full(), None, layer.W @ x),
            (Mode.single(1), None, layer.W @ x + s * b1 @ a1 @ x),
            (Mode.multi(), None, layer.W @ x + s / 2 * (b0 @ a0 + b1 @ a1) @ x),
            (Mode.worker(0), None, layer.W @ x + s / 2 * b0 @ a0 @ x),
            (Mode.worker(0), [(ao, bo)], layer.W @ x + s / 2 * (b0 @ a0 - bo @ ao) @ x),
        ]
        for mode, corr, expected in cases:
            out, _ = forward(net, x, mode, corr)
            np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_two_layer_zero_heads_composes(self):
        net = random_net(RandomSource(2), dims=(4, 5, 3), zero_b=True)
        x = RandomSource(3).standard_normal((4, 2))
        for mode in (Mode.full(), Mode.single(0), Mode.multi(), Mode.worker(1)):
            out, _ = forward(net, x, mode)
            np.testing.assert_allclose(out, net.layers[1].W @ (net.layers[0].W @ x), atol=1e-14)

    def test_final_relu_clamps(self):
        net = random_net(RandomSource(4), dims=(4, 5))
        net.activations[-1] = "relu"
        out, _ = forward(net, RandomSource(5).standard_normal((4, 8)), Mode.multi())
        assert np.all(out >= 0)

    def test_mode_consistency_with_zero_heads(self):
        # all-zero heads: every mode computes the same function
        net = random_net(RandomSource(6), dims=(4, 5), zero_b=True)
        batch = mse_batch(RandomSource(7), net)
        outs = [forward(net, batch.inputs, mode)[0]
                for mode in (Mode.full(), Mode.single(0), Mode.multi(), Mode.worker(1))]
        for o in outs[1:]:
            np.testing.assert_array_equal(o, outs[0])

    def test_input_dim_checked(self):
        net = random_net(RandomSource(8))
        with pytest.raises(ValueError):
            forward(net, np.ones((3, 2)), Mode.full())

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Mode("single")
        with pytest.raises(ValueError):
            Mode("multi", head=0)
        for bad in (range(0), range(0, 4, 2), range(-1, 1)):
            with pytest.raises(ValueError, match="worker"):
                Mode.worker(bad)
        with pytest.raises(ValueError, match="worker"):
            Mode.single(range(2))
        # a negative index would pick a head from the end
        for bad in (Mode.single, Mode.worker):
            with pytest.raises(ValueError, match="head index must be >= 0, got -1"):
                bad(-1)

    @pytest.mark.parametrize("mode", [Mode.full(), Mode.single(0), Mode.multi()])
    def test_corrections_rejected_outside_worker_mode(self, mode):
        net = random_net(RandomSource(9), dims=(4, 5, 3))
        batch = mse_batch(RandomSource(10), net)
        corr = [None, 5.0 * np.ones_like(net.layers[1].W)]
        pattern = f"worker mode.*{mode.kind!r}"
        with pytest.raises(ValueError, match=pattern):
            forward(net, batch.inputs, mode, corr)
        with pytest.raises(ValueError, match=pattern):
            loss_and_grad(net, batch, mode, corr)
        with pytest.raises(ValueError, match=pattern):
            fd_check(net, batch, mode, corrections=corr)
        forward(net, batch.inputs, mode, [None, None])  # no correction given

    @pytest.mark.parametrize("bad", ["dense", "swapped", "triple"])
    def test_malformed_correction_rejected(self, bad):
        # a correction is the pair (A°, B°) shaped like the head's factors;
        # anything else, a dense m x n stale product included, fails up front
        # with the layer named, not inside a matmul
        net = random_net(RandomSource(14), dims=(4, 5, 3))
        batch = mse_batch(RandomSource(15), net)
        a, b = net.layers[1].factors(0)
        corr = {"dense": b @ a, "swapped": (b, a), "triple": (a, b, a)}[bad]
        corrections = [None, corr]
        with pytest.raises(ValueError, match="layer 1: a correction is the factor pair"):
            forward(net, batch.inputs, Mode.worker(0), corrections)
        with pytest.raises(ValueError, match="layer 1: a correction is the factor pair"):
            loss_and_grad(net, batch, Mode.worker(0), corrections)
        with pytest.raises(ValueError, match="layer 1: a correction is the factor pair"):
            fd_check(net, batch, Mode.worker(0), corrections=corrections)

    def test_worker_range_is_stacked_worker_views(self):
        # k workers at once: slice j is worker start + j's own view, with its
        # own stale corrections, bitwise
        net = random_net(RandomSource(11), dims=(4, 5, 3), n_heads=4, activation="relu")
        rng = RandomSource(12)
        heads = range(1, 4)
        x = rng.child("x").standard_normal((3, 4, 2))
        y = rng.child("y").standard_normal((3, 3, 2))
        corr = [(rng.child("A°", li).standard_normal((3,) + layer.A.shape[1:]),
                 rng.child("B°", li).standard_normal((3,) + layer.B.shape[1:]))
                for li, layer in enumerate(net.layers)]
        out, _ = forward(net, x, Mode.worker(heads), corr)
        losses, grads = loss_and_grad(net, Batch(inputs=x, targets=y), Mode.worker(heads), corr)
        assert out.shape == (3, 3, 2) and losses.shape == (3,)
        for j, h in enumerate(heads):
            corr_j = [(a[j], b[j]) for a, b in corr]
            out_j, _ = forward(net, x[j], Mode.worker(h), corr_j)
            loss_j, grads_j = loss_and_grad(net, Batch(inputs=x[j], targets=y[j]),
                                            Mode.worker(h), corr_j)
            assert out[j].tobytes() == out_j.tobytes()
            assert losses[j] == loss_j
            for g, g_j in zip(grads, grads_j):
                assert g.dA[j].tobytes() == g_j.dA.tobytes()
                assert g.dB[j].tobytes() == g_j.dB.tobytes()
        err = fd_check(net, Batch(inputs=x, targets=y), Mode.worker(heads), corrections=corr,
                       num_params=40, rng=rng.child("probe"))
        assert err <= 1e-6

    def test_worker_range_input_checked(self):
        net = random_net(RandomSource(13), n_heads=3)
        with pytest.raises(ValueError, match="3-D"):
            forward(net, np.ones((4, 2)), Mode.worker(range(2)))
        with pytest.raises(ValueError, match="stack of 3"):
            forward(net, np.ones((3, 4, 2)), Mode.worker(range(2)))
        with pytest.raises(IndexError, match="heads"):
            forward(net, np.ones((2, 4, 2)), Mode.worker(range(2, 4)))
        with pytest.raises(IndexError, match="head 5 is not one of the layer's 3"):
            forward(net, np.ones((4, 2)), Mode.worker(5))


class TestModeTerms:
    def test_terms_table(self):
        # terms are (coefficient, A, B); the factors are views on the
        # layer's stacks, matched here by the memory they cover
        layer = random_net(RandomSource(30), n_heads=4).layers[0]
        stale = (np.ones_like(layer.A[3]), np.ones_like(layer.B[3]))
        c = layer.s / 4

        def views(terms, *heads):
            # the coefficient per term, each factor pair a view of the heads
            for (_, a, b), want in zip(terms, heads):
                for got, stack in ((a, layer.A), (b, layer.B)):
                    view = stack[want]
                    assert (got.ctypes.data, got.shape, got.strides) == (
                        view.ctypes.data, view.shape, view.strides)
            return [coef for coef, _, _ in terms]

        assert Mode.full().terms(layer, stale) == []
        assert views(Mode.single(2).terms(layer, stale), 2) == [layer.s]
        # multi mode: one stacked term of every head
        assert views(Mode.multi().terms(layer, stale), slice(0, 4)) == [c]
        assert views(Mode.worker(3).terms(layer), 3) == [c]
        assert views(Mode.worker(range(1, 3)).terms(layer), slice(1, 3)) == [c]
        [head, (coef, a0, b0)] = Mode.worker(3).terms(layer, stale)
        assert views([head], 3) == [c]
        assert coef == -c and a0 is stale[0] and b0 is stale[1]

    def test_worker_reads_only_its_head(self):
        # heads outside the mode's terms are never touched: poisoning them
        # leaves the worker's loss and gradients finite
        net = random_net(RandomSource(31), dims=(4, 5, 3), n_heads=3)
        batch = mse_batch(RandomSource(32), net)
        for layer in net.layers:
            for i in (0, 2):
                layer.A[i] = np.nan
        loss, grads = loss_and_grad(net, batch, Mode.worker(1))
        assert np.isfinite(loss)
        for g, layer in zip(grads, net.layers):
            assert g.dA.shape == layer.A[1].shape and g.dB.shape == layer.B[1].shape
            assert np.isfinite(g.dA).all() and np.isfinite(g.dB).all()

    def test_heads_restricts_materialized_gradients(self):
        # a multi-mode shard stack materializes head j's gradient from shard
        # j alone, bitwise as a plain multi-mode call on that shard gives it
        net = random_net(RandomSource(33), dims=(4, 5, 3), n_heads=3, activation="relu")
        shards = [mse_batch(RandomSource(34).child(j), net) for j in range(3)]
        stack = Batch(inputs=np.stack([b.inputs for b in shards]),
                      targets=np.stack([b.targets for b in shards]))
        losses, grads = loss_and_grad(net, stack, Mode.multi())
        assert losses.shape == (3,)
        for g, layer in zip(grads, net.layers):
            assert g.dA.shape == layer.A.shape and g.dB.shape == layer.B.shape
        for j, shard in enumerate(shards):
            # a 2-D batch gives every head its gradient, stacked like the heads
            loss_j, grads_j = loss_and_grad(net, shard, Mode.multi())
            assert losses[j].tobytes() == np.float64(loss_j).tobytes()
            for g, g_j in zip(grads, grads_j):
                assert g.dA[j].tobytes() == g_j.dA[j].tobytes()
                assert g.dB[j].tobytes() == g_j.dB[j].tobytes()
        for wrong in (2, 4):
            bad = Batch(inputs=stack.inputs[:1].repeat(wrong, axis=0),
                        targets=stack.targets[:1].repeat(wrong, axis=0))
            with pytest.raises(ValueError, match="shard stack of"):
                loss_and_grad(net, bad, Mode.multi())
        with pytest.raises(ValueError, match="shard stack"):
            fd_check(net, stack, Mode.multi())


class TestLosses:
    def test_mse_zero_at_targets(self):
        net = random_net(RandomSource(9), zero_b=True)
        x = RandomSource(10).standard_normal((4, 3))
        out, _ = forward(net, x, Mode.full())
        batch = Batch(inputs=x, targets=out)
        loss, grads = loss_and_grad(net, batch, Mode.full())
        assert loss == 0.0
        np.testing.assert_array_equal(grads[0].dW, np.zeros_like(net.layers[0].W))

    def test_mse_scalar_hand_formula(self):
        # 1-D linear: loss = (wx - y)^2 / 2, dW = (wx - y) x
        net = random_net(RandomSource(11), dims=(1, 1), r=1, zero_b=True)
        w = net.layers[0].W[0, 0]
        x, y = 1.7, -0.4
        batch = Batch(inputs=np.array([[x]]), targets=np.array([[y]]))
        loss, grads = loss_and_grad(net, batch, Mode.full())
        np.testing.assert_allclose(loss, 0.5 * (w * x - y) ** 2)
        np.testing.assert_allclose(grads[0].dW, [[(w * x - y) * x]])

    def test_mse_nonnegative_and_zero_iff_equal(self):
        net = random_net(RandomSource(12), zero_b=True)
        batch = mse_batch(RandomSource(13), net)
        loss = loss_value(net, batch, Mode.full())
        assert loss > 0.0

    def test_softmax_ce_loss_and_grad(self):
        net = random_net(RandomSource(14), dims=(4, 6), loss="softmax_ce")
        x = RandomSource(15).standard_normal((4, 5))
        targets = np.array([0, 3, 5, 1, 2])
        batch = Batch(inputs=x, targets=targets)
        loss, _ = loss_and_grad(net, batch, Mode.multi())
        out, _ = forward(net, x, Mode.multi())
        shifted = out - out.max(axis=0)
        logp = shifted - np.log(np.exp(shifted).sum(axis=0))
        np.testing.assert_allclose(loss, -logp[targets, np.arange(5)].mean())

    def test_softmax_ce_target_validation(self):
        net = random_net(RandomSource(16), dims=(4, 6), loss="softmax_ce")
        x = np.ones((4, 2))
        with pytest.raises(ValueError):
            loss_and_grad(net, Batch(inputs=x, targets=np.array([0, 6])), Mode.multi())
        with pytest.raises(ValueError):
            loss_and_grad(net, Batch(inputs=x, targets=np.array([0.5, 1.5])), Mode.multi())


class TestInputChecks:
    """Non-finite data is rejected where it enters: a Batch's inputs when the
    batch is built, raw forward inputs, and mse targets."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["matrix", "shard_stack"])
    def test_non_finite_entries_raise(self, bad, lead):
        net = random_net(RandomSource(20))
        x, y = np.ones(lead + (4, 3)), np.zeros(lead + (5, 3))
        x_bad, y_bad = x.copy(), y.copy()
        x_bad[..., 1, 2] = bad
        y_bad[..., 4, 0] = bad
        with pytest.raises(ValueError, match="batch inputs contains non-finite"):
            Batch(inputs=x_bad, targets=y)
        with pytest.raises(ValueError, match="network inputs contains non-finite"):
            forward(net, x_bad, Mode.multi())
        with pytest.raises(ValueError, match="mse targets contains non-finite"):
            loss_and_grad(net, Batch(inputs=x, targets=y_bad), Mode.multi())


class TestGradients:
    @pytest.mark.parametrize("mode", [Mode.full(), Mode.single(0), Mode.multi(), Mode.worker(1)])
    @pytest.mark.parametrize("loss", ["mse", "softmax_ce"])
    def test_fd_agreement(self, mode, loss):
        net = random_net(RandomSource(17), dims=(4, 5, 3), loss=loss)
        rng = RandomSource(18)
        x = rng.child("x").standard_normal((4, 4))
        if loss == "mse":
            targets = rng.child("y").standard_normal((3, 4))
        else:
            targets = np.array([0, 2, 1, 2])
        err = fd_check(net, Batch(inputs=x, targets=targets), mode, num_params=40,
                       rng=rng.child("probe"))
        assert err <= 1e-6

    def test_fd_agreement_at_invariant_scope(self):
        # the stated envelope: layers up to 16x16, r <= 4, N <= 4, step 1e-6;
        # fan-scaled weights keep the finite-difference oracle's rounding
        # noise well below the tolerance
        rng = RandomSource(29)
        net = random_net(rng.child("net"), dims=(16, 16), n_heads=4, r=4, fan_scaled=True)
        x = rng.child("x").standard_normal((16, 4))
        out, _ = forward(net, x, Mode.multi())
        targets = out + 0.3 * rng.child("y").standard_normal(out.shape)
        for mode in (Mode.full(), Mode.single(2), Mode.multi(), Mode.worker(3)):
            err = fd_check(net, Batch(inputs=x, targets=targets), mode, step=1e-6,
                           num_params=48, rng=rng.child("probe", mode.kind))
            assert err <= 1e-6

    def test_worker_mode_with_corrections(self):
        net = random_net(RandomSource(19), dims=(4, 5, 3))
        rng = RandomSource(20)
        corr = [(rng.child("A°", i).standard_normal(layer.A[0].shape),
                 rng.child("B°", i).standard_normal(layer.B[0].shape))
                for i, layer in enumerate(net.layers)]
        batch = Batch(
            inputs=rng.child("x").standard_normal((4, 3)),
            targets=rng.child("y").standard_normal((3, 3)),
        )
        err = fd_check(net, batch, Mode.worker(0), corrections=corr, num_params=40,
                       rng=rng.child("probe"))
        assert err <= 1e-6


@st.composite
def concat_cases(draw):
    """A chain of 1-3 layers whose first layer has m != n, N 1-5 heads,
    identity or ReLU gaps, a plain batch or an (N, n, b) shard stack."""
    d0 = draw(st.integers(1, 6))
    d1 = draw(st.integers(1, 6).filter(lambda d: d != d0))
    dims = (d0, d1, *draw(st.lists(st.integers(1, 6), max_size=2)))
    return {"dims": dims, "r": draw(st.integers(1, min(dims))), "n_heads": draw(st.integers(1, 5)),
            "activation": draw(st.sampled_from(["identity", "relu"])),
            "sharded": draw(st.booleans()), "batch": draw(st.integers(1, 4)),
            "seed": draw(st.integers(0, 2**32 - 1))}


def _per_head_reference(net, x, y, sharded):
    """Multi-mode loss and head gradients, built one head term at a time:
    each layer adds c B_h (A_h x) per head h, the input gradient
    c A_hᵀ (B_hᵀ u) per head, and on a shard stack head h's gradient comes
    from slice h alone."""
    xs, zs = [], []
    for layer, act in zip(net.layers, net.activations):
        c = layer.s / layer.num_heads
        z = layer.W @ x
        for h in range(layer.num_heads):
            z = z + c * (layer.B[h] @ (layer.A[h] @ x))
        xs.append(x)
        zs.append(z)
        x = np.maximum(z, 0.0) if act == "relu" else z
    b = x.shape[-1]
    diff = x - y
    loss = 0.5 / b * np.sum(diff * diff, axis=(-2, -1))
    u = diff / b
    dA, dB = [None] * len(net.layers), [None] * len(net.layers)
    for i in reversed(range(len(net.layers))):
        layer, x, z = net.layers[i], xs[i], zs[i]
        c = layer.s / layer.num_heads
        if net.activations[i] == "relu":
            u = u * (z > 0.0)
        a_grads, b_grads = [], []
        for h in range(layer.num_heads):
            uh, xh = (u[h], x[h]) if sharded else (u, x)
            b_grads.append(c * (uh @ (layer.A[h] @ xh).T))
            a_grads.append(c * ((layer.B[h].T @ uh) @ xh.T))
        dA[i], dB[i] = np.stack(a_grads), np.stack(b_grads)
        dx = layer.W.T @ u
        for h in range(layer.num_heads):
            dx = dx + c * (layer.A[h].T @ (layer.B[h].T @ u))
        u = dx
    return loss, dA, dB, zs


class TestConcatenatedMulti:
    """Multi mode runs every head of a layer as one GEMM pair over the
    concatenated factors; it is the per-head sum of terms to rounding."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(concat_cases())
    def test_matches_per_head_terms(self, case):
        rng = RandomSource(case["seed"])
        dims, k = case["dims"], case["n_heads"]
        net = random_net(rng.child("net"), dims=dims, n_heads=k, r=case["r"], alpha=1.5 * case["r"],
                         activation=case["activation"], fan_scaled=True)
        lead = (k,) if case["sharded"] else ()
        x = rng.child("x").standard_normal(lead + (dims[0], case["batch"]))
        y = rng.child("y").standard_normal(lead + (dims[-1], case["batch"]))
        loss, dA, dB, zs = _per_head_reference(net, x, y, case["sharded"])
        if case["activation"] == "relu":
            assume(all(np.abs(z).min() > 1e-9 for z in zs[:-1]))
        out, _ = forward(net, x, Mode.multi())
        np.testing.assert_allclose(out, zs[-1], rtol=1e-12, atol=1e-12)
        got, grads = loss_and_grad(net, Batch(inputs=x, targets=y), Mode.multi())
        np.testing.assert_allclose(got, loss, rtol=1e-12, atol=1e-12)
        for li, g in enumerate(grads):
            np.testing.assert_allclose(g.dA, dA[li], rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(g.dB, dB[li], rtol=1e-12, atol=1e-12)


class TestFdCheck:
    def test_linear_mse_precision(self):
        # quadratic loss: central differences carry no truncation error, only
        # rounding, so a moderate residual keeps the error far below 1e-8
        net = random_net(RandomSource(21), dims=(4, 4))
        rng = RandomSource(22)
        x = rng.child("x").standard_normal((4, 3))
        out, _ = forward(net, x, Mode.multi())
        targets = out + 0.1 * rng.child("noise").standard_normal(out.shape)
        assert fd_check(net, Batch(inputs=x, targets=targets), Mode.multi(), step=1e-6) <= 1e-8

    def test_relu_away_from_kinks(self):
        rng = RandomSource(23)
        while True:
            net = random_net(rng.child("net"), dims=(4, 5, 3), activation="relu")
            batch = mse_batch(rng.child("batch"), net, b=3)
            _, cache = forward(net, batch.inputs, Mode.multi())
            margin = min(np.abs(c["z"]).min() for c in cache[:-1])
            if margin > 1e-3:
                break
            rng = rng.child("retry")
        assert fd_check(net, batch, Mode.multi(), step=1e-6) <= 1e-5

    def test_zero_loss_configuration(self):
        net = random_net(RandomSource(24), zero_b=True)
        x = RandomSource(25).standard_normal((4, 3))
        out, _ = forward(net, x, Mode.full())
        batch = Batch(inputs=x, targets=out)
        assert fd_check(net, batch, Mode.full(), step=1e-6) <= 1e-10

    def test_network_restored_bitwise(self):
        net = random_net(RandomSource(26))
        before = [layer.W.copy() for layer in net.layers] + [
            arr.copy() for layer in net.layers for arr in (layer.A, layer.B)
        ]
        batch = mse_batch(RandomSource(27), net)
        fd_check(net, batch, Mode.multi())
        after = [layer.W for layer in net.layers] + [
            arr for layer in net.layers for arr in (layer.A, layer.B)
        ]
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)


def test_network_dim_chain_validated():
    rng = RandomSource(28)
    l1 = LoraLinear(W=rng.child(0).standard_normal((5, 4)), alpha=1.0,
                    heads=[LoraHead.fresh(5, 4, 1, InitScheme("kaiming"), rng.child(1))])
    l2 = LoraLinear(W=rng.child(2).standard_normal((3, 6)), alpha=1.0,
                    heads=[LoraHead.fresh(3, 6, 1, InitScheme("kaiming"), rng.child(3))])
    with pytest.raises(ValueError, match="chain"):
        Network([l1, l2])

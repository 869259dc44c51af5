import dataclasses
import itertools

import numpy as np
import pytest
from conftest import DIVERGING_CONFIGS, exact_policy, ls_config
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ltelab import lte, network
from ltelab.analysis import effective_rank, head_alignment, trajectory_deviation
from ltelab.data import gen_least_squares, sample_batch
from ltelab.layers import LoraHead, LoraLinear
from ltelab.lte import (
    ArchSpec,
    ConfigError,
    DatasetSpec,
    KeyedOptimizer,
    MergePolicy,
    PooledStream,
    RunConfig,
    RunDiverged,
    WorkerState,
    _eval_enabled,
    _train_heads,
    config_from_dict,
    local_step,
    merge,
    run_full,
    run_lte,
    run_mhlora,
)
from ltelab.network import (Batch, Mode, Network, combine, effective_weight, forward, head_product,
                            loss_and_grad)
from ltelab.numerics import InitScheme, RandomSource, init_matrix
from ltelab.optim import OptimConfig, sgd_step


def tiny_setup(n_heads=2, m=4, n=4, r=2, alpha=None, exact=False, seed=0, optimizer="sgd",
               eta=0.05):
    """One-layer network plus workers, outside the runner."""
    rng = RandomSource(seed)
    heads = [
        LoraHead.fresh(m, n, r, InitScheme("kaiming"), rng.child("h", i)) for i in range(n_heads)
    ]
    layer = LoraLinear(W=rng.child("W").standard_normal((m, n)), alpha=float(alpha or r), heads=heads)
    net = Network([layer])
    task = gen_least_squares(m, n, min(m, n), rng.child("task"))
    workers = [
        WorkerState(
            head_index=i,
            stream=None,
            opt=KeyedOptimizer(optimizer, OptimConfig(eta=eta)),
            corrections=[(np.zeros((r, n)), np.zeros((m, r)))],
            use_correction=exact,
        )
        for i in range(n_heads)
    ]
    return net, task, workers, rng


class TestLocalStep:
    def test_zero_upstream_no_change(self):
        net, _, workers, rng = tiny_setup()
        # make B nonzero so a nonzero gradient would actually move something
        layer = net.layers[0]
        for B in layer.B:
            B[...] = rng.child("bfill").standard_normal(B.shape)
        x = rng.child("x").standard_normal((4, 5))
        out, _ = forward(net, x, Mode.worker(0))
        before = (layer.A.copy(), layer.B.copy())
        loss = local_step(workers[0], net, Batch(inputs=x, targets=out))
        assert loss == 0.0
        np.testing.assert_array_equal(layer.A, before[0])
        np.testing.assert_array_equal(layer.B, before[1])

    def test_loss_decreases_on_convex_task(self):
        net, task, workers, rng = tiny_setup(eta=0.1)
        stream = rng.child("stream")
        first = last = None
        for i in range(50):
            loss = local_step(workers[0], net, sample_batch(task, 16, stream))
            first = loss if first is None else first
            last = loss
        assert last < first

    def test_isolation_of_base_and_other_heads(self):
        net, task, workers, rng = tiny_setup(n_heads=3)
        w_bytes = net.layers[0].W.tobytes()
        others = [f.tobytes() for f in net.layers[0].factors(range(1, 3))]
        for _ in range(5):
            local_step(workers[0], net, sample_batch(task, 8, rng.child("b")))
        assert net.layers[0].W.tobytes() == w_bytes
        assert [f.tobytes() for f in net.layers[0].factors(range(1, 3))] == others

    def test_step_counters(self):
        net, task, workers, rng = tiny_setup()
        local_step(workers[0], net, sample_batch(task, 8, rng.child("b")))
        assert workers[0].steps_since_merge == 1

    def test_worker_execution_order_is_irrelevant(self):
        # private streams plus exclusive head ownership make the round a
        # function of the batches only, not of worker scheduling
        results = []
        for order in ((0, 1, 2), (2, 0, 1)):
            net, task, workers, rng = tiny_setup(n_heads=3, seed=9)
            batches = [sample_batch(task, 8, rng.child("batch", i)) for i in range(3)]
            for _ in range(3):
                for i in order:
                    local_step(workers[i], net, batches[i])
            results.append((net.layers[0].A.copy(), net.layers[0].B.copy()))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])


@st.composite
def batched_cases(draw):
    """A random network, worker set and schedule for the batched step."""
    depth = draw(st.integers(1, 2))
    dims = [draw(st.integers(1, 5)) for _ in range(depth + 1)]
    return {
        "dims": dims,
        "r": draw(st.integers(1, min(dims))),
        "n_heads": draw(st.integers(1, 4)),
        "relu": draw(st.booleans()),
        "optimizer": draw(st.sampled_from(["sgd", "adamw"])),
        "exact": draw(st.booleans()),
        "batch": draw(st.integers(1, 4)),
        "steps": (draw(st.integers(1, 3)), draw(st.integers(1, 3))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _batched_setup(case, shared_opt=False):
    """Network, workers and per-layer (A°, B°) stale-correction stacks, shaped
    like the head stacks, that the workers' corrections are views on; with
    shared_opt every worker holds the same optimizer, as run_lte's one
    optimizer serves every head, else each worker has its own."""
    rng = RandomSource(case["seed"])
    n_heads, r, dims = case["n_heads"], case["r"], case["dims"]
    layers = []
    for li, (n, m) in enumerate(zip(dims, dims[1:])):
        # fan-in scaled, so that a few steps at eta 0.05 stay far from overflow
        scale = 1.0 / np.sqrt(n)
        heads = [LoraHead(A=rng.child("A", li, i).standard_normal((r, n)) * scale,
                          B=rng.child("B", li, i).standard_normal((m, r)) * 0.5)
                 for i in range(n_heads)]
        layers.append(LoraLinear(W=rng.child("W", li).standard_normal((m, n)) * scale,
                                 alpha=1.5 * r, heads=heads))
    acts = ["relu" if case["relu"] else "identity"] * (len(layers) - 1) + ["identity"]
    net = Network(layers, activations=acts)
    stale = [(rng.child("A°", li).standard_normal(layer.A.shape) / np.sqrt(layer.n),
              rng.child("B°", li).standard_normal(layer.B.shape) * 0.5)
             for li, layer in enumerate(layers)]
    shared = KeyedOptimizer(case["optimizer"], OptimConfig(eta=0.05))
    workers = [
        WorkerState(head_index=i, stream=None,
                    opt=shared if shared_opt else KeyedOptimizer(case["optimizer"], shared.cfg),
                    corrections=[(a[i], b[i]) for a, b in stale], use_correction=case["exact"])
        for i in range(n_heads)
    ]
    return net, workers, stale


def _worker_moments(workers, shared_opt):
    """Each worker's optimizer state per key as (step count, m bytes, v
    bytes); under a shared optimizer worker j's are slice j of its stacks."""
    return [{key: (st.step_count, (st.m[j] if shared_opt else st.m).tobytes(),
                   (st.v[j] if shared_opt else st.v).tobytes())
             for key, st in w.opt.states.items()}
            for j, w in enumerate(workers)]


class TestBatchedStep:
    @given(batched_cases(), st.randoms(use_true_random=False))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_sequential_local_steps(self, case, order_rng):
        # one batched step of all workers under one shared optimizer is
        # bitwise k local_step calls with one optimizer per worker, in any
        # worker order, across a reset_opt merge that refreshes V; the
        # moments are compared before each merge, as reset_opt clears them
        rng = RandomSource(case["seed"]).child("data")
        n_heads, b, dims = case["n_heads"], case["batch"], case["dims"]
        heads = range(n_heads)
        policy = (exact_policy(reset_opt=True) if case["exact"]
                  else MergePolicy(period=1, reset_opt=True))
        rounds = []
        for rnd, steps in enumerate(case["steps"]):
            rounds.append([[Batch(inputs=rng.child("x", rnd, t, i).standard_normal((dims[0], b)),
                                  targets=rng.child("y", rnd, t, i).standard_normal((dims[-1], b)))
                            for i in heads] for t in range(steps)])
        runs = []
        for batched in (True, False):
            net, workers, stale = _batched_setup(case, shared_opt=batched)
            corr = stale if case["exact"] else None
            losses, moments = [], []
            for rnd, round_batches in enumerate(rounds):
                for batches in round_batches:
                    if batched:
                        stack = Batch(inputs=np.stack([bt.inputs for bt in batches]),
                                      targets=np.stack([bt.targets for bt in batches]))
                        losses.append(_train_heads(net, workers[0].opt, stack,
                                                   Mode.worker(heads), corr))
                    else:
                        row = np.zeros(n_heads)
                        for i in order_rng.sample(heads, n_heads):
                            row[i] = local_step(workers[i], net, batches[i])
                        losses.append(row)
                moments.append(_worker_moments(workers, shared_opt=batched))
                merge(net, workers, policy, merge_id=rnd + 1)
            runs.append((net, stale, np.array(losses), moments))
        (net_a, stale_a, loss_a, moments_a), (net_b, stale_b, loss_b, moments_b) = runs
        assert np.isfinite(loss_a).all()
        assert loss_a.tobytes() == loss_b.tobytes()
        for la, lb in zip(net_a.layers, net_b.layers):
            for arr_a, arr_b in ((la.W, lb.W), (la.A, lb.A), (la.B, lb.B)):
                assert arr_a.tobytes() == arr_b.tobytes()
        for (a_a, b_a), (a_b, b_b) in zip(stale_a, stale_b):
            assert a_a.tobytes() == a_b.tobytes() and b_a.tobytes() == b_b.tobytes()
        assert moments_a == moments_b


@st.composite
def one_call_cases(draw):
    """A `batched_cases` network and the heads one update trains: one head
    index, a sub-range, or all heads, these in worker or in multi mode."""
    case = draw(batched_cases())
    n_heads = case["n_heads"]
    kind = draw(st.sampled_from(["int", "range", "all"]))
    if kind == "int":
        return case, draw(st.integers(0, n_heads - 1)), False
    if kind == "all":
        return case, range(n_heads), draw(st.booleans())
    start = draw(st.integers(0, n_heads - 1))
    return case, range(start, draw(st.integers(start + 1, n_heads))), False


class TestOneCallUpdate:
    """`_train_heads` steps every factor of every layer in one optimizer call
    over a head-major (k, P) array: bitwise the per-layer, per-factor
    sequence of calls, with head j's moments in row j of its one state."""

    @given(one_call_cases())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_bitwise_per_factor_sequence(self, args):
        case, heads, multi = args
        rng = RandomSource(case["seed"]).child("data")
        rows = len(heads) if isinstance(heads, range) else 1
        lead = (rows,) if isinstance(heads, range) else ()
        mode = Mode.multi() if multi else Mode.worker(heads)
        (one, _, stale), (ref, _, _) = _batched_setup(case), _batched_setup(case)
        span = heads if isinstance(heads, int) else slice(heads.start, heads.stop)
        corr = ([(a[span], b[span]) for a, b in stale] if case["exact"] and not multi
                else None)
        opt_one, opt_ref = (KeyedOptimizer(case["optimizer"], OptimConfig(eta=0.05))
                            for _ in range(2))
        dims, b = case["dims"], case["batch"]
        for t in range(sum(case["steps"])):
            batch = Batch(inputs=rng.child("x", t).standard_normal(lead + (dims[0], b)),
                          targets=rng.child("y", t).standard_normal(lead + (dims[-1], b)))
            loss = _train_heads(one, opt_one, batch, mode, corr)
            ref_loss, grads = loss_and_grad(ref, batch, mode, corrections=corr)
            for li, layer in enumerate(ref.layers):
                A, B = layer.factors(heads)
                A[...] = opt_ref.step((li, "A"), A, grads[li].dA)
                B[...] = opt_ref.step((li, "B"), B, grads[li].dB)
            assert np.asarray(loss).tobytes() == np.asarray(ref_loss).tobytes()
        for la, lb in zip(one.layers, ref.layers):
            for arr_a, arr_b in ((la.W, lb.W), (la.A, lb.A), (la.B, lb.B)):
                assert arr_a.tobytes() == arr_b.tobytes()
        if case["optimizer"] == "sgd":
            assert not opt_one.states
            return
        state = opt_one.states[lte.HEADS_KEY]
        assert list(opt_one.states) == [lte.HEADS_KEY]
        assert state.step_count == opt_ref.states[0, "A"].step_count
        for moment in ("m", "v"):
            got = getattr(state, moment).reshape(rows, -1)
            for j in range(rows):
                want = [getattr(opt_ref.states[li, f], moment).reshape(rows, -1)[j]
                        for li in range(len(ref.layers)) for f in "AB"]
                assert got[j].tobytes() == np.concatenate(want).tobytes()


class TestMerge:
    def test_zero_heads_no_op(self):
        net, _, workers, _ = tiny_setup()
        w_before = net.layers[0].W.copy()
        rec = merge(net, workers, MergePolicy(period=1))
        np.testing.assert_array_equal(net.layers[0].W, w_before)
        np.testing.assert_array_equal(rec.delta[0], np.zeros((4, 4)))

    def test_hand_average(self):
        heads = [
            LoraHead(A=np.array([[1.0]]), B=np.array([[1.0]])),
            LoraHead(A=np.array([[3.0]]), B=np.array([[1.0]])),
        ]
        layer = LoraLinear(W=np.zeros((1, 1)), alpha=1.0, heads=heads)
        net = Network([layer])
        workers = [
            WorkerState(head_index=i, stream=None, opt=KeyedOptimizer("sgd", OptimConfig(eta=0.1)),
                        corrections=[np.zeros((1, 1))], use_correction=False)
            for i in range(2)
        ]
        merge(net, workers, MergePolicy(period=1))
        np.testing.assert_array_equal(layer.W, [[2.0]])

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.integers(1, 7), st.integers(1, 7), st.integers(1, 4), st.data(),
           st.sampled_from(["reset_B", "reset_A"]), st.integers(0, 2**32 - 1))
    def test_function_preservation(self, m, n, n_heads, data, policy, seed):
        # a resetting merge moves the heads into W: the multi-head function
        # is W's afterwards, whatever reset_A draws for the zeroed heads
        r = data.draw(st.integers(1, min(m, n)), label="r")
        net, _, workers, rng = tiny_setup(n_heads=n_heads, m=m, n=n, r=r, seed=seed)
        layer = net.layers[0]
        layer.B[...] = rng.child("b").standard_normal(layer.B.shape)
        x = rng.child("x").standard_normal((n, 6))
        before, _ = forward(net, x, Mode.multi())
        merge(net, workers, MERGE_POLICIES[policy], init=InitScheme("kaiming"), rng=rng.child("merge"))
        for mode in (Mode.full(), Mode.multi()):
            after, _ = forward(net, x, mode)
            np.testing.assert_allclose(after, before, rtol=0,
                                       atol=1e-13 * (1.0 + np.abs(before).max()))

    @pytest.mark.parametrize("exact", [False, True])
    def test_rejects_a_worker_of_the_other_scheme(self, exact):
        # workers that keep corrections under an averaged merge, or none
        # under an exact one, would train neither scheme: the merge names
        # the worker and writes nothing
        net, _, workers, rng = tiny_setup(exact=not exact)
        layer = net.layers[0]
        layer.B[...] = rng.child("b").standard_normal(layer.B.shape)
        for w in workers:
            w.corrections = [tuple(f.copy() for f in layer.factors(w.head_index))]
        before = [f.copy() for f in (layer.W, layer.A, layer.B)]
        with pytest.raises(ValueError, match="^worker 0: use_correction"):
            merge(net, workers, exact_policy() if exact else MergePolicy(period=1))
        for got, want in zip((layer.W, layer.A, layer.B), before):
            assert got.tobytes() == want.tobytes()

    def test_exact_mode_updates_corrections(self):
        net, _, workers, rng = tiny_setup(n_heads=2, exact=True)
        layer = net.layers[0]
        for B in layer.B:
            B[...] = rng.child("bx").standard_normal(B.shape)
        products = [B @ A for A, B in zip(layer.A, layer.B)]
        rec = merge(net, workers, exact_policy())
        for w, A, B, prod in zip(workers, layer.A, layer.B, products):
            a0, b0 = w.corrections[0]
            np.testing.assert_array_equal(a0, A)
            np.testing.assert_array_equal(b0, B)
            np.testing.assert_array_equal(b0 @ a0, prod)
        # second merge with unchanged params adds nothing
        w_before = net.layers[0].W.copy()
        merge(net, workers, exact_policy(), merge_id=2)
        np.testing.assert_array_equal(net.layers[0].W, w_before)

    def test_delta_is_mean_of_worker_deltas(self):
        net, _, workers, rng = tiny_setup(n_heads=4)
        layer = net.layers[0]
        for hi, B in enumerate(layer.B):
            B[...] = rng.child("bfill", hi).standard_normal(B.shape)
        # reference: one head at a time; and the merge's arithmetic, one
        # GEMM of the factors concatenated in index order
        contribs = [layer.s * (B @ A) for A, B in zip(layer.A, layer.B)]
        pinned = layer.s / 4 * (np.hstack(list(layer.B)) @ np.vstack(list(layer.A)))
        rec = merge(net, workers, MergePolicy(period=1))
        A, B = rec.factors[0]
        for h, c in enumerate(contribs):
            assert (layer.s * (B[h] @ A[h])).tobytes() == c.tobytes()
        assert rec.delta[0].tobytes() == pinned.tobytes()
        np.testing.assert_allclose(rec.delta[0], np.mean(contribs, axis=0), atol=1e-15)

    def test_exact_merge_checks_every_correction_first(self):
        # a dense (m, n) placeholder in layer 1 is rejected, naming worker
        # and layer, before layer 0's W, any head or any stale factor moves
        net, workers, stale = chain_setup((3, 4, 5), r=2, n_heads=2, seed=3, exact=True)
        workers[1].corrections[1] = np.zeros((5, 4))
        before = [a.copy() for layer in net.layers for a in (layer.W, layer.A, layer.B)]
        before += [f.copy() for pair in stale for f in pair]
        with pytest.raises(ValueError, match="worker 1, layer 1"):
            merge(net, workers, exact_policy())
        after = [a for layer in net.layers for a in (layer.W, layer.A, layer.B)]
        after += [f for pair in stale for f in pair]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))

    def test_step_count_mismatch_rejected(self):
        net, task, workers, rng = tiny_setup()
        local_step(workers[0], net, sample_batch(task, 8, rng.child("b")))
        with pytest.raises(ValueError, match="step count"):
            merge(net, workers, MergePolicy(period=1))

    def test_partial_worker_set_rejected(self):
        # two workers cannot merge a three-head layer: head 2 would keep its
        # B, and the delta would weigh each head s/2 against the view's s/3
        net, _, workers, _ = tiny_setup(n_heads=3)
        w_before = net.layers[0].W.copy()
        with pytest.raises(ValueError, match="cover every head"):
            merge(net, workers[:2], MergePolicy(period=1))
        np.testing.assert_array_equal(net.layers[0].W, w_before)

    def test_reset_a_requires_scheme(self):
        net, _, workers, _ = tiny_setup()
        with pytest.raises(ValueError, match="reset_A"):
            merge(net, workers, MergePolicy(period=1, reset_A=True))

    def test_reset_opt_clears_states(self):
        net, task, workers, rng = tiny_setup(optimizer="adamw")
        local_step(workers[0], net, sample_batch(task, 8, rng.child("b")))
        local_step(workers[1], net, sample_batch(task, 8, rng.child("b2")))
        assert workers[0].opt.states
        merge(net, workers, MergePolicy(period=1, reset_opt=True))
        assert not workers[0].opt.states

    def test_stacked_and_separate_corrections_merge_alike(self):
        # (A°, B°) as views on stacks shaped like the head stacks, or as
        # tiny_setup's independent arrays: two exact merges read and refresh
        # both alike
        runs = []
        for stacked in (True, False):
            net, _, workers, rng = tiny_setup(n_heads=3, exact=True)
            stale = (rng.child("A°").standard_normal((3, 2, 4)),
                     rng.child("B°").standard_normal((3, 4, 2)))
            for w in workers:
                pair = tuple(f[w.head_index] for f in stale)
                w.corrections = [pair if stacked else tuple(f.copy() for f in pair)]
            records = []
            for merge_id in (1, 2):
                for hi, B in enumerate(net.layers[0].B):
                    B[...] = rng.child("B", merge_id, hi).standard_normal(B.shape)
                records.append(merge(net, workers, exact_policy(), merge_id=merge_id))
            runs.append((net.layers[0].W, records, [w.corrections[0] for w in workers]))
            if stacked:
                for f, stack in enumerate(stale):
                    assert all(np.shares_memory(w.corrections[0][f], stack) for w in workers)
                    np.testing.assert_array_equal(stack, np.stack([p[f] for p in runs[-1][2]]))
        (w_a, rec_a, v_a), (w_b, rec_b, v_b) = runs
        assert w_a.tobytes() == w_b.tobytes()
        for ra, rb in zip(rec_a, rec_b):
            assert ra.delta[0].tobytes() == rb.delta[0].tobytes()
            for fa, fb in zip((*ra.factors[0], *ra.stale[0]), (*rb.factors[0], *rb.stale[0])):
                assert fa.tobytes() == fb.tobytes()
        for (a_a, b_a), (a_b, b_b) in zip(v_a, v_b):
            assert a_a.tobytes() == a_b.tobytes() and b_a.tobytes() == b_b.tobytes()


@st.composite
def correction_cases(draw, max_dim=10):
    """(m, n, r, N, workers, seed) with m != n and workers a nonempty run of
    the N heads."""
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim).filter(lambda v: v != m))
    r = draw(st.integers(1, min(m, n)))
    n_heads = draw(st.integers(1, 5))
    start = draw(st.integers(0, n_heads - 1))
    workers = range(start, draw(st.integers(start + 1, n_heads)))
    return m, n, r, n_heads, workers, draw(st.integers(0, 2**32 - 1))


def gaussian_net(m, n, r, n_heads, seed):
    """A one-layer network with Gaussian W and heads, and Gaussian (A°, B°)
    stacks shaped like its head stacks."""
    rng = RandomSource(seed)
    heads = [LoraHead(A=rng.child("A", i).standard_normal((r, n)),
                      B=rng.child("B", i).standard_normal((m, r))) for i in range(n_heads)]
    layer = LoraLinear(W=rng.child("W").standard_normal((m, n)), alpha=1.5 * r, heads=heads)
    stale = (rng.child("A°").standard_normal(layer.A.shape),
             rng.child("B°").standard_normal(layer.B.shape))
    return Network([layer]), stale, rng


class TestFactorCorrections:
    """Stale corrections kept as factor pairs (A°, B°) against their dense
    definition, the stale product B° A°."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(correction_cases())
    def test_batched_forward_matches_dense_reference(self, case):
        m, n, r, n_heads, workers, seed = case
        net, (a0, b0), rng = gaussian_net(m, n, r, n_heads, seed)
        layer = net.layers[0]
        c = layer.s / n_heads
        x = rng.child("x").standard_normal((len(workers), n, 3))
        span = slice(workers.start, workers.stop)
        out, _ = forward(net, x, Mode.worker(workers), [(a0[span], b0[span])])
        for j, h in enumerate(workers):
            dense = layer.W + c * (layer.B[h] @ layer.A[h] - b0[h] @ a0[h])
            np.testing.assert_allclose(out[j], dense @ x[j], rtol=0, atol=1e-12)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(correction_cases())
    def test_exact_merge_invariants(self, case):
        # the merge moves the stale shares into W: the effective weight holds,
        # every (A°, B°) becomes its head, and delta is the dense formula
        m, n, r, n_heads, _, seed = case
        net, stale, _ = gaussian_net(m, n, r, n_heads, seed)
        layer = net.layers[0]
        workers = [
            WorkerState(head_index=i, stream=None, opt=KeyedOptimizer("sgd", OptimConfig(eta=0.1)),
                        corrections=[(stale[0][i], stale[1][i])], use_correction=True)
            for i in range(n_heads)
        ]
        a0, b0 = stale[0].copy(), stale[1].copy()
        dense = sum(layer.B[h] @ layer.A[h] - b0[h] @ a0[h] for h in range(n_heads))
        before = effective_weight(layer, head_product(*stale))
        rec = merge(net, workers, exact_policy())
        np.testing.assert_allclose(effective_weight(layer, head_product(*stale)), before,
                                   rtol=0, atol=1e-12)
        for h, w in enumerate(workers):
            a, b = w.corrections[0]
            assert a.tobytes() == layer.A[h].tobytes() and b.tobytes() == layer.B[h].tobytes()
        np.testing.assert_allclose(rec.delta[0], layer.s / n_heads * dense, rtol=0, atol=1e-12)


def _effective_weights(net, stale=None):
    """Every layer's `effective_weight`, given per layer the product of its
    stale stacks."""
    return [effective_weight(layer, head_product(*stale[li]) if stale else None)
            for li, layer in enumerate(net.layers)]


def chain_setup(dims, r, n_heads, seed, exact):
    """An identity chain of Gaussian layers d_i -> d_{i+1} with Gaussian
    heads, and workers sharing one optimizer, their (A°, B°) views on
    Gaussian stale stacks shaped like each layer's head stacks."""
    rng = RandomSource(seed)
    layers = []
    for li, (n, m) in enumerate(zip(dims, dims[1:])):
        heads = [LoraHead(A=rng.child("A", li, i).standard_normal((r, n)),
                          B=rng.child("B", li, i).standard_normal((m, r)))
                 for i in range(n_heads)]
        layers.append(LoraLinear(W=rng.child("W", li).standard_normal((m, n)), alpha=1.5 * r,
                                 heads=heads))
    net = Network(layers)
    stale = [(rng.child("A°", li).standard_normal(layer.A.shape),
              rng.child("B°", li).standard_normal(layer.B.shape))
             for li, layer in enumerate(layers)]
    opt = KeyedOptimizer("adamw", OptimConfig(eta=1e-2))
    workers = [WorkerState(head_index=i, stream=None, opt=opt,
                           corrections=[(a[i], b[i]) for a, b in stale], use_correction=exact)
               for i in range(n_heads)]
    return net, workers, stale


MERGE_POLICIES = {"reset_B": MergePolicy(period=1), "reset_A": MergePolicy(period=1, reset_A=True),
                  "exact": exact_policy()}


@st.composite
def merge_cases(draw):
    """(dims, r, N, policy name, seed): an identity chain of 1-3 layers of
    dims 1-7, r up to the narrowest, N 1-4, and a reset_B, reset_B plus
    reset_A or exact merge."""
    dims = tuple(draw(st.lists(st.integers(1, 7), min_size=2, max_size=4)))
    return (dims, draw(st.integers(1, min(dims))), draw(st.integers(1, 4)),
            draw(st.sampled_from(sorted(MERGE_POLICIES))), draw(st.integers(0, 2**32 - 1)))


class TestFactorRecords:
    """A merge adds `combine`'s increment to W and records the factors it took
    the increment from, never a dense (m, n) matrix."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(merge_cases())
    def test_merge_moves_no_effective_weight_bit(self, case):
        # the effective weight before the merge is bitwise W + delta, and
        # a reset_B or exact merge leaves it bitwise where it was
        dims, r, n_heads, name, seed = case
        net, workers, stale = chain_setup(dims, r, n_heads, seed, exact=name == "exact")
        stale = stale if name == "exact" else None
        before = _effective_weights(net, stale)
        w_before = [layer.W.copy() for layer in net.layers]
        rec = merge(net, workers, MERGE_POLICIES[name], init=InitScheme("kaiming"),
                    rng=RandomSource(seed).child("merge"))
        after = _effective_weights(net, stale)
        for li, layer in enumerate(net.layers):
            assert layer.W.tobytes() == (w_before[li] + rec.delta[li]).tobytes()
            assert after[li].tobytes() == before[li].tobytes()
            assert layer.W.tobytes() == before[li].tobytes()

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(merge_cases())
    def test_record_is_head_stacks_that_later_training_leaves_alone(self, case):
        # every record array is a copy shaped like a head stack, so training
        # the heads (and refreshing the stale stacks) moves no delta byte
        dims, r, n_heads, name, seed = case
        exact = name == "exact"
        net, workers, stale = chain_setup(dims, r, n_heads, seed, exact)
        rec = merge(net, workers, MERGE_POLICIES[name], init=InitScheme("kaiming"),
                    rng=RandomSource(seed).child("merge"))
        for li, layer in enumerate(net.layers):
            arrays = [*rec.factors[li], *(rec.stale[li] or ())]
            assert len(arrays) == (4 if exact else 2)
            assert [a.shape for a in arrays] == [layer.A.shape, layer.B.shape] * (len(arrays) // 2)
            assert not any(np.shares_memory(a, b) for a in arrays
                           for b in (layer.A, layer.B, *stale[li]))
        delta = [d.tobytes() for d in rec.delta]
        heads = range(n_heads)
        rng = RandomSource(seed).child("train")
        for t in range(2):
            batch = Batch(inputs=rng.child("x", t).standard_normal((n_heads, dims[0], 3)),
                          targets=rng.child("y", t).standard_normal((n_heads, dims[-1], 3)))
            _train_heads(net, workers[0].opt, batch, Mode.worker(heads), stale if exact else None)
        merge(net, workers, MERGE_POLICIES[name], merge_id=2, init=InitScheme("kaiming"),
              rng=RandomSource(seed).child("merge"))
        assert [d.tobytes() for d in rec.delta] == delta


    @pytest.mark.parametrize("dims, w_init", [((6, 6), "zeros"), ((6, 5, 6), "kaiming")],
                             ids=["1-layer", "2-layer"])
    def test_run_shares_stale_records_with_the_previous_merge(self, dims, w_init):
        # after an exact merge the stale stacks are the heads it copied, so
        # a run's record k keeps record k-1's merged stacks as its stale
        # ones; W is bitwise W0 plus every recomputed delta in turn, and no
        # record array is a live head stack
        cfg = ls_config(mode="lte", n_heads=3, dim=6, optimizer="adamw", eta=1e-2,
                        total_steps=12, policy=exact_policy(period=3))
        cfg = dataclasses.replace(cfg, arch=ArchSpec(dims=dims, w_init=w_init))
        res = run_lte(cfg)
        assert len(res.merges) == 4
        w = [layer.W for layer in lte._build_network(cfg, RandomSource(cfg.seed), 3).layers]
        for k, rec in enumerate(res.merges):
            for li, layer in enumerate(res.network.layers):
                if k:
                    prev = res.merges[k - 1].factors[li]
                    assert all(a is b for a, b in zip(rec.stale[li], prev))
                else:
                    assert not any(f.any() for f in rec.stale[li])
                for arr in (*rec.factors[li], *rec.stale[li]):
                    assert not any(np.shares_memory(arr, h) for h in (layer.A, layer.B))
            w = [wl + d for wl, d in zip(w, rec.delta)]
        for wl, layer in zip(w, res.network.layers):
            assert wl.tobytes() == layer.W.tobytes()

    def test_averaged_runs_record_no_stale_stacks(self):
        res = run_lte(ls_config(mode="lte", n_heads=2, dim=4, total_steps=4, period=2))
        assert [rec.stale for rec in res.merges] == [[None], [None]]


@st.composite
def increment_cases(draw):
    """(m, n, r, N, seed, exact): one Gaussian layer with N 1-4 heads."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    return (m, n, draw(st.integers(1, min(m, n))), draw(st.integers(1, 4)),
            draw(st.integers(0, 2**32 - 1)), draw(st.booleans()))


def _concat_product(A, B):
    """sum_h B_h A_h as one GEMM of the stacks concatenated in head order."""
    return B.transpose(1, 0, 2).reshape(B.shape[1], -1) @ A.reshape(-1, A.shape[-1])


class TestInPlaceIncrement:
    """`combine` scales a fresh head product in place and
    `effective_weight` adds W into it: bitwise the out-of-place
    W + c (P - P°), into an array no input shares."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(increment_cases())
    def test_bitwise_out_of_place_and_owned_by_the_caller(self, case):
        m, n, r, n_heads, seed, exact = case
        net, workers, stale = chain_setup((n, m), r, n_heads, seed, exact)
        layer, stale = net.layers[0], stale[0] if exact else None
        c = layer.s / n_heads
        diff = _concat_product(layer.A, layer.B)
        if exact:
            diff = diff - _concat_product(*stale)
        want = layer.W + c * diff
        inputs = [layer.W, layer.A, layer.B, *(stale or ())]
        before = [a.tobytes() for a in inputs]
        stale_prod = None if stale is None else head_product(*stale)
        inc = combine(c, head_product(layer.A, layer.B), stale_prod)
        eff = effective_weight(layer, stale_prod)
        assert inc.tobytes() == (c * diff).tobytes()
        assert eff.tobytes() == want.tobytes()
        inc[...] = np.nan
        eff[...] = np.nan
        assert [a.tobytes() for a in inputs] == before

    def test_headless_layer_returns_a_copy(self):
        layer = LoraLinear(W=RandomSource(1).standard_normal((3, 4)), alpha=1.0, heads=[])
        w = layer.W.copy()
        effective_weight(layer)[...] = np.nan
        assert layer.W.tobytes() == w.tobytes()


def _count_ranks(monkeypatch):
    calls = [0]

    def counted(m):
        calls[0] += 1
        return effective_rank(m)

    monkeypatch.setattr(lte, "effective_rank", counted)
    return calls


class TestSnapshotRankReuse:
    """From an all-zero base the accumulated update is the weight itself:
    a snapshot takes one rank per layer and reports it twice. From a
    nonzero base it takes two."""

    def test_zero_base_takes_one_rank_per_layer(self, monkeypatch):
        calls = _count_ranks(monkeypatch)
        res = run_lte(ls_config(mode="lte", n_heads=3, dim=8, period=3, snapshot_interval=4,
                                total_steps=14, policy=exact_policy(period=3)))
        assert not res.snapshots[0].weights[0].any()
        assert [s.step for s in res.snapshots] == [0, 4, 8, 12, 14]
        assert all(s.weights[0].any() for s in res.snapshots[1:])
        assert calls[0] == len(res.snapshots) - 1
        for snap in res.snapshots:
            assert np.array(snap.update_rank).tobytes() == np.array(snap.weight_rank).tobytes()

    def test_nonzero_base_takes_two_ranks_per_layer(self, monkeypatch):
        calls = _count_ranks(monkeypatch)
        cfg = ls_config(mode="lte", n_heads=2, dim=6, period=2, snapshot_interval=3,
                        total_steps=10, policy=exact_policy(period=2))
        cfg = dataclasses.replace(cfg, arch=ArchSpec(dims=(6, 5, 6), w_init="kaiming"))
        res = run_lte(cfg)
        n_layers, snaps = 2, res.snapshots
        # step 0: the weights' ranks only (the update is zero); then both
        assert calls[0] == n_layers * (2 * len(snaps) - 1)
        assert np.isnan(snaps[0].update_rank).all()
        for snap in snaps[1:]:
            for li, (w, w0) in enumerate(zip(snap.weights, snaps[0].weights)):
                assert snap.update_rank[li] == effective_rank(w - w0)
                assert snap.weight_rank[li] == effective_rank(w)


class TestSharedEffectiveWeights:
    """Eval and the snapshot of a step read one effective-weight pass: the
    population MSE recomputed from the snapshot's weights is the same bits."""

    @pytest.mark.parametrize("policy", [
        MergePolicy(period=3), MergePolicy(period=3, reset_A=True), exact_policy(period=3),
    ], ids=["reset_B", "reset_A", "exact"])
    @pytest.mark.parametrize("dims, w_init", [((8, 8), "zeros"), ((8, 6, 8), "kaiming")],
                             ids=["1-layer", "2-layer"])
    def test_eval_reads_the_snapshot_weights(self, policy, dims, w_init):
        cfg = ls_config(mode="lte", n_heads=2, dim=8, policy=policy, snapshot_interval=4,
                        total_steps=23, init_kind="xavier")
        res = run_lte(dataclasses.replace(cfg, arch=ArchSpec(dims=dims, w_init=w_init)))
        assert [s.step for s in res.snapshots] == [0, 4, 8, 12, 16, 20, 23]
        for snap in res.snapshots[1:]:
            prod = snap.weights[0]
            for w in snap.weights[1:]:
                prod = w @ prod
            assert res.eval_mse[snap.step - 1] == 0.5 * np.sum((prod - res.task.W_star) ** 2)


def _w_init(draw, dims):
    """Zero base weights only for one layer: a chain from zeros trains
    nothing, so a chain draws semi-orthogonal base weights in their place."""
    return draw(st.sampled_from(["zeros" if len(dims) == 2 else "semi_orthogonal", "kaiming"]))


@st.composite
def mhlora_configs(draw):
    """Small joint multi-head runs: N 1-4 (N = 1 as mode lora or mhlora),
    depth 1-3, identity or ReLU gaps, SGD or AdamW over 2-5 steps."""
    n_heads = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=4)))
    optimizer = draw(st.sampled_from(["sgd", "adamw"]))
    task_rank = draw(st.integers(1, min(dims[0], dims[-1])))
    return RunConfig(
        mode=draw(st.sampled_from(["lora", "mhlora"])) if n_heads == 1 else "mhlora",
        dataset=DatasetSpec(m=dims[-1], n=dims[0], rank=task_rank,
                            pool=draw(st.sampled_from([None, 3 * n_heads, 3 * n_heads + 2]))),
        arch=ArchSpec(dims=dims, activation=draw(st.sampled_from(["identity", "relu"])),
                      w_init=_w_init(draw, dims)),
        n_heads=n_heads,
        rank=draw(st.integers(1, min(dims))),
        alpha=draw(st.sampled_from([None, 3.0])),
        optimizer=optimizer,
        optim=OptimConfig(eta=0.05 if optimizer == "sgd" else 1e-2, weight_decay=0.01),
        batch_size=n_heads * draw(st.integers(1, 4)),
        total_steps=draw(st.integers(2, 5)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _worker_draws(task, root, k, pool, b):
    """Yields, per step, the batches of b samples that k workers draw each
    on their own: worker i i.i.d. from root.child("worker", i), or from the
    pool columns i, i + k, ... cycled in order."""
    if pool is None:
        rngs = [root.child("worker", i) for i in range(k)]
        while True:
            yield [sample_batch(task, b, rng) for rng in rngs]
    x = root.child("pool").standard_normal((task.n, pool))
    y = task.W_star @ x
    for start in itertools.count(0, b):
        batches = []
        for i in range(k):
            xs, ys = x[:, i::k], y[:, i::k]
            idx = (start + np.arange(b)) % xs.shape[1]
            batches.append(Batch(inputs=xs[:, idx], targets=ys[:, idx]))
        yield batches


def _mhlora_per_head(cfg):
    """Reference joint multi-head run, head by head: N plain multi-mode calls
    per step, call i on shard i keeping only head i's gradient, then head
    i's own optimizer. Returns the network and the (steps, N) losses."""
    root = RandomSource(cfg.seed)
    task = gen_least_squares(cfg.dataset.m, cfg.dataset.n, cfg.dataset.rank, root.child("task"))
    net = lte._build_network(cfg, root, cfg.n_heads)
    draws = _worker_draws(task, root, cfg.n_heads, cfg.dataset.pool,
                          cfg.batch_size // cfg.n_heads)
    opts = [KeyedOptimizer(cfg.optimizer, cfg.optim) for _ in range(cfg.n_heads)]
    losses = []
    for _ in range(cfg.total_steps):
        row, head_grads = [], []
        for i, batch in enumerate(next(draws)):
            loss, grads = loss_and_grad(net, batch, Mode.multi())
            row.append(loss)
            head_grads.append([(g.dA[i], g.dB[i]) for g in grads])
        for i, opt in enumerate(opts):
            for li, layer in enumerate(net.layers):
                A, B = layer.factors(i)
                A[...] = opt.step((li, "A"), A, head_grads[i][li][0])
                B[...] = opt.step((li, "B"), B, head_grads[i][li][1])
        losses.append(row)
    return net, np.array(losses)


class TestBatchedMhlora:
    @given(mhlora_configs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_equals_per_head_steps(self, cfg):
        # one batched step for all N heads is bitwise the per-head loop
        res = run_mhlora(cfg)
        net, losses = _mhlora_per_head(cfg)
        assert np.isfinite(losses).all()
        assert res.losses.tobytes() == losses.tobytes()
        for la, lb in zip(res.network.layers, net.layers):
            for arr_a, arr_b in ((la.W, lb.W), (la.A, lb.A), (la.B, lb.B)):
                assert arr_a.tobytes() == arr_b.tobytes()


@st.composite
def lte_configs(draw, max_layers=2):
    """Small lte runs: N 1-4, depth 1 to max_layers, r up to the narrowest
    dim, T 1-3, SGD or AdamW, averaged (optionally with reset_A) or exact
    merges, with or without reset_opt, on i.i.d. or pooled data."""
    n_heads = draw(st.integers(1, 4))
    dims = tuple(draw(st.lists(st.integers(2, 6), min_size=2, max_size=max_layers + 1)))
    optimizer = draw(st.sampled_from(["sgd", "adamw"]))
    period, reset_opt = draw(st.integers(1, 3)), draw(st.booleans())
    if draw(st.booleans()):
        policy = exact_policy(period=period, reset_opt=reset_opt)
    else:
        policy = MergePolicy(period=period, reset_A=draw(st.booleans()), reset_opt=reset_opt)
    return RunConfig(
        mode="lte",
        dataset=DatasetSpec(m=dims[-1], n=dims[0], rank=draw(st.integers(1, min(dims[0], dims[-1]))),
                            pool=draw(st.sampled_from([None, 3 * n_heads + 1]))),
        arch=ArchSpec(dims=dims, w_init=_w_init(draw, dims)),
        n_heads=n_heads,
        rank=draw(st.integers(1, min(dims))),
        optimizer=optimizer,
        optim=OptimConfig(eta=0.05 if optimizer == "sgd" else 1e-2, weight_decay=0.01),
        policy=policy,
        batch_size=n_heads * draw(st.integers(1, 3)),
        total_steps=draw(st.integers(2, 7)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def _lte_by_hand(cfg):
    """Reference lte run from the public worker API alone: one WorkerState
    per head with its own optimizer and zero stale factors, N `local_step`
    calls per step on the workers' own draws, and a `merge` every period.
    After every step, and at step 0, each layer's `effective_weight` is
    taken from factors, the heads and the workers' stale factors stacked,
    and the population MSE of their chain out of place; like `run`, it
    stops after the first step at or under cfg.stop_mse. Returns the
    network, the (steps, N) losses, the merge records, the per-step
    weights (entry 0 at step 0) and the (steps,) MSEs."""
    root = RandomSource(cfg.seed)
    task = gen_least_squares(cfg.dataset.m, cfg.dataset.n, cfg.dataset.rank, root.child("task"))
    net = lte._build_network(cfg, root, cfg.n_heads)
    draws = _worker_draws(task, root, cfg.n_heads, cfg.dataset.pool,
                          cfg.batch_size // cfg.n_heads)
    workers = [
        WorkerState(head_index=i, stream=None, opt=KeyedOptimizer(cfg.optimizer, cfg.optim),
                    corrections=[(np.zeros(layer.A.shape[1:]), np.zeros(layer.B.shape[1:]))
                                 for layer in net.layers],
                    use_correction=cfg.policy.exact_correction)
        for i in range(cfg.n_heads)
    ]
    merge_rng = root.child("merge")

    def weights_from_factors():
        stale = [tuple(np.stack(f) for f in zip(*(w.corrections[li] for w in workers)))
                 for li in range(len(net.layers))]
        return _effective_weights(net, stale if cfg.policy.exact_correction else None)

    losses, records, weights, mses = [], [], [weights_from_factors()], []
    for step in range(1, cfg.total_steps + 1):
        losses.append([local_step(w, net, batch) for w, batch in zip(workers, next(draws))])
        if step % cfg.policy.period == 0:
            records.append(merge(net, workers, cfg.policy, merge_id=len(records) + 1, step=step,
                                 init=cfg.init, rng=merge_rng))
        weights.append(weights_from_factors())
        prod = weights[-1][0]
        for w in weights[-1][1:]:
            prod = w @ prod
        mses.append(0.5 * np.sum((prod - task.W_star) ** 2))
        if cfg.stop_mse is not None and mses[-1] <= cfg.stop_mse:
            break
    return net, np.array(losses), records, weights, np.array(mses)


class TestRunMatchesHandDrivenWorkers:
    """`run` steps every head at once and folds them without worker objects;
    hand-driven `WorkerState`s through `local_step` and `merge` reach the
    same bytes, so both entry points share one update and one fold."""

    @given(lte_configs())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_bitwise_equal(self, cfg):
        res = run_lte(cfg)
        net, losses, records, _, _ = _lte_by_hand(cfg)
        assert np.isfinite(losses).all()
        assert res.losses.tobytes() == losses.tobytes()
        for la, lb in zip(res.network.layers, net.layers):
            for arr_a, arr_b in ((la.W, lb.W), (la.A, lb.A), (la.B, lb.B)):
                assert arr_a.tobytes() == arr_b.tobytes()
        assert len(res.merges) == len(records) == cfg.total_steps // cfg.policy.period
        for got, want in zip(res.merges, records):
            assert (got.merge_id, got.step, got.coefs) == (want.merge_id, want.step, want.coefs)
            for pair_a, pair_b in zip(got.factors + got.stale, want.factors + want.stale):
                assert (pair_a is None) == (pair_b is None)
                for f_a, f_b in zip(pair_a or (), pair_b or ()):
                    assert f_a.tobytes() == f_b.tobytes()
            assert [d.tobytes() for d in got.delta] == [d.tobytes() for d in want.delta]


class TestOneProductPerInterval:
    """An exact run keeps each layer's stale product for its merge interval
    and reuses a merge's product on the merge step: one dense head product
    per layer per step, and still the eval and snapshot weights that the
    factors give, byte for byte."""

    @given(lte_configs(max_layers=3), st.integers(2, 4), st.booleans())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_eval_and_snapshots_are_the_weights_of_the_factors(self, cfg, interval, stop):
        cfg = dataclasses.replace(cfg, snapshot_interval=interval)
        if stop:
            # a stop_mse that first holds at a later step without a snapshot:
            # that step's MSE, where it is below every earlier one
            mse = run_lte(cfg).eval_mse
            stops = [s for s in range(2, cfg.total_steps) if s % interval
                     and 0 < mse[s - 1] < mse[:s - 1].min()]
            assume(stops)
            cfg = dataclasses.replace(cfg, stop_mse=float(mse[stops[0] - 1]))
        res = run_lte(cfg)
        _, losses, _, weights, mses = _lte_by_hand(cfg)
        assert res.losses.tobytes() == losses.tobytes()
        assert res.eval_mse.tobytes() == mses.tobytes()
        if stop:
            assert res.stopped_at == res.steps_run == stops[0]
            assert res.snapshots[-1].step == res.stopped_at
        assert res.snapshots[-1].step == res.steps_run
        for snap in res.snapshots:
            assert [w.tobytes() for w in snap.weights] == [w.tobytes() for w in weights[snap.step]]

    @pytest.mark.parametrize("stop", [False, True], ids=["to-the-end", "stop_mse"])
    def test_exact_run_takes_one_product_per_layer_per_step(self, monkeypatch, stop):
        calls = [0]
        head_product = network.head_product

        def counted(A, B):
            calls[0] += 1
            return head_product(A, B)

        # the merge takes its product in lte, the effective weights theirs in network
        monkeypatch.setattr(lte, "head_product", counted)
        monkeypatch.setattr(network, "head_product", counted)
        T, n_merges, n_layers = 5, 4, 2
        cfg = ls_config(mode="lte", n_heads=4, dim=8, total_steps=T * n_merges,
                        snapshot_interval=3, policy=exact_policy(period=T))
        cfg = dataclasses.replace(cfg, arch=ArchSpec(dims=(8, 6, 8), w_init="kaiming"))
        if stop:  # stop on the second merge step, which has no snapshot
            cfg = dataclasses.replace(cfg, stop_mse=float(run_lte(cfg).eval_mse[2 * T - 1]))
            calls[0] = 0
        res = run_lte(cfg)
        assert res.steps_run == (2 * T if stop else T * n_merges)
        assert len(res.merges) == res.steps_run // T
        # records keep (k, ., .) head stacks only, never a dense (m, n) product
        assert {a.ndim for rec in res.merges for pair in rec.factors + rec.stale
                for a in pair} == {3}
        # the base weights at step 0, then T products per merge interval
        # (not 2 T + 2: the stale product, the merge's own, and the merge
        # step's eval are taken from no factors); a stop_mse break takes
        # the final snapshot's weights again
        assert calls[0] == n_layers * (1 + res.steps_run + stop)


class TestPolicy:
    def test_exact_correction_incompatible_with_resets(self):
        # exact correction takes no reset, and a merge without it must reset B,
        # or the heads it added to W would count twice
        for kwargs, path in [
            ({"reset_B": True, "exact_correction": True}, "policy.exact_correction"),
            ({"reset_B": False, "reset_A": True, "exact_correction": True}, "policy.exact_correction"),
            ({"reset_B": False}, "policy.reset_B"),
            ({"reset_B": False, "reset_A": True}, "policy.reset_B"),
        ]:
            with pytest.raises(ConfigError, match=f"^{path}:"):
                MergePolicy(**kwargs)

    def test_defaults(self):
        pol = MergePolicy()
        assert pol.reset_B and not pol.reset_A and not pol.reset_opt and not pol.exact_correction


class TestRunners:
    def test_degenerate_lte_is_single_head_lora(self):
        # N=1, T=1, exact correction: merging into W and correcting is a no-op
        # on the worker's function, so the trajectory is plain LoRA at scale s
        lte = run_lte(ls_config(mode="lte", n_heads=1, rank=2, alpha=4.0, total_steps=100,
                                policy=exact_policy(), record_params=True, snapshot_interval=1))
        lora = run_mhlora(ls_config(mode="lora", n_heads=1, rank=2, alpha=4.0, total_steps=100,
                                    record_params=True, snapshot_interval=1))
        for s_lte, s_lora in zip(lte.snapshots, lora.snapshots):
            (a1, b1), (a2, b2) = s_lte.params[0], s_lora.params[0]
            assert a1.shape == (1, 2, 16) and b1.shape == (1, 16, 2)
            assert np.abs(a1 - a2).max() <= 1e-12
            assert np.abs(b1 - b2).max() <= 1e-12
            assert np.abs(s_lte.weights[0] - s_lora.weights[0]).max() <= 1e-12

    @pytest.mark.parametrize("n_heads,rank,optimizer", [(4, 2, "sgd"), (8, 4, "adamw")])
    def test_equivalence_to_mhlora_at_period_one(self, n_heads, rank, optimizer):
        eta = 0.05 if optimizer == "sgd" else 1e-3
        lte = run_lte(ls_config(mode="lte", n_heads=n_heads, rank=rank, total_steps=100,
                                optimizer=optimizer, eta=eta,
                                policy=exact_policy(), snapshot_interval=1))
        mh = run_mhlora(ls_config(mode="mhlora", n_heads=n_heads, rank=rank, total_steps=100,
                                  optimizer=optimizer, eta=eta, snapshot_interval=1))
        worst = max(
            np.abs(a.weights[0] - b.weights[0]).max()
            for a, b in zip(lte.snapshots, mh.snapshots)
        )
        assert worst <= 1e-10

    def test_determinism(self):
        cfg = ls_config(mode="lte", n_heads=3, total_steps=40, period=5)
        a = run_lte(cfg)
        b = run_lte(cfg)
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.eval_mse, b.eval_mse)
        for sa, sb in zip(a.snapshots, b.snapshots):
            for wa, wb in zip(sa.weights, sb.weights):
                np.testing.assert_array_equal(wa, wb)

    def test_mhlora_convex_descent(self):
        res = run_mhlora(ls_config(mode="mhlora", n_heads=2, eta=0.02, total_steps=100))
        windows = res.eval_mse.reshape(10, 10).mean(axis=1)
        assert np.all(np.diff(windows) <= 1e-9)

    def test_mhlora_single_head_gradient_matches_hand_formula(self):
        cfg = ls_config(mode="lora", n_heads=1, rank=2, alpha=6.0, eta=0.1, total_steps=1,
                        record_params=True, snapshot_interval=1)
        res = run_mhlora(cfg)
        # reconstruct the expected first update by hand
        root = RandomSource(cfg.seed)
        task = gen_least_squares(16, 16, 16, root.child("task"))
        a0 = init_matrix(2, 16, cfg.init, root.child("head_init", 0, 0))
        batch = sample_batch(task, 16, root.child("worker", 0))
        s = 3.0  # alpha / r
        out = np.zeros((16, 16))  # W = 0, B = 0 so the forward is zero
        u = (out - batch.targets) / 16
        expected_b = -0.1 * (s * (u @ (a0 @ batch.inputs).T))
        a1, b1 = (stack[0] for stack in res.snapshots[-1].params[0])
        np.testing.assert_allclose(b1, expected_b, atol=1e-12)
        np.testing.assert_array_equal(a1, a0)  # dA = c B^T u x^T = 0 at B = 0

    def test_full_converges_to_normal_equation_solution(self):
        res = run_full(ls_config(mode="full", dim=8, eta=0.1, total_steps=2500, batch_size=32))
        assert res.final_mse() <= 1e-10

    def test_full_determinism(self):
        a = run_full(ls_config(mode="full", dim=8, total_steps=30))
        b = run_full(ls_config(mode="full", dim=8, total_steps=30))
        np.testing.assert_array_equal(a.losses, b.losses)

    def test_zero_targets_decay_to_zero_map(self):
        # gradient flow on mse with zero targets shrinks W toward the zero map
        rng = RandomSource(3)
        layer = LoraLinear(W=rng.child("W").standard_normal((4, 4)), alpha=1.0, heads=[])
        net = Network([layer])
        norms = [np.linalg.norm(layer.W)]
        for i in range(200):
            x = rng.child("x", i).standard_normal((4, 8))
            _, grads = loss_and_grad(net, Batch(inputs=x, targets=np.zeros((4, 8))), Mode.full())
            layer.W = sgd_step(layer.W, grads[0].dW, 0.1)
            norms.append(np.linalg.norm(layer.W))
        assert norms[-1] < 1e-3 * norms[0]

    def test_early_stop_records_final_snapshot(self):
        res = run_lte(ls_config(mode="lte", n_heads=1, rank=4, dim=8, eta=0.2,
                                period=5, total_steps=5000, stop_mse=1e-3,
                                policy=MergePolicy(period=5, reset_B=True, reset_A=True),
                                init_kind="xavier"))
        assert res.stopped_at is not None
        assert res.snapshots[-1].step == res.steps_run
        assert res.eval_mse[-1] <= 1e-3

    def test_staleness_monotonicity(self):
        periods = (1, 5, 10, 25)
        devs = {t: [] for t in periods}
        for seed in (0, 1, 2):
            mh = run_mhlora(ls_config(mode="mhlora", dim=32, n_heads=4, rank=4, total_steps=200,
                                      snapshot_interval=200, seed=seed, batch_size=32))
            for t in periods:
                lte = run_lte(ls_config(mode="lte", dim=32, n_heads=4, rank=4, total_steps=200,
                                        snapshot_interval=200, seed=seed, batch_size=32,
                                        policy=exact_policy(period=t)))
                devs[t].append(trajectory_deviation(lte, mh).total[-1])
        means = [np.mean(devs[t]) for t in periods]
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))

    def test_worker_batch_is_floor_division(self):
        res = run_lte(ls_config(mode="lte", n_heads=3, batch_size=16, total_steps=2))
        assert res.manifest["worker_batch"] == 5
        assert res.manifest["dropped_samples_per_step"] == 1

    def test_pooled_stream_sharding(self):
        cfg = ls_config(mode="lte", n_heads=2, total_steps=10)
        cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, pool=64))
        a = run_lte(cfg)
        b = run_lte(cfg)
        np.testing.assert_array_equal(a.losses, b.losses)


class TestRunLoop:
    """What the loop shared by every mode owns: when alignment is taken, the
    final snapshot of an early stop, which runs have heads to record, and
    the default snapshot schedule."""

    def test_alignment_taken_before_a_reset_b_merge(self):
        # every snapshot step is a merge step, and a reset_B merge zeroes
        # every B: alignment after it would exclude both heads and read NaN
        res = run_lte(ls_config(mode="lte", n_heads=2, dim=8, period=5, snapshot_interval=5,
                                total_steps=20))
        assert res.config.policy.reset_B
        assert [s.step for s in res.snapshots] == [0, 5, 10, 15, 20]
        for snap in res.snapshots[1:]:
            assert snap.alignment[0].excluded_heads == ()
            assert np.isfinite(snap.alignment[0].mean_cosine)

    def test_final_snapshot_aligns_the_heads_a_reset_merge_took(self):
        # steps 5 and 10 snapshot between merges, the final step 12 merges
        # with reset_B: its alignment is of the merge record's copies
        res = run_lte(ls_config(mode="lte", n_heads=3, rank=4, period=3, snapshot_interval=5,
                                total_steps=12, batch_size=30, seed=3))
        assert [s.step for s in res.snapshots] == [0, 5, 10, 12]
        final, rec = res.snapshots[-1], res.merges[-1]
        assert rec.step == 12 and not res.network.layers[0].B.any()
        rep = final.alignment[0]
        assert rep.excluded_heads == ()
        assert np.isfinite(rep.mean_cosine) and np.isfinite(rep.mean_grassman_pairs)
        oracle = head_alignment(rec.factors[0])
        for name in ("cosine", "grassman", "mean_cosine", "mean_grassman_pairs"):
            assert np.array_equal(getattr(rep, name), getattr(oracle, name), equal_nan=True)

    @pytest.mark.parametrize("cfg", [
        ls_config(mode="full", dim=8, eta=0.1, stop_mse=1e-3),
        ls_config(mode="mhlora", n_heads=2, rank=4, dim=8, eta=0.2, stop_mse=1e-2),
        ls_config(mode="lte", n_heads=2, rank=4, dim=8, eta=0.2, stop_mse=1e-3,
                  policy=MergePolicy(period=5, reset_A=True), init_kind="xavier"),
    ], ids=["full", "mhlora", "lte"])
    def test_early_stop_ends_with_a_final_snapshot(self, cfg):
        # no interval snapshot before the stop: the last one is the final one
        cfg = dataclasses.replace(cfg, total_steps=5000, snapshot_interval=5000)
        res = lte.run(cfg)
        assert res.stopped_at == res.steps_run < cfg.total_steps
        assert res.eval_mse[-1] <= cfg.stop_mse
        final = res.snapshots[-1]
        assert final.step == res.steps_run
        assert final.merge_id == len(res.merges)

    def test_full_run_has_no_heads_to_record(self):
        cfg = ls_config(mode="full", n_heads=2, dim=8, period=2, total_steps=6,
                        snapshot_interval=2, record_params=True)
        res = run_full(cfg)
        assert res.merges == []
        assert [s.step for s in res.snapshots] == [0, 2, 4, 6]
        for snap in res.snapshots:
            assert snap.params is None
            assert snap.alignment is None
        assert res.manifest["n_workers"] == 1
        assert res.manifest["worker_batch"] == cfg.batch_size

    @pytest.mark.parametrize("mode, n_heads", [("full", 1), ("lora", 1), ("mhlora", 2)])
    def test_runs_without_merges_snapshot_first_and_last_step_by_default(self, mode, n_heads):
        # the default interval is the merge period only where merges happen
        res = lte.run(ls_config(mode=mode, n_heads=n_heads, dim=8, total_steps=60))
        assert res.merges == []
        assert [s.step for s in res.snapshots] == [0, 60]

    @pytest.mark.parametrize("pool", [None, 40], ids=["iid", "pool"])
    @pytest.mark.parametrize("mode, n_heads", [("full", 1), ("mhlora", 3), ("lte", 3)])
    def test_each_step_checks_inputs_and_targets_once(self, monkeypatch, mode, n_heads, pool):
        # one as_matrix call for the step's Batch and one for its mse targets;
        # steps 3-6 take no snapshot, and lte merges on steps 4 and 6
        calls = [0]
        original = network.as_matrix

        def counted(*args, **kwargs):
            calls[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(network, "as_matrix", counted)
        cfg = ls_config(mode=mode, n_heads=n_heads, dim=8, batch_size=12, period=2,
                        snapshot_interval=100)
        cfg = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, pool=pool))
        totals = []
        for steps in (2, 6):
            calls[0] = 0
            lte.run(dataclasses.replace(cfg, total_steps=steps))
            totals.append(calls[0])
        assert totals[1] - totals[0] == 2 * 4

    def test_lte_snapshots_every_merge_by_default(self):
        res = run_lte(ls_config(mode="lte", n_heads=2, dim=8, period=5, total_steps=20))
        assert [s.step for s in res.snapshots] == [0, 5, 10, 15, 20]


class TestDivergence:
    """A run that leaves the finite numbers stops with RunDiverged, naming
    the step, the quantity and the layer, before a rank's SVD sees it."""

    @pytest.mark.parametrize("name, message", [
        ("identity_chain", "step 11: the population MSE is inf; of the effective weights, "
                           "every layer's is finite"),
        ("relu_mhlora", "step 60: the snapshot's effective weight of layer 0 is not finite"),
    ])
    def test_names_step_quantity_and_layer(self, name, message):
        cfg = config_from_dict(DIVERGING_CONFIGS[name])
        with np.errstate(all="ignore"), pytest.raises(RunDiverged) as info:
            lte.run(cfg)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)


class TestStepClock:
    """The benchmark stamps each training step at its first call through
    `ltelab.lte.loss_and_grad`; that needs a fixed number of calls per step."""

    @staticmethod
    def _calls(monkeypatch, runner, cfg):
        count = [0]
        original = lte.loss_and_grad

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(lte, "loss_and_grad", counted)
        runner(cfg)
        return count[0]

    @pytest.mark.parametrize("runner,cfg,per_step", [
        (run_lte, ls_config(mode="lte", n_heads=3, dim=8, policy=exact_policy(period=2)), 1),
        (run_lte, ls_config(mode="lte", n_heads=4, dim=8, period=3, optimizer="adamw"), 1),
        (run_mhlora, ls_config(mode="mhlora", n_heads=3, dim=8), 1),
        (run_full, ls_config(mode="full", dim=8, period=2), 1),
    ])
    def test_same_calls_on_every_step(self, monkeypatch, runner, cfg, per_step):
        # the calls of step t are calls(t steps) - calls(t - 1 steps); merge
        # steps (every 2nd or 3rd) included
        totals = [self._calls(monkeypatch, runner, dataclasses.replace(cfg, total_steps=t))
                  for t in range(1, 7)]
        assert np.diff([0] + totals).tolist() == [per_step] * 6


class TestStepsToMse:
    def test_first_step_at_or_under_threshold(self):
        res = run_lte(ls_config(mode="lte", dim=8, total_steps=4))
        res = dataclasses.replace(res, eval_mse=np.array([3.0, 1.0, 2.0, 0.5]))
        assert res.steps_to_mse(1.0) == 2  # 1-based, and equality counts
        assert res.steps_to_mse(1.5) == 2
        assert res.steps_to_mse(0.5) == 4
        assert res.steps_to_mse(5.0) == 1
        assert res.steps_to_mse(0.4) is None

    def test_none_without_population_mse(self):
        cfg = ls_config(mode="lte", dim=8, total_steps=3)
        cfg = dataclasses.replace(cfg, arch=dataclasses.replace(cfg.arch, dims=(8, 8, 8),
                                                                activation="relu", w_init="kaiming"))
        res = run_lte(cfg)
        assert res.eval_mse is None
        assert res.steps_to_mse(float("inf")) is None


class TestPooledStream:
    def test_shards_disjoint_and_cycling(self):
        x = np.arange(12.0).reshape(1, 12)
        y = 2.0 * x
        stream = PooledStream(x.T, y.T, 2)
        xs, ys = stream.next(6)
        assert xs.shape == ys.shape == (2, 1, 6)
        np.testing.assert_array_equal(xs[0].ravel(), x[0, 0::2])
        np.testing.assert_array_equal(xs[1].ravel(), x[0, 1::2])
        np.testing.assert_array_equal(ys, 2.0 * xs)
        np.testing.assert_array_equal(stream.next(6)[0], xs)  # full cycle repeats

    def test_pool_must_cover_every_shard(self):
        with pytest.raises(ValueError, match="without samples"):
            PooledStream(np.ones((1, 2)).T, np.ones((1, 2)).T, 3)


@st.composite
def stream_cases(draw):
    """k streams of n -> m data, b samples a draw, i.i.d. or from a pool of
    k to 4k + 3 samples (shards of uneven length, and shorter than b)."""
    k = draw(st.integers(1, 5))
    return dict(k=k, n=draw(st.integers(1, 6)), m=draw(st.integers(1, 6)),
                b=draw(st.integers(1, 9)), pool=draw(st.none() | st.integers(k, 4 * k + 3)),
                draws=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**32 - 1)))


class TestStreams:
    @given(stream_cases())
    @example(dict(k=3, n=4, m=2, b=7, pool=10, draws=5, seed=1))
    @example(dict(k=4, n=8, m=8, b=5, pool=None, draws=3, seed=2))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_stack_equals_per_worker_draws(self, case):
        # over several draws, slice j of the stack is bitwise what worker j
        # draws on its own: its own Philox stream, or its own pool shard
        # cycled with its own length
        k, b, pool = case["k"], case["b"], case["pool"]
        root = RandomSource(case["seed"])
        task = gen_least_squares(case["m"], case["n"], min(case["m"], case["n"]),
                                 root.child("task"))
        cfg = dataclasses.replace(ls_config(), dataset=DatasetSpec(
            m=case["m"], n=case["n"], rank=task.target_rank, pool=pool))
        stream = lte._make_stream(cfg, task, root, k)
        own = _worker_draws(task, root, k, pool, b)
        for _ in range(case["draws"]):
            xs, ys = stream.next(b)
            assert xs.shape == (k, case["n"], b) and ys.shape == (k, case["m"], b)
            for j, batch in enumerate(next(own)):
                assert xs[j].tobytes() == batch.inputs.tobytes()
                assert ys[j].tobytes() == batch.targets.tobytes()


class TestResetAStreams:
    """After a reset_A merge, head h of layer li is the matrix drawn from its
    own stream, `rng.child(merge_id, li, h)`, of the merge's source: pinned
    against `init_matrix` on that child, one stream at a time."""

    @pytest.mark.parametrize("kind,gain", [("xavier", 1.0), ("kaiming", 0.5),
                                           ("semi_orthogonal", -2.0)])
    def test_merge(self, kind, gain):
        cfg = config_from_dict({"mode": "lte", "dataset": {"m": 4, "n": 5, "rank": 4},
                                "arch": {"dims": [5, 6, 4], "w_init": "xavier"}, "N": 3, "r": 2})
        net = lte._build_network(cfg, RandomSource(3), 3)
        opt = KeyedOptimizer("sgd", OptimConfig(eta=0.1))
        workers = [WorkerState(head_index=i, stream=None, opt=opt, corrections=[],
                               use_correction=False) for i in range(3)]
        scheme, src = InitScheme(kind, gain), RandomSource(2**64 - 1).child("merge")
        merge(net, workers, MergePolicy(reset_A=True), merge_id=7, init=scheme, rng=src)
        for li, layer in enumerate(net.layers):
            for h in range(3):
                want = init_matrix(2, layer.n, scheme, src.child(7, li, h))
                assert layer.A[h].tobytes() == want.tobytes()

    def test_run_on_a_two_layer_chain(self):
        # the heads at step 0 come from head_init's children, and after merge
        # j (snapshotted at its step with record_params) from the merge
        # stream's child (j, li, h); the run ends on merge 2
        cfg = config_from_dict({
            "mode": "lte", "dataset": {"m": 4, "n": 5, "rank": 4},
            "arch": {"dims": [5, 6, 4], "w_init": "kaiming"}, "N": 3, "r": 2, "T": 3,
            "policy": {"reset_A": True}, "init": {"kind": "xavier", "gain": 0.5},
            "batch_size": 12, "total_steps": 6, "record_params": True, "seed": 1729})
        res = run_lte(cfg)
        root = RandomSource(cfg.seed)
        streams = {0: lambda li, h: root.child("head_init", li, h),
                   3: lambda li, h: root.child("merge").child(1, li, h),
                   6: lambda li, h: root.child("merge").child(2, li, h)}
        assert [snap.step for snap in res.snapshots] == list(streams)
        for snap in res.snapshots:
            for li, (A, _) in enumerate(snap.params):
                for h in range(3):
                    want = init_matrix(2, cfg.arch.dims[li], cfg.init, streams[snap.step](li, h))
                    assert A[h].tobytes() == want.tobytes()
        assert all(layer.A.tobytes() == A.tobytes()
                   for layer, (A, _) in zip(res.network.layers, res.snapshots[-1].params))


class TestConfig:
    def test_rank_error_names_r(self):
        cfg = ls_config(mode="lte", dim=4, rank=5)
        with pytest.raises(ConfigError, match="^r:"):
            cfg.validate()

    def test_lora_mode_requires_single_head(self):
        with pytest.raises(ConfigError, match="N"):
            ls_config(mode="lora", n_heads=2).validate()

    def test_from_dict_roundtrip_and_aliases(self):
        cfg = config_from_dict({
            "mode": "lte",
            "dataset": {"m": 8, "n": 8, "rank": 8},
            "arch": {"dims": [8, 8]},
            "N": 2, "r": 2, "T": 5,
            "optim": {"eta": 0.1},
            "total_steps": 20,
        })
        assert cfg.n_heads == 2 and cfg.rank == 2 and cfg.policy.period == 5
        with pytest.raises(ConfigError, match="^merge_period: unknown config field"):
            config_from_dict({"mode": "lte", "dataset": {"m": 8, "n": 8, "rank": 8},
                              "arch": {"dims": [8, 8]}, "merge_period": 5})

    def test_from_dict_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="heads"):
            config_from_dict({
                "mode": "lte",
                "dataset": {"m": 8, "n": 8, "rank": 8},
                "arch": {"dims": [8, 8]},
                "heads": 2,
                "total_steps": 20,
            })

    @pytest.mark.parametrize("extra,first,second", [
        ({"n_heads": 4, "N": 2}, "n_heads", "N"),
        ({"rank": 2, "r": 1}, "rank", "r"),
        ({"T": 5, "policy": {"period": 10}}, "policy.period", "T"),
        ({"policy": {"period": 10}, "T": 5}, "policy.period", "T"),
        ({"N": 2, "n_heads": 4}, "N", "n_heads"),
        ({"r": 1, "rank": 2}, "r", "rank"),
    ])
    def test_from_dict_rejects_a_field_named_twice(self, extra, first, second):
        # no key silently wins: the error names both
        base = {"mode": "lte", "dataset": {"m": 8, "n": 8, "rank": 8},
                "arch": {"dims": [8, 8]}, "total_steps": 20}
        with pytest.raises(ConfigError, match=f"^{second}: .* {first};"):
            config_from_dict({**base, **extra})
        config_from_dict({**base, **{k: v for k, v in extra.items() if k != second}})

    @pytest.mark.parametrize("extra", [
        {"policy": 5}, {"policy": 5, "T": 3}, {"policy": [["reset_A", True]], "T": 3},
    ])
    def test_from_dict_rejects_a_policy_that_is_no_object(self, extra):
        # with or without T, the policy goes through one checked construction
        base = {"mode": "lte", "dataset": {"m": 8, "n": 8, "rank": 8},
                "arch": {"dims": [8, 8]}, "total_steps": 20}
        with pytest.raises(ConfigError, match="^policy:"):
            config_from_dict({**base, **extra})

    @pytest.mark.parametrize("extra,path", [
        ({"T": 2.5}, "policy.period"),
        ({"policy": {"reset_B": "no"}}, "policy.reset_B"),
        ({"seed": 1.5}, "seed"),
        ({"snapshot_interval": 2.5}, "snapshot_interval"),
        ({"N": True}, "N"),
        ({"N": 2.5}, "N"),
        ({"batch_size": 8.5}, "batch_size"),
        ({"arch": {"dims": "44"}}, r"arch.dims\[0\]"),
        ({"total_steps": "10"}, "total_steps"),
        ({"stop_mse": "1e-3"}, "stop_mse"),
        ({"arch": "xy"}, "arch"),
        ({"arch": [["dims", [8, 8]]]}, "arch"),
        ({"seed": None}, "seed"),
        ({"dataset": {"m": 8, "n": 8, "rank": 8, "pool": 64.0}}, "dataset.pool"),
        ({"alpha": True}, "alpha"),
        ({"optim": {"eta": True}}, "optim.eta"),
        ({"init": {"kind": "xavier", "gain": True}}, "init.gain"),
        ({"arch": {"dims": [8, 8], "w_gain": "1"}}, "arch.w_gain"),
        ({"record_params": 1}, "record_params"),
        ({"policy": {"reset_B": False, "exact_correction": 1}}, "policy.exact_correction"),
    ])
    def test_from_dict_rejects_a_wrongly_typed_field(self, extra, path):
        # integers are never bools or floats, reals never bools or strings,
        # flags only bools; the error names the field's path
        base = {"mode": "lte", "dataset": {"m": 8, "n": 8, "rank": 8},
                "arch": {"dims": [8, 8]}, "total_steps": 20}
        with pytest.raises(ConfigError, match=f"^{path}: "):
            config_from_dict({**base, **extra})

    def test_validate_checks_types_of_replaced_fields(self):
        # sweep builds its grid cells with dataclasses.replace, then validates
        cfg = ls_config(mode="lte", dim=8)
        for field, value, path in [("n_heads", True, "N"), ("rank", 2.0, "r"),
                                   ("seed", 1.5, "seed"), ("record_params", "yes", "record_params")]:
            with pytest.raises(ConfigError, match=f"^{path}: must be"):
                dataclasses.replace(cfg, **{field: value}).validate()
        with pytest.raises(ConfigError, match="^policy.period: must be an integer"):
            dataclasses.replace(cfg.policy, period=2.5)
        dataclasses.replace(cfg, n_heads=np.int64(2), rank=np.int32(2), seed=np.uint64(7),
                            alpha=np.float32(2), stop_mse=1).validate()

    @pytest.mark.parametrize("mode", ["full", "mhlora", "lte"])
    def test_zero_chain_rejected(self, mode):
        # W = 0 and B = 0 in every layer of a chain: each layer outputs 0 and
        # every gradient is zero; one layer from zeros still trains
        cfg = ls_config(mode=mode, dim=8)
        for dims in [(8, 8, 8), (8, 4, 6, 8)]:
            with pytest.raises(ConfigError, match="^arch.w_init:"):
                dataclasses.replace(cfg, arch=ArchSpec(dims=dims)).validate()
            dataclasses.replace(cfg, arch=ArchSpec(dims=dims, w_init="kaiming")).validate()
        cfg.validate()

    def test_arch_dataset_dims_must_match(self):
        cfg = ls_config()
        bad = dataclasses.replace(cfg, dataset=dataclasses.replace(cfg.dataset, m=8, rank=8))
        with pytest.raises(ConfigError, match="arch.dims"):
            bad.validate()

    @pytest.mark.parametrize("activation,loss,defined", [
        ("identity", "mse", True), ("relu", "mse", False), ("identity", "softmax_ce", False),
    ])
    def test_stop_mse_needs_population_mse(self, activation, loss, defined):
        # validate() and the runners' eval switch share one predicate
        cfg = ls_config(mode="lte", dim=8, stop_mse=1e-3)
        cfg = dataclasses.replace(
            cfg, arch=dataclasses.replace(cfg.arch, dims=(8, 8, 8), activation=activation, loss=loss,
                                          w_init="kaiming")
        )
        assert _eval_enabled(cfg) is defined
        if defined:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="^stop_mse:"):
                cfg.validate()
            if loss == "softmax_ce":
                with pytest.raises(ConfigError, match="^arch.loss:"):
                    dataclasses.replace(cfg, stop_mse=None).validate()
            else:
                dataclasses.replace(cfg, stop_mse=None).validate()

    @pytest.mark.parametrize("mode,n_heads", [("full", 1), ("lora", 1), ("mhlora", 2), ("lte", 2)])
    def test_softmax_ce_rejected_on_least_squares(self, mode, n_heads):
        # real-valued targets are no class indices: every runner refuses the
        # config up front instead of failing inside its first step
        cfg = ls_config(mode=mode, n_heads=n_heads, dim=8, total_steps=2)
        cfg = dataclasses.replace(cfg, arch=dataclasses.replace(cfg.arch, loss="softmax_ce"))
        with pytest.raises(ConfigError, match="^arch.loss: 'softmax_ce'.*'least_squares'"):
            lte.run(cfg)

    def test_run_dispatch_validates_mode(self):
        cfg = ls_config(mode="lte")
        with pytest.raises(ConfigError, match="mode"):
            run_full(cfg)

import dataclasses
import math

import numpy as np
import pytest
from conftest import exact_policy, ls_config
from hypothesis import given, settings
from hypothesis import strategies as st

from ltelab import analysis
from ltelab.analysis import (
    AlignmentReport,
    _principal_angle_distance,
    effective_gradient,
    effective_rank,
    grassman_distance,
    head_alignment,
    merge_deltas,
    trajectory_deviation,
    update_rank_trace,
    verify_effective_update,
)
from ltelab.data import gen_least_squares, sample_batch
from ltelab.layers import LoraHead, LoraLinear
from ltelab.lte import (
    KeyedOptimizer,
    MergePolicy,
    Snapshot,
    UpdateRecord,
    WorkerState,
    merge,
    run_lte,
    run_mhlora,
)
from ltelab.network import Network, _concat, head_product
from ltelab.numerics import RandomSource, svd
from ltelab.optim import OptimConfig


class TestEffectiveRank:
    def test_identity(self):
        assert abs(effective_rank(np.eye(4)) - 4.0) <= 1e-12

    def test_two_equal_singulars(self):
        assert abs(effective_rank(np.diag([1.0, 1.0, 0.0, 0.0])) - 2.0) <= 1e-12

    def test_entropy_hand_value(self):
        # singulars (2, 1, 1): entropy of (1/2, 1/4, 1/4) gives 2 sqrt(2)
        assert abs(effective_rank(np.diag([2.0, 1.0, 1.0])) - 2.0 * math.sqrt(2.0)) <= 1e-9

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            effective_rank(np.zeros((3, 3)))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.standard_normal((rng.integers(2, 10), rng.integers(2, 10)))
            c = float(rng.uniform(0.01, 100.0)) * (-1.0 if rng.random() < 0.5 else 1.0)
            assert abs(effective_rank(c * m) - effective_rank(m)) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rows, cols = rng.integers(1, 12, size=2)
            m = rng.standard_normal((rows, cols))
            rho = effective_rank(m)
            assert 1.0 - 1e-12 <= rho <= min(rows, cols) + 1e-12


class TestGrassmanDistance:
    def test_identical_subspaces(self):
        rng = np.random.default_rng(2)
        p = rng.standard_normal((6, 3))
        assert grassman_distance(p, 2.0 * p, 3) <= 1e-12

    def test_orthogonal_lines(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert abs(grassman_distance(e1, e2, 1) - math.pi / 2) <= 1e-9

    def test_planar_rotation(self):
        theta = math.pi / 6
        e1 = np.array([[1.0], [0.0]])
        rot = np.array([[math.cos(theta)], [math.sin(theta)]])
        assert abs(grassman_distance(e1, rot, 1) - theta) <= 1e-9

    def test_two_distinct_angles(self):
        # angles a < b between e1, e2 and their rotations toward e3, e4: each
        # cosine must meet the sine of the same angle
        a, b = math.pi / 9, math.pi / 3
        eye = np.eye(4)
        u = eye[:, :2]
        v = np.column_stack([math.cos(a) * eye[:, 0] + math.sin(a) * eye[:, 2],
                             math.cos(b) * eye[:, 1] + math.sin(b) * eye[:, 3]])
        assert abs(grassman_distance(u, v, 2) - math.hypot(a, b)) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((8, 3))
        q = rng.standard_normal((8, 3))
        assert abs(grassman_distance(p, q, 3) - grassman_distance(q, p, 3)) <= 1e-10

    def test_k_exceeds_rank(self):
        p = np.ones((4, 3))  # rank 1
        with pytest.raises(ValueError, match="rank"):
            grassman_distance(p, p, 2)

    def test_upper_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            p = rng.standard_normal((10, 4))
            q = rng.standard_normal((10, 4))
            d = grassman_distance(p, q, 4)
            assert 0.0 <= d <= math.sqrt(4) * (math.pi / 2) + 1e-12


def layer_with_heads(pairs, alpha=None):
    m = pairs[0][1].shape[0]
    n = pairs[0][0].shape[1]
    r = pairs[0][0].shape[0]
    heads = [LoraHead(A=a, B=b) for a, b in pairs]
    return LoraLinear(W=np.zeros((m, n)), alpha=float(alpha or r), heads=heads)


class TestHeadAlignment:
    def test_duplicated_heads(self):
        rng = RandomSource(5)
        a = rng.child("a").standard_normal((2, 6))
        b = rng.child("b").standard_normal((6, 2))
        layer = layer_with_heads([(a, b), (a.copy(), b.copy())])
        rep = head_alignment(layer)
        assert abs(rep.cosine[0, 1] - 1.0) <= 1e-12
        assert rep.grassman[0, 1] <= 1e-12
        assert rep.mean_grassman_pairs <= 1e-12

    def test_disjoint_support_orthogonal(self):
        a1 = np.zeros((1, 4)); a1[0, 0] = 1.0
        b1 = np.zeros((4, 1)); b1[0, 0] = 1.0
        a2 = np.zeros((1, 4)); a2[0, 1] = 1.0
        b2 = np.zeros((4, 1)); b2[1, 0] = 1.0
        rep = head_alignment(layer_with_heads([(a1, b1), (a2, b2)]))
        assert abs(rep.cosine[0, 1]) <= 1e-12
        assert abs(rep.grassman[0, 1] - math.pi / 2) <= 1e-9

    def test_random_heads_weakly_aligned(self):
        # empirical bound: independent rank-2 products in 16x16 stay far from aligned
        vals = []
        for seed in range(100):
            rng = RandomSource(seed)
            pairs = [
                (rng.child("a", i).standard_normal((2, 16)),
                 rng.child("b", i).standard_normal((16, 2)))
                for i in range(4)
            ]
            rep = head_alignment(layer_with_heads(pairs))
            off = rep.cosine[~np.eye(4, dtype=bool)]
            vals.append(np.abs(off).mean())
        assert np.mean(vals) < 0.3

    def test_zero_head_excluded_and_flagged(self):
        rng = RandomSource(6)
        a = rng.child("a").standard_normal((2, 5))
        b = rng.child("b").standard_normal((5, 2))
        zero_a = rng.child("za").standard_normal((2, 5))
        layer = layer_with_heads([(a, b), (zero_a, np.zeros((5, 2)))])
        rep = head_alignment(layer)
        assert rep.excluded_heads == (1,)
        assert rep.cosine[0, 1] == 0.0
        assert math.isnan(rep.grassman[0, 1])
        assert math.isnan(rep.mean_grassman_pairs)

    def test_scaled_mean_relation(self):
        # the 1/(2N)-scaled statistic equals (pairs mean) * (number of pairs) / N
        rng = RandomSource(7)
        pairs = [
            (rng.child("a", i).standard_normal((2, 8)),
             rng.child("b", i).standard_normal((8, 2)))
            for i in range(4)
        ]
        rep = head_alignment(layer_with_heads(pairs))
        n_pairs = 4 * 3 / 2
        expected = rep.mean_grassman_pairs * n_pairs / 4
        assert abs(rep.mean_grassman_scaled - expected) <= 1e-12

    def test_needs_two_heads(self):
        rng = RandomSource(8)
        layer = layer_with_heads([(rng.child("a").standard_normal((2, 4)),
                                   rng.child("b").standard_normal((4, 2)))])
        with pytest.raises(ValueError, match="2 heads"):
            head_alignment(layer)


def dense_alignment(layer, rank_tol=1e-10):
    """Oracle: head alignment from the dense m x n products, one full SVD per
    head and raveled products for the cosines."""
    n_heads = layer.num_heads
    r = layer.rank
    products = layer.B @ layer.A
    vecs = [p.ravel() for p in products]
    norms = [float(np.linalg.norm(v)) for v in vecs]
    excluded = []
    bases = []
    for i, p in enumerate(products):
        if norms[i] == 0.0:
            excluded.append(i)
            bases.append(None)
            continue
        u, sv, _ = svd(p)
        if int(np.sum(sv > rank_tol * sv[0])) < r:
            excluded.append(i)
            bases.append(None)
        else:
            bases.append(u[:, :r])
    cosine = np.eye(n_heads)
    grassman = np.full((n_heads, n_heads), np.nan)
    np.fill_diagonal(grassman, 0.0)
    cos_vals = []
    gr_vals = []
    for i in range(n_heads):
        for j in range(i + 1, n_heads):
            if norms[i] > 0.0 and norms[j] > 0.0:
                c = min(1.0, max(-1.0, float(np.dot(vecs[i], vecs[j]) / (norms[i] * norms[j]))))
                cosine[i, j] = cosine[j, i] = c
                cos_vals.append(c)
            else:
                cosine[i, j] = cosine[j, i] = 0.0
            if bases[i] is not None and bases[j] is not None:
                d = _principal_angle_distance(bases[i], bases[j])
                grassman[i, j] = grassman[j, i] = d
                gr_vals.append(d)
    nan = float("nan")
    return AlignmentReport(
        cosine=cosine,
        mean_cosine=float(np.mean(cos_vals)) if cos_vals else nan,
        grassman=grassman,
        mean_grassman_pairs=float(np.mean(gr_vals)) if gr_vals else nan,
        mean_grassman_scaled=float(2.0 * np.sum(gr_vals) / (2.0 * n_heads)) if gr_vals else nan,
        rank=r,
        excluded_heads=tuple(excluded),
    )


def assert_reports_agree(rep, oracle, atol=1e-12):
    assert rep.excluded_heads == oracle.excluded_heads
    assert rep.rank == oracle.rank
    for name in ("cosine", "mean_cosine", "grassman", "mean_grassman_pairs",
                 "mean_grassman_scaled"):
        np.testing.assert_allclose(getattr(rep, name), getattr(oracle, name), rtol=0.0,
                                   atol=atol, err_msg=name)


@st.composite
def alignment_shapes(draw, max_dim=12):
    """(m, n, r, N, seed) with m != n; r = m is drawn too, where every head
    spans all of R^m and every Grassman entry is zero up to rounding."""
    m = draw(st.integers(2, max_dim))
    n = draw(st.integers(1, max_dim).filter(lambda v: v != m))
    r = draw(st.integers(1, min(m, n)))
    return m, n, r, draw(st.integers(2, 5)), draw(st.integers(0, 2**32 - 1))


def gaussian_layer(rng, m, n, r, n_heads):
    pairs = [(rng.child("a", i).standard_normal((r, n)), rng.child("b", i).standard_normal((m, r)))
             for i in range(n_heads)]
    return layer_with_heads(pairs)


class TestFactoredAlignment:
    """head_alignment works on the factor stacks; the dense-SVD oracle above
    is the definition it must reproduce."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(alignment_shapes())
    def test_matches_dense_oracle(self, shape):
        m, n, r, n_heads, seed = shape
        layer = gaussian_layer(RandomSource(seed), m, n, r, n_heads)
        assert_reports_agree(head_alignment(layer), dense_alignment(layer))

    def test_zero_b_after_reset_b_merge(self):
        layer = gaussian_layer(RandomSource(30), 7, 5, 2, 3)
        workers = [
            WorkerState(head_index=i, stream=None, opt=KeyedOptimizer("sgd", OptimConfig(eta=0.1)),
                        corrections=[np.zeros((7, 5))], use_correction=False)
            for i in range(3)
        ]
        merge(Network([layer]), workers, MergePolicy(period=1))
        assert not layer.B.any()
        rep = head_alignment(layer)
        assert rep.excluded_heads == (0, 1, 2)
        assert_reports_agree(rep, dense_alignment(layer))

    def test_repeated_rows_of_a(self):
        layer = gaussian_layer(RandomSource(32), 7, 5, 2, 3)
        layer.A[2, 1] = layer.A[2, 0]
        rep = head_alignment(layer)
        assert rep.excluded_heads == dense_alignment(layer).excluded_heads == (2,)

    @pytest.mark.parametrize("eps, excluded", [(1e-8, ()), (1e-11, (2,))])
    def test_near_rank_deficient_a(self, eps, excluded):
        # either side of the rank tolerance, 1e-10: the second singular value
        # of the product is about 1.6 eps relative to the first
        rng = RandomSource(0)
        layer = gaussian_layer(rng, 7, 5, 2, 3)
        layer.A[2, 1] = layer.A[2, 0] + eps * rng.child("other").standard_normal(5)
        rep = head_alignment(layer)
        assert rep.excluded_heads == dense_alignment(layer).excluded_heads == excluded

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(alignment_shapes())
    def test_stack_pair_is_read_as_the_layer(self, shape):
        # a merge record's copies of the stacks align as the layer did
        m, n, r, n_heads, seed = shape
        layer = gaussian_layer(RandomSource(seed), m, n, r, n_heads)
        rep, pair = head_alignment(layer), head_alignment((layer.A.copy(), layer.B.copy()))
        assert rep.excluded_heads == pair.excluded_heads and rep.rank == pair.rank
        for name in ("cosine", "grassman", "mean_cosine", "mean_grassman_pairs",
                     "mean_grassman_scaled"):
            assert np.array_equal(getattr(rep, name), getattr(pair, name), equal_nan=True), name

    @pytest.mark.parametrize("b_shape", [(3, 7, 3), (2, 7, 2)], ids=["rank", "heads"])
    def test_unpaired_stacks_rejected(self, b_shape):
        with pytest.raises(ValueError, match="do not pair"):
            head_alignment((np.ones((3, 2, 5)), np.ones(b_shape)))

    @pytest.mark.parametrize("factor", ["A", "B"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_factor_rejected(self, factor, value):
        layer = gaussian_layer(RandomSource(33), 7, 5, 2, 3)
        getattr(layer, factor)[1, 0, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            head_alignment(layer)


def pairwise_alignment(A, B, rank_tol=1e-10):
    """Reference: head_alignment as it was written before its pairs came
    from index arrays, one Python iteration per head and per pair i < j."""
    n_heads, r, _ = A.shape
    a_rows, b_cols = _concat(A, B)
    inner = ((b_cols.T @ b_cols) * (a_rows @ a_rows.T)).reshape(n_heads, r, n_heads, r).sum(
        axis=(1, 3)
    )
    norms = np.sqrt(np.maximum(np.diag(inner), 0.0))
    bases = [None] * n_heads
    live = np.flatnonzero(norms > 0.0)
    if live.size:
        q_b, r_b = np.linalg.qr(B[live])
        r_a = np.linalg.qr(A[live].transpose(0, 2, 1), mode="r")
        sv = np.linalg.svd(r_b @ r_a.transpose(0, 2, 1), compute_uv=False)
        for k, i in enumerate(live):
            if int(np.sum(sv[k] > rank_tol * sv[k, 0])) == r:
                bases[i] = q_b[k]
    excluded = [i for i in range(n_heads) if bases[i] is None]
    cosine = np.eye(n_heads)
    grassman = np.full((n_heads, n_heads), np.nan)
    np.fill_diagonal(grassman, 0.0)
    cos_vals = []
    based = []
    for i in range(n_heads):
        for j in range(i + 1, n_heads):
            if norms[i] > 0.0 and norms[j] > 0.0:
                c = float(inner[i, j] / (norms[i] * norms[j]))
                c = min(1.0, max(-1.0, c))
                cosine[i, j] = cosine[j, i] = c
                cos_vals.append(c)
            else:
                cosine[i, j] = cosine[j, i] = 0.0
            if bases[i] is not None and bases[j] is not None:
                based.append((i, j))
    gr_vals = np.zeros(0)
    if based:
        gr_vals = _principal_angle_distance(np.stack([bases[i] for i, _ in based]),
                                            np.stack([bases[j] for _, j in based]))
        for (i, j), d in zip(based, gr_vals):
            grassman[i, j] = grassman[j, i] = d
    nan = float("nan")
    return AlignmentReport(
        cosine=cosine,
        mean_cosine=float(np.mean(cos_vals)) if cos_vals else nan,
        grassman=grassman,
        mean_grassman_pairs=float(np.mean(gr_vals)) if gr_vals.size else nan,
        mean_grassman_scaled=float(2.0 * np.sum(gr_vals) / (2.0 * n_heads)) if gr_vals.size else nan,
        rank=r,
        excluded_heads=tuple(excluded),
    )


HEAD_KINDS = ("gaussian", "zero_A", "zero_B", "copy", "negated", "deficient", "near_deficient")


@st.composite
def head_stacks(draw):
    """(A, B) stacks of N = 2..9 heads of random shape, each head Gaussian,
    zero in one factor, a copy or a negation of head 0, rank-deficient (two
    equal rows of A) or near rank-deficient: two rows of A a relative
    10^-13 to 10^-7 apart, so the product's smallest nonzero singular value
    falls on either side of the rank tolerance."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    r = draw(st.integers(1, min(m, n)))
    kinds = draw(st.lists(st.sampled_from(HEAD_KINDS), min_size=2, max_size=9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((len(kinds), r, n))
    B = rng.standard_normal((len(kinds), m, r))
    for h, kind in enumerate(kinds):
        if kind == "zero_A":
            A[h] = 0.0
        elif kind == "zero_B":
            B[h] = 0.0
        elif kind in ("copy", "negated"):
            A[h], B[h] = A[0], B[0] if kind == "copy" else -B[0]
        elif r >= 2 and kind == "deficient":
            A[h, 1] = A[h, 0]
        elif r >= 2 and kind == "near_deficient":
            eps = 10.0 ** draw(st.floats(-13.0, -7.0))
            A[h, 1] = A[h, 0] + eps * rng.standard_normal(n)
    return A, B


def report_bytes(rep):
    """Every AlignmentReport field as bytes, each NaN written as np.nan."""
    out = [rep.rank, rep.excluded_heads]
    for name in ("cosine", "mean_cosine", "grassman", "mean_grassman_pairs",
                 "mean_grassman_scaled"):
        value = np.asarray(getattr(rep, name), dtype=float)
        out.append(np.where(np.isnan(value), np.nan, value).tobytes())
    return out


class TestStackedAlignment:
    """head_alignment takes every pair i < j from one pair of index arrays;
    it must be bitwise the per-pair reference above."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(head_stacks())
    def test_bitwise_the_per_pair_reference(self, stacks):
        A, B = stacks
        got, want = head_alignment((A, B)), pairwise_alignment(A, B)
        assert report_bytes(got) == report_bytes(want)
        assert all(type(i) is int for i in got.excluded_heads)


class TestTrajectoryDeviation:
    def test_self_comparison_is_zero(self):
        res = run_lte(ls_config(mode="lte", total_steps=20, period=5))
        trace = trajectory_deviation(res, res)
        np.testing.assert_array_equal(trace.total, np.zeros_like(trace.total))

    def test_equivalence_pair_below_tolerance(self):
        lte = run_lte(ls_config(mode="lte", n_heads=2, total_steps=100, snapshot_interval=1,
                                policy=exact_policy()))
        mh = run_mhlora(ls_config(mode="mhlora", n_heads=2, total_steps=100, snapshot_interval=1))
        trace = trajectory_deviation(lte, mh)
        assert trace.total.max() <= 1e-10

    def test_schedule_mismatch_rejected(self):
        a = run_lte(ls_config(mode="lte", total_steps=20, period=5))
        b = run_lte(ls_config(mode="lte", total_steps=20, period=4))
        with pytest.raises(ValueError, match="schedule"):
            trajectory_deviation(a, b)


class TestEffectiveGradient:
    def test_term_isolation_at_zero_b(self):
        rng = RandomSource(9)
        W = np.zeros((4, 3))
        A = rng.child("A").standard_normal((2, 3))
        B = np.zeros((4, 2))
        g = rng.child("g").standard_normal((4, 3))
        s = 2.0
        out = effective_gradient(W, A, B, g, s, eta=0.1)
        np.testing.assert_allclose(out, s * s * (g @ A.T @ A), atol=1e-12)

    def test_zero_scale(self):
        rng = RandomSource(10)
        out = effective_gradient(
            np.zeros((3, 3)),
            rng.child("A").standard_normal((2, 3)),
            rng.child("B").standard_normal((3, 2)),
            rng.child("g").standard_normal((3, 3)),
            s=0.0, eta=0.1,
        )
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_scalar_polynomial(self):
        b, a, g, s, eta = 0.7, -1.2, 0.4, 3.0, 0.05
        out = effective_gradient(
            np.zeros((1, 1)), np.array([[a]]), np.array([[b]]), np.array([[g]]), s, eta
        )
        expected = s**2 * (b * b * g + g * a * a) - s**3 * eta * (g * a * b * g)
        assert abs(out[0, 0] - expected) <= 1e-15

    def test_convention_variants(self):
        rng = RandomSource(11)
        W = np.zeros((3, 3))
        A = rng.child("A").standard_normal((2, 3))
        B = rng.child("B").standard_normal((3, 2))
        g = rng.child("g").standard_normal((3, 3))
        plus = effective_gradient(W, A, B, g, 1.0, 0.0, convention="expansion")
        minus = effective_gradient(W, A, B, g, 1.0, 0.0, convention="bbg_minus_gaa")
        np.testing.assert_allclose(plus - minus, 2.0 * (g @ A.T @ A), atol=1e-12)
        with pytest.raises(ValueError):
            effective_gradient(W, A, B, g, 1.0, 0.0, convention="boxed")


class TestVerifyEffectiveUpdate:
    def make_instance(self, seed=12, m=5, n=4, r=2, scale=0.5):
        rng = RandomSource(seed)
        W = rng.child("W").standard_normal((m, n))
        A = rng.child("A").standard_normal((r, n)) * scale
        B = rng.child("B").standard_normal((m, r)) * scale
        task = gen_least_squares(m, n, min(m, n), rng.child("task"))
        batch = sample_batch(task, 8, rng.child("batch"))
        return W, A, B, batch

    def test_zero_factors_give_zero(self):
        W, A, B, batch = self.make_instance()
        rep = verify_effective_update(W, np.zeros_like(A), np.zeros_like(B), batch, s=2.0)
        assert max(rep.update_norms) == 0.0
        assert max(rep.residual_both) == 0.0

    def test_first_order_decade_ratio(self):
        W, A, B, batch = self.make_instance()
        rep = verify_effective_update(W, A, B, batch, s=2.0)
        assert rep.confirmed_convention == "expansion"
        for ratio in rep.first_order_ratios:
            assert 50.0 <= ratio <= 200.0

    def test_both_terms_exact_scalar(self):
        rng = RandomSource(13)
        W = rng.child("W").standard_normal((1, 1))
        A = rng.child("A").standard_normal((1, 1))
        B = rng.child("B").standard_normal((1, 1))
        task = gen_least_squares(1, 1, 1, rng.child("task"))
        batch = sample_batch(task, 4, rng.child("batch"))
        rep = verify_effective_update(W, A, B, batch, s=4.0)
        assert max(rep.residual_both) <= 1e-12

    def test_both_terms_exact_matrix(self):
        # the single-step expansion is exact for any shapes, not just scalars
        W, A, B, batch = self.make_instance(seed=14)
        rep = verify_effective_update(W, A, B, batch, s=1.5)
        assert max(rep.residual_both) <= 1e-12

    def test_eta_order_scaling_across_instances(self):
        for seed in range(5):
            W, A, B, batch = self.make_instance(seed=20 + seed)
            rep = verify_effective_update(W, A, B, batch, s=1.0)
            for ratio in rep.first_order_ratios:
                assert 50.0 <= ratio <= 200.0


def _count_products(monkeypatch) -> list:
    """Record every head product `analysis` takes from here on."""
    products = []

    def counted(A, B):
        products.append(A.shape)
        return head_product(A, B)

    monkeypatch.setattr(analysis, "head_product", counted)
    return products


class TestUpdateRankTrace:
    def test_single_head_without_merging_stays_low(self):
        res = run_mhlora(ls_config(mode="lora", n_heads=1, rank=4, dim=16, total_steps=200,
                                   eta=0.1, snapshot_interval=50))
        trace = update_rank_trace(res)
        final = trace.cumulative_rank[-1, 0]
        assert final <= 4.1

    def test_identity_weight_rank_equals_dimension(self):
        snap0 = Snapshot(step=0, merge_id=0, weights=[np.zeros((4, 4))], alignment=None,
                         weight_rank=[float("nan")], update_rank=[float("nan")])
        snap1 = Snapshot(step=10, merge_id=1, weights=[np.eye(4)], alignment=None,
                         weight_rank=[4.0], update_rank=[4.0])

        class FakeRun:
            snapshots = [snap0, snap1]
            merges = [UpdateRecord(merge_id=1, step=10, coefs=[1.0],
                                   factors=[(np.ones((1, 1, 4)), np.zeros((1, 4, 1)))],
                                   stale=[None])]

        trace = update_rank_trace(FakeRun())
        assert abs(trace.weight_rank[1, 0] - 4.0) <= 1e-12
        assert trace.skipped == ((1, 0),)
        assert math.isnan(trace.delta_rank[0, 0])

    @pytest.mark.parametrize("dims,w_init", [((8, 8), "zeros"), ((8, 6, 8), "kaiming")])
    def test_reads_the_ranks_the_snapshots_hold(self, dims, w_init):
        # weight and cumulative ranks are effective_rank of each snapshot's
        # weights and of their change since step 0 (NaN where zero)
        cfg = ls_config(mode="lte", n_heads=2, rank=2, dim=8, total_steps=12, period=3,
                        snapshot_interval=2)
        cfg = dataclasses.replace(cfg, arch=dataclasses.replace(cfg.arch, dims=dims, w_init=w_init))
        res = run_lte(cfg)
        trace = update_rank_trace(res)
        base = res.snapshots[0].weights

        def rank(m):
            return effective_rank(m) if np.any(m != 0.0) else np.nan

        want_weight = [[rank(w) for w in snap.weights] for snap in res.snapshots]
        want_change = [[rank(w - w0) for w, w0 in zip(snap.weights, base)]
                       for snap in res.snapshots]
        assert trace.weight_rank.shape == (7, len(dims) - 1)
        np.testing.assert_array_equal(trace.weight_rank, want_weight)
        np.testing.assert_array_equal(trace.cumulative_rank, want_change)
        assert np.isnan(trace.cumulative_rank[0]).all()
        assert np.isnan(trace.weight_rank[0]).all() == (w_init == "zeros")

    def test_merge_delta_ranks_bounded_by_head_rank(self):
        res = run_lte(ls_config(mode="lte", n_heads=1, rank=2, dim=8, total_steps=30, period=10))
        trace = update_rank_trace(res)
        assert trace.delta_rank.shape[0] == 3
        assert np.nanmax(trace.delta_rank) <= 2.0 + 1e-9

    def test_exact_run_takes_one_product_per_record(self, monkeypatch):
        # the first record's stale stacks are zeros; each later record's are
        # the previous record's factors, whose product it reuses
        res = run_lte(ls_config(mode="lte", dim=8, n_heads=2, rank=2, total_steps=20,
                                policy=exact_policy(period=2)))
        assert len(res.merges) == 10
        want = np.asarray([[effective_rank(d) if np.any(d != 0.0) else np.nan for d in rec.delta]
                           for rec in res.merges])
        products = _count_products(monkeypatch)
        trace = update_rank_trace(res)
        assert len(products) == 11
        assert trace.delta_rank.tobytes() == want.tobytes()

    def test_hand_driven_merges_take_their_own_stale_products(self, monkeypatch):
        # `merge` records fresh copies of its workers' corrections, never the
        # previous record's factors, so each record takes P and P°
        rng = RandomSource(40)
        layer = gaussian_layer(rng, 5, 4, 2, 3)
        workers = [WorkerState(head_index=i, stream=None,
                               opt=KeyedOptimizer("sgd", OptimConfig(eta=0.1)),
                               corrections=[(np.zeros((2, 4)), np.zeros((5, 2)))],
                               use_correction=True)
                   for i in range(3)]
        policy = MergePolicy(period=1, reset_B=False, exact_correction=True)
        records = []
        for merge_id in (1, 2, 3):
            layer.A += rng.child("dA", merge_id).standard_normal(layer.A.shape)
            layer.B += rng.child("dB", merge_id).standard_normal(layer.B.shape)
            records.append(merge(Network([layer]), workers, policy, merge_id=merge_id))
        products = _count_products(monkeypatch)
        got = [[d.tobytes() for d in deltas] for deltas in merge_deltas(records)]
        assert len(products) == 6
        assert got == [[d.tobytes() for d in rec.delta] for rec in records]

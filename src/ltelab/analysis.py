"""Measurement toolkit: effective rank, subspace alignment, trajectory
deviation, and the effective-update-rule verifier.

The functions here are read-only; they can be applied to live layers during a
run or to recorded snapshots afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .layers import LoraLinear
from .network import Batch, _concat, combine, head_product
from .numerics import Matrix, as_matrix, frobenius, singular_values, svd

# The numerical-rank tolerance of grassman_distance and head_alignment: a
# singular value counts when it exceeds this fraction of the largest.
_RANK_TOL = 1e-10

# Sign conventions for the first-order part of the effective-update formula.
# "expansion" is the one confirmed by verify_effective_update: expanding one
# simultaneous SGD step on (B, A) gives s^2 (B B^T g + g A^T A) exactly, both
# terms positive. The other two are historical variants that place a relative
# minus sign between the sandwich terms; they are kept selectable so the
# verifier can demonstrate that they fail.
UPDATE_CONVENTIONS = {
    "expansion": (1.0, 1.0),
    "bbg_minus_gaa": (1.0, -1.0),
    "gaa_minus_bbg": (-1.0, 1.0),
}


def effective_rank(m: Matrix) -> float:
    """exp of the Shannon entropy of the normalized singular values.

    A soft rank: equal to k for a matrix with k equal nonzero singular values,
    and scale-invariant. Undefined (error) for the zero matrix.
    """
    sv = singular_values(m)
    total = sv.sum()
    if total <= 0.0:
        raise ValueError("effective_rank is undefined for the zero matrix")
    p = sv / total
    p = p[p > 0.0]
    return float(np.exp(-np.sum(p * np.log(p))))


def _principal_angle_distance(u: Matrix, v: Matrix) -> float | np.ndarray:
    """Root-sum-square of the principal angles between two orthonormal bases,
    or one per pair for (P, m, k) stacks of P pairs of bases.

    Each angle is arctan2 of its sine, a singular value of V - U (U^T V)
    (ascending), and its cosine, one of U^T V (descending): arccos of the
    cosine alone reads rounding near 1 as angles of about 1e-8.
    """
    proj = u.swapaxes(-1, -2) @ v
    sin = np.linalg.svd(v - u @ proj, compute_uv=False)[..., ::-1]
    theta = np.arctan2(sin, np.linalg.svd(proj, compute_uv=False))
    dist = np.sqrt(np.sum(theta * theta, axis=-1))
    return float(dist) if dist.ndim == 0 else dist


def grassman_distance(p: Matrix, q: Matrix, k: int) -> float:
    """Root-sum-square of the k principal angles between the column spaces.

    Bases are the first k left singular vectors; errors if either matrix has
    numerical rank below k.
    """
    p = as_matrix(p, "grassman p")
    q = as_matrix(q, "grassman q")
    if p.shape[0] != q.shape[0]:
        raise ValueError(f"row dimensions differ: {p.shape[0]} vs {q.shape[0]}")
    bases = []
    for m in (p, q):
        u, sv, _ = svd(m)
        rank = int(np.sum(sv > _RANK_TOL * sv[0])) if sv[0] > 0 else 0
        if k > rank:
            raise ValueError(f"k={k} exceeds the numerical rank {rank}")
        bases.append(u[:, :k])
    return _principal_angle_distance(*bases)


@dataclass
class AlignmentReport:
    """Pairwise similarity of head products B_i A_i.

    cosine is an N x N symmetric matrix with unit diagonal: the Frobenius
    cosine <B_i A_i, B_j A_j> / (|B_i A_i| |B_j A_j|), 0 where a product is
    zero. grassman holds pairwise subspace distances at k = rank, with
    NaN where a head was excluded. Two means are reported for the Grassman
    statistic: the conventional mean over unordered pairs, and the same sum
    divided by 2N (a normalization that equals the pair count only for N = 3,
    kept for comparability).
    """

    cosine: Matrix
    mean_cosine: float
    grassman: Matrix
    mean_grassman_pairs: float
    mean_grassman_scaled: float
    rank: int
    excluded_heads: tuple[int, ...] = field(default=())


def head_alignment(heads: LoraLinear | tuple[Matrix, Matrix]) -> AlignmentReport:
    """Alignment of a layer's heads, or of the head stacks (A, B), shaped
    (N, r, n) and (N, m, r), of one (such as a merge record's copies);
    needs N >= 2.

    Heads whose product is zero (or numerically rank-deficient below the
    nominal rank, at the tolerance `grassman_distance` uses) cannot span the
    k-dimensional subspace the distance is defined on; they are excluded
    from the Grassman statistic and flagged, and zero heads read cosine 0.

    Everything is computed from the (N, m, r) and (N, r, n) factor stacks,
    never from the m x n products. The products' inner products are
    <B_i A_i, B_j A_j> = tr((B_i^T B_j)(A_j A_i^T)), the elementwise sum of
    two r x r Gram blocks. For a nonzero head, QR(B) = Q_B R_B and
    QR(A^T) = Q_A R_A give B A = Q_B (R_B R_A^T) Q_A^T, so the r x r core
    R_B R_A^T carries the product's singular values for the rank test, and a
    full-rank head's column space is span(Q_B). Every pair i < j comes from
    one pair of `np.triu_indices` arrays, in row-major order: the cosines
    are one division over the pairs of nonzero heads, and the Grassman
    distances one stacked call over the pairs of full-rank heads.
    """
    A, B = (heads.A, heads.B) if isinstance(heads, LoraLinear) else heads
    if len(A) < 2:
        raise ValueError(f"head_alignment needs at least 2 heads, got {len(A)}")
    A = as_matrix(A, "head A stack", stacked=True)
    B = as_matrix(B, "head B stack", stacked=True)
    n_heads, r, _ = A.shape
    if B.shape[::2] != (n_heads, r):  # B is (N, m, r)
        raise ValueError(f"head stacks do not pair: A is {A.shape}, B is {B.shape}")
    # (N r x N r) Grams of all factor columns / rows of the concatenated
    # heads; block (i, j) is B_i^T B_j resp. A_i A_j^T
    a_rows, b_cols = _concat(A, B)
    inner = ((b_cols.T @ b_cols) * (a_rows @ a_rows.T)).reshape(n_heads, r, n_heads, r).sum(
        axis=(1, 3)
    )
    norms = np.sqrt(np.maximum(np.diag(inner), 0.0))

    # a head has a basis (its Q_B) when it is nonzero and of full rank r
    bases = np.zeros(B.shape)
    full = np.zeros(n_heads, dtype=bool)
    live = norms > 0.0
    if live.any():
        q_b, r_b = np.linalg.qr(B[live])
        bases[live] = q_b
        r_a = np.linalg.qr(A[live].transpose(0, 2, 1), mode="r")
        sv = np.linalg.svd(r_b @ r_a.transpose(0, 2, 1), compute_uv=False)
        full[live] = np.sum(sv > _RANK_TOL * sv[:, :1], axis=1) == r

    # (2, P): every pair i < j, in row-major order; a pair with a zero head
    # reads cosine 0, and only pairs of full-rank heads have a distance
    pairs = np.array(np.triu_indices(n_heads, 1))
    ci, cj = pairs[:, live[pairs].all(axis=0)]
    cos_vals = np.clip(inner[ci, cj] / (norms[ci] * norms[cj]), -1.0, 1.0)
    cosine = np.eye(n_heads)
    cosine[ci, cj] = cosine[cj, ci] = cos_vals
    gi, gj = pairs[:, full[pairs].all(axis=0)]
    grassman = np.full((n_heads, n_heads), np.nan)
    np.fill_diagonal(grassman, 0.0)
    gr_vals = _principal_angle_distance(bases[gi], bases[gj]) if gi.size else np.zeros(0)
    grassman[gi, gj] = grassman[gj, gi] = gr_vals

    nan = float("nan")
    mean_cos = float(np.mean(cos_vals)) if cos_vals.size else nan
    mean_gr_pairs = float(np.mean(gr_vals)) if gr_vals.size else nan
    mean_gr_scaled = float(2.0 * np.sum(gr_vals) / (2.0 * n_heads)) if gr_vals.size else nan
    return AlignmentReport(
        cosine=cosine,
        mean_cosine=mean_cos,
        grassman=grassman,
        mean_grassman_pairs=mean_gr_pairs,
        mean_grassman_scaled=mean_gr_scaled,
        rank=r,
        excluded_heads=tuple(np.flatnonzero(~full).tolist()),
    )


@dataclass
class DeviationTrace:
    """Frobenius deviation between two runs' effective weights, per recorded
    snapshot: per layer and summed over layers."""

    steps: np.ndarray
    per_layer: np.ndarray  # (snapshots, layers)
    total: np.ndarray  # (snapshots,)


def trajectory_deviation(run_a, run_b) -> DeviationTrace:
    """Compare two runs' effective-weight trajectories snapshot by snapshot.

    Both runs must share the architecture and the snapshot schedule.
    """
    steps_a = [s.step for s in run_a.snapshots]
    steps_b = [s.step for s in run_b.snapshots]
    if steps_a != steps_b:
        raise ValueError(f"snapshot schedules differ: {steps_a[:5]}... vs {steps_b[:5]}...")
    if not steps_a:
        raise ValueError("runs have no snapshots to compare")
    shapes_a = [w.shape for w in run_a.snapshots[0].weights]
    shapes_b = [w.shape for w in run_b.snapshots[0].weights]
    if shapes_a != shapes_b:
        raise ValueError(f"architectures differ: {shapes_a} vs {shapes_b}")
    per_layer = np.zeros((len(steps_a), len(shapes_a)))
    for si, (sa, sb) in enumerate(zip(run_a.snapshots, run_b.snapshots)):
        for li, (wa, wb) in enumerate(zip(sa.weights, sb.weights)):
            per_layer[si, li] = frobenius(wa - wb)
    return DeviationTrace(
        steps=np.asarray(steps_a), per_layer=per_layer, total=per_layer.sum(axis=1)
    )


def effective_gradient(
    W: Matrix,
    A: Matrix,
    B: Matrix,
    g: Matrix,
    s: float,
    eta: float,
    convention: str = "expansion",
    include_second_order: bool = True,
) -> Matrix:
    """Effective gradient of the factored weight W + s B A under one SGD step.

    With g the gradient with respect to the effective weight, the first-order
    term is s^2 (c1 * B B^T g + c2 * g A^T A) and the second-order term is
    s^3 * eta * g A^T B^T g, subtracted when included. The (c1, c2) signs are
    selected by `convention`; "expansion" (+, +) is the variant the
    verifier confirms against the actual coupled step.
    """
    W = as_matrix(W, "W")
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    g = as_matrix(g, "g")
    if g.shape != W.shape:
        raise ValueError(f"g shape {g.shape} does not match W shape {W.shape}")
    if B.shape[0] != W.shape[0] or A.shape[1] != W.shape[1] or B.shape[1] != A.shape[0]:
        raise ValueError(f"factor shapes {B.shape} x {A.shape} do not match W {W.shape}")
    if convention not in UPDATE_CONVENTIONS:
        raise ValueError(f"convention must be one of {sorted(UPDATE_CONVENTIONS)}")
    c1, c2 = UPDATE_CONVENTIONS[convention]
    out = (s * s) * (c1 * (B @ (B.T @ g)) + c2 * ((g @ A.T) @ A))
    if include_second_order:
        out = out - (s**3) * eta * ((g @ A.T) @ (B.T @ g))
    return out


@dataclass
class EffectiveUpdateReport:
    """Residuals between the actual coupled SGD step on (B, A) and the
    closed-form effective gradient, across a grid of learning rates.

    residual_first uses the first-order term only at the confirmed sign
    convention: it should shrink quadratically in eta (decade ratio near
    100). residual_both includes the second-order term, which reproduces the
    single step exactly up to rounding. first_order_by_convention records,
    at the smallest eta, how each sign convention fares; the confirmed
    convention is its argmin.
    """

    etas: tuple[float, ...]
    update_norms: tuple[float, ...]
    residual_first: tuple[float, ...]
    residual_both: tuple[float, ...]
    first_order_ratios: tuple[float, ...]
    confirmed_convention: str
    first_order_by_convention: dict[str, float]


def verify_effective_update(
    W: Matrix,
    A: Matrix,
    B: Matrix,
    batch: Batch,
    s: float,
    etas: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
) -> EffectiveUpdateReport:
    """Take one real SGD step on (B, A) of a least-squares layer and compare
    the resulting effective-weight change against the closed-form formula.

    For each eta: g is the mean-squared-error gradient with respect to the
    effective weight, the factors take gradient steps B' = B - eta s g A^T,
    A' = A - eta s B^T g, and the realized change s (B'A' - BA) is compared
    to -eta * g_hat. Residuals are Frobenius norms.
    """
    W = as_matrix(W, "W")
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    x = as_matrix(batch.inputs, "batch inputs")
    y = as_matrix(batch.targets, "batch targets")
    b = x.shape[1]
    eff = W + s * (B @ A)
    g = ((eff @ x) - y) @ x.T / b

    update_norms = []
    residual_both = []
    by_convention: dict[str, list[float]] = {name: [] for name in UPDATE_CONVENTIONS}
    for eta in etas:
        B2 = B - eta * (s * (g @ A.T))
        A2 = A - eta * (s * (B.T @ g))
        d_actual = s * (B2 @ A2 - B @ A)
        update_norms.append(frobenius(d_actual))
        for name in UPDATE_CONVENTIONS:
            first = effective_gradient(
                W, A, B, g, s, eta, convention=name, include_second_order=False
            )
            by_convention[name].append(frobenius(d_actual + eta * first))
        both = effective_gradient(W, A, B, g, s, eta, convention="expansion")
        residual_both.append(frobenius(d_actual + eta * both))

    confirmed = min(UPDATE_CONVENTIONS, key=lambda name: by_convention[name][-1])
    residual_first = by_convention[confirmed]
    ratios = [hi / lo if lo > 0.0 else float("inf")
              for lo, hi in zip(residual_first[1:], residual_first[:-1])]
    return EffectiveUpdateReport(
        etas=tuple(etas),
        update_norms=tuple(update_norms),
        residual_first=tuple(residual_first),
        residual_both=tuple(residual_both),
        first_order_ratios=tuple(ratios),
        confirmed_convention=confirmed,
        first_order_by_convention={k: v[-1] for k, v in by_convention.items()},
    )


def merge_deltas(merges):
    """Yield each merge record's per-layer increments `combine(c, P, P°)`,
    bitwise what its merge added to W (a record's `delta` is this function
    of that record alone), taking one head product P per record and layer.
    An exact run's record has the previous record's factors as its stale
    stacks, so its P° is that record's P; any other stale stacks (a first
    record's zeros, a hand-driven `merge`'s fresh copies) take their own
    product."""
    prev_factors = prev_prods = None
    for rec in merges:
        prods = [head_product(A, B) for A, B in rec.factors]
        deltas = []
        for li, (c, P, stale) in enumerate(zip(rec.coefs, prods, rec.stale)):
            if stale is not None:
                reused = prev_factors is not None and stale is prev_factors[li]
                stale = prev_prods[li] if reused else head_product(*stale)
            deltas.append(combine(c, P, stale))
        yield deltas
        prev_factors, prev_prods = rec.factors, prods


@dataclass
class RankTrace:
    """Effective ranks along a run: of each merge increment, of the base
    weight at each snapshot, and of the cumulative effective-weight change
    since the start. NaN marks skipped (zero) matrices."""

    merge_steps: np.ndarray
    delta_rank: np.ndarray  # (merges, layers)
    snapshot_steps: np.ndarray
    weight_rank: np.ndarray  # (snapshots, layers)
    cumulative_rank: np.ndarray  # (snapshots, layers)
    skipped: tuple[tuple[int, int], ...]  # (merge_id, layer) of zero increments


def update_rank_trace(run) -> RankTrace:
    """Rank trajectory of a recorded run (any mode; merges may be empty):
    the merge increments' ranks, and the weight and update ranks each
    snapshot already holds."""
    if not run.snapshots:
        raise ValueError("run has no snapshots")
    n_layers = len(run.snapshots[0].weights)

    merge_steps = np.asarray([rec.step for rec in run.merges])
    delta_rank = np.full((len(run.merges), n_layers), np.nan)
    skipped = []
    for mi, (rec, deltas) in enumerate(zip(run.merges, merge_deltas(run.merges))):
        for li, d in enumerate(deltas):
            if np.any(d != 0.0):
                delta_rank[mi, li] = effective_rank(d)
            else:
                skipped.append((rec.merge_id, li))

    return RankTrace(
        merge_steps=merge_steps,
        delta_rank=delta_rank,
        snapshot_steps=np.asarray([s.step for s in run.snapshots]),
        weight_rank=np.asarray([s.weight_rank for s in run.snapshots], dtype=float),
        cumulative_rank=np.asarray([s.update_rank for s in run.snapshots], dtype=float),
        skipped=tuple(skipped),
    )

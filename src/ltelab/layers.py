"""LoRA-parameterized linear layers: the parameters, not the algebra.

A layer is a frozen base weight W (m x n) plus N low-rank heads, each a pair
B (m x r), A (r x n), sharing the scale s = alpha / r; the layer stores them
stacked, A as (N, r, n) and B as (N, m, r). What a layer computes
depends on which heads are active and at what coefficient; that choice is
made in one place, `ltelab.network.Mode.terms`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import InitScheme, Matrix, RandomSource, as_matrix, init_matrix


@dataclass
class LoraHead:
    """One adapter pair, as handed to `LoraLinear`, which copies it into its
    stacks. B is zero right after construction so a fresh head leaves the
    layer's function unchanged."""

    A: Matrix  # (r, n)
    B: Matrix  # (m, r)

    def __post_init__(self):
        self.A = as_matrix(self.A, "head A")
        self.B = as_matrix(self.B, "head B")
        r = self.A.shape[0]
        if self.B.shape[1] != r:
            raise ValueError(f"head rank mismatch: A is {self.A.shape}, B is {self.B.shape}")
        m, n = self.B.shape[0], self.A.shape[1]
        if r > min(m, n):
            raise ValueError(f"rank {r} exceeds min(m, n) = {min(m, n)}")

    @property
    def rank(self) -> int:
        return self.A.shape[0]

    @classmethod
    def fresh(cls, m: int, n: int, r: int, scheme: InitScheme, rng: RandomSource) -> "LoraHead":
        """New head: A drawn from `scheme`, B all-zero."""
        return cls(A=init_matrix(r, n, scheme, rng), B=np.zeros((m, r)))


class LoraLinear:
    """Frozen base weight plus N LoRA heads with scale s = alpha / r.

    The heads are stored stacked: A is (N, r, n) and B is (N, m, r), so any
    run of consecutive heads is one view and k workers' local steps are one
    batched matmul. The stacks are written in place, never rebound;
    `factors` reads and writes heads through views on them.

    In head training W is only ever replaced by merge operations; between
    merges it is shared read-only, and each head is owned by exactly one
    worker. Full training writes W in place.
    """

    def __init__(self, W: Matrix, alpha: float, heads: list[LoraHead]):
        self.W = as_matrix(W, "base weight")
        if not alpha > 0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        m, n = self.W.shape
        for i, h in enumerate(heads):
            if h.B.shape[0] != m or h.A.shape[1] != n:
                raise ValueError(f"head {i} shape does not match the {m}x{n} base weight")
            if h.rank != heads[0].rank:
                raise ValueError("all heads of a layer must share one rank")
        r = heads[0].rank if heads else 0
        self.A = np.array([h.A for h in heads], dtype=np.float64).reshape(len(heads), r, n)
        self.B = np.array([h.B for h in heads], dtype=np.float64).reshape(len(heads), m, r)

    def factors(self, heads: int | range) -> tuple[Matrix, Matrix]:
        """(A, B) as views on the stacks: (r, n) and (m, r) for one head
        index, (k, r, n) and (k, m, r) for a range of k consecutive heads."""
        if not isinstance(heads, range):
            if not 0 <= heads < self.num_heads:
                raise IndexError(f"head {heads} is not one of the layer's {self.num_heads}")
            return self.A[heads], self.B[heads]
        if heads.start < 0 or heads.stop > self.num_heads:
            raise IndexError(f"heads {heads} are outside the layer's {self.num_heads}")
        return self.A[heads.start:heads.stop], self.B[heads.start:heads.stop]

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.W.shape[1]

    @property
    def rank(self) -> int:
        if not self.num_heads:
            raise ValueError("layer has no heads")
        return self.A.shape[1]

    @property
    def num_heads(self) -> int:
        return self.A.shape[0]

    @property
    def s(self) -> float:
        return self.alpha / self.rank

    def __repr__(self) -> str:
        return f"LoraLinear({self.m}x{self.n}, heads={self.num_heads}, alpha={self.alpha})"


@dataclass
class LayerGradients:
    """Gradients for one layer: dW in full mode, else dA and dB of the one
    trained term, shaped like its factors `layer.factors(h)`: (r, n) and
    (m, r) for one head, (k, r, n) and (k, m, r) for a range of k heads
    (batched worker mode, and multi mode's stack of all N)."""

    dW: Matrix | None = None
    dA: Matrix | None = None
    dB: Matrix | None = None


def split_product(B: Matrix, A: Matrix, k: int) -> tuple[tuple[Matrix, Matrix], tuple[Matrix, Matrix]]:
    """Split B A into B1 A1 + B2 A2 by cutting the inner dimension at k.

    B1 takes the first k columns of B and A1 the first k rows of A; the
    complements form the second factor pair. The reconstruction is exact.
    """
    B = as_matrix(B, "split B")
    A = as_matrix(A, "split A")
    d = B.shape[1]
    if A.shape[0] != d:
        raise ValueError(f"inner dimensions differ: B is {B.shape}, A is {A.shape}")
    if not 1 <= k < d:
        raise ValueError(f"k must be in 1..{d - 1}, got {k}")
    return (B[:, :k].copy(), A[:k, :].copy()), (B[:, k:].copy(), A[k:, :].copy())

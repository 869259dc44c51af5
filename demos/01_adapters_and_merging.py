"""Adapter heads on a frozen linear layer, and what merging does.

Evaluates one LoRA-parameterized layer in each forward mode (a mode is only a
choice of heads and coefficients), shows that a product of low-rank factors
splits exactly into a sum of lower-rank products, and demonstrates that
merging the heads into the base weight (with B reset) leaves the layer's
function untouched.
"""

import numpy as np

from ltelab import (
    InitScheme,
    LoraHead,
    LoraLinear,
    MergePolicy,
    Mode,
    Network,
    RandomSource,
    effective_weight,
    forward,
    merge,
    split_product,
)
from ltelab.lte import KeyedOptimizer, WorkerState
from ltelab.optim import OptimConfig

rng = RandomSource(0)
m, n, r, n_heads = 6, 5, 2, 3

heads = []
for i in range(n_heads):
    h = LoraHead.fresh(m, n, r, InitScheme("semi_orthogonal"), rng.child("head", i))
    h.B = rng.child("b", i).standard_normal((m, r))  # pretend each head trained a while
    heads.append(h)
layer = LoraLinear(W=rng.child("w").standard_normal((m, n)), alpha=4.0, heads=heads)
x = rng.child("x").standard_normal((n, 1))

print(f"layer: {layer}, scale s = alpha/r = {layer.s}")
print()

net = Network([layer])


def view(mode):
    return forward(net, x, mode)[0]


single = view(Mode.single(0))
multi = view(Mode.multi())
share = view(Mode.worker(0))
print("single-head view   W x + s B0 A0 x        :", np.round(single.ravel(), 4))
print("multi-head view    W x + (s/N) sum B A x  :", np.round(multi.ravel(), 4))
print("worker-0 share     W x + (s/N) B0 A0 x    :", np.round(share.ravel(), 4))

acc = layer.W @ x
for i in range(n_heads):
    acc = acc + (view(Mode.worker(i)) - layer.W @ x)
print("base + sum of worker shares reproduces the multi-head view:",
      np.abs(acc - multi).max())
print()

# A rank-2r product is exactly the sum of two rank-r products.
B = rng.child("split_b").standard_normal((m, 4))
A = rng.child("split_a").standard_normal((4, n))
(b1, a1), (b2, a2) = split_product(B, A, 2)
print("split_product reconstruction error:", np.abs(b1 @ a1 + b2 @ a2 - B @ A).max())
print()

# Merging folds (s/N) sum B_n A_n into W; resetting B keeps the function.
workers = [
    WorkerState(head_index=i, stream=None, opt=KeyedOptimizer("sgd", OptimConfig(eta=0.1)),
                corrections=[np.zeros((m, n))], use_correction=False)
    for i in range(n_heads)
]
before, _ = forward(net, x, Mode.multi())
w_eff = effective_weight(layer)
record = merge(net, workers, MergePolicy(period=1, reset_B=True))
after, _ = forward(net, x, Mode.full())

print("effective weight before merge equals merged W:",
      np.abs(w_eff - layer.W).max())
print("multi-head output before vs full-weight output after:",
      np.abs(before - after).max())
print("per-merge increment norm:", np.linalg.norm(record.delta[0]))

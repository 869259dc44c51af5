"""Small trainable networks of LoRA linear layers.

Columns are samples: a batch of b inputs is an (n x b) matrix and losses
average over the batch, so gradients match the per-sample formulas divided
by b. Every layer computes

  W x + sum over active terms of  c * B (A x)

and a training regime is nothing more than its choice of terms
(coefficient c, A, B), at most one of them trained:

  full    -- no terms (standard training; W receives gradients)
  single  -- head h at coefficient s (plain single-adapter training)
  multi   -- the one stacked term (s/N, A, B) of every head
             (joint multi-head training); given an (N, n, b) stack of N
             shards, every slice runs the full multi-head view, the loss is
             the vector of N per-shard losses and head j's gradient comes
             from slice j only
  worker  -- head h at coefficient s/N, plus optionally the untrained term
             (-s/N, A°, B°) of the head's factors at the last merge
             (one worker's local view); given a range of k heads, k workers'
             views at once: every array carries a leading axis of length k,
             and every product is one batched matmul

`Mode.terms` chooses the coefficient of every term the passes run; the dense
weight (`effective_weight`) takes the same s/N. The head gradients are
those of the trained term, arrays shaped like its factors, and
`trained_pairs` pairs every trained array with its gradient for the
optimizer and the finite-difference probe. The forward pass and the input
gradient run one GEMM pair per term; in multi mode that pair is over the
stack's factors concatenated in index order, B_cat (m, N r) and
A_cat (N r, n): W x + (s/N) B_cat (A_cat x).
The dense weight the multi-head view realizes, W + (s/N) * (P - P°), is
`effective_weight`, the only code that forms it, for lte's merge, eval and
snapshots alike: P = sum_n B_n A_n and the stale P° = sum_n B°_n A°_n are
products of the same concatenations, each one GEMM, `head_product`, and
`combine` is the one arithmetic of the increment c (P - P°). A caller
holding a product (an exact lte run's stale P°, or its merged heads' P)
passes it instead of taking it again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LayerGradients, LoraLinear
from .numerics import Matrix, RandomSource, as_matrix

ACTIVATIONS = ("identity", "relu")
LOSSES = ("mse", "softmax_ce")
MODE_KINDS = ("full", "single", "multi", "worker")

# (coefficient c, A, B): the layer adds c * B A to its base weight, summed
# over the heads of a stack in multi mode; A and B are one head's factors or
# (k, ...) stacks of k heads. As a GEMM pair it is c * B (A x) in the forward
# pass and its transpose c * Aᵀ (Bᵀ u) in the input gradient.
Term = tuple[float, Matrix, Matrix]


@dataclass(frozen=True)
class Mode:
    kind: str
    head: int | range | None = None

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"mode kind must be one of {MODE_KINDS}, got {self.kind!r}")
        needs_head = self.kind in ("single", "worker")
        if needs_head and self.head is None:
            raise ValueError(f"mode {self.kind!r} needs a head index")
        if not needs_head and self.head is not None:
            raise ValueError(f"mode {self.kind!r} takes no head index")
        if isinstance(self.head, range) and (
            self.kind != "worker" or self.head.step != 1 or not self.head or self.head.start < 0
        ):
            raise ValueError(f"mode {self.kind!r}: heads {self.head} must be a nonempty "
                             "ascending run, and only worker mode takes one")
        if needs_head and not isinstance(self.head, range) and self.head < 0:
            # a negative index would silently select a head from the end
            raise ValueError(f"mode {self.kind!r}: head index must be >= 0, got {self.head}")

    @classmethod
    def full(cls) -> "Mode":
        return cls("full")

    @classmethod
    def single(cls, head: int) -> "Mode":
        return cls("single", head)

    @classmethod
    def multi(cls) -> "Mode":
        return cls("multi")

    @classmethod
    def worker(cls, head: int | range) -> "Mode":
        """One worker's view through head `head`, or, for a range of k
        heads, k workers' views at once (slice j runs through head
        head.start + j)."""
        return cls("worker", head)

    def terms(self, layer: LoraLinear, correction: tuple[Matrix, Matrix] | None = None
              ) -> list[Term]:
        """The layer's active terms, factors resolved: none in full mode,
        else the trained term first. Only worker mode carries a correction,
        the pair (A°, B°), as the term (-c, A°, B°) (`forward` rejects
        one in any other mode)."""
        if self.kind == "full":
            return []
        c = layer.s if self.kind == "single" else layer.s / layer.num_heads
        head = range(layer.num_heads) if self.kind == "multi" else self.head
        stale = [] if self.kind != "worker" or correction is None else [(-c, *correction)]
        return [(c, *layer.factors(head))] + stale


@dataclass
class Batch:
    """inputs is (n x b); targets is (m x b) for mse or a length-b integer
    class vector for softmax_ce. For batched worker mode and sharded multi
    mode both carry a leading axis: (k, n, b) inputs and (k, m, b) mse
    targets."""

    inputs: Matrix
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs, "batch inputs", stacked=np.ndim(self.inputs) == 3)

    @property
    def size(self) -> int:
        return self.inputs.shape[-1]


class Network:
    """Ordered LoRA layers with a nonlinearity after each layer and a loss.

    activations[i] is applied to layer i's output; a network whose gaps are
    all "identity" composes to a single linear map.
    """

    def __init__(self, layers: list[LoraLinear], activations: list[str] | None = None, loss: str = "mse"):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if nxt.n != prev.m:
                raise ValueError(f"layer dims do not chain: {prev.m} feeds {nxt.n}")
        if activations is None:
            activations = ["identity"] * len(self.layers)
        if len(activations) != len(self.layers):
            raise ValueError("need one activation per layer")
        for a in activations:
            if a not in ACTIVATIONS:
                raise ValueError(f"activation must be one of {ACTIVATIONS}, got {a!r}")
        if loss not in LOSSES:
            raise ValueError(f"loss must be one of {LOSSES}, got {loss!r}")
        self.activations = list(activations)
        self.loss = loss

    @property
    def in_dim(self) -> int:
        return self.layers[0].n


def _check_corrections(net: Network, corrections, mode: Mode) -> list[tuple | None]:
    if corrections is None:
        return [None] * len(net.layers)
    if mode.kind != "worker" and any(v is not None for v in corrections):
        raise ValueError(f"corrections apply only in worker mode, not in mode {mode.kind!r}")
    if len(corrections) != len(net.layers):
        raise ValueError("need one correction entry (or None) per layer")
    for li, (layer, corr) in enumerate(zip(net.layers, corrections)):
        problem = None if corr is None else correction_mismatch(layer, corr, mode.head)
        if problem:
            raise ValueError(f"layer {li}: {problem}")
    return list(corrections)


def correction_mismatch(layer: LoraLinear, corr, heads: int | range) -> str | None:
    """None when corr is a factor pair (A°, B°) shaped like
    `layer.factors(heads)`; otherwise what was wanted and what came."""
    want = tuple(f.shape for f in layer.factors(heads))
    got = (tuple(np.shape(f) for f in corr) if isinstance(corr, tuple)
           else f"{type(corr).__name__} {getattr(corr, 'shape', '')}")
    if got == want:
        return None
    return f"a correction is the factor pair (A°, B°) of shapes {want}, got {got}"


def _sharded(mode: Mode, inputs) -> bool:
    """Multi mode on a stack of shards, one per head."""
    return mode.kind == "multi" and np.ndim(inputs) == 3


def _t(a: Matrix) -> Matrix:
    """Transpose of the last two axes (of every matrix in a stack)."""
    return a.swapaxes(-1, -2)


def _concat(A: Matrix, B: Matrix) -> tuple[Matrix, Matrix]:
    """Head stacks A (k, r, n) and B (k, m, r) as one factor pair, the heads
    concatenated in index order: A_cat (k r, n) and B_cat (m, k r), so that
    B_cat A_cat = sum_h B_h A_h."""
    return A.reshape(-1, A.shape[-1]), B.transpose(1, 0, 2).reshape(B.shape[1], -1)


def _gemms(mode: Mode, terms: list[Term]) -> list[Term]:
    """The GEMM pairs the forward and the input gradient run: the terms
    themselves, except that multi mode's stacked term sums its heads, so
    its pair is over their factors concatenated (`_concat`)."""
    return [(c, *_concat(A, B)) for c, A, B in terms] if mode.kind == "multi" else terms


def _layer_forward(layer: LoraLinear, x: Matrix, gemms: list[Term]) -> Matrix:
    out = layer.W @ x
    for c, A, B in gemms:
        t = B @ (A @ x)
        t *= c
        out += t  # in place, bitwise out + c * t: both are fresh
    return out


def head_product(A: Matrix, B: Matrix) -> Matrix:
    """P = sum_h B_h A_h for head stacks A (k, r, n) and B (k, m, r), the
    only dense head product: one GEMM B_cat A_cat of the heads concatenated
    in head order (`_concat`, as the multi-mode forward concatenates them)."""
    A_cat, B_cat = _concat(A, B)
    return B_cat @ A_cat


def combine(c: float, prod: Matrix, stale_prod: Matrix | None = None) -> Matrix:
    """The increment c * (P - P°) in this order: P - P° (P without P°),
    then scaled by c. Every increment takes it. A fresh array, bitwise the
    out-of-place formula; zeros when P° is P."""
    if stale_prod is None:
        return prod * c
    out = prod - stale_prod
    out *= c
    return out


def effective_weight(layer: LoraLinear, stale_prod: Matrix | None = None,
                     prod: Matrix | None = None) -> Matrix:
    """W + (s/N) * (P - P°), the weight the multi-head view realizes once
    the stale product P° = sum_n B°_n A°_n (None: no correction) is
    subtracted, P = sum_n B_n A_n the heads' `head_product`, or `prod`,
    which must equal it: `combine`'s increment with W added, the only code
    that forms this weight. Raises ValueError when P° or `prod` is not
    shaped like W. The result aliases neither W, the heads nor the
    products."""
    for name, p in (("stale_prod", stale_prod), ("prod", prod)):
        if p is not None and getattr(p, "shape", None) != layer.W.shape:
            raise ValueError(f"{name}: a product shaped like W {layer.W.shape}, got "
                             f"{type(p).__name__} {getattr(p, 'shape', '')}")
    if not layer.num_heads:
        return layer.W.copy()
    out = combine(layer.s / layer.num_heads,
                  head_product(layer.A, layer.B) if prod is None else prod, stale_prod)
    out += layer.W
    return out


def forward(
    net: Network, inputs: Matrix, mode: Mode, corrections=None
) -> tuple[Matrix, list[dict]]:
    """Run the network; returns the output and per-layer cached intermediates.

    corrections holds one stale correction (or None) per layer: the factor
    pair (A°, B°), shaped like the worker's head factors A and B. Only
    worker mode takes them; any other mode, or a correction of other shapes,
    raises ValueError. A range of k worker heads takes a (k, n, b) input
    stack and (k, r, n), (k, m, r) correction stacks; multi mode takes an
    (N, n, b) stack of one shard per head. The cache holds each layer's
    input, pre-activation output, resolved terms and GEMM pairs, which is
    exactly what the backward pass needs.
    """
    x = as_matrix(inputs, "network inputs", stacked=np.ndim(inputs) == 3)
    return _forward(net, x, mode, corrections)


def _forward(net: Network, x: Matrix, mode: Mode, corrections) -> tuple[Matrix, list[dict]]:
    """`forward` on inputs already checked finite (a Batch's): only their
    shape is checked here, against the mode."""
    sharded = _sharded(mode, x)
    ndim = 3 if sharded or isinstance(mode.head, range) else 2
    if x.ndim != ndim:
        raise ValueError(f"network inputs must be {ndim}-D, got shape {x.shape}")
    if isinstance(mode.head, range) and x.shape[0] != len(mode.head):
        raise ValueError(f"input stack of {x.shape[0]} does not match the {len(mode.head)} heads")
    if x.shape[-2] != net.in_dim:
        raise ValueError(f"input rows {x.shape[-2]} do not match network fan-in {net.in_dim}")
    corrections = _check_corrections(net, corrections, mode)
    cache = []
    for layer, act, corr in zip(net.layers, net.activations, corrections):
        if sharded and x.shape[0] != layer.num_heads:
            raise ValueError(f"shard stack of {x.shape[0]} does not match the layer's "
                             f"{layer.num_heads} heads")
        terms = mode.terms(layer, corr)
        gemms = _gemms(mode, terms)
        z = _layer_forward(layer, x, gemms)
        cache.append({"x": x, "z": z, "terms": terms, "gemms": gemms})
        x = np.maximum(z, 0.0) if act == "relu" else z
    return x, cache


def _loss_and_output_grad(
    out: Matrix, batch: Batch, loss: str
) -> tuple[float | np.ndarray, Matrix]:
    """The loss (one per slice for a stacked output) and its gradient."""
    b = batch.size
    if loss == "mse":
        targets = as_matrix(batch.targets, "mse targets", stacked=out.ndim == 3)
        if targets.shape != out.shape:
            raise ValueError(f"target shape {targets.shape} does not match output {out.shape}")
        diff = out - targets
        loss_val = 0.5 / b * np.sum(diff * diff, axis=(-2, -1))
        return (loss_val if out.ndim == 3 else float(loss_val)), diff / b
    if out.ndim != 2:
        raise ValueError("softmax_ce takes one batch of columns, not a stack")
    targets = np.asarray(batch.targets)
    if targets.ndim != 1 or targets.shape[0] != b:
        raise ValueError("softmax_ce targets must be a length-b class index vector")
    if targets.dtype.kind not in "iu" or targets.min() < 0 or targets.max() >= out.shape[0]:
        raise ValueError("softmax_ce targets must be integer classes in range")
    shifted = out - out.max(axis=0, keepdims=True)
    expz = np.exp(shifted)
    probs = expz / expz.sum(axis=0, keepdims=True)
    picked = probs[targets, np.arange(b)]
    loss_val = float(-np.mean(np.log(picked)))
    grad = probs.copy()
    grad[targets, np.arange(b)] -= 1.0
    return loss_val, grad / b


def loss_value(net: Network, batch: Batch, mode: Mode, corrections=None) -> float | np.ndarray:
    out, _ = _forward(net, batch.inputs, mode, corrections)
    val, _ = _loss_and_output_grad(out, batch, net.loss)
    return val


def loss_and_grad(
    net: Network, batch: Batch, mode: Mode, corrections=None
) -> tuple[float | np.ndarray, list[LayerGradients]]:
    """Loss plus gradients for every parameter the mode trains: dW in full
    mode, else dA and dB of the trained term, arrays shaped like its factors.

    For a range of worker heads the loss is the vector of the k workers'
    losses. For an (N, n, b) stack of shards in multi mode it is the vector
    of the N shards' losses; the input gradient runs through all heads, but
    head j's gradient comes from shard j alone (on one 2-D batch the
    broadcast gives every head its gradient from the whole batch).
    """
    out, cache = _forward(net, batch.inputs, mode, corrections)
    loss_val, u = _loss_and_output_grad(out, batch, net.loss)
    grads = [LayerGradients() for _ in net.layers]
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        x, z, terms = cache[i]["x"], cache[i]["z"], cache[i]["terms"]
        if net.activations[i] == "relu":
            u = u * (z > 0.0)
        g = grads[i]
        if terms:  # the trained term; a stale correction after it trains nothing
            c, A, B = terms[0]
            g.dB = c * (u @ _t(A @ x))
            g.dA = c * ((_t(B) @ u) @ _t(x))
        else:
            g.dW = u @ _t(x)
        if i > 0:
            u = _input_grad(layer, cache[i]["gemms"], u)
    return loss_val, grads


def _input_grad(layer: LoraLinear, gemms: list[Term], u: Matrix) -> Matrix:
    dx = layer.W.T @ u
    for c, A, B in gemms:
        t = _t(A) @ (_t(B) @ u)
        t *= c
        dx += t
    return dx


def trained_pairs(net: Network, mode: Mode, grads: list[LayerGradients]
                  ) -> list[tuple[Matrix, Matrix]]:
    """(array, gradient) for every array the mode trains, layer by layer:
    each W in full mode, else each layer's A then B of the trained term,
    views on the stacks that an update writes through."""
    pairs = []
    for layer, g in zip(net.layers, grads):
        if mode.kind == "full":
            pairs.append((layer.W, g.dW))
        else:
            _, A, B = mode.terms(layer)[0]
            pairs += [(A, g.dA), (B, g.dB)]
    return pairs


def fd_check(
    net: Network,
    batch: Batch,
    mode: Mode,
    step: float = 1e-6,
    corrections=None,
    num_params: int = 32,
    rng: RandomSource | None = None,
) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Probes a random subset of at least num_params trainable coordinates
    (all of them if fewer exist). The error is |g_a - g_fd| / (|g_a| + |g_fd|)
    while the denominator exceeds 1e-12; below that both gradients are noise
    around zero and the absolute difference is reported instead (dividing by
    a floor would inflate rounding noise by twelve orders of magnitude).
    For a range of worker heads the probed loss is the sum of the workers'
    losses. A multi-mode shard stack is rejected: each head's gradient there
    comes from its own shard, so it is the gradient of no single loss. The
    network is restored bit-for-bit afterwards.
    """
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    if _sharded(mode, batch.inputs):
        raise ValueError("fd_check takes no multi-mode shard stack: its head gradients "
                         "differentiate no single loss")
    _, grads = loss_and_grad(net, batch, mode, corrections)
    pairs = trained_pairs(net, mode, grads)
    coords = [(i, flat) for i, (arr, _) in enumerate(pairs) for flat in range(arr.size)]
    rng = rng or RandomSource(0)
    if len(coords) > num_params:
        picked = rng.choice(len(coords), size=num_params, replace=False)
        coords = [coords[int(i)] for i in picked]
    worst = 0.0
    for i, flat in coords:
        arr, grad = pairs[i]
        analytic = grad.flat[flat]
        old = arr.flat[flat]
        arr.flat[flat] = old + step
        hi = float(np.sum(loss_value(net, batch, mode, corrections)))
        arr.flat[flat] = old - step
        lo = float(np.sum(loss_value(net, batch, mode, corrections)))
        arr.flat[flat] = old
        fd = (hi - lo) / (2.0 * step)
        scale = abs(analytic) + abs(fd)
        err = abs(analytic - fd) / scale if scale > 1e-12 else abs(analytic - fd)
        worst = max(worst, err)
    return worst

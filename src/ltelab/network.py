"""Small trainable networks of LoRA linear layers.

Columns are samples: a batch of b inputs is an (n x b) matrix and losses
average over the batch, so gradients match the per-sample formulas divided
by b. Every layer computes

  W x + sum over active terms of  c * (B_h A_h - V) x

and a training regime is nothing more than its choice of terms, one
(head index h, coefficient c, stale product V) triple per active head:

  full    -- no terms (standard training; W receives gradients)
  single  -- head h at coefficient s (plain single-adapter training)
  multi   -- every head at coefficient s/N (joint multi-head training)
  worker  -- head h at coefficient s/N, optionally with a per-layer
             stale-product correction V (one worker's local view)

`Mode.terms` is the only place a coefficient is chosen; the forward pass,
the input gradient, the head gradients, the finite-difference probe and
`effective_weight` all loop over its terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LayerGradients, LoraLinear
from .numerics import Matrix, RandomSource, as_matrix

ACTIVATIONS = ("identity", "relu")
LOSSES = ("mse", "softmax_ce")
MODE_KINDS = ("full", "single", "multi", "worker")

# (head index h, coefficient c, stale product V or None): the layer adds
# c * (B_h A_h - V) to its base weight.
Term = tuple[int, float, Matrix | None]


@dataclass(frozen=True)
class Mode:
    kind: str
    head: int | None = None

    def __post_init__(self):
        if self.kind not in MODE_KINDS:
            raise ValueError(f"mode kind must be one of {MODE_KINDS}, got {self.kind!r}")
        needs_head = self.kind in ("single", "worker")
        if needs_head and self.head is None:
            raise ValueError(f"mode {self.kind!r} needs a head index")
        if not needs_head and self.head is not None:
            raise ValueError(f"mode {self.kind!r} takes no head index")

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
    def worker(cls, head: int) -> "Mode":
        return cls("worker", head)

    def terms(self, layer: LoraLinear, correction: Matrix | None = None) -> list[Term]:
        """The layer's active terms; heads with coefficient zero are left out.

        Only worker mode carries a correction; the other modes ignore it.
        """
        if self.kind == "full":
            return []
        if self.kind == "single":
            return [(self.head, layer.s, None)]
        c = layer.s / layer.num_heads
        if self.kind == "multi":
            return [(h, c, None) for h in range(layer.num_heads)]
        return [(self.head, c, correction)]


@dataclass
class Batch:
    """inputs is (n x b); targets is (m x b) for mse or a length-b integer
    class vector for softmax_ce."""

    inputs: Matrix
    targets: np.ndarray

    def __post_init__(self):
        self.inputs = as_matrix(self.inputs, "batch inputs")

    @property
    def size(self) -> int:
        return self.inputs.shape[1]


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

    @property
    def out_dim(self) -> int:
        return self.layers[-1].m


def _check_corrections(net: Network, corrections) -> list[Matrix | None]:
    if corrections is None:
        return [None] * len(net.layers)
    if len(corrections) != len(net.layers):
        raise ValueError("need one correction entry (or None) per layer")
    return list(corrections)


def _layer_forward(layer: LoraLinear, x: Matrix, terms: list[Term]) -> Matrix:
    out = layer.W @ x
    for h, c, v in terms:
        head = layer.heads[h]
        out = out + c * (head.B @ (head.A @ x))
        if v is not None:
            out = out - c * (v @ x)
    return out


def effective_weight(layer: LoraLinear, corrections=None) -> Matrix:
    """W + (s/N) * (sum_n B_n A_n - sum_n V_n), the weight the multi-head
    view realizes once each head's stale product V_n is subtracted.

    corrections holds the V_n (None: no stale products). The heads are
    summed first, then the corrections, then scaled once, in that order.
    """
    if not layer.heads:
        return layer.W.copy()
    terms = Mode.multi().terms(layer)
    acc = np.zeros_like(layer.W)
    for h, _, _ in terms:
        acc += layer.heads[h].product()
    if corrections is not None:
        for v in corrections:
            acc -= v
    return layer.W + terms[0][1] * acc  # the multi-head terms share s/N


def forward(
    net: Network, inputs: Matrix, mode: Mode, corrections=None
) -> tuple[Matrix, list[dict]]:
    """Run the network; returns the output and per-layer cached intermediates.

    corrections holds one stale product (or None) per layer; only worker
    mode uses them. The cache holds each layer's input, pre-activation
    output and resolved terms, which is exactly what the backward pass needs.
    """
    x = as_matrix(inputs, "network inputs")
    if x.shape[0] != net.in_dim:
        raise ValueError(f"input rows {x.shape[0]} do not match network fan-in {net.in_dim}")
    corrections = _check_corrections(net, corrections)
    cache = []
    for layer, act, corr in zip(net.layers, net.activations, corrections):
        terms = mode.terms(layer, corr)
        z = _layer_forward(layer, x, terms)
        cache.append({"x": x, "z": z, "terms": terms})
        x = np.maximum(z, 0.0) if act == "relu" else z
    return x, cache


def _loss_and_output_grad(out: Matrix, batch: Batch, loss: str) -> tuple[float, Matrix]:
    b = batch.size
    if loss == "mse":
        targets = as_matrix(batch.targets, "mse targets")
        if targets.shape != out.shape:
            raise ValueError(f"target shape {targets.shape} does not match output {out.shape}")
        diff = out - targets
        return float(0.5 / b * np.sum(diff * diff)), diff / b
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


def loss_value(net: Network, batch: Batch, mode: Mode, corrections=None) -> float:
    out, _ = forward(net, batch.inputs, mode, corrections)
    val, _ = _loss_and_output_grad(out, batch, net.loss)
    return val


def loss_and_grad(
    net: Network,
    batch: Batch,
    mode: Mode,
    corrections=None,
    include_base: bool | None = None,
    heads=None,
) -> tuple[float, list[LayerGradients]]:
    """Loss plus gradients for every parameter the mode trains.

    include_base forces dW on or off regardless of mode (default: on only in
    full mode). `heads` restricts which heads' gradients are materialized;
    the backpropagated signal is unaffected.
    """
    out, cache = forward(net, batch.inputs, mode, corrections)
    loss_val, u = _loss_and_output_grad(out, batch, net.loss)
    if include_base is None:
        include_base = mode.kind == "full"
    grads = [LayerGradients() for _ in net.layers]
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        x, z, terms = cache[i]["x"], cache[i]["z"], cache[i]["terms"]
        if net.activations[i] == "relu":
            u = u * (z > 0.0)
        g = grads[i]
        if include_base:
            g.dW = u @ x.T
        for h, c, _ in terms:
            if heads is None or h in heads:
                head = layer.heads[h]
                g.dB[h] = c * (u @ (head.A @ x).T)
                g.dA[h] = c * ((head.B.T @ u) @ x.T)
        if i > 0:
            u = _input_grad(layer, terms, u)
    return loss_val, grads


def _input_grad(layer: LoraLinear, terms: list[Term], u: Matrix) -> Matrix:
    dx = layer.W.T @ u
    for h, c, v in terms:
        head = layer.heads[h]
        dx = dx + c * (head.A.T @ (head.B.T @ u))
        if v is not None:
            dx = dx - c * (v.T @ u)
    return dx


def _trainable_slots(net: Network, mode: Mode, include_base: bool):
    """(layer index, kind, head index, array) for every trained tensor."""
    slots = []
    for i, layer in enumerate(net.layers):
        if include_base:
            slots.append((i, "W", None, layer.W))
        for h, _, _ in mode.terms(layer):
            head = layer.heads[h]
            slots.append((i, "A", h, head.A))
            slots.append((i, "B", h, head.B))
    return slots


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
    The network is restored bit-for-bit afterwards.
    """
    if not step > 0:
        raise ValueError(f"step must be > 0, got {step}")
    include_base = mode.kind == "full"
    _, grads = loss_and_grad(net, batch, mode, corrections, include_base=include_base)
    slots = _trainable_slots(net, mode, include_base)
    coords = []
    for s_idx, (li, kind, h_idx, arr) in enumerate(slots):
        for flat in range(arr.size):
            coords.append((s_idx, flat))
    rng = rng or RandomSource(0)
    if len(coords) > num_params:
        picked = rng.choice(len(coords), size=num_params, replace=False)
        coords = [coords[int(i)] for i in picked]
    worst = 0.0
    for s_idx, flat in coords:
        li, kind, h_idx, arr = slots[s_idx]
        if kind == "W":
            analytic = grads[li].dW.flat[flat]
        elif kind == "A":
            analytic = grads[li].dA[h_idx].flat[flat]
        else:
            analytic = grads[li].dB[h_idx].flat[flat]
        old = arr.flat[flat]
        arr.flat[flat] = old + step
        hi = loss_value(net, batch, mode, corrections)
        arr.flat[flat] = old - step
        lo = loss_value(net, batch, mode, corrections)
        arr.flat[flat] = old
        fd = (hi - lo) / (2.0 * step)
        scale = abs(analytic) + abs(fd)
        err = abs(analytic - fd) / scale if scale > 1e-12 else abs(analytic - fd)
        worst = max(worst, err)
    return worst

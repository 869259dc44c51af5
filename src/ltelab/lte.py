"""Bi-level training: parallel workers on private data streams, T local steps
on their own heads, then a synchronized merge into the base weights.

Two merge flavors exist. Averaged merging adds (s/N) * sum_n B_n A_n to W and
(by default) zeroes every B so the post-merge multi-head function is
preserved. Exact-corrected merging keeps the head parameters and each
worker's head factors at the last merge, (A°_n, B°_n): workers subtract
their stale share (s/N) B°_n A°_n in the forward pass, the merge adds
(s/N) * sum_n (B_n A_n - B°_n A°_n) and refreshes (A°_n, B°_n). With T = 1
the corrected scheme reproduces joint multi-head training exactly.

`run` is one loop for every mode, driven by one seeded, deterministic
configuration. Each step draws one (k, ...) stack from the run's one stream
and makes one `_train_heads` call: in worker mode over all N heads for lte,
in multi mode over the N shards for lora and mhlora (joint multi-head
training, the T = 1 oracle), and in full mode on slice 0 for full. lte then
folds the heads into W every T steps. Workers may conceptually run in
parallel: between merges W is read-only, each head is owned by exactly one
worker, and a merge sums heads in index order, so results never depend on
worker execution order; slice j of a draw comes from worker j's own Philox
stream or pool shard. `_train_heads` is one `loss_and_grad` call and one
optimizer call over every trained array of every layer, gathered head-major
into one (k, P) array, so the moments are one (k, P) state whose row j is
head j's. A merge (`_fold`) takes one GEMM per layer, the merged heads'
product P, sets W to `effective_weight` given P and keeps copies of the
head stacks in its record, not a dense array. In an exact run those copies
are the next interval's stale factors and P its stale product P°, which
`run` keeps, so the one pass of `effective_weight` over the layers that
its eval, guard and snapshots read takes one head product per layer per
step (none on a merge step, where the heads are the merged copies).
Without a correction every layer's stale stacks and product are None.
`local_step` and `merge` drive hand-built `WorkerState`s through the same
update and fold.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import __version__ as _code_version
from .analysis import AlignmentReport, effective_rank, head_alignment, merge_deltas
from .data import LeastSquaresTask, gen_least_squares
from .layers import LoraHead, LoraLinear
from .network import (ACTIVATIONS, LOSSES, Batch, Mode, Network, correction_mismatch,
                      effective_weight, head_product, loss_and_grad, trained_pairs)
from .numerics import INIT_KINDS, InitScheme, Matrix, RandomSource, init_matrix, init_stack
from .optim import AdamState, OptimConfig, adamw_step, sgd_step

RUN_MODES = ("full", "lora", "mhlora", "lte")
OPTIMIZERS = ("sgd", "adamw")
HEADS_KEY = "heads"


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


class RunDiverged(ValueError):
    """A run left the finite numbers; the message names the step, the
    quantity that stopped being finite and the layer."""


_TYPES = {"an integer": numbers.Integral, "a real number": numbers.Real, "a bool": (bool, np.bool_)}
_OPTIONAL = {"dataset.pool", "snapshot_interval", "alpha", "stop_mse"}


def _check_types(kind: str, fields: dict) -> None:
    """Raise ConfigError naming the first field (path -> value) that is not
    `kind`, a key of _TYPES; only a flag may be a bool, only an optional
    field None."""
    for path, value in fields.items():
        is_flag = isinstance(value, _TYPES["a bool"])
        if not (value is None and path in _OPTIONAL
                or is_flag == (kind == "a bool") and isinstance(value, _TYPES[kind])):
            raise ConfigError(f"{path}: must be {kind}, got {value!r}")


@dataclass(frozen=True)
class MergePolicy:
    """When and how heads fold back into the base weights.

    period is the number of local steps between merges. reset_B keeps the
    merge function-preserving; reset_A re-initializes A (off by default, it
    wastes re-learning); reset_opt clears worker optimizer state (also off by
    default). exact_correction switches to the corrected no-reset scheme and
    is incompatible with parameter resets, which it exists to avoid. Without
    it reset_B is required: a merge that adds the heads to W and keeps them
    would count them twice.
    """

    period: int = 1
    reset_B: bool = True
    reset_A: bool = False
    reset_opt: bool = False
    exact_correction: bool = False

    def __post_init__(self):
        _check_types("an integer", {"policy.period": self.period})
        _check_types("a bool", {f"policy.{flag}": getattr(self, flag) for flag in
                                ("reset_B", "reset_A", "reset_opt", "exact_correction")})
        if self.period < 1:
            raise ConfigError(f"policy.period: must be >= 1, got {self.period}")
        if self.exact_correction and (self.reset_B or self.reset_A):
            raise ConfigError(
                "policy.exact_correction: incompatible with reset_B/reset_A "
                "(the corrected scheme reuses the same parameters)"
            )
        if not (self.reset_B or self.exact_correction):
            raise ConfigError("policy.reset_B: false needs exact_correction, or a merge "
                              "keeps heads it has added to W and counts them twice")


@dataclass(frozen=True)
class DatasetSpec:
    """Synthetic least-squares dataset. pool switches from i.i.d. per-worker
    streams to a fixed pre-generated sample pool sharded across workers."""

    m: int
    n: int
    rank: int
    kind: str = "least_squares"
    pool: int | None = None


@dataclass(frozen=True)
class ArchSpec:
    """Layer chain: dims = (d0, d1, ..., dL) builds L layers, layer i mapping
    d_i -> d_{i+1}. `activation` fills every gap except the last (identity)."""

    dims: tuple[int, ...]
    activation: str = "identity"
    loss: str = "mse"
    w_init: str = "zeros"
    w_gain: float = 1.0


@dataclass(frozen=True)
class RunConfig:
    mode: str
    dataset: DatasetSpec
    arch: ArchSpec
    n_heads: int = 1
    rank: int = 4
    alpha: float | None = None  # None means alpha = rank, i.e. s = 1
    optimizer: str = "sgd"
    optim: OptimConfig = field(default_factory=lambda: OptimConfig(eta=0.05))
    policy: MergePolicy = field(default_factory=MergePolicy)
    batch_size: int = 32
    total_steps: int = 100
    snapshot_interval: int | None = None
    seed: int = 0
    init: InitScheme = field(default_factory=lambda: InitScheme("semi_orthogonal"))
    record_params: bool = False
    stop_mse: float | None = None
    out_dir: str | None = None

    @property
    def effective_alpha(self) -> float:
        return float(self.rank) if self.alpha is None else float(self.alpha)

    def validate(self) -> None:
        """Check every cross-field constraint; raises ConfigError naming the
        field path of the first violation."""
        if self.mode not in RUN_MODES:
            raise ConfigError(f"mode: must be one of {RUN_MODES}, got {self.mode!r}")
        ds, arch = self.dataset, self.arch
        _check_types("an integer", {
            "dataset.m": ds.m, "dataset.n": ds.n, "dataset.rank": ds.rank, "dataset.pool": ds.pool,
            **{f"arch.dims[{i}]": d for i, d in enumerate(arch.dims)}, "N": self.n_heads,
            "r": self.rank, "batch_size": self.batch_size, "total_steps": self.total_steps,
            "snapshot_interval": self.snapshot_interval, "seed": self.seed})
        _check_types("a real number", {
            "alpha": self.alpha, "stop_mse": self.stop_mse, "arch.w_gain": arch.w_gain,
            "init.gain": self.init.gain, **{f"optim.{k}": v for k, v in asdict(self.optim).items()}})
        _check_types("a bool", {"record_params": self.record_params})
        if ds.kind != "least_squares":
            raise ConfigError(f"dataset.kind: unknown kind {ds.kind!r}")
        if ds.m < 1 or ds.n < 1:
            raise ConfigError(f"dataset.m/n: must be >= 1, got {ds.m}x{ds.n}")
        if not 1 <= ds.rank <= min(ds.m, ds.n):
            raise ConfigError(f"dataset.rank: must be in 1..{min(ds.m, ds.n)}, got {ds.rank}")
        if ds.pool is not None and ds.pool < self.n_heads:
            raise ConfigError(f"dataset.pool: must cover all {self.n_heads} workers, got {ds.pool}")
        if len(arch.dims) < 2 or any(d < 1 for d in arch.dims):
            raise ConfigError(f"arch.dims: need a chain of positive dims, got {arch.dims}")
        if arch.dims[0] != ds.n:
            raise ConfigError(f"arch.dims[0]: must equal dataset.n={ds.n}, got {arch.dims[0]}")
        if arch.dims[-1] != ds.m:
            raise ConfigError(f"arch.dims[-1]: must equal dataset.m={ds.m}, got {arch.dims[-1]}")
        if arch.activation not in ACTIVATIONS:
            raise ConfigError(f"arch.activation: must be one of {ACTIVATIONS}")
        if arch.loss not in LOSSES:
            raise ConfigError(f"arch.loss: must be one of {LOSSES}")
        if arch.w_init != "zeros" and arch.w_init not in INIT_KINDS:
            raise ConfigError(f"arch.w_init: must be 'zeros' or one of {INIT_KINDS}")
        if arch.w_init == "zeros" and len(arch.dims) > 2:
            raise ConfigError(f"arch.w_init: a chain of {len(arch.dims) - 1} layers from "
                              f"'zeros' has only zero gradients; use one of {INIT_KINDS}")
        if self.n_heads < 1:
            raise ConfigError(f"N: must be >= 1, got {self.n_heads}")
        if self.mode == "lora" and self.n_heads != 1:
            raise ConfigError(f"N: mode 'lora' is single-head, got N={self.n_heads}")
        min_dim = min(min(a, b) for a, b in zip(arch.dims, arch.dims[1:]))
        if not 1 <= self.rank <= min_dim:
            raise ConfigError(
                f"r: rank {self.rank} must be in 1..{min_dim} for layer dims {arch.dims}"
            )
        if self.effective_alpha <= 0:
            raise ConfigError(f"alpha: must be > 0, got {self.alpha}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer: must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.mode in ("mhlora", "lte") and self.batch_size // self.n_heads < 1:
            raise ConfigError(
                f"batch_size: cumulative batch {self.batch_size} leaves no samples "
                f"per worker at N={self.n_heads}"
            )
        if self.total_steps < 1:
            raise ConfigError(f"total_steps: must be >= 1, got {self.total_steps}")
        if self.snapshot_interval is not None and self.snapshot_interval < 1:
            raise ConfigError(f"snapshot_interval: must be >= 1, got {self.snapshot_interval}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: must be an unsigned 64-bit integer, got {self.seed}")
        if self.stop_mse is not None and self.stop_mse <= 0:
            raise ConfigError(f"stop_mse: must be > 0, got {self.stop_mse}")
        if self.stop_mse is not None and not _eval_enabled(self):
            raise ConfigError(
                "stop_mse: population MSE is only defined for an mse loss with "
                f"identity gaps, got loss {arch.loss!r} and activation {arch.activation!r}"
            )
        if arch.loss != "mse":
            raise ConfigError(
                f"arch.loss: {arch.loss!r} needs class-index targets, but dataset.kind "
                f"{ds.kind!r} has real-valued targets; use 'mse'"
            )


_CONFIG_ALIASES = {"N": "n_heads", "r": "rank", "T": "policy.period"}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a flat JSON-style dict.

    Accepts the short axis names N, r, T as aliases (T names the merge
    period and lands in the policy). Unknown keys are rejected so typos
    fail fast instead of silently using defaults, and so is a field named
    twice: an alias and its long name, or T and policy.period. A section
    the dict leaves out takes RunConfig's default.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"config: expected an object, got {type(raw).__name__}")
    known = {f.name for f in fields(RunConfig)}
    data = {}
    named = {}  # field -> the key that named it
    if isinstance(raw.get("policy"), dict) and "period" in raw["policy"]:
        named["policy.period"] = "policy.period"
    for key, value in raw.items():
        field = _CONFIG_ALIASES.get(key, key)
        if field not in known and key not in _CONFIG_ALIASES:
            raise ConfigError(f"{key}: unknown config field")
        if field in named:
            raise ConfigError(f"{key}: names the same field as {named[field]}; give one of them")
        named[field] = key
        data[field] = value
    period = {"period": data.pop("policy.period")} if "policy.period" in data else {}
    if period:
        data.setdefault("policy", {})
    for required in ("mode", "dataset", "arch"):
        if required not in data:
            raise ConfigError(f"{required}: missing required field")
    for name, cls in {"dataset": DatasetSpec, "arch": ArchSpec, "optim": OptimConfig,
                      "policy": MergePolicy, "init": InitScheme}.items():
        if name not in data:
            continue
        try:
            kwargs = data[name]
            if not isinstance(kwargs, dict):
                raise TypeError(f"expected an object, got {type(kwargs).__name__}")
            if name == "arch":
                kwargs = {**kwargs, "dims": tuple(kwargs.get("dims", ()))}
            data[name] = cls(**kwargs, **(period if name == "policy" else {}))
        except ConfigError:  # a section's own check names its full path
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    try:
        cfg = RunConfig(**data)
    except TypeError as exc:
        raise ConfigError(f"config: {exc}") from exc
    cfg.validate()
    return cfg


class KeyedOptimizer:
    """SGD or AdamW over a keyed family of parameters, one state per key.
    `_train_heads` steps every trained array under one key, HEADS_KEY, as
    one head-major (k, P) array, so row j of that state is head j's
    moments; in full training that array is every layer's W, flattened."""

    def __init__(self, kind: str, cfg: OptimConfig):
        if kind not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {kind!r}")
        self.kind = kind
        self.cfg = cfg
        self.states: dict = {}

    def step(self, key, param: Matrix, grad: Matrix) -> Matrix:
        if self.kind == "sgd":
            return sgd_step(param, grad, self.cfg.eta)
        state = self.states.get(key)
        if state is None:
            state = AdamState.zeros(param.shape)
        new, self.states[key] = adamw_step(param, grad, state, self.cfg)
        return new

    def reset_states(self) -> None:
        self.states.clear()


class IidStream:
    """Private i.i.d. streams over a least-squares task, one per rng: a draw
    is the (k, n, b) inputs, slice j drawn in place from rngs[j], and their
    targets W* x."""

    def __init__(self, task: LeastSquaresTask, rngs: Sequence[RandomSource]):
        self.task = task
        self.rngs = list(rngs)

    def next(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.empty((len(self.rngs), self.task.n, batch_size))
        for rng, xj in zip(self.rngs, x):
            rng.standard_normal(xj.shape, out=xj)
        return x, self.task.W_star @ x


class PooledStream:
    """Fixed-pool streams over k shards of the sample-major pool xt (samples,
    n) and its targets yt, shard j (the samples j, j + k, ...) cycling in
    order with its own length; a draw gathers whole rows and stacks all k
    like IidStream. cursor counts the samples each shard has given."""

    def __init__(self, xt: Matrix, yt: Matrix, k: int):
        if len(xt) < k:
            raise ValueError(f"pool of {len(xt)} samples leaves a worker of {k} without samples")
        self.xt, self.yt = xt, yt
        self.shards = np.arange(k)[:, None]
        self.sizes = (len(xt) - self.shards + k - 1) // k
        self.cursor = 0

    def next(self, batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        local = (self.cursor + np.arange(batch_size)) % self.sizes
        self.cursor += batch_size
        cols = self.shards + len(self.shards) * local  # (k, b) pool columns
        # views, column-major per slice: a contiguous copy rounds differently downstream
        return self.xt[cols].transpose(0, 2, 1), self.yt[cols].transpose(0, 2, 1)


@dataclass
class WorkerState:
    """One hand-driven worker, for `local_step` and `merge`: its head index,
    private stream, optimizer, and per-layer stale corrections, the factors
    (A°, B°) of its head at the last merge, which `merge` refreshes in
    place. `run` builds none: it steps all heads at once and keeps its
    stale factors in its merge records."""

    head_index: int
    stream: object
    opt: KeyedOptimizer
    corrections: list[tuple[Matrix, Matrix]]
    use_correction: bool
    steps_since_merge: int = 0


@dataclass
class UpdateRecord:
    """What one merge added to the base weights, kept as factors: per layer
    the coefficient c = s/N, copies of the merged head stacks (A, B), and in
    exact mode the stale stacks (A°, B°) the merge subtracted (None
    otherwise), and no dense product; no array aliases a live head stack.
    In an exact run a record's factors are the next interval's stale
    stacks, so they are read-only and shared with the next record, whose
    stale they are; the first record's stale stacks are zeros. `merge` records fresh stacks of
    its workers' corrections. delta[layer] recomputes one record's dense
    increment c (B A - B° A°), bitwise what the merge added to W, as
    `analysis.merge_deltas` of this record alone (two head products per
    layer in exact mode); over a run's records `merge_deltas` takes one
    product per record and layer, reading an exact record's P° from the
    previous record, whose factors its stale stacks are. Worker n's
    contribution, s (B_n A_n - B°_n A°_n), comes from slice n of each
    stack."""

    merge_id: int
    step: int
    coefs: list[float]
    factors: list[tuple[Matrix, Matrix]]
    stale: list[tuple[Matrix, Matrix] | None]

    @property
    def delta(self) -> list[Matrix]:
        return next(merge_deltas([self]))


@dataclass
class Snapshot:
    """The run at one step: per layer the effective weight, the alignment
    of the heads, the effective ranks of the weight and of its change since
    step 0 (NaN for a zero matrix) and, with record_params, copies of the
    head stacks (A, B), laid out like `UpdateRecord.factors`."""

    step: int
    merge_id: int
    weights: list[Matrix]
    alignment: list[AlignmentReport] | None
    weight_rank: list[float]
    update_rank: list[float]
    params: list[tuple[Matrix, Matrix]] | None = None


@dataclass
class RunResult:
    config: RunConfig
    task: LeastSquaresTask
    network: Network
    losses: np.ndarray  # (steps_run, workers)
    eval_mse: np.ndarray | None  # (steps_run,), population MSE where defined
    merges: list[UpdateRecord]
    snapshots: list[Snapshot]
    manifest: dict
    stopped_at: int | None = None

    @property
    def steps_run(self) -> int:
        return self.losses.shape[0]

    def steps_to_mse(self, threshold: float) -> int | None:
        """First step whose population MSE is <= threshold, or None."""
        if self.eval_mse is None:
            return None
        hits = np.nonzero(self.eval_mse <= threshold)[0]
        return int(hits[0]) + 1 if hits.size else None

    def final_mse(self) -> float | None:
        if self.eval_mse is None or self.eval_mse.size == 0:
            return None
        return float(self.eval_mse[-1])


def local_step(worker: WorkerState, net: Network, batch: Batch) -> float:
    """One optimizer step on the worker's own head through its local view.

    Base weights and other heads are untouched; in exact-correction mode the
    stale corrections B° A° are subtracted inside the forward pass.
    """
    corr = worker.corrections if worker.use_correction else None
    loss = _train_heads(net, worker.opt, batch, Mode.worker(worker.head_index), corr)
    worker.steps_since_merge += 1
    return float(loss)


def _train_heads(net: Network, opt: KeyedOptimizer, batch: Batch, mode: Mode, corrections=None):
    """One loss_and_grad call in `mode`, then one optimizer call, keyed
    HEADS_KEY, for every array the mode trains (`trained_pairs`): every
    layer's W in full mode, else the factors of the mode's one trained term
    (one head, a range of k, or multi mode's stack of all N). They and their
    gradients are gathered head-major: row j holds head j's A and B of
    layer 0, then of layer 1, and so on, flattened, a (k, P) array with
    P = sum over layers of r (n + m), or one (P,) vector for one head or for
    the W's. The result is written back in place. The optimizer is
    element-wise, so row j moves exactly as head j alone would, and its
    moments are row j of the state. Returns the loss, one per slice for a
    stacked batch."""
    loss, grads = loss_and_grad(net, batch, mode, corrections=corrections)
    params, dparams = zip(*trained_pairs(net, mode, grads))
    rows = params[0].shape[:-2]  # (k,) for a stack of k heads, else ()
    flat = [p.reshape(rows + (-1,)) for p in params]
    dflat = [d.reshape(rows + (-1,)) for d in dparams]
    new = opt.step(HEADS_KEY, np.concatenate(flat, axis=-1), np.concatenate(dflat, axis=-1))
    start = 0
    for p, f in zip(params, flat):
        end = start + f.shape[-1]
        p[...] = new[..., start:end].reshape(p.shape)
        start = end
    return loss


def _fold(net: Network, policy: MergePolicy, merge_id: int, step: int,
          init: InitScheme | None, rng: RandomSource | None, stale: list,
          stale_prods: list) -> tuple[UpdateRecord, list[Matrix]]:
    """Fold every head into the base weights, then apply the resets.

    Per layer one GEMM, the merged heads' product P; W becomes
    `effective_weight` given P and the layer's stale product P°
    (`stale_prods`, of the stale stacks `stale`, per layer (A°, B°), both
    None without a correction): the effective weight from before the merge,
    bitwise. Heads are summed in index order, so the result is independent
    of worker scheduling. Returns the record (copies of the heads from
    before the resets, and a copy of the list `stale`) and the products P,
    an exact run's next stale products.
    """
    coefs, factors, prods = [], [], []
    for li, (layer, stale_prod) in enumerate(zip(net.layers, stale_prods)):
        merged = (layer.A.copy(), layer.B.copy())
        prods.append(head_product(*merged))
        layer.W = effective_weight(layer, stale_prod, prods[-1])
        coefs.append(layer.s / layer.num_heads)
        factors.append(merged)
        if policy.reset_B:
            layer.B[...] = 0.0
        if policy.reset_A:
            layer.A[...] = init_stack(layer.num_heads, layer.rank, layer.n, init, rng, merge_id, li)
    return UpdateRecord(merge_id=merge_id, step=step, coefs=coefs, factors=factors,
                        stale=list(stale)), prods


def merge(
    net: Network,
    workers: list[WorkerState],
    policy: MergePolicy,
    merge_id: int = 1,
    step: int = 0,
    init: InitScheme | None = None,
    rng: RandomSource | None = None,
) -> UpdateRecord:
    """Fold every worker's head into the base weights with `_fold`, the
    merge `run` makes, on fresh stacks of the workers' stale corrections and
    their products in exact mode. Then refresh those corrections, clear
    the workers' optimizers (reset_opt) and zero their step counters. Equal
    step counts, full head coverage, use_correction as the policy's
    exact_correction and, in exact mode, every correction's shapes are
    checked before anything is written.
    """
    counts = {w.steps_since_merge for w in workers}
    if len(counts) != 1:
        raise ValueError(f"workers disagree on local step counts: {sorted(counts)}")
    owners = [w.head_index for w in workers]
    if any(owners != list(range(layer.num_heads)) for layer in net.layers):
        raise ValueError("workers must be ordered by head index and cover every head")
    if policy.reset_A and (init is None or rng is None):
        raise ValueError("reset_A needs an init scheme and a random source")
    for w in workers:
        if w.use_correction != policy.exact_correction:  # it would train neither scheme
            raise ValueError(f"worker {w.head_index}: use_correction={w.use_correction} disagrees "
                             f"with policy.exact_correction={policy.exact_correction}")
    if policy.exact_correction:
        for w in workers:
            if len(w.corrections) != len(net.layers):
                raise ValueError(f"worker {w.head_index}: need one correction per layer, "
                                 f"got {len(w.corrections)}")
            for li, layer in enumerate(net.layers):
                problem = correction_mismatch(layer, w.corrections[li], w.head_index)
                if problem:
                    raise ValueError(f"worker {w.head_index}, layer {li}: {problem}")
    stale = stale_prods = [None] * len(net.layers)
    if policy.exact_correction:
        stale = [tuple(np.stack(f) for f in zip(*(w.corrections[li] for w in workers)))
                 for li in range(len(net.layers))]
        stale_prods = [head_product(*pair) for pair in stale]
    rec, _ = _fold(net, policy, merge_id, step, init, rng, stale, stale_prods)
    for w in workers:
        if policy.exact_correction:
            for (a0, b0), (A, B) in zip(w.corrections, rec.factors):
                a0[...], b0[...] = A[w.head_index], B[w.head_index]
        if policy.reset_opt:
            w.opt.reset_states()
        w.steps_since_merge = 0
    return rec


def _build_network(cfg: RunConfig, root: RandomSource, n_heads: int) -> Network:
    layers = []
    for li, (fan_in, fan_out) in enumerate(zip(cfg.arch.dims, cfg.arch.dims[1:])):
        if cfg.arch.w_init == "zeros":
            w = np.zeros((fan_out, fan_in))
        else:
            w = init_matrix(
                fan_out, fan_in, InitScheme(cfg.arch.w_init, cfg.arch.w_gain),
                root.child("w_init", li),
            )
        heads = [LoraHead(A=a, B=np.zeros((fan_out, cfg.rank)))
                 for a in init_stack(n_heads, cfg.rank, fan_in, cfg.init, root, "head_init", li)]
        layers.append(LoraLinear(W=w, alpha=cfg.effective_alpha, heads=heads))
    acts = [cfg.arch.activation] * (len(layers) - 1) + ["identity"]
    return Network(layers, activations=acts, loss=cfg.arch.loss)


def _make_stream(cfg: RunConfig, task: LeastSquaresTask, root: RandomSource, k: int):
    if cfg.dataset.pool is None:
        return IidStream(task, [root.child("worker", i) for i in range(k)])
    x = root.child("pool").standard_normal((task.n, cfg.dataset.pool))
    y = task.W_star @ x
    # the stream takes sample-major copies; making x's and dropping x before
    # y's keeps at most three of the four pool arrays live at once
    xt = np.ascontiguousarray(x.T)
    del x
    return PooledStream(xt, np.ascontiguousarray(y.T), k)


def _population_mse(weights: list[Matrix], task: LeastSquaresTask) -> float:
    """E over x ~ N(0, I) of the batch-mean half squared error of the chain
    of `weights`, which it reads and leaves as they are."""
    prod = weights[0]
    for w in weights[1:]:
        prod = w @ prod
    diff = prod - task.W_star
    diff *= diff
    return 0.5 * float(np.sum(diff))


def _eval_enabled(cfg: RunConfig) -> bool:
    return (
        cfg.dataset.kind == "least_squares"
        and cfg.arch.loss == "mse"
        and cfg.arch.activation == "identity"
    )


def _alignment(net: Network, merged: UpdateRecord | None) -> list[AlignmentReport] | None:
    """Alignment of the heads as trained: on a merge step, of the merge
    record's copies of them, which a reset has not touched."""
    if net.layers[0].num_heads < 2:
        return None
    return [head_alignment(heads) for heads in (merged.factors if merged else net.layers)]


def _guard(step: int, losses: np.ndarray, mse: float | None, weights: list[Matrix] | None) -> None:
    """Raise RunDiverged, naming the step, the quantity and the layer or
    worker, when the step's results are not finite. It reads only what the
    step holds: the population MSE where there is one (a finite MSE vouches
    for the weights it was taken from), else the row of losses and, on a
    snapshot step, the effective weights, before a rank's SVD sees them."""
    if mse is not None and math.isfinite(mse):
        return
    layer = next((li for li, w in enumerate(weights or ()) if not np.isfinite(w).all()), None)
    if mse is not None:
        where = "every layer's is finite" if layer is None else f"layer {layer}'s is not"
        raise RunDiverged(f"step {step}: the population MSE is {mse!r}; of the effective "
                          f"weights, {where}")
    worker = next((j for j, loss in enumerate(losses.tolist()) if not math.isfinite(loss)), None)
    if worker is not None:
        raise RunDiverged(f"step {step}: the training loss of worker {worker} is {losses[worker]}")
    if layer is not None:
        raise RunDiverged(f"step {step}: the snapshot's effective weight of layer {layer} "
                          "is not finite")


def _rank(m: Matrix) -> float:
    """Effective rank, NaN for the zero matrix, where it is undefined."""
    return effective_rank(m) if np.any(m != 0.0) else float("nan")


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # `_guard` reports divergence
def run(cfg: RunConfig) -> RunResult:
    """Train in cfg.mode, in the one loop every mode shares. Each step
    draws one stack from the run's stream and makes one `_train_heads`
    call under one optimizer: in worker mode over all N heads for lte, in
    multi mode over the N shards for lora and mhlora, in full mode on
    slice 0 for full. lte folds its heads into W every merge period
    (`_fold`, with reset_opt clearing the optimizer). In an exact run the
    stale stacks and each layer's stale product P° start at zero and are
    then the last record's factors and the last merge's product P; in any
    other run they are None for every layer.

    Snapshots come at step 0, every snapshot_interval steps and at the last
    step; the default interval is the merge period, or the whole run in
    modes that never merge. Population MSE is evaluated after every step
    where it is defined, and stop_mse ends the run at the first step at or
    under it, with a snapshot of that step. Each step runs in this order:
    the update, the merge, one pass of `effective_weight` over the layers
    given their P° (when a snapshot is due or MSE is evaluated), the
    evaluation, `_guard`, the stop_mse check, the snapshot. All of them read
    that one pass, which no reader writes into and which takes one head
    product per layer, none on an exact merge step, where it is given the
    merge's P (P - P° is exactly zero). A snapshot's alignment is of the
    heads as trained, so on a merge step it comes from the merge record.
    From an all-zero base the accumulated update is the weight itself, and
    its rank is taken once. The guard raises RunDiverged at the first step
    whose results are not finite; numpy's floating-point warnings stay
    quiet for the whole run."""
    cfg.validate()
    root = RandomSource(cfg.seed)
    task = gen_least_squares(cfg.dataset.m, cfg.dataset.n, cfg.dataset.rank, root.child("task"))
    n_heads = 0 if cfg.mode == "full" else cfg.n_heads
    net = _build_network(cfg, root, n_heads)
    k = max(n_heads, 1)
    batch = cfg.batch_size // k
    stream = _make_stream(cfg, task, root, k)
    opt = KeyedOptimizer(cfg.optimizer, cfg.optim)
    mode = {"full": Mode.full(), "lora": Mode.multi(), "mhlora": Mode.multi(),
            "lte": Mode.worker(range(k))}[cfg.mode]
    merging = cfg.mode == "lte"
    exact = merging and cfg.policy.exact_correction
    # per layer: no stale stacks, no stale product, no product a merge took
    unmerged = stale = stale_prods = [None] * len(net.layers)
    if exact:
        stale = [(np.zeros_like(layer.A), np.zeros_like(layer.B)) for layer in net.layers]
        stale_prods = [np.zeros_like(layer.W) for layer in net.layers]
    period = cfg.policy.period
    interval = cfg.snapshot_interval or (period if merging else cfg.total_steps)
    merge_rng = root.child("merge")
    record_params = cfg.record_params and n_heads > 0
    do_eval = _eval_enabled(cfg)

    def effective_weights(prods: list) -> list[Matrix]:
        return [effective_weight(*args) for args in zip(net.layers, stale_prods, prods)]

    base_weights = effective_weights(unmerged)
    # from a base of +0.0 entries w - w0 is bitwise w, so a snapshot's update
    # rank is its weight rank (a -0.0 base entry would turn -0.0 into +0.0)
    zero_base = not any(np.any(w) or np.signbit(w).any() for w in base_weights)
    merges: list[UpdateRecord] = []

    def snapshot(step: int, weights: list[Matrix]) -> Snapshot:
        weight_rank = [_rank(w) for w in weights]
        update_rank = (list(weight_rank) if zero_base
                       else [_rank(w - w0) for w, w0 in zip(weights, base_weights)])
        merged = merges[-1] if merges and merges[-1].step == step else None
        params = [(layer.A.copy(), layer.B.copy()) for layer in net.layers] if record_params else None
        return Snapshot(
            step=step,
            merge_id=len(merges),
            weights=weights,
            alignment=_alignment(net, merged) if step else None,
            weight_rank=weight_rank,
            update_rank=update_rank,
            params=params,
        )

    snapshots = [snapshot(0, base_weights)]
    losses = []
    eval_mse = []
    for step in range(1, cfg.total_steps + 1):
        x, y = stream.next(batch)
        if mode.kind == "full":
            x, y = x[0], y[0]
        # a row of one loss per slice; full mode's one loss is a row of one
        losses.append(np.atleast_1d(_train_heads(net, opt, Batch(x, y), mode, stale)))
        prods = unmerged  # the heads' products, when a merge has just taken them
        if merging and step % period == 0:
            rec, merged_prods = _fold(net, cfg.policy, len(merges) + 1, step, cfg.init,
                                      merge_rng, stale, stale_prods)
            merges.append(rec)
            if exact:  # no reset, so the heads still are the merged copies
                stale, stale_prods, prods = rec.factors, merged_prods, merged_prods
            if cfg.policy.reset_opt:
                opt.reset_states()
        snap_due = step % interval == 0 or step == cfg.total_steps
        weights = effective_weights(prods) if snap_due or do_eval else None
        mse = _population_mse(weights, task) if do_eval else None
        _guard(step, losses[-1], mse, weights)
        eval_mse.append(mse)
        # validate lets stop_mse be set only where there is an MSE
        stopped_at = step if cfg.stop_mse is not None and mse <= cfg.stop_mse else None
        if snap_due or stopped_at:
            snapshots.append(snapshot(step, weights))
        if stopped_at:
            break
    return RunResult(
        config=cfg,
        task=task,
        network=net,
        losses=np.asarray(losses),
        eval_mse=np.asarray(eval_mse) if do_eval else None,
        merges=merges,
        snapshots=snapshots,
        manifest={
            "config": asdict(cfg),
            "code_version": _code_version,
            "n_workers": k,
            "worker_batch": batch,
            "dropped_samples_per_step": cfg.batch_size - batch * k,
        },
        stopped_at=stopped_at,
    )


def run_lte(cfg: RunConfig) -> RunResult:
    """Parallel local training with periodic merging (the bi-level loop)."""
    if cfg.mode != "lte":
        raise ConfigError(f"mode: run_lte needs mode 'lte', got {cfg.mode!r}")
    return run(cfg)


def run_mhlora(cfg: RunConfig) -> RunResult:
    """Joint multi-head training, the T = 1 oracle for the bi-level loop;
    with N = 1 this is plain single-adapter training."""
    if cfg.mode not in ("lora", "mhlora"):
        raise ConfigError(f"mode: run_mhlora needs mode 'lora' or 'mhlora', got {cfg.mode!r}")
    return run(cfg)


def run_full(cfg: RunConfig) -> RunResult:
    """Standard training of the base weights themselves (no heads)."""
    if cfg.mode != "full":
        raise ConfigError(f"mode: run_full needs mode 'full', got {cfg.mode!r}")
    return run(cfg)

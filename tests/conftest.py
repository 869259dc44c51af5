"""Shared builders for runner-level tests."""

from ltelab.lte import ArchSpec, DatasetSpec, MergePolicy, RunConfig
from ltelab.numerics import InitScheme
from ltelab.optim import OptimConfig


def ls_config(
    mode="lte",
    dim=16,
    task_rank=None,
    n_heads=2,
    rank=2,
    alpha=None,
    period=1,
    optimizer="sgd",
    eta=0.05,
    policy=None,
    batch_size=16,
    total_steps=50,
    snapshot_interval=None,
    seed=0,
    init_kind="semi_orthogonal",
    **kwargs,
):
    """Least-squares run config with small defaults; kwargs pass through."""
    return RunConfig(
        mode=mode,
        dataset=DatasetSpec(m=dim, n=dim, rank=task_rank or dim),
        arch=ArchSpec(dims=(dim, dim)),
        n_heads=n_heads,
        rank=rank,
        alpha=alpha,
        optimizer=optimizer,
        optim=OptimConfig(eta=eta),
        policy=policy or MergePolicy(period=period),
        batch_size=batch_size,
        total_steps=total_steps,
        snapshot_interval=snapshot_interval,
        seed=seed,
        init=InitScheme(init_kind),
        **kwargs,
    )


def exact_policy(period=1, reset_opt=False):
    return MergePolicy(
        period=period, reset_B=False, reset_A=False, reset_opt=reset_opt,
        exact_correction=True,
    )


# Runs that leave the finite numbers, as dicts for config_from_dict: an
# identity chain whose population MSE overflows, and a ReLU mhlora run at
# eta 50 whose weights do, with no population MSE to watch
DIVERGING_CONFIGS = {
    "identity_chain": {
        "mode": "lte", "dataset": {"m": 2, "n": 2, "rank": 2, "pool": 4},
        "arch": {"dims": [2, 2, 3, 2], "w_init": "kaiming"},
        "N": 1, "r": 1, "T": 3, "optimizer": "sgd", "optim": {"eta": 0.05},
        "batch_size": 1, "total_steps": 2000, "seed": 0,
    },
    "relu_mhlora": {
        "mode": "mhlora", "dataset": {"m": 8, "n": 8, "rank": 8},
        "arch": {"dims": [8, 8, 8], "activation": "relu", "w_init": "kaiming"},
        "N": 4, "r": 4, "optim": {"eta": 50}, "batch_size": 16, "total_steps": 60, "seed": 0,
    },
}

"""Fingerprint the outputs of a grid of small runs and of the benchmark
workloads, to check that a change keeps every output byte.

Each run's fingerprint hashes `RunResult.losses` and `eval_mse`, every
snapshot's step, ranks, weights, alignment and recorded head stacks, and
every byte `write_run_artifacts` writes; a run that raises RunDiverged is
fingerprinted by its message. The grid covers every mode; averaged,
`reset_A` and exact merges; iid and pooled data; SGD and AdamW; 1-3
layers; identity and ReLU gaps; two snapshot intervals; `record_params`;
and, for a third of the runs with a population MSE, `stop_mse` thresholds
that first hold on each kind of step (snapshot or not, merge or not). The
three benchmark workloads run at training seeds 0-3, 1729 and 6916-6919.

Run it once per tree, at one BLAS thread, and compare the two files:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=TREE/src python tools/output_fingerprints.py OUT.json

The workloads come from the `ltebench/` beside the `src/` that ltelab is
imported from.
"""

import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

import ltelab
from ltelab import lte
from ltelab.artifacts import write_run_artifacts

sys.path.insert(0, str(Path(ltelab.__file__).resolve().parents[2] / "ltebench"))
from workloads import WORKLOADS, config_dict, training_seeds  # noqa: E402


def fingerprint(raw: dict) -> dict:
    try:
        with np.errstate(all="ignore"):
            res = lte.run(lte.config_from_dict(raw))
    except lte.RunDiverged as exc:
        return {"diverged": str(exc)}
    h = hashlib.sha256()
    h.update(res.losses.tobytes())
    h.update(b"-" if res.eval_mse is None else res.eval_mse.tobytes())
    for s in res.snapshots:
        h.update(repr((s.step, s.merge_id, s.weight_rank, s.update_rank)).encode())
        for w in s.weights:
            h.update(w.tobytes())
        for a in s.alignment or ():
            h.update(repr(a).encode())
        for A, B in s.params or ():
            h.update(A.tobytes())
            h.update(B.tobytes())
    with tempfile.TemporaryDirectory() as d:
        write_run_artifacts(res, d)
        for root, _, files in sorted(os.walk(d)):
            for f in sorted(files):
                path = os.path.join(root, f)
                h.update(os.path.relpath(path, d).encode())
                h.update(Path(path).read_bytes())
    return {"hash": h.hexdigest(), "steps": res.steps_run, "stopped_at": res.stopped_at}


def grid() -> list[dict]:
    base = {"dataset": {"m": 6, "n": 6, "rank": 3}, "batch_size": 12, "total_steps": 24, "r": 2}
    raws = []
    for mode, layers, act, opt, pool, snap, record in itertools.product(
            ["full", "lora", "mhlora", "lte"], [1, 2, 3], ["identity", "relu"], ["sgd", "adamw"],
            [None, 40], [None, 5], [False, True]):
        if act == "relu" and layers == 1:
            continue
        arch = {"dims": [6] + [5] * (layers - 1) + [6], "activation": act,
                "w_init": "zeros" if layers == 1 and opt == "sgd" else "kaiming"}
        policies = [{}]
        if mode == "lte":
            policies = [{"reset_B": True}, {"reset_B": True, "reset_A": True, "reset_opt": True},
                        {"reset_B": False, "exact_correction": True}]
        for policy in policies:
            raws.append(dict(base, mode=mode, arch=arch, optimizer=opt,
                             optim={"eta": 0.05 if opt == "sgd" else 0.01},
                             dataset=dict(base["dataset"], pool=pool), policy=policy,
                             N=1 if mode in ("lora", "full") else 3, T=3,
                             snapshot_interval=snap, record_params=record, seed=len(raws)))
    return raws


def with_stops(raws: list[dict]) -> list[dict]:
    """stop_mse variants: per run, the first step of each kind (snapshot
    step or not, merge step or not) whose MSE is below every earlier one."""
    stops = []
    for raw in raws:
        if raw["arch"]["activation"] != "identity" or raw["seed"] % 3:
            continue
        cfg = lte.config_from_dict(raw)
        try:
            with np.errstate(all="ignore"):
                mse = lte.run(cfg).eval_mse
        except lte.RunDiverged:
            continue
        merging = cfg.mode == "lte"
        interval = cfg.snapshot_interval or (cfg.policy.period if merging else cfg.total_steps)
        first = {}
        for s in range(2, cfg.total_steps):
            if 0 < mse[s - 1] < mse[:s - 1].min():
                first.setdefault((s % interval == 0, merging and s % cfg.policy.period == 0), s)
        stops += [dict(raw, stop_mse=float(mse[s - 1])) for s in first.values()]
    return stops


def main(out: str) -> None:
    raws = grid()
    raws += with_stops(raws)
    for workload in WORKLOADS.values():
        for seed in training_seeds(0) + [1729] + training_seeds(1729):
            raws.append(config_dict(workload, seed))
    results = [{"config": raw, **fingerprint(raw)} for raw in raws]
    with open(out, "w", encoding="ascii") as fh:
        json.dump(results, fh, indent=0, sort_keys=True)
    print(f"{len(results)} runs, {sum(r.get('stopped_at') is not None for r in results)} "
          f"stopped by stop_mse, {sum('diverged' in r for r in results)} diverged")


if __name__ == "__main__":
    main(sys.argv[1])

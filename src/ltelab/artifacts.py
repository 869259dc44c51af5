"""Reproducible run artifacts: manifest, metrics, snapshots, analysis tables.

Everything written here is a deterministic function of the run result, which
is itself a deterministic function of the configuration and seed, so a rerun
with identical inputs reproduces every file byte for byte. Floats are
rendered with shortest round-trip decimals.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .analysis import DeviationTrace
from .lte import RunResult
from .network import combine, head_product
from .numerics import frobenius, save_matrix_csv

METRICS_COLUMNS = (
    "step", "merge_id", "worker_id", "loss",
    "eff_weight_dev", "update_eff_rank", "mean_cosine", "mean_grassman",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _nanmean(values) -> float:
    vals = [v for v in values if not math.isnan(v)]
    return sum(vals) / len(vals) if vals else float("nan")


def write_manifest(result: RunResult, outdir: str | os.PathLike) -> None:
    path = os.path.join(os.fspath(outdir), "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        # a validated config may hold numpy scalars: written as their Python values
        json.dump(result.manifest, fh, indent=2, sort_keys=True, default=np.generic.item)
        fh.write("\n")


def write_metrics_csv(result: RunResult, outdir: str | os.PathLike) -> None:
    """One row per (step, worker). Analysis columns are filled on snapshot
    steps and empty elsewhere:

      eff_weight_dev   Frobenius norm of the effective-weight change since
                       step 0, summed over layers
      update_eff_rank  effective rank of that change, averaged over layers
      mean_cosine      mean off-diagonal head cosine, averaged over layers
      mean_grassman    mean pairwise Grassman distance, averaged over layers
    """
    by_step = {}
    base = result.snapshots[0].weights
    for snap in result.snapshots:
        if snap.step == 0:
            continue
        dev = sum(frobenius(w - w0) for w, w0 in zip(snap.weights, base))
        rank = _nanmean(snap.update_rank)
        if snap.alignment is None:
            cos = gr = float("nan")
        else:
            cos = _nanmean([a.mean_cosine for a in snap.alignment])
            gr = _nanmean([a.mean_grassman_pairs for a in snap.alignment])
        by_step[snap.step] = (dev, rank, cos, gr)

    merge_steps = [rec.step for rec in result.merges]
    path = os.path.join(os.fspath(outdir), "metrics.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        merge_idx = 0
        for si in range(result.steps_run):
            step = si + 1
            while merge_idx < len(merge_steps) and merge_steps[merge_idx] <= step:
                merge_idx += 1
            extras = by_step.get(step)
            tail = (
                ",".join(_fmt(v) for v in extras) if extras is not None else ",,,"
            )
            for worker in range(result.losses.shape[1]):
                loss = result.losses[si, worker]
                fh.write(f"{step},{merge_idx},{worker},{_fmt(loss)},{tail}\n")


def write_snapshots(result: RunResult, outdir: str | os.PathLike) -> None:
    snapdir = os.path.join(os.fspath(outdir), "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    for snap in result.snapshots:
        for li, w in enumerate(snap.weights):
            save_matrix_csv(w, os.path.join(snapdir, f"step{snap.step:08d}_layer{li}.csv"))


def write_analysis_csv(result: RunResult, outdir: str | os.PathLike) -> None:
    """Long-form analysis table: one row per (snapshot step, layer, metric)."""
    path = os.path.join(os.fspath(outdir), "analysis.csv")
    base = result.snapshots[0].weights
    with open(path, "w", encoding="ascii") as fh:
        fh.write("step,layer,metric,value\n")

        def emit(step, layer, metric, value):
            text = _fmt(value)
            if text:
                fh.write(f"{step},{layer},{metric},{text}\n")

        for snap in result.snapshots:
            for li, w in enumerate(snap.weights):
                emit(snap.step, li, "eff_weight_change_fro", frobenius(w - base[li]))
                emit(snap.step, li, "weight_eff_rank", snap.weight_rank[li])
                emit(snap.step, li, "update_eff_rank", snap.update_rank[li])
                if snap.alignment is not None:
                    rep = snap.alignment[li]
                    emit(snap.step, li, "mean_cosine", rep.mean_cosine)
                    emit(snap.step, li, "mean_grassman_pairs", rep.mean_grassman_pairs)
                    emit(snap.step, li, "mean_grassman_scaled", rep.mean_grassman_scaled)
        # each record's `delta`, one head product per layer: an exact record's
        # stale stacks are the previous record's factors, so its P° is their P
        prev_factors = prev_prods = [None] * len(base)
        for rec in result.merges:
            prods = [head_product(A, B) for A, B in rec.factors]
            for li, (c, P, stale) in enumerate(zip(rec.coefs, prods, rec.stale)):
                if stale is not None:
                    stale = prev_prods[li] if stale is prev_factors[li] else head_product(*stale)
                emit(rec.step, li, "merge_delta_fro", frobenius(combine(c, P, stale)))
            prev_factors, prev_prods = rec.factors, prods


def write_run_artifacts(result: RunResult, outdir: str | os.PathLike) -> None:
    """manifest.json, metrics.csv, snapshots/, analysis.csv under outdir."""
    outdir = os.fspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    write_manifest(result, outdir)
    write_metrics_csv(result, outdir)
    write_snapshots(result, outdir)
    write_analysis_csv(result, outdir)


def write_deviation_artifacts(
    trace: DeviationTrace, outdir: str | os.PathLike, summary_extra: dict | None = None
) -> None:
    """deviation.csv (per step and layer, plus the 'all' sum) and summary.json."""
    outdir = os.fspath(outdir)
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "deviation.csv"), "w", encoding="ascii") as fh:
        fh.write("step,layer,deviation\n")
        for si, step in enumerate(trace.steps):
            for li in range(trace.per_layer.shape[1]):
                fh.write(f"{int(step)},{li},{_fmt(trace.per_layer[si, li])}\n")
            fh.write(f"{int(step)},all,{_fmt(trace.total[si])}\n")
    summary = {
        "max_deviation": float(trace.total.max()),
        "mean_deviation": float(trace.total.mean()),
        "snapshots": int(trace.steps.size),
    }
    if summary_extra:
        summary.update(summary_extra)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

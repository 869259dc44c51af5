"""Reproducible run artifacts: manifest, metrics, snapshots, analysis tables.

Everything written here is a deterministic function of the run result, which
is itself a deterministic function of the configuration and seed, so a rerun
with identical inputs reproduces every file byte for byte. Floats are
rendered with shortest round-trip decimals.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os

import numpy as np

from .analysis import DeviationTrace, merge_deltas
from .lte import RunResult
from .numerics import frobenius, save_matrix_csv

METRICS_COLUMNS = (
    "step", "merge_id", "worker_id", "loss",
    "eff_weight_dev", "update_eff_rank", "mean_cosine", "mean_grassman",
)
_LOSS_BLOCK_CELLS = 256  # losses `_loss_cells` formats in one pass


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

    The bytes do not depend on how rows are assembled: a loss cell is the
    `_fmt` of the loss whether it is formatted alone or, as here, in one
    pass over a block of losses, and each step's rows are written as one
    string.
    """
    tails = {}  # snapshot step -> its rows' text after the loss
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
        tails[snap.step] = "," + ",".join(map(_fmt, (dev, rank, cos, gr))) + "\n"

    merge_ids = np.searchsorted([rec.step for rec in result.merges],
                                np.arange(1, result.steps_run + 1), side="right").tolist()
    path = os.path.join(os.fspath(outdir), "metrics.csv")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(METRICS_COLUMNS) + "\n")
        for step, (merge_id, cells) in enumerate(zip(merge_ids, _loss_cells(result.losses)), 1):
            tail = tails.get(step, ",,,,\n")
            prefix = f"{step},{merge_id},"
            fh.write(prefix + (tail + prefix).join(cells) + tail)


def _loss_cells(losses: np.ndarray):
    """Each step's "worker,loss" cells, the loss as `_fmt` writes it. They
    are formatted a block of steps at a time, by the repr of the block's
    list of losses, which writes each float as repr(float) does and NaN as
    "nan"; a block bounds the memory the text takes."""
    n_steps, k = losses.shape
    ids = [f"{w}," for w in range(k)]
    block = max(1, _LOSS_BLOCK_CELLS // k)
    for start in range(0, n_steps, block):
        text = repr(losses[start:start + block].ravel().tolist())[1:-1].replace("nan", "")
        cells = list(map(operator.add, itertools.cycle(ids), text.split(", ")))
        for i in range(0, len(cells), k):
            yield cells[i:i + k]


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
        for rec, deltas in zip(result.merges, merge_deltas(result.merges)):
            for li, d in enumerate(deltas):
                emit(rec.step, li, "merge_delta_fro", frobenius(d))


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

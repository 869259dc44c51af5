import math
import os
import tempfile
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ltelab.artifacts import METRICS_COLUMNS, _fmt, _nanmean, write_metrics_csv
from ltelab.numerics import frobenius

SPECIAL_LOSSES = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5)


def reference_metrics_csv(result, outdir):
    """metrics.csv written row by row and cell by cell, each loss through
    `_fmt`: the writer's bytes are these."""
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


def _stub_snapshot(step, rng, weights_nan, rank_nan, alignment):
    weights = [np.full((2, 3), np.nan) if weights_nan else rng.standard_normal((2, 3)),
               rng.standard_normal((3, 3))]
    update_rank = [math.nan, math.nan] if rank_nan else [1.5, math.nan]
    if alignment:
        alignment = [SimpleNamespace(mean_cosine=0.25, mean_grassman_pairs=math.nan),
                     SimpleNamespace(mean_cosine=math.nan, mean_grassman_pairs=1e-5)]
    return SimpleNamespace(step=step, weights=weights, update_rank=update_rank,
                           alignment=alignment or None)


@st.composite
def run_stubs(draw):
    """RunResult-shaped stubs: 1-60 steps of k = 1-9 losses mixing the
    special values with any float, merges at any steps, and snapshots at
    step 0, at the last step and at any others, with NaN extras and
    alignment None among them."""
    k = draw(st.integers(1, 9))
    n_steps = draw(st.integers(1, 60))
    loss = st.one_of(st.sampled_from(SPECIAL_LOSSES), st.floats())
    losses = np.array(draw(st.lists(loss, min_size=n_steps * k, max_size=n_steps * k)),
                      dtype=float).reshape(n_steps, k)
    merge_steps = sorted(draw(st.lists(st.integers(1, n_steps), max_size=8)))
    snap_steps = sorted({0, n_steps} | draw(st.sets(st.integers(1, n_steps), max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    snapshots = [_stub_snapshot(step, rng, *draw(st.tuples(st.booleans(), st.booleans(),
                                                           st.booleans())))
                 for step in snap_steps]
    snapshots[0].weights = [np.zeros((2, 3)), np.zeros((3, 3))]
    return SimpleNamespace(losses=losses, steps_run=n_steps, snapshots=snapshots,
                           merges=[SimpleNamespace(step=s) for s in merge_steps])


def _written(writer, result) -> bytes:
    with tempfile.TemporaryDirectory() as outdir:
        writer(result, outdir)
        with open(os.path.join(outdir, "metrics.csv"), "rb") as fh:
            return fh.read()


class TestMetricsCsv:
    @settings(max_examples=150, deadline=None)
    @given(run_stubs())
    def test_bytes_equal_the_row_by_row_writer(self, result):
        assert _written(write_metrics_csv, result) == _written(reference_metrics_csv, result)

    def test_special_losses(self):
        # NaN leaves its cell empty; the others are written as repr writes them
        k = len(SPECIAL_LOSSES)
        base = SimpleNamespace(step=0, weights=[np.zeros((1, 1))], update_rank=[math.nan],
                               alignment=None)
        result = SimpleNamespace(losses=np.array([SPECIAL_LOSSES]), steps_run=1, merges=[],
                                 snapshots=[base])
        rows = _written(write_metrics_csv, result).decode().splitlines()[1:]
        assert [row.split(",")[3] for row in rows] == ["", "inf", "-inf", "-0.0", "5e-324",
                                                         "1e+16", "1e-05"]
        assert [row.split(",")[2] for row in rows] == [str(w) for w in range(k)]

"""Measurement, output checks and reporting for one workload (see run.py).

End-to-end run (trace off): the only instrumentation is one timestamp per
training step, taken at the step's first `loss_and_grad` call. Traced run: a
Tracer wraps the package functions listed in TRACED, alternating traced with
untraced repetitions so the tracing overhead is measured on the same machine
state. Both check every repetition's outputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace

import numpy as np

from ltelab import artifacts, lte
from run import BLAS_THREADS, HERE, ROOT
from tracing import Tracer
from workloads import (
    HELD_OUT_SEED, NOT_MEASURED, REFERENCE_RTOL, SUBSEEDS, Workload, config_dict, final_quantity,
    steps_to_target, training_seeds,
)

SETUP_PROBES = 9
# Each untraced run times write_run_artifacts at least ARTIFACT_MIN_WRITES
# times and for at least ARTIFACT_MIN_S, so that artifacts_s has several
# samples per run also where one write takes a second (lte-wide-exact).
ARTIFACT_MIN_WRITES = 3
ARTIFACT_MIN_S = 0.5
P99_SAMPLES = 1000
# Shares of the slowest samples the end-to-end time figures are taken from
# (see measure_e2e): of the step windows and the artifact writes, which
# number from a dozen to thousands, and of the SETUP_PROBES set-up probes.
SLOW_SHARE = 0.1
SLOW_PROBES = 0.25
WARMUP_STEPS = 50
PROBE_TIMEOUT_S = 60

# (module, function, metric prefix), wrapped at every binding in the package.
TRACED = (
    ("ltelab.lte", "run", "lte.run"),
    ("ltelab.lte", "local_step", "lte.local_step"),
    ("ltelab.network", "loss_and_grad", "network.loss_and_grad"),
    ("ltelab.network", "forward", "network.forward"),
    ("ltelab.lte", "merge", "lte.merge"),
    ("ltelab.numerics", "init_matrix", "numerics.init_matrix"),
    ("ltelab.data", "sample_batch", "data.sample_batch"),
    ("ltelab.lte", "PooledStream.next", "lte.PooledStream.next"),
    ("ltelab.optim", "sgd_step", "optim.sgd_step"),
    ("ltelab.optim", "adamw_step", "optim.adamw_step"),
    ("ltelab.numerics", "as_matrix", "numerics.as_matrix"),
    ("ltelab.analysis", "effective_rank", "analysis.effective_rank"),
    ("ltelab.analysis", "head_alignment", "analysis.head_alignment"),
    ("ltelab.artifacts", "write_manifest", "artifacts.write_manifest"),
    ("ltelab.artifacts", "write_metrics_csv", "artifacts.write_metrics_csv"),
    ("ltelab.artifacts", "write_snapshots", "artifacts.write_snapshots"),
    ("ltelab.artifacts", "write_analysis_csv", "artifacts.write_analysis_csv"),
)

E2E_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "step_ms_p50": "ms",
    "step_ms_p99": "ms",
    "time_to_target_s": "s",
    "steps_to_target": "steps",
    "artifacts_s": "s",
    "peak_rss_mb": "MiB",
}

clock = time.perf_counter


class StepClock:
    """Stamps the first `loss_and_grad` call of every training step.

    Replaces the binding the runners call (`ltelab.lte.loss_and_grad`).
    calls_per_step is learnt from the warm-up run, so the clock keeps working
    if a runner changes how many calls one step makes."""

    def __init__(self):
        self.stamps: list[float] = []
        self.calls = 0
        self.calls_per_step = 1
        self._original = lte.loss_and_grad

        def stamped(*args, **kwargs):
            if self.calls % self.calls_per_step == 0:
                self.stamps.append(clock())
            self.calls += 1
            return self._original(*args, **kwargs)

        lte.loss_and_grad = stamped

    def reset(self) -> None:
        self.stamps = []
        self.calls = 0

    def remove(self) -> None:
        lte.loss_and_grad = self._original


class Repetitions:
    """Runs the workload, rotating through the training seeds of one
    benchmark seed, and checks each run's outputs; a failed check is counted
    and reported, never raised."""

    def __init__(self, workload: Workload, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.cfgs = [lte.config_from_dict(config_dict(workload, s)) for s in training_seeds(seed)]
        self.scratch = scratch
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            self.references = json.load(fh)["workloads"][workload.name]["seeds"]
        self.runs = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_runs: set[int] = set()
        self._first = {}  # training seed -> (losses, artifact digest) of its first run

    def fail(self, what: str) -> None:
        """Record a problem with the current run (counted once per run)."""
        self.failures.append(what)
        self.failed_runs.add(self.attempted)
        print(f"FAIL {self.workload.name} seed {self.seed} run {self.attempted}: {what}", flush=True)

    def warmup(self) -> int | None:
        """A short untimed run that loads caches and lazy imports; returns
        its step count, or None when it raised."""
        cfg = replace(self.cfgs[0], total_steps=WARMUP_STEPS, stop_mse=None)
        self.attempted += 1
        try:
            result = lte.run(cfg)
            self._write(result)
        except Exception as exc:  # a benchmark run must report, not abort
            traceback.print_exc()
            self.fail(f"warm-up raised {type(exc).__name__}: {exc}")
            return None
        return result.steps_run

    def run(self, index: int | None = None, min_writes: int = 1, min_write_s: float = 0.0):
        """One closed-loop iteration on training seed `index` (by default the
        next in rotation).

        Returns (result, t0, t1, artifact_seconds), or None when the run
        raised. t0..t1 is lte.run. write_run_artifacts is then timed, into
        an emptied directory each time, at least min_writes times and until
        min_write_s has been measured."""
        cfg = self.cfgs[self.runs % len(self.cfgs) if index is None else index]
        self.runs += 1
        self.attempted += 1
        try:
            t0 = clock()
            result = lte.run(cfg)
            t1 = clock()
            writes = [self._write(result)]
            while len(writes) < min_writes or sum(writes) < min_write_s:
                writes.append(self._write(result))
        except Exception as exc:  # a benchmark run must report, not abort
            traceback.print_exc()
            self.fail(f"raised {type(exc).__name__}: {exc}")
            return None
        try:
            problems = self._check(result)
        except (OSError, ValueError, KeyError, IndexError) as exc:  # unreadable artifacts
            problems = [f"output check raised {type(exc).__name__}: {exc}"]
        for problem in problems:
            self.fail(problem)
        return result, t0, t1, writes

    def _write(self, result) -> float:
        shutil.rmtree(self.scratch, ignore_errors=True)
        t = clock()
        artifacts.write_run_artifacts(result, self.scratch)
        return clock() - t

    def _check(self, result) -> list[str]:
        seed = result.config.seed
        problems = _finite_problems(result)
        if steps_to_target(result, self.workload) is None:
            problems.append("quality target not reached")
        if self.workload.signal == "population_mse":
            problems += _eval_problems(result)
        reference = self.references.get(str(seed))
        if reference is not None:
            got = final_quantity(result, self.workload)
            if not math.isclose(got, reference, rel_tol=REFERENCE_RTOL):
                problems.append(
                    f"training seed {seed}: final quantity {got!r} differs from the "
                    f"reference {reference!r} by more than rtol {REFERENCE_RTOL}"
                )
        digest = _tree_digest(self.scratch)
        first = self._first.get(seed)
        if first is None:
            problems += _artifact_problems(result, self.scratch, seed)
            self._first[seed] = (result.losses, digest)
        else:
            if not np.array_equal(result.losses, first[0]):
                problems.append(f"training seed {seed}: losses differ from its first run")
            if digest != first[1]:
                problems.append(f"training seed {seed}: artifacts differ byte-wise from its first run")
        return problems

    @property
    def references_checked(self) -> bool:
        return all(str(cfg.seed) in self.references for cfg in self.cfgs)


def _finite_problems(result) -> list[str]:
    problems = []
    if not np.isfinite(result.losses).all():
        problems.append("non-finite training loss")
    if result.eval_mse is not None and not np.isfinite(result.eval_mse).all():
        problems.append("non-finite population MSE")
    return problems


def _eval_problems(result) -> list[str]:
    """Population MSE recomputed from the final snapshot's weights."""
    snap = result.snapshots[-1]
    if snap.step != result.steps_run:
        return [f"last snapshot is at step {snap.step}, not the final step {result.steps_run}"]
    prod = snap.weights[0]
    for w in snap.weights[1:]:
        prod = w @ prod
    diff = prod - result.task.W_star
    mse = 0.5 * float(np.sum(diff * diff))
    if not math.isclose(mse, result.final_mse(), rel_tol=1e-9):
        return [f"final population MSE {result.final_mse()!r} disagrees with the snapshot ({mse!r})"]
    return []


def _artifact_problems(result, outdir: str, seed: int) -> list[str]:
    """manifest seed, metrics.csv losses and the final snapshot's CSVs read
    back equal to the result (earlier snapshots are covered by the byte
    comparison between runs of one seed)."""
    problems = []
    with open(os.path.join(outdir, "manifest.json"), encoding="ascii") as fh:
        if json.load(fh)["config"]["seed"] != seed:
            problems.append("manifest.json records another seed")
    with open(os.path.join(outdir, "metrics.csv"), encoding="ascii") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    losses = np.array([float(row[3]) for row in rows])
    if not np.array_equal(losses, result.losses.ravel()):
        problems.append("metrics.csv losses do not read back equal to the run's losses")
    snap = result.snapshots[-1]
    for li, w in enumerate(snap.weights):
        path = os.path.join(outdir, "snapshots", f"step{snap.step:08d}_layer{li}.csv")
        if not os.path.isfile(path):
            problems.append(f"missing snapshot {os.path.basename(path)}")
        elif not np.array_equal(np.loadtxt(path, delimiter=",", ndmin=2), w):
            problems.append(f"snapshot {os.path.basename(path)} does not read back equal")
    return problems


def _tree_digest(outdir: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(outdir):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, outdir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _tree_bytes(outdir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, filenames in os.walk(outdir)
        for name in filenames
    )


def setup_seconds(reps: Repetitions) -> float | None:
    """Fresh interpreter start to the first training step, in seconds; None
    (and a counted failure) when the probe fails."""
    reps.attempted += 1
    probe = os.path.join(HERE, "setup_probe.py")
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, probe, ROOT, reps.workload.name, str(reps.cfgs[0].seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        return float(done.stdout.strip()) - start
    except (subprocess.SubprocessError, ValueError) as exc:
        reps.fail(f"set-up probe failed: {exc}")
        return None


def gflop_per_step(cfg) -> float:
    """Matrix-multiply work of one step's forward and backward passes, in
    GFLOP, computed from layer shapes, mode, N and batch (not measured).
    Element-wise work is not counted."""
    n_heads, r = cfg.n_heads, cfg.rank
    b = cfg.batch_size // n_heads
    corr = cfg.policy.exact_correction and cfg.mode == "lte"
    flop = 0
    for li, (n, m) in enumerate(zip(cfg.arch.dims, cfg.arch.dims[1:])):
        dense = 2 * m * n * b                                 # W x, and W^T u
        head_fwd = 2 * r * n * b + 2 * m * r * b              # B (A x)
        head_grad = 2 * r * n * b + 2 * m * r * b + 2 * r * m * b + 2 * r * n * b  # A x, dB, B^T u, dA
        head_back = 2 * r * m * b + 2 * n * r * b             # A^T (B^T u)
        if cfg.mode == "lte":  # one worker view per call
            call = dense * (1 + corr) + head_fwd + head_grad
            if li > 0:
                call += dense * (1 + corr) + head_back
        elif cfg.mode == "mhlora":  # every head forward, one head's gradients
            call = dense + n_heads * head_fwd + head_grad
            if li > 0:
                call += dense + n_heads * head_back
        else:
            raise ValueError(f"no FLOP model for mode {cfg.mode!r}")
        flop += n_heads * call
    return flop / 1e9


def fingerprint(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    srcdir = os.path.join(ROOT, "src", "ltelab")
    for name in sorted(os.listdir(srcdir)):
        if name.endswith(".py"):
            with open(os.path.join(srcdir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
        "training_seeds": training_seeds(seed),
        "held_out_seed": HELD_OUT_SEED,
    }


def _timed_run(reps: Repetitions, step_clock: StepClock) -> dict | None:
    """One end-to-end run reduced to its timings; the run result (hundreds
    of MB on lte-wide-exact) is dropped before the next run starts."""
    step_clock.reset()
    out = reps.run(min_writes=ARTIFACT_MIN_WRITES, min_write_s=ARTIFACT_MIN_S)
    if out is None:
        return None
    result, t0, t1, writes = out
    stamps = np.asarray(step_clock.stamps)
    if stamps.size != result.steps_run:
        reps.fail(f"step clock saw {stamps.size} of {result.steps_run} steps")
        return None
    return {
        "seed": result.config.seed,
        "steps": result.steps_run,
        "run_s": t1 - t0,
        "writes": writes,
        "intervals": np.diff(stamps),
        "steps_to_target": steps_to_target(result, reps.workload),
    }


def slow_median(values, share: float) -> float:
    """Median of the largest `share` of the values (at least one of them)."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(np.median(v[-max(1, math.ceil(share * v.size)):]))


def _windows(runs: list[dict], window: int) -> np.ndarray:
    """Step intervals of every run cut into whole windows of `window`
    consecutive steps, one row per window (an incomplete last window is
    dropped)."""
    rows = []
    for r in runs:
        n = r["intervals"].size // window
        rows.append(r["intervals"][: n * window].reshape(n, window))
    return np.concatenate(rows)


def _slow_windows(windows: np.ndarray) -> np.ndarray:
    """The SLOW_SHARE of the windows with the slowest median step, or more of
    them until they hold P99_SAMPLES step intervals. The median ignores a
    window's merge or snapshot step and single stalls, so it tells the
    host's state."""
    n = max(1, math.ceil(SLOW_SHARE * len(windows)), math.ceil(P99_SAMPLES / windows.shape[1]))
    order = np.argsort(np.median(windows, axis=1))
    return windows[order[-min(n, len(windows)):]]


def measure_e2e(reps: Repetitions, seconds: float) -> tuple[dict, dict]:
    """Closed loop of untraced runs for `seconds` and at least one per
    training seed. The set-up probes are interleaved with the runs, so that
    they sample the whole invocation; those left over run at the end."""
    deadline = clock() + seconds
    setup_seconds(reps)  # compiles .pyc files on a fresh checkout; not counted
    step_clock = StepClock()
    runs, setup = [], []
    probes_left = SETUP_PROBES
    try:
        warm_steps = reps.warmup()
        if warm_steps is not None:
            per_step, rest = divmod(step_clock.calls, warm_steps)
            if rest or not per_step:
                reps.fail(f"{step_clock.calls} loss_and_grad calls over {warm_steps} steps")
            step_clock.calls_per_step = max(per_step, 1)
        # Stop before an iteration that would end past the deadline.
        iteration_s = 0.0
        while reps.runs < SUBSEEDS or clock() + iteration_s < deadline:
            start = clock()
            if probes_left:
                probes_left -= 1
                setup.append(setup_seconds(reps))
            run = _timed_run(reps, step_clock)
            if run is not None:
                runs.append(run)
            iteration_s = clock() - start
    finally:
        step_clock.remove()
    setup += [setup_seconds(reps) for _ in range(probes_left)]
    setup = [value for value in setup if value is not None]
    if not runs:
        return {}, {}

    # On a shared host the CPU switches between a slow and a fast state (up
    # to twice as fast for this code) every half second to few seconds.
    # Means and medians over a run move with the share of fast time, which
    # differs from one invocation to the next (from a tenth to nine tenths);
    # the slow state is the one every invocation sees. So every time figure
    # comes from the slowest of its samples. The step figures come from the
    # slow step windows (see _slow_windows; a window is workload.window
    # consecutive steps, a whole number of merge and snapshot periods, so
    # every window does the same work): steps_per_s from their median
    # duration, step_ms_p50 and step_ms_p99 from their step intervals.
    # artifacts_s is the median of the slowest SLOW_SHARE of the artifact
    # writes, setup_s that of the slowest SLOW_PROBES of the set-up probes.
    # steps_to_target is exact: the median over the training seeds;
    # time_to_target_s is the time those steps take at steps_per_s (every
    # step before and after the target does the same work).
    window = reps.workload.window
    windows = _windows(runs, window)
    slow = _slow_windows(windows)
    seed_steps = {r["seed"]: r["steps_to_target"] for r in runs if r["steps_to_target"] is not None}
    k = statistics.median(seed_steps.values()) if seed_steps else None
    writes = [w for r in runs for w in r["writes"]]
    steps_per_s = window / float(np.median(slow.sum(axis=1)))
    metrics = {
        "setup_s": slow_median(setup, SLOW_PROBES) if setup else None,
        "steps_per_s": steps_per_s,
        "step_ms_p50": float(np.median(slow)) * 1e3,
        "step_ms_p99": float(np.percentile(slow, 99)) * 1e3,
        "time_to_target_s": None if k is None else k / steps_per_s,
        "steps_to_target": k,
        "artifacts_s": slow_median(writes, SLOW_SHARE),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "runs": len(runs),
        "training_seeds": [cfg.seed for cfg in reps.cfgs],
        "setup_probes": len(setup),
        "artifact_writes": len(writes),
        "window_steps": window,
        "windows": len(windows),
        "slow_windows": len(slow),
        "slow_intervals": int(slow.size),
        "intervals_beyond_p99": int(np.sum(slow > np.percentile(slow, 99))),
        "loss_and_grad_calls_per_step": step_clock.calls_per_step,
        "setup_s_per_probe": setup,
        "artifacts_s_per_write": writes,
        "steps_per_s_per_run": [r["steps"] / r["run_s"] for r in runs],
        "steps_to_target_per_run": [r["steps_to_target"] for r in runs],
        "steps_per_run": [r["steps"] for r in runs],
    }
    return metrics, samples


def _traced_run(reps: Repetitions, index: int, tracer: Tracer | None) -> dict | None:
    """One run, traced when a tracer is given, reduced to its totals."""
    if tracer is not None:
        for module, qualname, name in TRACED:
            tracer.wrap(module, qualname, name)
    try:
        out = reps.run(index)
    finally:
        if tracer is not None:
            tracer.unwrap()
    spans = tracer.take() if tracer is not None else None
    if out is None:
        return None
    result, t0, t1, writes = out
    return {"steps": result.steps_run, "wall_s": t1 - t0 + writes[0], "spans": spans,
            "bytes": _tree_bytes(reps.scratch)}


def measure_layers(reps: Repetitions, seconds: float) -> tuple[dict, dict]:
    """Whole cycles over the training seeds, each seed run untraced and then
    traced, while the next cycle is expected to end within `seconds`; at
    least one cycle, so the per-step call counts are exact."""
    deadline = clock() + seconds
    reps.warmup()
    plain, traced = [], []
    missing: list[str] = []
    cycles, cycle_s = 0, 0.0
    while not cycles or clock() + cycle_s < deadline:
        cycles += 1
        start = clock()
        for index in range(SUBSEEDS):
            run = _traced_run(reps, index, None)
            if run is not None:
                plain.append(run)
            tracer = Tracer()
            run = _traced_run(reps, index, tracer)
            missing = tracer.missing
            if run is not None:
                traced.append(run)
        cycle_s = clock() - start
    if not (plain and traced):
        return {}, {}

    steps = sum(r["steps"] for r in traced)
    calls = sum(r["spans"]["calls"] for r in traced)
    self_s = sum(r["spans"]["self_s"] for r in traced)
    metrics = {}
    for i, (_, _, name) in enumerate(TRACED):
        metrics[f"{name}.calls"] = (float(calls[i]) / steps, "calls/step")
        metrics[f"{name}.self_ms"] = (float(self_s[i]) / steps * 1e3, "ms/step")
    net_s = sum(
        float(self_s[i]) for i, (_, _, name) in enumerate(TRACED)
        if name in ("network.loss_and_grad", "network.forward")
    ) / steps
    gflop = gflop_per_step(reps.cfgs[0])
    plain_ms = [r["wall_s"] / r["steps"] * 1e3 for r in plain]
    traced_ms = [r["wall_s"] / r["steps"] * 1e3 for r in traced]
    metrics["artifacts.bytes"] = (sum(r["bytes"] for r in traced) / steps, "B/step")
    metrics["network.gflop_per_step"] = (gflop, "GFLOP/step")
    metrics["network.gflops_per_s"] = (gflop / net_s if net_s else 0.0, "GFLOP/s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_ms) / statistics.median(plain_ms) - 1.0, "fraction")
    metrics["trace.coverage"] = (
        sum(r["spans"]["root_s"] for r in traced) / sum(r["wall_s"] for r in traced), "fraction")
    samples = {
        "traced_runs": len(traced),
        "untraced_runs": len(plain),
        "traced_steps": steps,
        "untraced_ms_per_step": plain_ms,
        "traced_ms_per_step": traced_ms,
        "missing_targets": missing,
        "not_measured": NOT_MEASURED,
        "gflop_per_step_is": "computed from layer shapes, mode, N and batch",
    }
    return metrics, samples


def main(workload: Workload, seed: int, seconds: float, trace: bool, out: str) -> int:
    os.makedirs(out, exist_ok=True)
    reps = Repetitions(workload, seed, os.path.join(out, f"scratch-{workload.name}"))
    if trace:
        raw, samples = measure_layers(reps, seconds)
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in raw.items()}
    else:
        raw, samples = measure_e2e(reps, seconds)
        missing = sorted(k for k, v in raw.items() if v is None)
        if missing:
            reps.fail(f"no value for {', '.join(missing)}")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in raw.items() if v is not None}
    shutil.rmtree(reps.scratch, ignore_errors=True)

    failed = len(reps.failed_runs)
    error_rate = failed / reps.attempted if reps.attempted else 1.0
    record = {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "fingerprint": fingerprint(seed),
        "metrics": metrics,
        "error_rate": error_rate,
        "attempted": reps.attempted,
        "failures": reps.failures,
        "reference_checked": reps.references_checked,
        "samples": samples,
    }
    kind = "layers" if trace else "e2e"
    with open(os.path.join(out, f"{workload.name}-seed{seed}-{kind}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"{workload.name}  seed {seed}  {kind}  ({reps.attempted} runs, {failed} failed, "
          f"reference {'checked' if reps.references_checked else 'not available for every training seed'})")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<34} {error_rate:>14.6g} fraction")
    print("  samples: " + json.dumps(
        {k: v for k, v in samples.items() if not isinstance(v, (list, dict))}))
    if not metrics:
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": reps.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1

"""Record the reference values and the baseline of the current tree.

    python3 ltebench/record.py reference
    python3 ltebench/record.py baseline --seconds 36

`reference` rewrites reference.json: for every workload and every training
seed of the benchmark seeds in REFERENCE_SEEDS and of the held-out seed, the
value the output check compares against (final
population MSE, or final mean training loss where that is undefined).
Rewriting it accepts whatever the program now computes, so do it only for a
change that is meant to alter the arithmetic, and say so.

`baseline` runs every workload untraced once per seed in BASELINE_SEEDS and
traced once at the default seed, and rewrites baseline.json with the median
and the values of each end-to-end metric, the traced results file (per-step
call counts and self times) and the environment fingerprint: one point of
the benchmark's trajectory. Single invocations vary with the host's load, so
compare medians over the same seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run

REFERENCE_SEEDS = list(range(16))
BASELINE_SEEDS = list(range(1, 11))


def record_reference() -> dict:
    from ltelab import lte
    from workloads import (
        HELD_OUT_SEED, REFERENCE_RTOL, WORKLOADS, config_dict, final_quantity, training_seeds,
    )

    table = {"rtol": REFERENCE_RTOL, "workloads": {}}
    for wl in WORKLOADS.values():
        seeds = {}
        for seed in (s for b in REFERENCE_SEEDS + [HELD_OUT_SEED] for s in training_seeds(b)):
            result = lte.run(lte.config_from_dict(config_dict(wl, seed)))
            seeds[str(seed)] = final_quantity(result, wl)
            print(f"{wl.name} seed {seed}: {seeds[str(seed)]!r}", flush=True)
        quantity = ("final population MSE" if wl.signal == "population_mse"
                    else "final step's mean training loss")
        table["workloads"][wl.name] = {"quantity": quantity, "seeds": seeds}
    return table


def _results(name: str, seed: int, trace: int, seconds: float, out: str) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--out", out],
        check=False,
    )
    kind = "layers" if trace else "e2e"
    with open(os.path.join(out, f"{name}-seed{seed}-{kind}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def record_baseline(seconds: float) -> dict:
    from workloads import DEFAULT_SEED, WORKLOADS

    out = os.path.join(run.ROOT, ".ltebench-out", "baseline")
    table = {}
    for name in WORKLOADS:
        runs = [_results(name, seed, 0, seconds, out) for seed in BASELINE_SEEDS]
        metrics = {}
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]
            metrics[metric] = {"unit": first["unit"], "median": statistics.median(values),
                               "values": values}
        table[name] = {
            "fingerprint": runs[0]["fingerprint"],
            "e2e": {"seeds": BASELINE_SEEDS, "failures": sum(len(r["failures"]) for r in runs),
                    "metrics": metrics},
            "layers": _results(name, DEFAULT_SEED, 1, seconds, out),
        }
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference values or the baseline")
    parser.add_argument("what", choices=("reference", "baseline"))
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)
    if not run.prepare():
        return 2
    table = record_reference() if args.what == "reference" else record_baseline(args.seconds)
    with open(os.path.join(run.HERE, f"{args.what}.json"), "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

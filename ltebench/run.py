"""Benchmark entry point: closed-loop ltelab training runs on one workload.

    python3 ltebench/run.py --workload lte-narrow --seed 0 --seconds 36 --trace 0

Run from anywhere; the repository root is this file's parent directory. One
caller in one process runs the workload again and again, each run starting
after the previous one finished: `lte.run(cfg)`, then
`artifacts.write_run_artifacts`, the calls `ltelab train` makes. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-module
metrics of a traced run. Human-readable lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
A results file with the environment fingerprint goes to --out.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Pin BLAS threads and make ltelab importable from the source tree.

    BLAS reads its thread count when numpy loads, so this runs before any
    numpy import. Returns False when the tree has no ltelab sources."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    if not os.path.isfile(os.path.join(ROOT, "src", "ltelab", "__init__.py")):
        print(f"error: no ltelab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return False
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    return True


def main(argv=None) -> int:
    if not prepare():
        return 2
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".ltebench-out"),
                        help="directory for results files and scratch artifacts")
    args = parser.parse_args(argv)

    import bench

    return bench.main(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out)


if __name__ == "__main__":
    sys.exit(main())

"""Set-up probe: started in a fresh interpreter by bench.py to measure setup_s.

    python3 ltebench/setup_probe.py <repo root> <workload> <training seed>

Imports ltelab, builds the workload's config and calls `lte.run`, which
generates the task (and pool), initialises the network and heads and takes
the initial snapshot. At the first `loss_and_grad` call, the first training
step, it prints `time.monotonic()` and exits. The caller subtracts the
monotonic time at which it started this process.
"""

import os
import sys
import time


class _FirstStep(Exception):
    pass


def main(argv: list[str]) -> int:
    root, workload, training_seed = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    from ltelab import lte
    from workloads import WORKLOADS, config_dict

    cfg = lte.config_from_dict(config_dict(WORKLOADS[workload], training_seed))

    def first_step(*args, **kwargs):
        raise _FirstStep(time.monotonic())

    lte.loss_and_grad = first_step
    try:
        lte.run(cfg)
    except _FirstStep as stop:
        print(repr(stop.args[0]))
        return 0
    print("setup probe: the run took no training step", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

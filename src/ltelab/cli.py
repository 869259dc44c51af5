"""Command-line experiment runner.

Subcommands:
  train    -- run one configuration, write manifest/metrics/snapshots/analysis
  compare  -- run two configurations, write their effective-weight deviation
  sweep    -- grid over (N, r, T) x seeds, write a summary table
  cost     -- evaluate the communication/memory cost model

Configs are flat JSON files (see README). Commands only ever write inside
their output directory, and identical config + seed reproduces identical
artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from dataclasses import replace

from .analysis import trajectory_deviation
from .artifacts import write_deviation_artifacts, write_run_artifacts
from .costmodel import CostInputs, cost_report
from .lte import ConfigError, RunConfig, config_from_dict, run


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return config_from_dict(raw)


def _resolve_out(cfg: RunConfig, flag_value: str | None) -> str:
    if flag_value:
        return flag_value
    if cfg.out_dir:
        return cfg.out_dir
    return os.path.join("runs", f"{cfg.mode}_seed{cfg.seed}")


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
        cfg.validate()
    outdir = _resolve_out(cfg, args.out)
    result = run(cfg)
    write_run_artifacts(result, outdir)
    final = result.final_mse()
    final_txt = f"{final:.6g}" if final is not None else "n/a"
    print(
        f"mode={cfg.mode} steps={result.steps_run} final_mse={final_txt} "
        f"merges={len(result.merges)} out={outdir}"
    )
    return 0


def cmd_compare(args) -> int:
    cfg_a = _load_config(args.a)
    cfg_b = _load_config(args.b)
    outdir = args.out or os.path.join("runs", "compare")
    result_a = run(cfg_a)
    result_b = run(cfg_b)
    trace = trajectory_deviation(result_a, result_b)
    write_deviation_artifacts(
        trace, outdir,
        summary_extra={"mode_a": cfg_a.mode, "mode_b": cfg_b.mode,
                       "seed_a": cfg_a.seed, "seed_b": cfg_b.seed},
    )
    print(
        f"snapshots={trace.steps.size} max_deviation={trace.total.max():.6g} "
        f"mean_deviation={trace.total.mean():.6g} out={outdir}"
    )
    return 0


def _median(values):
    """The median, or None for runs without population MSE (ReLU gaps)."""
    return None if None in values else statistics.median(values)


def cmd_sweep(args) -> int:
    try:
        with open(args.grid, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"grid: cannot load {args.grid}: {exc}") from exc
    if "base" not in spec or "grid" not in spec:
        raise ConfigError("grid: spec needs 'base' and 'grid' sections")
    base = config_from_dict(spec["base"])
    grid = spec["grid"]
    ns = list(grid.get("N", [base.n_heads]))
    rs = list(grid.get("r", [base.rank]))
    ts = list(grid.get("T", [base.policy.period]))
    seeds = list(spec.get("seeds", [base.seed]))
    threshold = float(spec.get("threshold", 1e-4))
    if not ns or not rs or not ts or not seeds:
        raise ConfigError("grid: every grid axis needs at least one value")

    outdir = args.out or os.path.join("runs", "sweep")
    os.makedirs(outdir, exist_ok=True)
    rows = []
    for n in ns:
        for r in rs:
            for t in ts:
                finals, steps_to, ranks = [], [], []
                for seed in seeds:
                    cfg = replace(
                        base, n_heads=n, rank=r,
                        policy=replace(base.policy, period=t), seed=seed,
                    )
                    cfg.validate()
                    result = run(cfg)
                    finals.append(result.final_mse())
                    hit = result.steps_to_mse(threshold)
                    steps_to.append(float("inf") if hit is None else hit)
                    last_rank = [v for v in result.snapshots[-1].update_rank if v == v]
                    ranks.append(sum(last_rank) / len(last_rank) if last_rank else float("nan"))
                steps = _median(steps_to)
                rows.append((n, r, t, _median(finals), None if steps == float("inf") else steps,
                             _median(ranks)))

    def real(v) -> str:
        return repr(float(v))

    # per column: name, CSV cell, text title, width and format of a present
    # value; a missing cell (None) is empty in the CSV and "-" in the text
    columns = (("N", str, "N", 4, ""), ("r", str, "r", 4, ""), ("T", str, "T", 5, ""),
               ("final_mse", real, "final_mse", 12, ".4g"),
               ("steps_to_threshold", real, "steps@thr", 10, ".0f"),
               ("update_eff_rank", real, "upd_rank", 9, ".3g"))
    with open(os.path.join(outdir, "sweep.csv"), "w", encoding="ascii") as fh:
        fh.write(",".join(name for name, *_ in columns) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else cell(v)
                              for (_, cell, *_), v in zip(columns, row)) + "\n")
    lines = [" ".join(f"{title:>{width}}" for _, _, title, width, _ in columns)]
    for row in rows:
        lines.append(" ".join(f"{'-' if v is None else format(v, spec):>{width}}"
                              for (*_, width, spec), v in zip(columns, row)))
    table = "\n".join(lines)
    print(table)
    with open(os.path.join(outdir, "sweep.txt"), "w", encoding="ascii") as fh:
        fh.write(table + "\n")
    return 0


def cmd_cost(args) -> int:
    inputs = CostInputs(
        m=args.m, m_lte=args.m_lte, n_ddp=args.n_ddp, n_lte=args.n_lte,
        period=args.t, q=args.q,
    )
    report = cost_report(inputs)
    print(report.format_text())
    print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ltelab",
        description="Parallel low-rank adapter training experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one configuration")
    p_train.add_argument("--config", required=True, help="JSON run configuration")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_cmp = sub.add_parser("compare", help="deviation between two runs")
    p_cmp.add_argument("--a", required=True, help="first run configuration")
    p_cmp.add_argument("--b", required=True, help="second run configuration")
    p_cmp.add_argument("--out", default=None, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="grid over (N, r, T) x seeds")
    p_sweep.add_argument("--grid", required=True, help="JSON grid specification")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cost = sub.add_parser("cost", help="communication/memory cost model")
    p_cost.add_argument("--n-ddp", type=int, required=True)
    p_cost.add_argument("--n-lte", type=int, required=True)
    p_cost.add_argument("--m", type=float, required=True)
    p_cost.add_argument("--m-lte", type=float, required=True)
    p_cost.add_argument("--t", type=int, required=True)
    p_cost.add_argument("--q", type=float, default=1.0)
    p_cost.set_defaults(func=cmd_cost)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

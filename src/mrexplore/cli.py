"""Command-line entry point: run one scenario or compare methods over seeds.

Outputs are CSV files with fixed column order; see README for the schema.
The EXPLORER_LOG environment variable (error|warn|info|debug) sets the log
level.
"""

from __future__ import annotations

import argparse
import copy
import logging
import math
import os
import sys

from . import __version__
from .config import ConfigError, ScenarioConfig, load_config
from .grid import merge_maps
from .pgm import save_grid
from .simulate import ExplorationSim

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _setup_logging():
    level = os.environ.get("EXPLORER_LOG", "warn").lower()
    logging.basicConfig(
        level=_LOG_LEVELS.get(level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _write_atomic(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(data)
    os.replace(tmp, path)


def _run_one(config: ScenarioConfig, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    sim = ExplorationSim(config)
    metrics = sim.run()
    _write_atomic(os.path.join(out_dir, "metrics.csv"), metrics.to_csv())
    _write_atomic(os.path.join(out_dir, "summary.csv"), metrics.summary_csv())
    for r in sim.robots:
        save_grid(r.grid, os.path.join(out_dir, f"map_r{r.rid}.pgm"))
    save_grid(merge_maps([r.grid for r in sim.robots]),
              os.path.join(out_dir, "map_merged.pgm"))
    return metrics


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        config.resolve_starts(config.load_world())
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        metrics = _run_one(config, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failure after a valid config
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    end = metrics.rows[-1].time if metrics.rows else 0.0
    print(f"final coverage {metrics.final_coverage:.2f}% "
          f"after {end:.0f}s; outputs in {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        print(f"config error: --seeds must be comma-separated ints, got {args.seeds!r}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not methods or not seeds:
        print("config error: need at least one method and one seed", file=sys.stderr)
        return EXIT_CONFIG
    try:
        base = load_config(args.config)
        base.resolve_starts(base.load_world())
        for m in methods:
            probe = copy.deepcopy(base)
            probe.method = m
            probe.validate()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    os.makedirs(args.out, exist_ok=True)
    per_seed: list[tuple[str, int, dict]] = []
    for method in methods:
        for seed in seeds:
            cfg = copy.deepcopy(base)
            cfg.method = method
            cfg.seed = seed
            sub = os.path.join(args.out, f"{method}_seed{seed}")
            try:
                metrics = _run_one(cfg, sub)
            except Exception as exc:
                print(f"run failed ({method}, seed {seed}): {exc}",
                      file=sys.stderr)
                return EXIT_RUNTIME
            q = metrics.final_quality
            per_seed.append((method, seed, {
                "final_coverage": metrics.final_coverage,
                "reduction_pct": metrics.mean_reduction_percent(),
                "ssim": q.ssim,
                "rmse": q.rmse,
                "alignment_error": q.alignment_error,
            }))

    cols = ["final_coverage", "reduction_pct", "ssim", "rmse", "alignment_error"]
    lines = ["method,seed," + ",".join(cols)]
    for method, seed, vals in per_seed:
        lines.append(f"{method},{seed}," + ",".join(f"{vals[c]:.6f}" for c in cols))
    for method in methods:
        rows = [vals for m, _, vals in per_seed if m == method]
        means = {c: _mean([r[c] for r in rows]) for c in cols}
        stds = {c: _stddev([r[c] for r in rows]) for c in cols}
        lines.append(f"{method},mean," + ",".join(f"{means[c]:.6f}" for c in cols))
        lines.append(f"{method},stddev," + ",".join(f"{stds[c]:.6f}" for c in cols))
    _write_atomic(os.path.join(args.out, "comparison.csv"), "\n".join(lines) + "\n")

    print(f"{'method':<16} {'seed':>6} {'coverage%':>10} {'reduction%':>11} "
          f"{'ssim':>7} {'rmse':>8} {'AE':>8}")
    for method, seed, vals in per_seed:
        print(f"{method:<16} {seed:>6} {vals['final_coverage']:>10.2f} "
              f"{vals['reduction_pct']:>11.2f} {vals['ssim']:>7.3f} "
              f"{vals['rmse']:>8.2f} {vals['alignment_error']:>8.3f}")
    for method in methods:
        rows = [vals for m, _, vals in per_seed if m == method]
        print(f"{method:<16} {'mean':>6} "
              f"{_mean([r['final_coverage'] for r in rows]):>10.2f} "
              f"{_mean([r['reduction_pct'] for r in rows]):>11.2f} "
              f"{_mean([r['ssim'] for r in rows]):>7.3f} "
              f"{_mean([r['rmse'] for r in rows]):>8.2f} "
              f"{_mean([r['alignment_error'] for r in rows]):>8.3f}")
    return EXIT_OK


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _stddev(xs):
    if len(xs) < 2:
        return 0.0
    m = _mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrexplore",
        description="Multi-robot frontier exploration simulator",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one scenario",
        description="Run a scenario config; writes metrics.csv (one row per "
                    "tick: time, coverage_r<i>.., coverage_merged, "
                    "frontier_raw, frontier_filtered, map_entropy_bits, "
                    "loop_closures), summary.csv and final PGM maps.",
    )
    p_run.add_argument("--config", required=True, help="scenario config file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="compare methods over seeds",
        description="Run each (method, seed) pair and write comparison.csv "
                    "(per-seed rows then mean/stddev rows per method; "
                    "columns: method, seed, final_coverage, reduction_pct, "
                    "ssim, rmse, alignment_error).",
    )
    p_cmp.add_argument("--config", required=True, help="scenario config file")
    p_cmp.add_argument("--methods", required=True,
                       help="comma-separated: proposed,mags,greedy_frontier")
    p_cmp.add_argument("--seeds", required=True, help="comma-separated ints")
    p_cmp.add_argument("--out", required=True, help="output directory")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

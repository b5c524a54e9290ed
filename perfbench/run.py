"""Benchmark harness for the mrexplore simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1    # every workload

Each workload is one fixed scenario. The harness writes its config and hands
only that file to the program. Every sample runs in a fresh worker process
(worker.py), one at a time, with BLAS and OpenMP held to one thread, so the
numbers do not measure the scheduler.

--trace 0 sets up the scenario SETUP_SAMPLES times, then runs whole scenarios
until --seconds have passed (at least one), and reports the end-to-end
metrics as medians. --trace 1 runs the scenario once untraced and once
traced, and reports the per-layer metrics computed from the written trace.

Every scenario run is checked: the worker exits with 0; metrics.csv has the
header from RunMetrics.csv_header() and one row per tick; coverage_merged
never decreases; summary.csv holds a finite ssim and rmse; and all runs of
the workload, traced or not, give the same sha256 of metrics.csv and
summary.csv (printed as outputs_sha). A desk scenario takes longer than
--seconds, so --trace 0 runs it once: its outputs_sha is then compared only
across invocations (spread.py) and within the traced pair of --trace 1.

`attempted` and `failed` in the result count every worker process, set-up
samples included. run_fail_ratio counts scenario runs only: failed runs over
runs attempted. If any sample fails, the result has "correct": false and the
exit code is 1; a workload with no successful run reports no metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Outputs go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from spans import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9
WORKLOAD_DEADLINE_S = 170.0
# The trace must account for the traced run time to within this share.
TRACE_SUM_TOLERANCE = 0.01

# The scenario seed jitters the start poses, and that alone changes a desk
# run's cost by 2x (seed 1: 22 s, seeds 2 and 3: 11 s) and wings_sense's
# exploration time from 13 to 28 simulated s. It is pinned, so that runs with
# different --seed values measure the code and not the scenario; --seed
# therefore selects the same inputs for every value.
SCENARIO_SEED = 1

# configs/desk.cfg, the paper's reference scenario
BASE_CONFIG = {
    "scenario": {"map": "builtin:desk", "robots": 3, "method": "proposed",
                 "seed": SCENARIO_SEED, "speed": 1.0, "dt": 1.0,
                 "max_sim_time": 300},
    "lidar": {"beam_count": 360, "max_range": 5.0},
    "filter": {"rad": 1.0, "per_unk": 60, "min_pts": 0, "max_pts": 10,
               "rad_step": 0.25, "perc_step": 10},
    "utility": {"decay_rate": 0.1, "u1_weight": 1.0},
    "graph": {"node_spacing": 1.0, "loop_closure_radius": 2.0,
              "odometry_weight": 1.0, "loop_weight": 2.0},
    "allocation": {"goal_skip_wait": 5},
    "planner": {"inflation_cells": 1},
}

# Overrides of BASE_CONFIG per workload. Why each was chosen, and which
# layer it stresses or bypasses, is in BENCHMARK.json.
WORKLOADS = {
    "desk_proposed": {},
    "desk_mags": {"scenario": {"method": "mags"}},
    "wings_sense": {
        "scenario": {"map": "builtin:two_wings", "robots": 2},
        "lidar": {"beam_count": 720, "max_range": 10.0},
        "planner": {"inflation_cells": 0},
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "goal_latency_ms_p50": "ms",
    "goal_latency_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "final_coverage_pct": "%",
    "explore_sim_s": "sim_s",
}


def workload_config(name: str) -> str:
    sections = {k: dict(v) for k, v in BASE_CONFIG.items()}
    for section, values in WORKLOADS[name].items():
        sections[section].update(values)
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
        lines.append("")
    return "\n".join(lines)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith("_ratio"):
        return "ratio"
    if last == "nodes_mean":
        return "nodes"
    if last == "bytes":
        return "bytes"
    return "count"


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def start_sample(cfg: Path, deadline: float, mode: str, out: Path | None = None,
                 trace: int = 0) -> tuple[dict | None, str | None]:
    """Run one worker process to completion; returns (report, error)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--config", str(cfg), "--mode", mode, "--trace", str(trace)]
    if out is not None:
        cmd += ["--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        return None, f"{mode}: timed out"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{mode}: exit {proc.returncode}: {tail[0]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"{mode}: no report"


def check_outputs(out: Path, report: dict) -> dict:
    """Check one run's CSVs; returns sha, final coverage and exploration time.
    Raises ValueError naming the first check that failed."""
    metrics_bytes = (out / "metrics.csv").read_bytes()
    summary_bytes = (out / "summary.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(metrics_bytes.decode("utf-8"))))
    header, body = rows[0], rows[1:]
    if header != report["csv_header"]:
        raise ValueError("metrics.csv header differs from RunMetrics.csv_header()")
    if not body or any(len(r) != len(header) for r in body):
        raise ValueError("metrics.csv has no rows or a ragged row")
    times = [float(r[0]) for r in body]
    dt = report["dt"]
    if any(abs(t - (k + 1) * dt) > 1e-6 for k, t in enumerate(times)):
        raise ValueError("metrics.csv does not have one row per tick")
    col = header.index("coverage_merged")
    cov = [float(r[col]) for r in body]
    if any(b < a for a, b in zip(cov, cov[1:])):
        raise ValueError("coverage_merged decreases")
    summary = list(csv.DictReader(io.StringIO(summary_bytes.decode("utf-8"))))
    if len(summary) != 1 or not all(
            math.isfinite(float(summary[0][k])) for k in ("ssim", "rmse")):
        raise ValueError("summary.csv lacks one row with finite ssim and rmse")
    return {
        "sha": hashlib.sha256(metrics_bytes + summary_bytes).hexdigest(),
        "final_coverage_pct": cov[-1],
        "explore_sim_s": times[cov.index(cov[-1])],
    }


class WorkloadRun:
    """All samples of one workload in one invocation, with their checks."""

    def __init__(self, name: str):
        self.name = name
        self.dir = OUT_DIR / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cfg = self.dir / "scenario.cfg"
        self.cfg.write_text(workload_config(name), encoding="utf-8")
        self.deadline = monotonic() + WORKLOAD_DEADLINE_S
        self.attempted = 0
        self.errors: list[str] = []
        self.runs = self.run_failures = 0  # scenario runs, no set-up samples
        self.notes: dict[str, str] = {}

    def fail(self, error: str, run: bool = True) -> None:
        self.errors.append(error)
        self.run_failures += run

    def sample(self, mode: str, label: str = "", trace: int = 0) -> dict | None:
        self.attempted += 1
        self.runs += mode == "run"
        out = self.dir / label if label else None
        report, error = start_sample(self.cfg, self.deadline, mode, out, trace)
        if report is not None and out is not None:
            try:
                report.update(check_outputs(out, report))
            except (OSError, ValueError, IndexError, KeyError) as exc:
                report, error = None, f"{label}: {exc}"
        if error:
            self.fail(error, mode == "run")
        return report

    def same_outputs(self, runs: list[dict]) -> list[dict]:
        """Runs whose outputs match the first run's; the others fail."""
        same = [r for r in runs if r["sha"] == runs[0]["sha"]]
        for _ in range(len(runs) - len(same)):
            self.fail("outputs differ between runs of one workload")
        return same

    def end_to_end(self, seconds: float) -> dict[str, float] | None:
        setups = [self.sample("setup") for _ in range(SETUP_SAMPLES)]
        setups = [r for r in setups if r]
        runs, start = [], monotonic()
        while True:
            report = self.sample("run", f"run{len(runs)}")
            if report is None:
                break
            runs.append(report)
            if monotonic() - start >= seconds:
                break
        runs = self.same_outputs(runs) if runs else runs
        if not setups or not runs:
            return None
        latencies = [1000.0 * s for r in runs for s in r["latencies_s"]]
        self.notes = {
            "outputs_sha": runs[0]["sha"],
            "goal_latency_samples": str(len(latencies)),
            "scenario_runs": str(len(runs)),
            "wall_setup_s": f"{statistics.median(r['wall_setup_s'] for r in setups):.6g} s",
            "wall_run_s": f"{statistics.median(r['wall_run_s'] for r in runs):.6g} s",
        }
        return {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "run_s": statistics.median(r["run_s"] for r in runs),
            "goal_latency_ms_p50": statistics.median(latencies),
            "goal_latency_ms_p90": statistics.quantiles(latencies, n=10)[-1],
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "final_coverage_pct": runs[0]["final_coverage_pct"],
            "explore_sim_s": runs[0]["explore_sim_s"],
        }

    def per_layer(self) -> dict[str, float] | None:
        plain = self.sample("run", "untraced")
        traced = self.sample("run", "traced", trace=1)
        if plain is None or traced is None:
            return None
        self.same_outputs([plain, traced])
        self.notes = {"outputs_sha": plain["sha"]}
        trace = json.loads((self.dir / "traced" / "trace.json").read_text())
        try:
            metrics = layer_metrics(trace, plain["run_s"])
        except ValueError as exc:
            self.fail(f"traced: {exc}")
            return None
        if metrics["trace.sum_error_ratio"] > TRACE_SUM_TOLERANCE:
            self.fail("layer self times do not sum to the traced run_s")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the scenario seed is pinned "
                             "(see SCENARIO_SEED)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run whole scenarios until this much time has "
                             "passed (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mrexplore" / "__init__.py").is_file():
        print(f"no mrexplore source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        wl = WorkloadRun(name)
        values = wl.per_layer() if args.trace else wl.end_to_end(args.seconds)
        attempted += wl.attempted
        failed += len(wl.errors)
        for error in wl.errors:
            print(f"{name} FAILED {error}", file=sys.stderr)
        if values is None:
            print(f"{name}: no successful run to measure", file=sys.stderr)
            values = {}
        units = END_TO_END_UNITS if not args.trace else {
            k: layer_unit(k) for k in values}
        prefix = f"{name}." if len(names) > 1 else ""
        for key, value in values.items():
            print(f"{name:14} {key:42} {value:.6g} {units[key]}")
            metrics[prefix + key] = {"value": value, "unit": units[key]}
        print(f"{name:14} {'run_fail_ratio':42} "
              f"{wl.run_failures / max(wl.runs, 1):.6g} failed/attempted "
              f"({wl.run_failures}/{wl.runs} scenario runs)")
        for key, note in wl.notes.items():
            print(f"{name:14} {key:42} {note}")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

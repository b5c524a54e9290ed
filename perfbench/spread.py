"""Run the benchmark RUNS times per workload of BENCHMARK.json, with seeds
1 to RUNS, and report for each end-to-end metric the median, the quartiles
and the spread (the distance between the quartiles as a share of the
median), next to the metric's bound in BENCHMARK.json. A spread above a third
of the bound is flagged: the benchmark is then too noisy to hold that bound.
Every invocation must give the same outputs_sha; otherwise the exit code is 1.

    python3 perfbench/spread.py --traced --out perfbench/BASELINE.json

--traced adds one traced run per workload and records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: its JSON result and its printed extras."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    extras = {}
    for line in lines[:-1]:
        parts = line.split()
        if parts[1] == "outputs_sha":
            extras[parts[1]] = parts[2]
    return json.loads(lines[-1]), extras


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    summary, status = {}, 0
    for wl in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        shas, failed, attempted = set(), 0, 0
        for seed in range(1, RUNS + 1):
            result, extras = bench(wl, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            shas.add(extras["outputs_sha"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"runs": RUNS, "run_fail_ratio": failed / attempted,
                 "outputs_sha": sorted(shas), "end_to_end": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "  > bound/3" if spread > bounds[name] / 3 else ""
            print(f"{wl:14} {name:22} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f} bound {bounds[name]}{flag}")
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
        print(f"{wl:14} run_fail_ratio {failed}/{attempted}; "
              f"outputs_sha {' '.join(sorted(shas))}")
        if len(shas) > 1:
            print(f"{wl:14} FAILED outputs differ between invocations")
            status = 1
        if args.traced:
            result, _ = bench(wl, 1, seconds, 1)
            entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        summary[wl] = entry
        sys.stdout.flush()

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())

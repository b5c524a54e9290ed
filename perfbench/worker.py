"""One benchmark sample, run in a fresh process by run.py.

    python3 perfbench/worker.py --root CHECKOUT --config FILE --mode setup
    python3 perfbench/worker.py --root CHECKOUT --config FILE --mode run \
        --out DIR [--trace 1]

Set-up is `import mrexplore`, `load_config` and `ExplorationSim(config)`.
Run mode loads the config and calls `mrexplore.cli._run_one`, as
`mrexplore run` does: it builds the ExplorationSim, runs the scenario and
writes metrics.csv, summary.csv and the PGM maps. The last line of standard
output is one JSON object with the timings.

Run and set-up times are given at a reference CPU speed as well as on the
wall clock. A shared host's speed drifts by up to 2x over tens of seconds as
other tenants load it, and a desk run is a single 20-40 s scenario, so wall
times alone spread by 20-30% between runs. A fixed probe runs after set-up
and at the start of every tick. Each stretch of wall time is
scaled by PROBE_REF_S over the median probe time around it, which gives the
time the work would take at the speed where the probe takes PROBE_REF_S.
The probes themselves are left out of every time. Process CPU time is no
steadier than wall time on such a host (see README.md), so it is not used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

from spans import PROBE_SPAN, Tracer

PROBE_LOOPS = 2000
PROBE_NUMPY_CALLS = 40
# the probe's median time on a quiet 2-CPU x86-64 sandbox, Python 3.11
PROBE_REF_S = 3.0e-4
PROBE_WINDOW = 4  # ticks on each side whose probes set a tick's speed


def probe() -> float:
    """Time a fixed mix of interpreter work and small numpy calls. Under
    contention, numpy-heavy code slows more than pure Python does, and the
    simulator runs both; a pure-Python probe left the goal latency of
    wings_sense spread by 25% across runs, this mix by 8%."""
    import numpy as np  # imported only once set-up has been timed

    t = perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    cells = np.zeros((40, 40), dtype=np.int8)
    cells[::3, ::4] = 1
    for _ in range(PROBE_NUMPY_CALLS):
        acc += int(np.count_nonzero(cells == 0)) + int(cells[5:20, 5:20].sum())
    return perf_counter() - t


class SpeedClock:
    """Probes at tick starts; converts wall time to reference time."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []  # (probe start, tick start)
        self.probes: list[float] = []

    def tick(self) -> None:
        start = perf_counter()
        self.probes.append(probe())
        self.marks.append((start, perf_counter()))

    def factor(self, k: int) -> float:
        window = self.probes[max(0, k - PROBE_WINDOW):k + PROBE_WINDOW + 1]
        return PROBE_REF_S / statistics.median(window)

    def reference_s(self, t0: float, t_end: float) -> float:
        """Reference time of [t0, t_end], probes excluded."""
        if not self.marks:
            return t_end - t0
        total = (self.marks[0][0] - t0) * self.factor(0)
        ends = [m[0] for m in self.marks[1:]] + [t_end]
        for k, ((_, start), end) in enumerate(zip(self.marks, ends)):
            total += (end - start) * self.factor(k)
        return total


def run_scenario(cli, cfg, out: str, tracer: Tracer | None) -> dict:
    """Run the scenario through cli._run_one, the code path of `mrexplore
    run`, which builds the ExplorationSim, runs it and writes metrics.csv,
    summary.csv and the PGM maps. run_s is _run_one's time without the
    ExplorationSim build, which set-up measures."""
    clock = SpeedClock()
    latencies: list[tuple[int, float]] = []  # (tick, wall s)
    inits: list[float] = []  # wall s of each ExplorationSim build
    cls = cli.ExplorationSim
    inner_init, inner_iteration = cls.__init__, cls.run_iteration
    inner_sense = cls._sense_all

    def init(self, config):
        t = perf_counter()
        inner_init(self, config)
        inits.append(perf_counter() - t)

    def sense(self):
        # in a traced run the probe is a span of its own, kept out of the layers
        rec = tracer.begin(PROBE_SPAN) if tracer else None
        clock.tick()
        if rec:
            tracer.end(rec)
        return inner_sense(self)

    def timed(self, robot):
        # goal latency: the duration of each served goal request
        t = perf_counter()
        try:
            return inner_iteration(self, robot)
        finally:
            latencies.append((len(clock.marks) - 1, perf_counter() - t))

    cls.__init__, cls._sense_all = init, sense
    if tracer is None:
        cls.run_iteration = timed

    t0 = perf_counter()
    metrics = cli._run_one(cfg, out)
    t_end = perf_counter()
    (init_s,) = inits
    run_s = clock.reference_s(t0, t_end) - init_s * clock.factor(0)
    wall_run_s = t_end - t0 - init_s - sum(clock.probes)
    if tracer:
        tracer.dump(os.path.join(out, "trace.json"), wall_run_s, run_s)
    return {
        "run_s": run_s,
        "wall_run_s": wall_run_s,
        "latencies_s": [d * clock.factor(k) for k, d in latencies],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_header": metrics.csv_header(),
        "dt": cfg.dt,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)

    t0 = perf_counter()
    import mrexplore
    from mrexplore import config, simulate

    if not os.path.abspath(mrexplore.__file__).startswith(src + os.sep):
        print(f"mrexplore imported from {mrexplore.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.mode == "run":
        from mrexplore import cli

        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        report = run_scenario(cli, config.load_config(args.config), args.out,
                              tracer)
    else:
        simulate.ExplorationSim(config.load_config(args.config))
        wall_setup_s = perf_counter() - t0
        speed = PROBE_REF_S / statistics.median(probe() for _ in range(9))
        report = {"setup_s": wall_setup_s * speed, "wall_setup_s": wall_setup_s}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

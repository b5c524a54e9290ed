"""Print the sha256 of metrics.csv + summary.csv for the ten reference runs.

    python3 tools/output_hashes.py

Nine runs take configs/desk.cfg on three builtin worlds, each with every
method: desk with 3 robots, two_wings and open20 with 2 robots each. The
tenth is the wings_sense workload of perfbench/run.py. Each run goes
through the code path of `mrexplore run`, in a temporary directory. A
change that keeps the simulator's outputs byte-identical prints the same
ten lines before and after. Two runs go at a time.

tools/output_hashes.txt holds the lines of the current outputs, so the
byte-identity check is

    python3 tools/output_hashes.py | diff tools/output_hashes.txt -

which prints nothing and exits 0 when every output is unchanged.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import re
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from mrexplore.cli import _run_one  # noqa: E402
from mrexplore.config import METHODS, load_config  # noqa: E402

WORLDS = (("desk", 3), ("two_wings", 2), ("open20", 2))


def desk_cfg(world: str, robots: int, method: str) -> str:
    text = (ROOT / "configs" / "desk.cfg").read_text()
    for key, value in (("map", f"builtin:{world}"), ("robots", robots),
                       ("method", method)):
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text, count=1)
    return text


def wings_sense_cfg() -> str:
    import run  # perfbench/run.py, read only

    return run.workload_config("wings_sense")


def output_hash(config_text: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        cfg.write_text(config_text)
        _run_one(load_config(str(cfg)), str(out))
        data = (out / "metrics.csv").read_bytes() + (out / "summary.csv").read_bytes()
    return hashlib.sha256(data).hexdigest()


def reference_runs() -> dict[str, str]:
    """The ten runs' config texts by name, in the order of the printed
    lines."""
    runs = {f"{world}/{method}": desk_cfg(world, robots, method)
            for world, robots in WORLDS for method in METHODS}
    runs["wings_sense"] = wings_sense_cfg()
    return runs


def main() -> int:
    runs = reference_runs()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        for name, sha in zip(runs, pool.map(output_hash, runs.values())):
            print(f"{sha}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

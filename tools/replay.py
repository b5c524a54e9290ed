"""Capture the calls of some functions over one run, and replay them.

    python3 tools/replay.py --capture mrexplore.simulate.plan_many \
        mrexplore.simulate.path_gains --config FILE [--file PATH]
    python3 tools/replay.py --replay CHECKOUT_A CHECKOUT_B [--file PATH] \
        [--rounds N]

--capture runs the config's scenario once and records every call to each
named callable. A name is MODULE.NAME, the name the caller looks up at call
time (modules import each other with ``from .x import y``, so
``mrexplore.simulate.path_gains`` is the name `mags` calls). Each call's
arguments are pickled when the call is made, because the simulator changes
its graphs and grids later. An argument that holds an object returned by the
latest earlier captured call of some name (the reached paths of a
`plan_many` call, say) is stored as a reference to it. A replay then hands
the call what its own checkout returned there, so a replayed request runs
`plan_many` and then `path_gains` on that checkout's own paths. Each
argument is pickled on its own, and one whose pickled bytes equal an
argument of an earlier call is stored only once (the true map that every
`raycast` call gets, say); objects shared between two arguments of one call
are therefore replayed as separate copies. The records go to PATH, by
default .perfbench_out/replay/capture.pkl (ignored by git).

--replay runs the captured calls against two checkouts, in fresh
processes, alternating which goes first. Each round prints each name's
total call time per checkout; the summary prints the median of the paired
ratios B / A per name, and whether every call's result digest agreed with
the capture's and between the checkouts. A digest is the sha256 of the
pickled result by value: a dataclass counts only the fields its equality
compares, and shared objects are written out in full.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import io
import json
import os
import pickle
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_FILE = ROOT / ".perfbench_out" / "replay" / "capture.pkl"
_ATOMS = (type(None), bool, int, float, str, bytes)


def digest(result) -> str:
    """sha256 of result pickled by value (see the module docstring)."""
    buf = io.BytesIO()
    pickler = _ValuePickler(buf, protocol=4)
    pickler.fast = True  # no memo: shared objects are written in full
    pickler.dump(result)
    return hashlib.sha256(buf.getvalue()).hexdigest()


class _ValuePickler(pickle.Pickler):
    def reducer_override(self, obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return tuple, ((type(obj).__qualname__,) + tuple(
                getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare),)
        return NotImplemented


def _resolve(name: str):
    """(module, attribute) of a MODULE.NAME."""
    module, _, attr = name.rpartition(".")
    return importlib.import_module(module), attr


class _Produced:
    """The objects the latest captured call of each name returned, by id:
    the result itself and, for a list or tuple, its elements that are not
    None or a number or string. Only the latest result per name is kept
    alive."""

    def __init__(self):
        self.latest: dict[str, object] = {}
        self.ids: dict[str, dict[int, int]] = {}

    def record(self, name: str, result) -> None:
        self.latest[name] = result  # keeps the ids below valid
        ids = {id(result): -1}
        if isinstance(result, (list, tuple)):
            ids.update((id(x), i) for i, x in enumerate(result)
                       if not isinstance(x, _ATOMS))
        self.ids[name] = ids

    def find(self, obj):
        for name, ids in self.ids.items():
            pos = ids.get(id(obj))
            if pos is not None:
                return name, pos
        return None


class _CapturePickler(pickle.Pickler):
    def __init__(self, file, produced: _Produced):
        super().__init__(file, protocol=4)
        self.produced = produced

    def persistent_id(self, obj):
        return self.produced.find(obj)


class _ReplayUnpickler(pickle.Unpickler):
    def __init__(self, file, latest: dict):
        super().__init__(file)
        self.latest = latest

    def persistent_load(self, pid):
        name, pos = pid
        result = self.latest[name]
        return result if pos == -1 else result[pos]


def capture(names, config, path) -> int:
    """Run config (a ScenarioConfig) once with every named callable
    recorded into path; returns the number of calls recorded."""
    from mrexplore.simulate import run

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    produced = _Produced()
    numbers: dict[bytes, int] = {}  # each distinct pickled argument, numbered
    count = 0
    originals = []

    def pickled(arg) -> tuple:
        """(number, bytes) of an argument the first time its bytes are
        stored, (number, None) after that."""
        buf = io.BytesIO()
        _CapturePickler(buf, produced).dump(arg)
        blob = buf.getvalue()
        if blob in numbers:
            return numbers[blob], None
        numbers[blob] = len(numbers)
        return numbers[blob], blob

    with open(path, "wb") as f:

        def wrap(name, fn):
            def recorded(*args, **kwargs):
                nonlocal count
                blob = pickle.dumps(([pickled(a) for a in args],
                                     {key: pickled(a) for key, a in kwargs.items()}),
                                    protocol=4)
                result = fn(*args, **kwargs)
                pickle.dump((name, blob, digest(result)), f, protocol=4)
                produced.record(name, result)
                count += 1
                return result
            return recorded

        try:
            for name in names:
                owner, attr = _resolve(name)
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, wrap(name, fn))
            run(config)
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
    return count


def replay(path) -> dict:
    """Replay the calls recorded in path in this process, in order. Returns
    each name's total call time in seconds and call count, and the indices
    of the calls whose result digest differs from the capture's, with
    every call's digest."""
    seconds, calls, latest = {}, {}, {}
    digests, differ = [], []
    blobs = []  # each distinct pickled argument, by number

    def load(entry):
        k, blob = entry
        if blob is not None:
            blobs.append(blob)  # first stored in number order
        return _ReplayUnpickler(io.BytesIO(blobs[k]), latest).load()

    with open(path, "rb") as f:
        while True:
            try:
                name, blob, want = pickle.load(f)
            except EOFError:
                break
            arg_entries, kwarg_entries = pickle.loads(blob)
            args = [load(e) for e in arg_entries]
            kwargs = {key: load(e) for key, e in kwarg_entries.items()}
            owner, attr = _resolve(name)
            fn = getattr(owner, attr)
            t = perf_counter()
            result = fn(*args, **kwargs)
            seconds[name] = seconds.get(name, 0.0) + perf_counter() - t
            calls[name] = calls.get(name, 0) + 1
            latest[name] = result
            got = digest(result)
            if got != want:
                differ.append(len(digests))
            digests.append(got)
    return {"seconds": seconds, "calls": calls, "differ": differ, "digests": digests}


def _worker(root: str, path: str) -> None:
    sys.path.insert(0, str(Path(root).resolve() / "src"))
    print(json.dumps(replay(path)))


def _run_worker(root: str, path: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH="")
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", root, "--file", path],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def compare(a: str, b: str, path: str, rounds: int) -> bool:
    """Replay path against checkouts a and b for rounds rounds, a first in
    rounds 1, 3, 5, ...; print the table. Returns whether every digest
    agreed."""
    ratios: dict[str, list[float]] = {}
    agree = True
    for k in range(rounds):
        order = (("A", a), ("B", b)) if k % 2 == 0 else (("B", b), ("A", a))
        res = {side: _run_worker(root, path) for side, root in order}
        for name in sorted(res["A"]["seconds"]):
            ta, tb = res["A"]["seconds"][name], res["B"]["seconds"][name]
            ratios.setdefault(name, []).append(tb / ta)
            print(f"round {k + 1} ({order[0][0]} first) {name}: "
                  f"A {ta:.4f} s, B {tb:.4f} s, B/A {tb / ta:.3f}")
        same = (res["A"]["digests"] == res["B"]["digests"]
                and not res["A"]["differ"] and not res["B"]["differ"])
        agree = agree and same
    calls = res["A"]["calls"]
    for name, rs in sorted(ratios.items()):
        print(f"{name}: {calls[name]} calls, median paired ratio B/A "
              f"{statistics.median(rs):.3f} over {len(rs)} rounds")
    print(f"digests equal: {'yes' if agree else 'NO'} "
          f"({len(res['A']['digests'])} calls, capture, A and B)")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--capture", nargs="+", metavar="MODULE.NAME")
    mode.add_argument("--replay", nargs=2, metavar=("CHECKOUT_A", "CHECKOUT_B"))
    mode.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("--config", help="scenario config file (--capture)")
    parser.add_argument("--file", default=str(DEFAULT_FILE))
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    if args.worker:
        _worker(args.worker, args.file)
        return 0
    if args.replay:
        if args.rounds < 1:
            parser.error("--rounds must be at least 1")
        return 0 if compare(*args.replay, args.file, args.rounds) else 1
    if not args.config:
        parser.error("--capture needs --config")
    sys.path.insert(0, str(ROOT / "src"))
    from mrexplore.config import load_config

    n = capture(args.capture, load_config(args.config), args.file)
    print(f"{n} calls captured into {args.file}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

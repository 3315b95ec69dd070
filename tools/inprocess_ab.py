"""Time ``train()`` of two source trees in one process, alternating
between them, and print where the time goes.

Run from anywhere, with two checkouts of the repository:

    OPENBLAS_NUM_THREADS=1 python3 tools/inprocess_ab.py --rounds 30 PARENT_DIR CHANGE_DIR

Each tree's ``src/driftloc`` is imported under its own package name,
``driftloc_a`` and ``driftloc_b``, so both run in one process on one
heap and one BLAS, and a swing of a shared host hits both alike; on a
2-vCPU host single runs of one tree move by 20-40%.  Each tree keeps its
own ``nn.WORKERS`` and worker pool.  The workload is perfbench's
office-train unit: ``train()`` for one epoch on CI 0 of the office-like
preset at ``--seed``, split at the preset's FPR.

The tool first trains once per tree and stops, exit code 1, unless the
two saved models are byte-identical.  Then each round times one
``train()`` per tree, in a random order, and prints:

* per tree, the minimum, 25th percentile and median ``train()`` time in
  ms, and the rounds in which that tree was the faster;
* per tree, the fastest call of each phase in PHASES, in ms.  Each phase
  is wrapped by name in the module that calls it, so the wrapper sees
  every call and costs both trees alike.  A phase that runs work on the
  pool threads counts until the calling thread has that work back.

Nothing in the package imports this file.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

# (module, attribute) of each timed phase, in the tree's package
PHASES = (("encoder", "_forward"), ("encoder", "_backward"),
          ("nn", "adam_update"), ("localizer", "make_batch"))


def load(tree: str, name: str):
    """``tree``'s ``src/driftloc`` package, imported as ``name``."""
    src = Path(tree).resolve() / "src" / "driftloc"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def timed(fn, calls: list):
    """fn, appending each call's wall seconds to ``calls``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            calls.append(time.perf_counter() - start)
    return wrapper


class Side:
    """One tree's package, its office-train inputs and its timings."""

    def __init__(self, tree: str, name: str, seed: int):
        self.name = name
        load(tree, name)
        mod = {m: importlib.import_module(f"{name}.{m}")
               for m in ("simulate", "data", "localizer", "model_io")}
        cfg = mod["simulate"].preset("office-like", seed)
        dataset, _ = mod["simulate"].generate(cfg)
        self.train_set, _ = mod["data"].split_by_ci(dataset, 0, cfg.fpr, seed)
        self.tcfg = mod["localizer"].TrainConfig(epochs=1)
        self.seed = seed
        self.localizer, self.model_io = mod["localizer"], mod["model_io"]
        self.times: list[float] = []
        self.phases: dict[str, list[float]] = {}
        for module, attr in PHASES:
            owner = importlib.import_module(f"{name}.{module}")
            self.phases[f"{module}.{attr}"] = calls = []
            setattr(owner, attr, timed(getattr(owner, attr), calls))

    def train(self):
        return self.localizer.train(self.train_set, self.tcfg, self.seed)

    def model_bytes(self, folder: str) -> bytes:
        path = Path(folder) / f"{self.name}.stne"
        self.model_io.save_model(*self.train(), path)
        return path.read_bytes()

    def timed_train(self) -> float:
        start = time.perf_counter()
        self.train()
        self.times.append(time.perf_counter() - start)
        return self.times[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=30, help="timed train() calls per tree")
    parser.add_argument("--seed", type=int, default=1, help="scenario, split and training seed")
    parser.add_argument("trees", nargs=2, help="two repository checkouts, a then b")
    args = parser.parse_args(argv)
    sides = [Side(tree, name, args.seed) for tree, name in zip(args.trees, ("driftloc_a", "driftloc_b"))]
    with tempfile.TemporaryDirectory() as folder:
        if sides[0].model_bytes(folder) != sides[1].model_bytes(folder):
            print("the two trees train different model bytes", file=sys.stderr)
            return 1
    for side in sides:
        for calls in side.phases.values():
            calls.clear()
    order = random.Random(args.seed)
    won = {side.name: 0 for side in sides}
    for _ in range(args.rounds):
        pair = sides[:]
        order.shuffle(pair)
        took = {side.name: side.timed_train() for side in pair}
        won[min(took, key=took.get)] += 1
    print(f"{'tree':<12} {'min_ms':>8} {'p25_ms':>8} {'median_ms':>10} {'won':>5}")
    for side in sides:
        ms = sorted(t * 1e3 for t in side.times)
        p25 = statistics.quantiles(ms, n=4)[0] if len(ms) > 1 else ms[0]
        print(f"{side.name:<12} {ms[0]:8.1f} {p25:8.1f} {statistics.median(ms):10.1f} "
              f"{won[side.name]:5d}")
    print(f"{'phase minimum (ms)':<24}" + "".join(f" {side.name:>12}" for side in sides))
    for phase in sides[0].phases:
        print(f"{phase:<24}" + "".join(f" {min(side.phases[phase]) * 1e3:12.3f}" for side in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())

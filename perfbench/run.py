"""driftloc benchmark: one workload per run, last stdout line is the result.

    python3 perfbench/run.py --workload office-train --seed 1 --seconds 10 --trace 0

Run from a checkout that holds ``src/driftloc``; the benchmark imports the
package from there and from nowhere else.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` wraps every layer binding,
reports the per-layer metrics and writes the spans of the last traced unit
to ``.perfbench_out/``.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up runs first, then again after any unit that leaves set-ups with less
# than SETUP_SHARE of the run's time so far, and at least SETUP_MIN times in
# all.  So its samples spread over the whole run; setup_s is the fastest of
# them, as every other end-to-end timing is.
SETUP_SHARE = 1 / 3
SETUP_MIN = 4
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"


def environment(np, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
        simd = sorted(k for k, on in features.items() if on)
    except ImportError:
        simd = []
    return {
        "seed": seed,
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "cpu_simd": simd,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def measure(wl, seed: int, seconds: float):
    """Untraced run: set-ups interleaved with units for ``seconds``."""
    from workloads import Record, fastest
    rec = Record()
    setups = []

    def setup():
        t = time.perf_counter()
        wl.setup(seed)
        setups.append(time.perf_counter() - t)

    t0 = time.perf_counter()
    setup()
    units = 0
    while (units < wl.min_units or len(setups) < SETUP_MIN
           or time.perf_counter() - t0 < seconds):
        wl.unit(rec)
        units += 1
        if sum(setups) < SETUP_SHARE * (time.perf_counter() - t0) or len(setups) < SETUP_MIN:
            setup()
    info = wl.finish(rec)
    try:
        timings = wl.end_to_end(rec)
    except LookupError:  # every call of some kind failed
        return rec, info, None
    metrics = {"setup_s": fastest(setups), **timings,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    print(f"setup_s is the fastest of {len(setups)} set-ups over {units} units")
    return rec, info, metrics


def traced(wl, seed: int, seconds: float, out_dir: Path):
    """Traced run: alternate an untraced and a traced section of
    ``wl.trace_units`` units until ``seconds``; per-layer metrics are the
    median over traced sections."""
    import spans
    from workloads import Record
    rec = Record()
    absent: set[str] = set()
    setup_tracer = spans.Tracer()
    with spans.installed(setup_tracer, spans.SETUP_BINDINGS, absent):
        wl.setup(seed)
    plain, walls, per_unit, last = [], [], [], None
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        s = time.perf_counter()
        for _ in range(wl.trace_units):
            wl.unit(rec)
        plain.append(time.perf_counter() - s)
        tracer = spans.Tracer()
        with spans.installed(tracer, spans.UNIT_BINDINGS, absent):
            with tracer.span(spans.ROOT):
                for _ in range(wl.trace_units):
                    wl.unit(rec)
        root = tracer.spans[0]
        walls.append(root.end - root.start)
        per_unit.append(spans.layer_metrics((setup_tracer.spans, tracer.spans),
                                            wl.n_train_fps, wl.n_triplets))
        last = tracer
    wl.finish(rec)
    metrics = {k: float(statistics.median(m[k] for m in per_unit)) for k in per_unit[0]}
    # paired ratios cancel the host's slow drift between sections
    metrics["bench.trace_overhead_frac"] = statistics.median(
        w / p for w, p in zip(walls, plain)) - 1.0
    metrics["bench.absent_bindings"] = len(absent)
    for name in sorted(absent):
        print(f"absent binding {name}: its layer metrics read 0")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{wl.name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for s in setup_tracer.spans + last.spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
    print(f"spans of the last traced unit: {os.path.relpath(path, ROOT)}")
    return rec, metrics


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "driftloc" / "__init__.py").is_file():
        print(f"error: no driftloc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    # BLAS threads must be fixed before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    sys.path.insert(0, str(SRC))
    import numpy as np
    import driftloc
    import workloads

    if not Path(driftloc.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported driftloc from {driftloc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](driftloc, work)
    print("env " + json.dumps(environment(np, args.seed)))
    try:
        if args.trace:
            rec, metrics = traced(wl, args.seed, args.seconds, ROOT / ".perfbench_out")
            wanted = contract["per_layer"]
        else:
            rec, info, metrics = measure(wl, args.seed, args.seconds)
            for name, (value, unit) in info.items():
                print(f"{name} {value:.6g} {unit}")
            wanted = contract["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if metrics is None:
        print("error: every timed call of one kind failed; no metrics", file=sys.stderr)
        return 1
    fail_frac = rec.failed / max(rec.attempted, 1)
    print(f"fail_frac {fail_frac:.6g} ({rec.failed} failed of {rec.attempted} operations)")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

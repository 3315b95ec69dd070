"""Run one ``driftloc`` command in fresh processes, alternating between two
source trees, and print each process's wall time, minor page faults and
peak resident memory.

Run from anywhere, with two checkouts of the repository and the command's
arguments after ``--``:

    python3 tools/fresh_runs.py --runs 3 PARENT_DIR CHANGE_DIR -- \\
        eval --model model.stne --fingerprints scenario/fingerprints.csv \\
        --report report-{tree}.csv

Each run starts ``python -m driftloc.cli`` with ``PYTHONPATH`` set to the
tree's ``src`` and the rest of the environment as given, BLAS thread
variables included: set ``OPENBLAS_NUM_THREADS`` on this command's line
to measure under it.  ``{tree}`` in an argument becomes 1 or 2, the
tree's position, so that the two trees' output files can be compared.
The command's standard output is discarded; its errors are shown.

One line per process, in run order:

    <tree> <run> wall_s=<s> minflt=<count> maxrss_mb=<MB> exit=<code>

where ``minflt`` and ``maxrss_mb`` are the child's ``ru_minflt`` and
``ru_maxrss`` from ``os.wait4``.  A last line per tree gives the medians.
Nothing in the package imports this file.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time


def run_once(tree: str, position: int, args: list[str]) -> tuple[float, int, float, int]:
    """(wall seconds, minor faults, peak RSS in MB, exit code) of one
    fresh ``driftloc`` process on ``tree``'s source."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    argv = [sys.executable, "-m", "driftloc.cli"] + [a.replace("{tree}", str(position))
                                                     for a in args]
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return wall, usage.ru_minflt, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="processes per tree")
    parser.add_argument("trees", nargs=2, help="two repository checkouts")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- then the driftloc command and its arguments")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("give the driftloc command after --")
    blas = {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                       "OMP_NUM_THREADS", "MKL_NUM_THREADS") if v in os.environ}
    print(f"# driftloc {' '.join(command)}; BLAS variables {blas or 'unset'}")
    results: dict[int, list[tuple[float, int, float, int]]] = {1: [], 2: []}
    failed = False
    for run in range(1, args.runs + 1):
        for position, tree in enumerate(args.trees, 1):
            wall, minflt, maxrss, code = run_once(tree, position, command)
            results[position].append((wall, minflt, maxrss, code))
            failed |= code != 0
            print(f"{position} {run} wall_s={wall:.3f} minflt={minflt} "
                  f"maxrss_mb={maxrss:.1f} exit={code}", flush=True)
    for position, tree in enumerate(args.trees, 1):
        walls, faults, rss, _ = zip(*results[position])
        print(f"{position} median wall_s={statistics.median(walls):.3f} "
              f"minflt={statistics.median(faults):.0f} "
              f"maxrss_mb={statistics.median(rss):.1f} tree={tree}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

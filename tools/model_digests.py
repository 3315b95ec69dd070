"""Print digests that show whether a change keeps the model bytes, the
predictions and the gradients.

Run from the repository root:

    PYTHONPATH=src python3 tools/model_digests.py [--workers N]

``--workers N`` sets ``nn.WORKERS``, the threads that train, embed and
query in blocks, to N before any work; without it the tool keeps the
count that ``nn`` reads from the host.  The digest lines do not depend
on it.

It prints an ``env`` line and then six groups of lines, in this order:

* ``env ...``: the numpy version, the BLAS library and version, the BLAS
  thread variables, ``nn.WORKERS`` and numpy's CPU SIMD features, so
  that a run on another machine can be told apart from changed bits;
* ``<name> <16 hex>``: the SHA-256 prefix of the model file that each of
  a fixed set of training runs writes;
* ``<name>-predict <16 hex>``: the SHA-256 prefix of the ``(rp_id, x, y)``
  of each row that ``predict_batch`` (k=3) returns over that run's test
  split, then ``single-predict <16 hex>``: the SHA-256 prefix of the
  ``(rp_id, x, y, neighbor_rps)`` that ``predict`` (k=3) returns for each
  of the first SINGLE_SCANS test scans of the uji-default-1ep run, one
  scan at a time;
* ``gradcheck <seed> <error>``: the repr of ``run_gradcheck(seed, 4, 3)``,
  the gradient error ``driftloc gradcheck`` reports;
* ``cli-train <16 hex>``: the SHA-256 prefix of the model file that
  ``driftloc train`` writes from the office-like scenario's CSV files, so
  the metadata lines the command adds (AP registry, training CI, FPR and
  seeds) are covered too;
* ``sweep-fpr <16 hex>``: the SHA-256 prefix of the report CSV and then
  the standard output of ``driftloc sweep-fpr`` on the same files.  At
  FPR 6 every CI-0 fingerprint goes to training, so one report lacks a CI;
* ``office-raw-knn <16 hex>`` and ``uji-raw-knn <16 hex>``: the SHA-256
  prefix of the ``(rp_id, x, y)`` of each row that
  ``baseline_predict_batch`` (k=3) returns over the office-like and
  uji-like test splits, against their training splits.  These come last,
  so the lines above them read as they did before the two were added.

A change that must keep these bits prints the same lines before and after
it, on the same machine.  BLAS runs on one thread, because model bytes
depend on the BLAS thread count.  The name does not start with ``test_``,
so pytest does not collect this file.

``tests/model_digests.txt`` records this output, and
``tests/test_golden_digests.py`` checks a fresh run against its digest
lines.  A change that means to change bits re-records the file, on the
machine its ``env`` line names where it can, with

    PYTHONPATH=src python3 tools/model_digests.py > tests/model_digests.txt
"""

import os

# the BLAS thread variables perfbench/run.py pins, set before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in THREAD_VARS:
    os.environ[var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from driftloc import (EncoderConfig, TrainConfig, generate,  # noqa: E402
                      predict, predict_batch, preset, save_model, split_by_ci,
                      train, write_scenario)
from driftloc import nn  # noqa: E402
from driftloc.cli import main as cli_main, run_gradcheck  # noqa: E402
from driftloc.localizer import baseline_predict_batch  # noqa: E402

DATA_SEED, SPLIT_SEED, TRAIN_SEED = 42, 100, 200

# name -> (preset, encoder config, epochs)
RUNS = {
    "office-default-2ep": ("office-like", EncoderConfig(), 2),
    "office-7-19-k3": ("office-like", EncoderConfig(conv1_filters=7, conv2_filters=19,
                                                    filter_size=3), 2),
    "uji-default-1ep": ("uji-like", EncoderConfig(), 1),
    "office-crit8": ("office-like", EncoderConfig(embed_dim=8, margin_alpha=0.5), 2),
    "office-nodrop": ("office-like", EncoderConfig(dropout_rate=0.0, noise_sigma=0.0), 1),
}

# the run whose first SINGLE_SCANS test scans the single-predict line covers
SINGLE_RUN, SINGLE_SCANS = "uji-default-1ep", 200

GRADCHECK_SEEDS = (0, 3, 7)

# the flags of the `driftloc train` and `driftloc sweep-fpr` runs, besides
# their input and output files
CLI_TRAIN_FLAGS = ["--train-ci", "0", "--fpr", "6", "--epochs", "1", "--seed", "7"]
CLI_SWEEP_FLAGS = ["--fprs", "1,2,6", "--repeats", "2", "--epochs", "1", "--seed", "7"]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _predictions_digest(preds) -> str:
    return _digest("".join(f"{p.rp_id} {p.x!r} {p.y!r}\n" for p in preds).encode())


def _env_line() -> str:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    threads = " ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS)
    simd = ",".join(sorted(name for name, on in features.items() if on)) or "?"
    return (f"env numpy={np.__version__} blas={blas.get('name', '?')}-"
            f"{blas.get('version', '?')} {threads} workers={nn.WORKERS} simd={simd}")


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, help="set nn.WORKERS to this count")
    args = parser.parse_args(argv)
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        nn.WORKERS = args.workers
    print(_env_line(), flush=True)
    splits = {}
    predict_lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.stne"
        for name, (scenario, encoder, epochs) in RUNS.items():
            if scenario not in splits:
                dataset, _ = generate(preset(scenario, seed=DATA_SEED))
                splits[scenario] = split_by_ci(dataset, 0, 6, SPLIT_SEED)
            train_set, test_set = splits[scenario]
            cfg = TrainConfig(encoder=encoder, epochs=epochs)
            model, index = train(train_set, cfg, TRAIN_SEED)
            save_model(model, index, path)
            print(name, _digest(path.read_bytes()), flush=True)
            preds = predict_batch(model, index, test_set.rssi, k=3)
            predict_lines.append(f"{name}-predict {_predictions_digest(preds)}")
            if name == SINGLE_RUN:
                preds = [predict(model, index, fp, 3)
                         for fp in test_set.fingerprints[:SINGLE_SCANS]]
                rows = "".join(f"{p.rp_id} {p.x!r} {p.y!r} {p.neighbor_rps!r}\n"
                               for p in preds)
                single = _digest(rows.encode())
    predict_lines.append(f"single-predict {single}")
    for line in predict_lines:
        print(line, flush=True)
    for seed in GRADCHECK_SEEDS:
        print("gradcheck", seed, repr(float(run_gradcheck(seed, 4, 3))), flush=True)
    cli_train, sweep_fpr = _cli_digests()
    print("cli-train", cli_train, flush=True)
    print("sweep-fpr", sweep_fpr, flush=True)
    for scenario, (train_set, test_set) in splits.items():
        preds = baseline_predict_batch(train_set, test_set.rssi, k=3)
        print(f"{scenario.split('-')[0]}-raw-knn", _predictions_digest(preds), flush=True)


def _cli_digests() -> tuple[str, str]:
    """Digests of `driftloc train`'s model file and of `driftloc
    sweep-fpr`'s report followed by its stdout."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_scenario(*generate(preset("office-like", seed=DATA_SEED)), tmp)
        data = ["--floorplan", str(paths["floorplan"]),
                "--fingerprints", str(paths["fingerprints"])]
        model, report = Path(tmp) / "model.stne", Path(tmp) / "sweep.csv"
        _run_cli(["train", *data, *CLI_TRAIN_FLAGS, "--out", str(model)])
        stdout = _run_cli(["sweep-fpr", *data, *CLI_SWEEP_FLAGS, "--report", str(report)])
        return (_digest(model.read_bytes()),
                _digest(report.read_bytes() + stdout.encode()))


def _run_cli(argv: list[str]) -> str:
    """`driftloc <argv>`'s standard output; a nonzero exit stops the tool."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli_main(argv) != 0:
            raise SystemExit(f"driftloc {argv[0]} failed")
    return out.getvalue()


if __name__ == "__main__":
    main()

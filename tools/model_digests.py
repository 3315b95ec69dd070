"""Print the SHA-256 prefix of the model file that each of a fixed set of
training runs writes.

Run from the repository root, with no options:

    PYTHONPATH=src python3 tools/model_digests.py

Each line is ``<name> <first 16 hex digits>``.  A change that must keep
model bytes prints the same lines before and after it, on the same
machine.  BLAS runs on one thread, because model bytes depend on the
BLAS thread count.  The name does not start with ``test_``, so pytest
does not collect this file.
"""

import os

# the BLAS thread variables perfbench/run.py pins, set before numpy is imported
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import hashlib  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from driftloc import (EncoderConfig, TrainConfig, generate, preset,  # noqa: E402
                      save_model, split_by_ci, train)

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


def main() -> None:
    splits = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.stne"
        for name, (scenario, encoder, epochs) in RUNS.items():
            if scenario not in splits:
                dataset, _ = generate(preset(scenario, seed=DATA_SEED))
                splits[scenario] = split_by_ci(dataset, 0, 6, SPLIT_SEED)[0]
            cfg = TrainConfig(encoder=encoder, epochs=epochs)
            model, index = train(splits[scenario], cfg, TRAIN_SEED)
            save_model(model, index, path)
            print(name, hashlib.sha256(path.read_bytes()).hexdigest()[:16], flush=True)


if __name__ == "__main__":
    main()

"""Command-line surface.

Subcommands: simulate, train, eval, sweep-fpr, gradcheck, predict.
Every command exits 0 on success and nonzero with a message on stderr on
any error; all configuration is via flags.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from dataclasses import replace
from typing import get_type_hints

import numpy as np

from . import simulate as sim
from .data import (FingerprintDataset, FloorPlan, ReferencePoint, load_dataset,
                   load_fingerprints_csv, load_floorplan, load_scans, split_by_ci)
from .encoder import (EncoderConfig, encode_batch, gradient_check, init_model,
                      small_check_config, triplet_loss)
from .errors import DriftlocError
from .evaluate import (evaluate_baseline_over_time, evaluate_over_time,
                       fpr_sweep, write_report_csv, write_sweep_csv)
from .localizer import DEFAULT_K, DEFAULT_RULE, RULES, TrainConfig, predict_batch, train
from .model_io import load_model_full, save_model
from .preprocess import normalize_rows

logger = logging.getLogger(__name__)

GRADCHECK_THRESHOLD = 1e-4
# How far a replayed training row's embedding may lie from its index entry
REPLAY_TOLERANCE = 1e-5


# SimConfig's number fields but seed, which has its own flag: `simulate`
# can override each as --<name-with-dashes>.
_SIM_OVERRIDES = {name: kind for name, kind in get_type_hints(sim.SimConfig).items()
                  if kind in (int, float) and name != "seed"}


def _add_sim(sub):
    p = sub.add_parser("simulate", help="generate a synthetic drift scenario")
    p.set_defaults(run=_cmd_simulate)
    p.add_argument("--preset", required=True, choices=list(sim.PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="scenario", help="output directory")
    for name, kind in _SIM_OVERRIDES.items():
        p.add_argument("--" + name.replace("_", "-"), type=kind)
    p.add_argument("--removal", help="schedule as ci:frac[,ci:frac...]")


def _parse_removal(text: str) -> dict[int, float]:
    out = {}
    for part in text.split(","):
        ci, _, frac = part.partition(":")
        if not frac:
            raise ValueError(f"bad removal entry {part!r}, want ci:frac")
        if int(ci) in out:
            raise ValueError(f"removal schedule gives ci {int(ci)} twice")
        out[int(ci)] = float(frac)
    return out


def _cmd_simulate(args) -> int:
    cfg = sim.preset(args.preset, seed=args.seed)
    overrides = {name: getattr(args, name) for name in _SIM_OVERRIDES
                 if getattr(args, name) is not None}
    if args.removal is not None:
        overrides["removal_schedule"] = _parse_removal(args.removal)
    else:  # the preset's removals that fall inside a shortened scenario
        n_cis = overrides.get("n_cis", cfg.n_cis)
        overrides["removal_schedule"] = {ci: frac for ci, frac in cfg.removal_schedule.items()
                                         if ci < n_cis}
    cfg = replace(cfg, **overrides)
    dataset, truth = sim.generate(cfg)
    paths = sim.write_scenario(dataset, truth, args.out)
    print(f"wrote {paths['floorplan']}, {paths['fingerprints']}, {paths['ground_truth']}")
    return 0


def _add_train(sub):
    p = sub.add_parser("train", help="run the offline phase and save a model")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--floorplan", required=True)
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--train-ci", type=int, default=0)
    p.add_argument("--fpr", type=int, default=6)
    _add_train_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model file path (.stne)")


def _add_train_flags(p):
    """The training configuration flags that train and sweep-fpr share,
    with the configs' defaults."""
    enc, tr = EncoderConfig(), TrainConfig()
    p.add_argument("--embed-dim", type=int, default=enc.embed_dim)
    p.add_argument("--alpha", type=float, default=enc.margin_alpha)
    p.add_argument("--p-upper", type=float, default=tr.p_upper)
    p.add_argument("--noise-sigma", type=float, default=enc.noise_sigma)
    p.add_argument("--sigma-sel", default="auto",
                   help="meters, or 'auto' for 0.1 x floorplan diagonal")
    p.add_argument("--dropout-rate", type=float, default=enc.dropout_rate)
    p.add_argument("--epochs", type=int, default=tr.epochs)
    p.add_argument("--batch", type=int, default=tr.batch_size)
    p.add_argument("--lr", type=float, default=tr.learning_rate)


def _registry_string(fp: FloorPlan) -> str:
    for ap in fp.ap_registry:
        if "," in ap or "\n" in ap:
            raise ValueError(f"AP id {ap!r} contains characters reserved by the model file")
    return ",".join(fp.ap_registry)


def _train_config(args) -> TrainConfig:
    sigma_sel = None if args.sigma_sel == "auto" else float(args.sigma_sel)
    return TrainConfig(
        encoder=EncoderConfig(embed_dim=args.embed_dim, margin_alpha=args.alpha,
                              noise_sigma=args.noise_sigma,
                              dropout_rate=args.dropout_rate),
        p_upper=args.p_upper,
        sigma_sel=sigma_sel,
        epochs=args.epochs,
        batch_size=args.batch,
        learning_rate=args.lr,
    )


def _cmd_train(args) -> int:
    dataset = load_dataset(args.floorplan, args.fingerprints)
    split_seed, train_seed = (
        int(s) for s in np.random.SeedSequence(args.seed).generate_state(2)
    )
    train_set, _ = split_by_ci(dataset, args.train_ci, args.fpr, split_seed)
    cfg = _train_config(args)
    extra = {
        "ap_registry": _registry_string(dataset.floorplan),
        "train_ci": str(args.train_ci),
        "fpr": str(args.fpr),
        "split_seed": str(split_seed),
        "cli_seed": str(args.seed),
    }
    logger.info("training on %d fingerprints across %d RPs",
                len(train_set), len(dataset.floorplan.rps))
    model, index = train(train_set, cfg, train_seed)
    save_model(model, index, args.out, extra=extra)
    print(f"saved model with {len(index)} index entries to {args.out}")
    return 0


def _add_eval(sub):
    p = sub.add_parser("eval", help="per-CI error report for a saved model")
    p.set_defaults(run=_cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--baseline", action="store_true",
                   help="also report the raw-RSSI KNN baseline")
    p.add_argument("--report", required=True, help="output CSV path")
    p.add_argument("--floorplan", help="optional floorplan CSV; defaults to "
                                       "RP coordinates recovered from the model")
    p.add_argument("--rule", choices=RULES, default=DEFAULT_RULE)


def _rps_from_model(index) -> list[ReferencePoint]:
    rp_ids, first = np.unique(index.rp_ids, return_index=True)
    return [ReferencePoint(rp_id=rp, x=x, y=y) for rp, x, y in
            zip(rp_ids.tolist(), index.xs[first].tolist(), index.ys[first].tolist())]


def _model_registry(extra) -> tuple[str, ...]:
    registry = tuple(extra.get("ap_registry", "").split(","))
    if registry == ("",):
        raise DriftlocError("model file lacks the AP registry; cannot align scans")
    return registry


def _dataset_for_model(args, index, extra) -> FingerprintDataset:
    registry = _model_registry(extra)
    rps = load_floorplan(args.floorplan) if args.floorplan else _rps_from_model(index)
    dataset = load_fingerprints_csv(args.fingerprints, rps)
    if dataset.floorplan.ap_registry != registry:
        raise DriftlocError(
            "fingerprint CSV registry does not match the model's training registry"
        )
    return dataset


def _check_replay(model, index, train_part: FingerprintDataset, train_ci: int) -> None:
    """Refuse a replayed training split that is not the one the model's
    index holds: its rows' rp_ids must be the index's, in order, and their
    embeddings within REPLAY_TOLERANCE of the stored ones."""
    if not (np.array_equal(train_part.rp_ids, index.rp_ids)
            and np.abs(encode_batch(model, normalize_rows(train_part.rssi))
                       - index.embeddings).max() <= REPLAY_TOLERANCE):
        raise DriftlocError(
            f"the fingerprints at training ci {train_ci} are not the ones this "
            "model was trained on; evaluate on the CSV it was trained from"
        )


def _cmd_eval(args) -> int:
    model, index, extra = load_model_full(args.model)
    dataset = _dataset_for_model(args, index, extra)

    train_part = test_part = None
    if {"train_ci", "fpr", "split_seed"} <= extra.keys():
        train_ci = int(extra["train_ci"])
        if train_ci in dataset.cis():
            train_part, test_part = split_by_ci(
                dataset, train_ci, int(extra["fpr"]), int(extra["split_seed"])
            )
            _check_replay(model, index, train_part, train_ci)
    if test_part is None:
        logger.info("training split not recoverable; evaluating all fingerprints")
        test_part = dataset
        if args.baseline:
            raise DriftlocError(
                "--baseline needs the training partition, which this dataset "
                "does not contain (training CI missing)"
            )

    reports = [evaluate_over_time(model, index, test_part, args.k, args.rule)]
    if args.baseline:
        reports.append(evaluate_baseline_over_time(train_part, test_part,
                                                   args.k, args.rule))
    write_report_csv(reports, args.report)
    for r in reports:
        print(f"{r.method_label}: overall mean error "
              f"{r.overall_mean_error:.3f} m over {sum(r.n_queries_per_ci.values())} queries")
    return 0


def _add_sweep(sub):
    p = sub.add_parser("sweep-fpr", help="sensitivity of error to fingerprints per RP")
    p.set_defaults(run=_cmd_sweep)
    p.add_argument("--floorplan", required=True)
    p.add_argument("--fingerprints", required=True)
    p.add_argument("--fprs", default="1,2,4,6", help="comma-separated FPR values")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", required=True)
    p.add_argument("--train-ci", type=int, default=0)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    _add_train_flags(p)


def _cmd_sweep(args) -> int:
    dataset = load_dataset(args.floorplan, args.fingerprints)
    fprs = [int(x) for x in args.fprs.split(",") if x]
    cfg = _train_config(args)
    reports = fpr_sweep(dataset, fprs, cfg, repeats=args.repeats, seed=args.seed,
                        train_ci=args.train_ci, k=args.k)
    write_sweep_csv(reports, args.report)
    for fpr, report in reports.items():
        print(f"fpr={fpr}: overall mean error {report.overall_mean_error:.3f} m")
    return 0


def _add_gradcheck(sub):
    p = sub.add_parser("gradcheck", help="verify backprop against finite differences")
    p.set_defaults(run=_cmd_gradcheck)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", type=int, default=4)
    p.add_argument("--embed-dim", type=int, default=3)


def random_check_triplet(side: int, rng: np.random.Generator) -> np.ndarray:
    """Anchor, positive and negative rows of uniform random pixels."""
    return rng.random((3, side * side))


def run_gradcheck(seed: int, side: int, embed_dim: int) -> float:
    """Build a small deterministic encoder, find a hinge-active random
    triplet, and return the max relative gradient error."""
    cfg = small_check_config(embed_dim=embed_dim)
    model = init_model(cfg, side, seed)
    for attempt in range(1000):
        rng = np.random.default_rng([seed, attempt])
        t = random_check_triplet(side, rng)
        raw = triplet_loss(*encode_batch(model, t), cfg.margin_alpha)
        if raw > 1e-3:  # comfortably inside the active region
            return gradient_check(model, t)
    raise DriftlocError("could not find a hinge-active triplet")


def _cmd_gradcheck(args) -> int:
    err = run_gradcheck(args.seed, args.side, args.embed_dim)
    print(f"max relative gradient error: {err:.3e}")
    if err > GRADCHECK_THRESHOLD:
        print(f"FAIL: exceeds {GRADCHECK_THRESHOLD:.0e}", file=sys.stderr)
        return 1
    return 0


def _add_predict(sub):
    p = sub.add_parser("predict", help="locate scans with a saved model")
    p.set_defaults(run=_cmd_predict)
    p.add_argument("--model", required=True)
    p.add_argument("--scan", required=True, help="CSV of scans (ap_<id> columns)")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.add_argument("--rule", choices=RULES, default=DEFAULT_RULE)


def _cmd_predict(args) -> int:
    model, index, extra = load_model_full(args.model)
    scans = load_scans(args.scan, _model_registry(extra))
    preds = predict_batch(model, index, scans, args.k, args.rule)
    writer = csv.writer(sys.stdout)
    writer.writerow(["x_m", "y_m", "rp_id"])
    for p in preds:
        writer.writerow([f"{p.x:.4f}", f"{p.y:.4f}", p.rp_id])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftloc",
        description="Drift-robust WiFi fingerprint localization toolkit",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="-v for progress, -vv for per-epoch detail")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_sim(sub)
    _add_train(sub)
    _add_eval(sub)
    _add_sweep(sub)
    _add_gradcheck(sub)
    _add_predict(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
    try:
        return args.run(args)
    except (DriftlocError, ValueError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

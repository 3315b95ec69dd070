"""Metrics and the longitudinal evaluation harness.

Errors are Euclidean meters between the predicted coordinates and the
true RP's coordinates, reported per collection instance and overall
(query-count weighted).  Side-by-side method comparisons always evaluate
the identical query set in the identical order.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .data import Fingerprint, FingerprintDataset, split_by_ci
from .encoder import EncoderModel
from .localizer import (DEFAULT_K, DEFAULT_RULE, EmbeddingIndex, Prediction,
                        TrainConfig, baseline_predict_batch, predict_batch, train)
# Unused here; perfbench/spans.py traces the per-scan entry point under
# this module's name.
from .localizer import predict  # noqa: F401

logger = logging.getLogger(__name__)

EMBEDDING_METHOD = "embedding-knn"
BASELINE_METHOD = "raw-knn"


@dataclass(frozen=True)
class EvalReport:
    per_ci_mean_error: dict[int, float]
    overall_mean_error: float
    n_queries_per_ci: dict[int, int]
    method_label: str

    def cis(self) -> tuple[int, ...]:
        return tuple(sorted(self.per_ci_mean_error))

    def window_mean(self, cis: Sequence[int]) -> float:
        """Query-count-weighted mean error over a CI window."""
        cis = [ci for ci in cis if ci in self.per_ci_mean_error]
        if not cis:
            raise ValueError("no queries in the requested CI window")
        total = sum(self.per_ci_mean_error[ci] * self.n_queries_per_ci[ci] for ci in cis)
        count = sum(self.n_queries_per_ci[ci] for ci in cis)
        return total / count


def _report(preds: Sequence[Prediction], test: FingerprintDataset,
            method_label: str) -> EvalReport:
    """Aggregate per-query errors of ``preds``, one per test fingerprint in
    order, per CI and overall."""
    if len(test) == 0:
        raise ValueError("empty test set")
    if len(preds) != len(test):
        raise ValueError(f"{len(preds)} predictions for {len(test)} test fingerprints")
    got = np.array([(p.x, p.y) for p in preds], dtype=np.float64)
    err = np.hypot(*(got - test.xy).T)
    cis = test.cis()
    at = np.searchsorted(cis, test.ci_ids)  # np.unique would import numpy.ma
    n = np.bincount(at, minlength=len(cis))
    sums = np.bincount(at, weights=err, minlength=len(cis))
    return EvalReport(
        per_ci_mean_error=dict(zip(cis, (sums / n).tolist())),
        overall_mean_error=float(err.sum()) / len(test),
        n_queries_per_ci=dict(zip(cis, n.tolist())),
        method_label=method_label,
    )


def _run_eval(predict_fn: Callable[[Fingerprint], Prediction],
              test: FingerprintDataset, method_label: str) -> EvalReport:
    """The harness with one ``predict_fn`` call per test fingerprint: the
    per-scan reference that the batched harness is tested against."""
    return _report([predict_fn(fp) for fp in test.fingerprints], test, method_label)


def evaluate_over_time(model: EncoderModel, index: EmbeddingIndex,
                       test: FingerprintDataset, k: int = DEFAULT_K,
                       rule: str = DEFAULT_RULE) -> EvalReport:
    """Predict every test fingerprint through the encoder+KNN pipeline in
    one batched call and aggregate errors per CI."""
    preds = predict_batch(model, index, test.rssi, k, rule)
    return _report(preds, test, EMBEDDING_METHOD)


def evaluate_baseline_over_time(train_set: FingerprintDataset,
                                test: FingerprintDataset, k: int = DEFAULT_K,
                                rule: str = DEFAULT_RULE) -> EvalReport:
    """Same harness, raw-RSSI KNN instead of the encoder."""
    preds = baseline_predict_batch(train_set, test.rssi, k, rule)
    return _report(preds, test, BASELINE_METHOD)


@dataclass(frozen=True)
class SweepResult:
    """fpr x ci mean-error table plus the per-fpr overall mean, each
    averaged over the sweep repeats."""

    fprs: tuple[int, ...]
    cis: tuple[int, ...]
    mean_error: dict[tuple[int, int], float]   # (fpr, ci) -> meters
    overall: dict[int, float]                  # fpr -> meters
    repeats: int


def fpr_sweep(dataset: FingerprintDataset, fprs: Sequence[int], cfg: TrainConfig,
              repeats: int, seed: int, train_ci: int = 0, k: int = DEFAULT_K,
              rule: str = DEFAULT_RULE) -> SweepResult:
    """Re-split (fresh seed per repeat), train, and evaluate for every FPR.

    Requires every RP to actually have max(fprs) fingerprints at the
    training CI, so all sweep rows are comparable.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    fprs = tuple(int(f) for f in fprs)
    if not fprs or any(f < 1 for f in fprs):
        raise ValueError("fprs must be positive integers")
    available = min(len(v) for v in dataset.by_rp(ci=train_ci).values())
    if max(fprs) > available:
        raise ValueError(
            f"max fpr {max(fprs)} exceeds the {available} fingerprints "
            f"available per RP at ci {train_ci}"
        )

    # Every repeat of one FPR tests the same CIs: what stays at train_ci
    # does not depend on the split seed.
    err: dict[tuple[int, int], float] = {}
    overall: dict[int, float] = {f: 0.0 for f in fprs}
    cis: set[int] = set()
    for fpr in fprs:
        for rep in range(repeats):
            split_seed, train_seed = (
                int(s) for s in np.random.SeedSequence([seed, fpr, rep]).generate_state(2)
            )
            tr, te = split_by_ci(dataset, train_ci, fpr, split_seed)
            model, index = train(tr, cfg, train_seed)
            report = evaluate_over_time(model, index, te, k, rule)
            logger.debug("fpr=%d repeat=%d overall=%.3f m", fpr, rep,
                         report.overall_mean_error)
            overall[fpr] += report.overall_mean_error
            for ci, m in report.per_ci_mean_error.items():
                cis.add(ci)
                err[(fpr, ci)] = err.get((fpr, ci), 0.0) + m
    return SweepResult(
        fprs=fprs,
        cis=tuple(sorted(cis)),
        mean_error={key: total / repeats for key, total in err.items()},
        overall={f: overall[f] / repeats for f in fprs},
        repeats=repeats,
    )


def write_report_csv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """Rows: ci,method,n,mean_error_m — one row per (CI, method)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ci", "method", "n", "mean_error_m"])
        for report in reports:
            for ci in report.cis():
                writer.writerow([ci, report.method_label,
                                 report.n_queries_per_ci[ci],
                                 f"{report.per_ci_mean_error[ci]:.6f}"])


def write_sweep_csv(result: SweepResult, path: str | Path) -> None:
    """Rows: fpr,ci,mean_error_m plus one fpr,overall,mean_error_m row per
    FPR."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fpr", "ci", "mean_error_m"])
        for fpr in result.fprs:
            for ci in result.cis:
                if (fpr, ci) in result.mean_error:
                    writer.writerow([fpr, ci, f"{result.mean_error[(fpr, ci)]:.6f}"])
            writer.writerow([fpr, "overall", f"{result.overall[fpr]:.6f}"])

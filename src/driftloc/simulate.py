"""Synthetic longitudinal fingerprint scenarios.

Reference points sit on a grid; access points land uniformly at random.
Received power follows log-distance path loss with additive Gaussian
shadowing:

    rssi = tx_power_dbm - 10 * path_loss_exponent * log10(max(d, 1))
           + per-CI AP bias + per-scan noise

clamped to [-100, 0] and rounded to integer dBm.  The per-CI bias has
two parts: a transient component redrawn independently every CI
(hourly_sigma_db; the session-to-session variation of human activity and
interference) and a random walk (zero at the first CI, steps of std
drift_sigma_db) that wanders gradually away from the surveyed state.
The removal schedule turns whole APs off (cumulatively) from a given
collection instance onward, emitting the -100 sentinel.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .data import (RSSI_MAX, RSSI_MISSING, FingerprintDataset, FloorPlan,
                   ReferencePoint, save_dataset)


@dataclass(frozen=True)
class SimConfig:
    width: float
    height: float
    rp_spacing: float
    n_aps: int
    n_cis: int
    fpr: int
    tx_power_dbm: float = -40.0
    path_loss_exponent: float = 3.0
    shadow_sigma_db: float = 2.0
    drift_sigma_db: float = 1.0
    hourly_sigma_db: float = 0.0
    removal_schedule: dict[int, float] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        for name in ("width", "height", "rp_spacing"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and > 0")
        for name in ("shadow_sigma_db", "drift_sigma_db", "hourly_sigma_db"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not math.isfinite(self.tx_power_dbm):
            raise ValueError("tx_power_dbm must be finite")
        if not 1.5 <= self.path_loss_exponent <= 6.0:
            raise ValueError("path_loss_exponent must lie in [1.5, 6]")
        per_axis = [extent / self.rp_spacing for extent in (self.width, self.height)]
        n_rps = (math.prod(int(n) + 1 for n in per_axis) if math.isfinite(max(per_axis))
                 else math.inf)
        if not 2 <= n_rps <= 2**31:  # rp_ids are int32
            raise ValueError(f"width x height at rp_spacing {self.rp_spacing} places {n_rps} "
                             "RPs; need at least 2, at most 2**31")
        if self.n_aps < 1 or self.n_cis < 1 or self.fpr < 1:
            raise ValueError("n_aps, n_cis and fpr must be >= 1")
        prev = 0.0
        for ci in sorted(self.removal_schedule):
            frac = self.removal_schedule[ci]
            if not 0 <= ci < self.n_cis:
                raise ValueError(f"removal schedule ci {ci} outside [0, {self.n_cis})")
            if not 0.0 <= frac <= 1.0:
                raise ValueError("removal fractions must lie in [0, 1]")
            if frac < prev:
                raise ValueError("removal fractions must be non-decreasing over ci")
            prev = frac


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """What the simulator actually did: AP placement, removal times, and
    the per-CI per-AP bias values (absolute, not increments)."""

    ap_positions: np.ndarray   # (n_aps, 2) meters
    removed_at_ci: np.ndarray  # (n_aps,) int64 first silenced CI, -1 = never
    biases: np.ndarray         # (n_cis, n_aps) dB


def generate(cfg: SimConfig) -> tuple[FingerprintDataset, GroundTruth]:
    """Build a full longitudinal dataset plus its ground truth, seeded.
    Rows run in (CI, floorplan RP, scan) order."""
    xs, ys = (np.arange(int(extent / cfg.rp_spacing) + 1) * cfg.rp_spacing
              for extent in (cfg.width, cfg.height))
    n_rps = len(xs) * len(ys)
    rps = tuple(ReferencePoint(rp_id=i, x=x, y=y)
                for i, (y, x) in enumerate(itertools.product(ys.tolist(), xs.tolist())))

    rng = np.random.default_rng(cfg.seed)
    ap_pos = np.column_stack([
        rng.uniform(0.0, cfg.width, size=cfg.n_aps),
        rng.uniform(0.0, cfg.height, size=cfg.n_aps),
    ])
    registry = tuple(f"{i:03d}" for i in range(cfg.n_aps))
    floorplan = FloorPlan(rps=rps, ap_registry=registry)

    # Removal order is one fixed permutation; cumulative fractions then map
    # to nested prefixes, so an AP once removed stays removed.
    removal_order = rng.permutation(cfg.n_aps)
    removed_at_ci = np.full(cfg.n_aps, -1, dtype=np.int64)
    for ci in sorted(cfg.removal_schedule, reverse=True):  # earlier CIs overwrite their prefix
        removed_at_ci[removal_order[:int(round(cfg.removal_schedule[ci] * cfg.n_aps))]] = ci

    # per-CI bias: session transient plus a gradual walk away from the
    # surveyed (first-CI) state
    biases = np.zeros((cfg.n_cis, cfg.n_aps))
    if cfg.drift_sigma_db > 0 and cfg.n_cis > 1:
        steps = rng.normal(0.0, cfg.drift_sigma_db, size=(cfg.n_cis - 1, cfg.n_aps))
        biases[1:] = np.cumsum(steps, axis=0)
    if cfg.hourly_sigma_db > 0 and cfg.n_cis > 1:
        biases[1:] += rng.normal(0.0, cfg.hourly_sigma_db,
                                 size=(cfg.n_cis - 1, cfg.n_aps))

    pos = floorplan.positions()
    d = np.sqrt(((pos[:, None, :] - ap_pos[None, :, :]) ** 2).sum(axis=2))
    base = cfg.tx_power_dbm - 10.0 * cfg.path_loss_exponent * np.log10(np.maximum(d, 1.0))

    scans = np.repeat((base + biases[:, None, :])[:, :, None, :], cfg.fpr, axis=2)
    if cfg.shadow_sigma_db > 0:
        # drawn in (CI, scan, RP, AP) order, which fixes each cell's draw per
        # seed; one CI at a time, so only one CI's draws are held at once
        for ci_scans in scans:
            ci_scans += rng.normal(0.0, cfg.shadow_sigma_db,
                                   size=(cfg.fpr, n_rps, cfg.n_aps)).transpose(1, 0, 2)
    np.rint(np.clip(scans, RSSI_MISSING, RSSI_MAX, out=scans), out=scans)
    dead = (removed_at_ci >= 0) & (removed_at_ci <= np.arange(cfg.n_cis)[:, None])
    np.copyto(scans, RSSI_MISSING, where=dead[:, None, None, :])

    dataset = FingerprintDataset.from_columns(
        floorplan, scans.reshape(-1, cfg.n_aps),
        rp_ids=np.tile(np.repeat(np.arange(n_rps), cfg.fpr), cfg.n_cis),
        ci_ids=np.repeat(np.arange(cfg.n_cis), n_rps * cfg.fpr))
    truth = GroundTruth(ap_positions=ap_pos, removed_at_ci=removed_at_ci, biases=biases)
    return dataset, truth


# Named desk-scale scenarios at seed 0, read by preset() and by the CLI's
# ``simulate --preset``.  office-like: a 48 m corridor surveyed every meter,
# 16 CIs with 6 fingerprints per RP, 20% of APs silenced from CI 11 onward.
# uji-like: an open-area RP grid over 15 periods, 9 fingerprints per RP, a
# 50% AP loss at period 11.  Both use strong path loss (each RP hears a
# local AP neighborhood, as in real buildings) and a busy radio environment:
# heavy per-scan shadowing plus session-to-session transients on a slow walk.
# The table and its schedules are read-only; preset() hands out copies.
PRESETS = MappingProxyType({
    "office-like": SimConfig(width=48.0, height=0.5, rp_spacing=1.0, n_aps=50,
                             n_cis=16, fpr=6, tx_power_dbm=-30.0,
                             path_loss_exponent=5.0, shadow_sigma_db=4.0,
                             drift_sigma_db=1.0, hourly_sigma_db=5.0,
                             removal_schedule=MappingProxyType({11: 0.20})),
    "uji-like": SimConfig(width=24.0, height=24.0, rp_spacing=3.0, n_aps=64,
                          n_cis=15, fpr=9, tx_power_dbm=-30.0,
                          path_loss_exponent=5.0, shadow_sigma_db=3.0,
                          drift_sigma_db=1.5, hourly_sigma_db=3.5,
                          removal_schedule=MappingProxyType({11: 0.50})),
})


def preset(name: str, seed: int = 0) -> SimConfig:
    """PRESETS[name] at ``seed``, with its own removal schedule dict."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (have: {', '.join(PRESETS)})")
    cfg = PRESETS[name]
    return replace(cfg, removal_schedule=dict(cfg.removal_schedule), seed=seed)


def write_scenario(dataset: FingerprintDataset, truth: GroundTruth,
                   out_dir: str | Path) -> dict[str, Path]:
    """Write floorplan.csv, fingerprints.csv and ground_truth.csv.

    The ground-truth schema is ``ap_id,x_m,y_m,removed_at_ci`` with -1
    for APs that are never removed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "floorplan": out / "floorplan.csv",
        "fingerprints": out / "fingerprints.csv",
        "ground_truth": out / "ground_truth.csv",
    }
    save_dataset(dataset, paths["floorplan"], paths["fingerprints"])
    with open(paths["ground_truth"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ap_id", "x_m", "y_m", "removed_at_ci"])
        for ap, (x, y), removed in zip(dataset.floorplan.ap_registry,
                                       truth.ap_positions.tolist(),
                                       truth.removed_at_ci.tolist()):
            writer.writerow([ap, repr(x), repr(y), removed])
    return paths

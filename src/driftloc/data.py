"""Domain types and dataset I/O.

A dataset is a floorplan (reference points + the canonical access-point
registry) plus a collection of RSSI fingerprints.  Fingerprints are dense
vectors aligned to the registry; an access point that was not observed in
a scan carries the sentinel value -100 dBm.

Two CSV schemas are used as the on-disk exchange format:

* floorplan CSV: header ``rp_id,x_m,y_m``, one row per reference point;
* fingerprint CSV: header ``rp_id,ci,ap_<id>,ap_<id>,...``, one row per
  scan, with dBm values in [-100, 0].  The order of the ``ap_`` columns
  defines the canonical registry order for the whole dataset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DatasetFormatError

RSSI_MISSING = -100.0
RSSI_MAX = 0.0

AccessPointId = str


@dataclass(frozen=True)
class ReferencePoint:
    """A surveyed location with known planar coordinates in meters."""

    rp_id: int
    x: float
    y: float

    def __post_init__(self):
        if not -2**31 <= self.rp_id < 2**31:  # model files store rp_ids as int32
            raise ValueError(f"rp_id {self.rp_id} does not fit in int32")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"RP {self.rp_id}: coordinates must be finite")


@dataclass(frozen=True)
class FloorPlan:
    """Reference points plus the ordered registry of known access points.

    The registry order is canonical: it fixes the layout of every
    fingerprint vector in the dataset.
    """

    rps: tuple[ReferencePoint, ...]
    ap_registry: tuple[AccessPointId, ...]

    def __post_init__(self):
        object.__setattr__(self, "rps", tuple(self.rps))
        object.__setattr__(self, "ap_registry", tuple(self.ap_registry))
        if len(self.rps) < 2:
            raise ValueError("floorplan needs at least 2 reference points")
        if len(self.ap_registry) < 1:
            raise ValueError("floorplan needs at least 1 access point")
        ids = [rp.rp_id for rp in self.rps]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate rp_id in floorplan")
        if any(not ap for ap in self.ap_registry):
            raise ValueError("empty access-point id in registry")
        if len(set(self.ap_registry)) != len(self.ap_registry):
            raise ValueError("duplicate access-point id in registry")

    @property
    def n_aps(self) -> int:
        return len(self.ap_registry)

    def positions(self) -> np.ndarray:
        """(n_rps, 2) array of coordinates in floorplan order."""
        return np.array([[rp.x, rp.y] for rp in self.rps], dtype=np.float64)

    def bounding_box_diagonal(self) -> float:
        pos = self.positions()
        span = pos.max(axis=0) - pos.min(axis=0)
        return float(np.hypot(span[0], span[1]))


@dataclass(frozen=True, eq=False)
class Fingerprint:
    """One RSSI scan: dBm per registered AP, tagged with its reference
    point and the collection instance (CI) it was captured in."""

    rp_id: int
    ci: int
    rssi: np.ndarray  # float64, aligned to the floorplan registry

    def __post_init__(self):
        arr = np.asarray(self.rssi, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("rssi must be a non-empty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rssi values must be finite")
        if arr.min() < RSSI_MISSING or arr.max() > RSSI_MAX:
            raise ValueError("rssi values must lie in [-100, 0]")
        if self.ci < 0:
            raise ValueError("ci must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "rssi", arr)


@dataclass(frozen=True, eq=False)
class FingerprintDataset:
    """A floorplan together with fingerprints referencing it."""

    floorplan: FloorPlan
    fingerprints: tuple[Fingerprint, ...]

    def __post_init__(self):
        object.__setattr__(self, "fingerprints", tuple(self.fingerprints))
        known = {rp.rp_id for rp in self.floorplan.rps}
        width = self.floorplan.n_aps
        for i, fp in enumerate(self.fingerprints):
            if fp.rp_id not in known:
                raise ValueError(f"fingerprint {i}: unknown rp_id {fp.rp_id}")
            if fp.rssi.size != width:
                raise ValueError(
                    f"fingerprint {i}: rssi length {fp.rssi.size} != registry length {width}"
                )

    def __len__(self) -> int:
        return len(self.fingerprints)

    # Per-row arrays, in dataset order.  Each is built on first use, kept
    # for the life of the dataset and read-only, so every consumer shares
    # one conversion from fingerprint objects.

    @cached_property
    def rssi(self) -> np.ndarray:
        """(n, n_aps) float64 dBm matrix, one row per fingerprint."""
        out = np.empty((len(self), self.floorplan.n_aps))
        for i, fp in enumerate(self.fingerprints):
            out[i] = fp.rssi
        return _read_only(out)

    @cached_property
    def rp_ids(self) -> np.ndarray:
        """(n,) int64 rp_id of each row."""
        return _read_only(np.fromiter((fp.rp_id for fp in self.fingerprints),
                                      dtype=np.int64, count=len(self)))

    @cached_property
    def ci_ids(self) -> np.ndarray:
        """(n,) int64 collection instance of each row."""
        return _read_only(np.fromiter((fp.ci for fp in self.fingerprints),
                                      dtype=np.int64, count=len(self)))

    @cached_property
    def xy(self) -> np.ndarray:
        """(n, 2) float64 coordinates of each row's reference point."""
        ids = np.array([rp.rp_id for rp in self.floorplan.rps], dtype=np.int64)
        order = np.argsort(ids)
        at = order[np.searchsorted(ids, self.rp_ids, sorter=order)]
        return _read_only(self.floorplan.positions()[at])

    def cis(self) -> tuple[int, ...]:
        """Distinct collection instances present, ascending."""
        return tuple(sorted({fp.ci for fp in self.fingerprints}))

    def by_rp(self, ci: int | None = None) -> dict[int, list[int]]:
        """Map rp_id -> fingerprint indices (dataset order), every
        floorplan RP present as a key.  Optionally restricted to one CI."""
        keep = np.ones(len(self), dtype=bool) if ci is None else self.ci_ids == ci
        return {rp.rp_id: np.flatnonzero(keep & (self.rp_ids == rp.rp_id)).tolist()
                for rp in self.floorplan.rps}


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _parse_number(cell: str, row: int, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise DatasetFormatError(f"non-numeric {what}: {cell!r}", row=row) from None


def _parse_int(cell: str, row: int, what: str) -> int:
    try:
        return int(cell)
    except ValueError:
        raise DatasetFormatError(f"non-integer {what}: {cell!r}", row=row) from None


def parse_rssi_cell(cell: str, row: int, column: str) -> float:
    """One dBm cell of a CSV row.  A non-numeric cell, or a value outside
    [-100, 0] (NaN included), raises :class:`DatasetFormatError` at ``row``."""
    v = _parse_number(cell, row, f"rssi cell {column}")
    if not RSSI_MISSING <= v <= RSSI_MAX:
        raise DatasetFormatError(f"rssi {v:g} out of [-100, 0] in column {column}", row=row)
    return v


def ap_columns(header: Sequence[str], path: str | Path) -> list[AccessPointId]:
    """AP ids of ``ap_<id>`` header cells, in column order.  A cell without
    the prefix or an id, or a repeated column, raises
    :class:`DatasetFormatError` at row 1."""
    aps: dict[str, None] = {}  # ordered, and a set for the duplicate check
    for col in header:
        if not col.startswith("ap_") or len(col) <= 3:
            raise DatasetFormatError(f"{path}: bad AP column name {col!r}", row=1)
        if col[3:] in aps:
            raise DatasetFormatError(f"{path}: duplicate AP column {col!r}", row=1)
        aps[col[3:]] = None
    return list(aps)


def load_floorplan(path: str | Path) -> tuple[ReferencePoint, ...]:
    """Reference points of a floorplan CSV (``rp_id,x_m,y_m``), in file order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty floorplan file") from None
        if [h.strip() for h in header] != ["rp_id", "x_m", "y_m"]:
            raise DatasetFormatError(
                f"{path}: malformed floorplan header {header!r}, expected rp_id,x_m,y_m",
                row=1,
            )
        rps = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != 3:
                raise DatasetFormatError(
                    f"expected 3 cells, got {len(cells)}", row=lineno
                )
            rp_id = _parse_int(cells[0], lineno, "rp_id")
            x = _parse_number(cells[1], lineno, "x_m")
            y = _parse_number(cells[2], lineno, "y_m")
            try:
                rps.append(ReferencePoint(rp_id, x, y))
            except ValueError as exc:
                raise DatasetFormatError(str(exc), row=lineno) from None
    return tuple(rps)


def load_dataset(floorplan_path: str | Path, fingerprints_path: str | Path) -> FingerprintDataset:
    """Load and validate a dataset from its two CSV files.

    The canonical AP ordering is taken from the fingerprint CSV header.
    Raises :class:`DatasetFormatError` naming the offending row for any
    malformed header, non-numeric cell, out-of-range RSSI, or fingerprint
    referencing an unknown rp_id.
    """
    rps = load_floorplan(floorplan_path)
    return load_fingerprints_csv(fingerprints_path, rps)


def load_fingerprints_csv(fingerprints_path: str | Path,
                          rps: Sequence[ReferencePoint]) -> FingerprintDataset:
    """Parse a fingerprint CSV against already-known reference points."""
    fingerprints_path = Path(fingerprints_path)

    with open(fingerprints_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DatasetFormatError(f"{fingerprints_path}: empty fingerprint file") from None
        if len(header) < 3 or header[0] != "rp_id" or header[1] != "ci":
            raise DatasetFormatError(
                f"{fingerprints_path}: malformed fingerprint header {header!r}, "
                "expected rp_id,ci,ap_<id>,...",
                row=1,
            )
        registry = ap_columns(header[2:], fingerprints_path)
        floorplan = FloorPlan(rps=tuple(rps), ap_registry=tuple(registry))
        known = {rp.rp_id for rp in floorplan.rps}
        width = len(registry)

        fingerprints = []
        for lineno, cells in enumerate(reader, start=2):
            if not cells:
                continue
            if len(cells) != width + 2:
                raise DatasetFormatError(
                    f"expected {width + 2} cells, got {len(cells)}", row=lineno
                )
            rp_id = _parse_int(cells[0], lineno, "rp_id")
            if rp_id not in known:
                raise DatasetFormatError(f"unknown rp_id {rp_id}", row=lineno)
            ci = _parse_int(cells[1], lineno, "ci")
            if ci < 0:
                raise DatasetFormatError(f"negative ci {ci}", row=lineno)
            rssi = np.array([parse_rssi_cell(cell, lineno, col)
                             for cell, col in zip(cells[2:], header[2:])])
            fingerprints.append(Fingerprint(rp_id=rp_id, ci=ci, rssi=rssi))

    return FingerprintDataset(floorplan=floorplan, fingerprints=tuple(fingerprints))


def _format_value(v: float) -> str:
    # repr() round-trips float64 exactly; integral values stay compact.
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def save_dataset(dataset: FingerprintDataset, floorplan_path: str | Path,
                 fingerprints_path: str | Path) -> None:
    """Write a dataset back to the two CSV schemas.

    ``load_dataset(save_dataset(...))`` reproduces every field bit-exactly.
    """
    with open(floorplan_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id", "x_m", "y_m"])
        for rp in dataset.floorplan.rps:
            writer.writerow([rp.rp_id, _format_value(rp.x), _format_value(rp.y)])

    with open(fingerprints_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id", "ci"] + [f"ap_{ap}" for ap in dataset.floorplan.ap_registry])
        for fp in dataset.fingerprints:
            writer.writerow([fp.rp_id, fp.ci] + [_format_value(v) for v in fp.rssi])


def split_by_ci(dataset: FingerprintDataset, train_ci: int, fpr: int,
                seed: int) -> tuple[FingerprintDataset, FingerprintDataset]:
    """Split into a training set drawn from one collection instance and a
    test set holding everything else.

    The training set takes min(fpr, available) fingerprints per RP,
    sampled uniformly without replacement (seeded) from ``train_ci``.
    The test set is the remainder of ``train_ci`` plus all other CIs.
    Both partitions preserve the original dataset order.
    """
    if fpr < 1:
        raise ValueError("fpr must be >= 1")
    cis = dataset.cis()
    if train_ci not in cis:
        raise ValueError(f"train_ci {train_ci} absent from dataset (has {cis})")
    per_rp = dataset.by_rp(ci=train_ci)
    empty = sorted(rp for rp, idxs in per_rp.items() if not idxs)
    if empty:
        raise ValueError(
            f"RPs {empty} have no fingerprints at ci {train_ci}; cannot split"
        )

    rng = np.random.default_rng(seed)
    chosen = np.zeros(len(dataset), dtype=bool)
    for rp in dataset.floorplan.rps:  # floorplan order keeps the draw deterministic
        idxs = per_rp[rp.rp_id]
        take = min(fpr, len(idxs))
        picked = rng.choice(len(idxs), size=take, replace=False)
        chosen[np.asarray(idxs)[picked]] = True

    fps = dataset.fingerprints
    return tuple(FingerprintDataset(dataset.floorplan, tuple(fps[i] for i in np.flatnonzero(m)))
                 for m in (chosen, ~chosen))

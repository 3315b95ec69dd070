"""Domain types and dataset I/O.

A dataset is a floorplan (reference points + the canonical access-point
registry) plus one row per RSSI scan, stored as columns.  Rows are dense
vectors aligned to the registry; an access point that was not observed in
a scan carries the sentinel value -100 dBm.

Three CSV schemas are used as the on-disk exchange format:

* floorplan CSV: header ``rp_id,x_m,y_m``, one row per reference point;
* fingerprint CSV: header ``rp_id,ci,ap_<id>,ap_<id>,...``, one row per
  scan, with dBm values in [-100, 0].  The order of the ``ap_`` columns
  defines the canonical registry order for the whole dataset;
* scan CSV (online queries, :func:`load_scans`): ``ap_`` columns of a
  trained model's registry, in any order.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

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


def _check_scans(rssi: np.ndarray, ci) -> None:
    """Every dBm value in [-100, 0] and every CI >= 0, for one scan or columns."""
    if not np.all((rssi >= RSSI_MISSING) & (rssi <= RSSI_MAX)):  # NaN fails too
        raise ValueError("rssi values must be finite and lie in [-100, 0]")
    if np.any(ci < 0):
        raise ValueError("ci must be non-negative")


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
        _check_scans(arr, self.ci)
        object.__setattr__(self, "rssi", _read_only(arr))


@dataclass(frozen=True, eq=False, init=False)
class FingerprintDataset:
    """A floorplan plus read-only columns: ``rssi`` (n, n_aps) float64 dBm,
    ``rp_ids`` and ``ci_ids`` (n,) int64.  The constructor stacks
    ``Fingerprint`` rows; :meth:`from_columns` takes the arrays."""

    floorplan: FloorPlan
    rssi: np.ndarray
    rp_ids: np.ndarray
    ci_ids: np.ndarray

    def __init__(self, floorplan: FloorPlan, fingerprints: Sequence[Fingerprint]):
        fps = tuple(fingerprints)
        rssi = np.stack([fp.rssi for fp in fps]) if fps else np.empty((0, floorplan.n_aps))
        _set_columns(self, floorplan, rssi, [fp.rp_id for fp in fps], [fp.ci for fp in fps])

    @classmethod
    def from_columns(cls, floorplan: FloorPlan, rssi, rp_ids, ci_ids) -> FingerprintDataset:
        """A dataset over these arrays, made read-only; float64/int64 ones are not copied."""
        return _set_columns(cls.__new__(cls), floorplan, rssi, rp_ids, ci_ids)

    def __len__(self) -> int:
        return self.rp_ids.shape[0]

    @cached_property
    def fingerprints(self) -> tuple[Fingerprint, ...]:
        """The rows as ``Fingerprint`` objects, built on first access."""
        # each row owns its values, so a row kept alone does not keep the matrix alive
        return tuple(map(Fingerprint, self.rp_ids.tolist(), self.ci_ids.tolist(),
                         (row.copy() for row in self.rssi)))

    @cached_property
    def xy(self) -> np.ndarray:
        """(n, 2) float64 coordinates of each row's reference point."""
        return _read_only(self.floorplan.positions()[_rp_rows(self.floorplan, self.rp_ids)])

    def cis(self) -> tuple[int, ...]:
        """Distinct collection instances present, ascending."""
        return tuple(sorted(set(self.ci_ids.tolist())))  # np.unique would import numpy.ma

    def by_rp(self, ci: int | None = None) -> dict[int, list[int]]:
        """Map rp_id -> fingerprint indices (dataset order), every
        floorplan RP present as a key.  Optionally restricted to one CI."""
        keep = np.ones(len(self), dtype=bool) if ci is None else self.ci_ids == ci
        return {rp.rp_id: np.flatnonzero(keep & (self.rp_ids == rp.rp_id)).tolist()
                for rp in self.floorplan.rps}


def _set_columns(ds, floorplan: FloorPlan, rssi, rp_ids, ci_ids) -> FingerprintDataset:
    """Validate the columns as whole arrays and store them on ``ds``."""
    rssi = np.asarray(rssi, dtype=np.float64)
    try:
        rp_ids, ci_ids = (np.asarray(ids, dtype=np.int64) for ids in (rp_ids, ci_ids))
    except OverflowError:
        raise ValueError("rp_ids and ci_ids must fit in int64") from None
    if rssi.ndim != 2 or rssi.shape[1] != floorplan.n_aps:
        raise ValueError(f"rssi has shape {rssi.shape}; rows must match the registry "
                         f"length {floorplan.n_aps}")
    if rp_ids.shape != rssi.shape[:1] or ci_ids.shape != rssi.shape[:1]:
        raise ValueError("rssi, rp_ids and ci_ids lengths disagree")
    _check_scans(rssi, ci_ids)
    _rp_rows(floorplan, rp_ids)
    ds.__dict__.update(floorplan=floorplan, rssi=_read_only(rssi),  # frozen: no setattr
                       rp_ids=_read_only(rp_ids), ci_ids=_read_only(ci_ids))
    return ds


def _rp_rows(floorplan: FloorPlan, rp_ids: np.ndarray) -> np.ndarray:
    """Floorplan position of each rp_id; an unknown id raises ValueError."""
    ids = np.array([rp.rp_id for rp in floorplan.rps], dtype=np.int64)
    order = np.argsort(ids)
    at = order[np.searchsorted(ids, rp_ids, sorter=order).clip(max=len(ids) - 1)]
    unknown = np.flatnonzero(ids[at] != rp_ids)
    if unknown.size:
        raise ValueError(f"row {unknown[0]}: unknown rp_id {rp_ids[unknown[0]]}")
    return at


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _parse(cast, cell: str, row: int, what: str):
    """``cast(cell)``, int or float; a rejected cell is a DatasetFormatError at ``row``."""
    try:
        return cast(cell)
    except ValueError:
        kind = "integer" if cast is int else "numeric"
        raise DatasetFormatError(f"non-{kind} {what}: {cell!r}", row=row) from None


def parse_rssi_cell(cell: str, row: int, column: str) -> float:
    """One dBm cell of a CSV row.  A non-numeric cell, or a value outside
    [-100, 0] (NaN included), raises :class:`DatasetFormatError` at ``row``."""
    v = _parse(float, cell, row, f"rssi cell {column}")
    if not RSSI_MISSING <= v <= RSSI_MAX:
        raise DatasetFormatError(f"rssi {v:g} out of [-100, 0] in column {column}", row=row)
    return v


def _dbm_row(cells: Sequence[str], columns: Sequence[str], row: int) -> np.ndarray:
    """One CSV row's dBm cells as float64: one cast (numpy reads a str as
    ``float`` does) and one range check.  A failing row is walked with
    :func:`parse_rssi_cell`, which names its first bad cell."""
    try:
        values = np.array(cells, dtype=np.float64)
        if ((values >= RSSI_MISSING) & (values <= RSSI_MAX)).all():  # NaN fails too
            return values
    except ValueError:
        pass
    return np.array([parse_rssi_cell(cell, row, col) for cell, col in zip(cells, columns)])


@contextmanager
def _csv_table(path: str | Path, kind: str):
    """A UTF-8 CSV file's stripped header and an iterator over (line number,
    cells) of each non-empty row after it, numbered by the file line the
    row starts on.  A missing header, a row with another cell count than
    the header, a byte that is not UTF-8 or a row the csv module refuses (a
    cell over its field size limit) raises :class:`DatasetFormatError`."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DatasetFormatError(f"{path}: empty {kind} file")
            header = [h.strip() for h in header]

            def rows() -> Iterator[tuple[int, list[str]]]:
                last = reader.line_num  # a row's quoted cell may span lines
                for cells in reader:
                    lineno, last = last + 1, reader.line_num
                    if not cells:
                        continue
                    if len(cells) != len(header):
                        raise DatasetFormatError(
                            f"expected {len(header)} cells, got {len(cells)}", row=lineno)
                    yield lineno, cells

            yield header, rows()
        except csv.Error as exc:
            raise DatasetFormatError(f"{path}: {exc}", row=reader.line_num) from None
        except UnicodeDecodeError as exc:
            raise DatasetFormatError(f"{path}: not UTF-8 text (byte "
                                     f"{exc.object[exc.start]:#04x}: {exc.reason})") from None


def _ap_columns(header: Sequence[str], path: str | Path) -> list[AccessPointId]:
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
    with _csv_table(path, "floorplan") as (header, rows):
        if header != ["rp_id", "x_m", "y_m"]:
            raise DatasetFormatError(f"{path}: malformed floorplan header {header!r}, "
                                     "expected rp_id,x_m,y_m", row=1)
        rps, first_row = [], {}  # rp_id -> the row that defines it
        for lineno, cells in rows:
            rp_id = _parse(int, cells[0], lineno, "rp_id")
            if rp_id in first_row:
                raise DatasetFormatError(f"rp_id {rp_id} already defined at row "
                                         f"{first_row[rp_id]}", row=lineno)
            first_row[rp_id] = lineno
            x = _parse(float, cells[1], lineno, "x_m")
            y = _parse(float, cells[2], lineno, "y_m")
            try:
                rps.append(ReferencePoint(rp_id, x, y))
            except ValueError as exc:
                raise DatasetFormatError(str(exc), row=lineno) from None
    if len(rps) < 2:
        raise DatasetFormatError(f"{path}: floorplan needs at least 2 reference points, "
                                 f"found {len(rps)}")
    return tuple(rps)


def load_dataset(floorplan_path: str | Path, fingerprints_path: str | Path) -> FingerprintDataset:
    """Load and validate a dataset from its two CSV files.

    The canonical AP ordering is taken from the fingerprint CSV header.
    Raises :class:`DatasetFormatError` naming the offending row for any
    malformed header, non-numeric cell, out-of-range RSSI, or fingerprint
    referencing an unknown rp_id.
    """
    return load_fingerprints_csv(fingerprints_path, load_floorplan(floorplan_path))


def load_fingerprints_csv(fingerprints_path: str | Path,
                          rps: Sequence[ReferencePoint]) -> FingerprintDataset:
    """Parse a fingerprint CSV against already-known reference points."""
    fingerprints_path = Path(fingerprints_path)
    with _csv_table(fingerprints_path, "fingerprint") as (header, rows):
        if len(header) < 3 or header[0] != "rp_id" or header[1] != "ci":
            raise DatasetFormatError(f"{fingerprints_path}: malformed fingerprint header "
                                     f"{header!r}, expected rp_id,ci,ap_<id>,...", row=1)
        columns = header[2:]
        registry = _ap_columns(columns, fingerprints_path)
        floorplan = FloorPlan(rps=tuple(rps), ap_registry=tuple(registry))
        known = {rp.rp_id for rp in floorplan.rps}

        scans, rp_ids, ci_ids = [], [], []
        for lineno, cells in rows:
            rp_id = _parse(int, cells[0], lineno, "rp_id")
            if rp_id not in known:
                raise DatasetFormatError(f"unknown rp_id {rp_id}", row=lineno)
            ci = _parse(int, cells[1], lineno, "ci")
            if ci < 0:
                raise DatasetFormatError(f"negative ci {ci}", row=lineno)
            if ci >= 2**63:
                raise DatasetFormatError(f"ci {ci} does not fit in int64", row=lineno)
            scans.append(_dbm_row(cells[2:], columns, lineno))
            rp_ids.append(rp_id)
            ci_ids.append(ci)

    return FingerprintDataset.from_columns(
        floorplan, np.array(scans).reshape(-1, len(columns)), rp_ids, ci_ids)


def load_scans(path: str | Path, registry: Sequence[AccessPointId]) -> np.ndarray:
    """Scan rows aligned by AP column name to a training registry, as an
    (m, len(registry)) dBm array.  Registry APs absent from the file read
    -100 and unknown AP columns are ignored (post-deployment networks grow),
    but one column at least must name a registry AP.  Leading rp_id/ci
    columns are skipped; names and cells follow the fingerprint CSV's rules.
    """
    with _csv_table(path, "scan") as (header, rows):
        skip = next((j for j, col in enumerate(header) if col.startswith("ap_")), len(header))
        for col in header[:skip]:
            if col not in ("rp_id", "ci"):
                raise DatasetFormatError(f"{path}: unexpected column {col!r}", row=1)
        pos = {ap: i for i, ap in enumerate(registry)}
        # the columns of the APs the registry knows, and their registry positions
        cols = [j for j, ap in enumerate(_ap_columns(header[skip:], path), skip) if ap in pos]
        if not cols:
            raise DatasetFormatError(f"{path}: no ap_ column is in the registry", row=1)
        slots = [pos[header[j][3:]] for j in cols]
        names = [header[j] for j in cols]
        scans = []
        for lineno, cells in rows:
            rssi = np.full(len(registry), RSSI_MISSING)
            rssi[slots] = _dbm_row([cells[j] for j in cols], names, lineno)
            scans.append(rssi)
    if not scans:
        raise DatasetFormatError(f"{path}: no scan rows")
    return np.stack(scans)


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
    with open(floorplan_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id", "x_m", "y_m"])
        for rp in dataset.floorplan.rps:
            writer.writerow([rp.rp_id, _format_value(rp.x), _format_value(rp.y)])

    with open(fingerprints_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rp_id", "ci"] + [f"ap_{ap}" for ap in dataset.floorplan.ap_registry])
        # row by row: the whole matrix as Python floats would cost 32 bytes a value
        for rp_id, ci, row in zip(dataset.rp_ids.tolist(), dataset.ci_ids.tolist(), dataset.rssi):
            writer.writerow([rp_id, ci] + [_format_value(v) for v in row.tolist()])


def train_ci_rows(dataset: FingerprintDataset, train_ci: int) -> dict[int, list[int]]:
    """``dataset.by_rp(ci=train_ci)``, refused with a ValueError unless
    ``train_ci`` is present and holds a fingerprint of every RP."""
    cis = dataset.cis()
    if train_ci not in cis:
        raise ValueError(f"train_ci {train_ci} absent from dataset (has {cis})")
    per_rp = dataset.by_rp(ci=train_ci)
    empty = sorted(rp for rp, idxs in per_rp.items() if not idxs)
    if empty:
        raise ValueError(
            f"RPs {empty} have no fingerprints at ci {train_ci}; cannot split"
        )
    return per_rp


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
    per_rp = train_ci_rows(dataset, train_ci)
    rng = np.random.default_rng(seed)
    chosen = np.zeros(len(dataset), dtype=bool)
    for idxs in per_rp.values():  # floorplan order keeps the draw deterministic
        picked = rng.choice(len(idxs), size=min(fpr, len(idxs)), replace=False)
        chosen[np.asarray(idxs)[picked]] = True

    return tuple(FingerprintDataset.from_columns(dataset.floorplan, dataset.rssi[m],
                                                 dataset.rp_ids[m], dataset.ci_ids[m])
                 for m in (chosen, ~chosen))

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from driftloc import data
from driftloc.data import (Fingerprint, FingerprintDataset, FloorPlan,
                           ReferencePoint, load_dataset, load_scans,
                           parse_rssi_cell, save_dataset, split_by_ci)
from driftloc.encoder import EncoderConfig
from driftloc.errors import DatasetFormatError
from driftloc.evaluate import evaluate_over_time
from driftloc.localizer import TrainConfig, train
from driftloc.simulate import SimConfig, generate, preset, write_scenario


def write(path, text):
    path.write_text(text)
    return path


@pytest.fixture
def tiny_files(tmp_path):
    fp = write(tmp_path / "floorplan.csv",
               "rp_id,x_m,y_m\n0,0.0,0.0\n1,5.0,0.0\n")
    fps = write(tmp_path / "fps.csv",
                "rp_id,ci,ap_a,ap_b,ap_c\n"
                "0,0,-40,-60,-100\n"
                "0,0,-42,-58,-100\n"
                "1,0,-90,-50,-45\n"
                "1,1,-88,-52,-47\n")
    return fp, fps


def test_load_tiny_dataset(tiny_files):
    ds = load_dataset(*tiny_files)
    assert len(ds) == 4
    assert ds.floorplan.ap_registry == ("a", "b", "c")
    assert ds.fingerprints[0].rp_id == 0
    assert ds.fingerprints[3].ci == 1
    np.testing.assert_array_equal(ds.fingerprints[2].rssi, [-90.0, -50.0, -45.0])


def test_unknown_rp_reports_row(tmp_path, tiny_files):
    fp, _ = tiny_files
    bad = write(tmp_path / "bad.csv",
                "rp_id,ci,ap_a\n0,0,-40\n7,0,-50\n")
    with pytest.raises(DatasetFormatError, match="row 3.*rp_id 7"):
        load_dataset(fp, bad)


def test_out_of_range_rssi_reports_row(tmp_path, tiny_files):
    fp, _ = tiny_files
    bad = write(tmp_path / "bad.csv", "rp_id,ci,ap_a\n0,0,5\n")
    with pytest.raises(DatasetFormatError, match="row 2.*out of"):
        load_dataset(fp, bad)


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_rssi_reports_row(tmp_path, tiny_files, cell):
    fp, _ = tiny_files
    bad = write(tmp_path / "bad.csv", f"rp_id,ci,ap_a,ap_b\n0,0,-40,-50\n1,0,-60,{cell}\n")
    with pytest.raises(DatasetFormatError, match="row 3: rssi .* out of .* ap_b"):
        load_dataset(fp, bad)


def test_rp_id_beyond_int32_reports_row(tmp_path, tiny_files):
    _, fps = tiny_files
    for rp_id in (2**70, 2**31, -2**31 - 1):
        fp = write(tmp_path / "fp.csv", f"rp_id,x_m,y_m\n0,0.0,0.0\n{rp_id},5.0,0.0\n")
        with pytest.raises(DatasetFormatError, match=f"row 3: rp_id {rp_id} does not fit in int32"):
            load_dataset(fp, fps)
    ReferencePoint(2**31 - 1, 0.0, 0.0)
    ReferencePoint(-2**31, 0.0, 0.0)


def test_repeated_floorplan_rp_id_reports_both_rows(tmp_path, tiny_files):
    _, fps = tiny_files
    fp = write(tmp_path / "fp.csv", "rp_id,x_m,y_m\n0,0.0,0.0\n1,5.0,0.0\n\n0,9.0,9.0\n")
    with pytest.raises(DatasetFormatError,
                       match="^row 5: rp_id 0 already defined at row 2$") as err:
        load_dataset(fp, fps)
    assert err.value.row == 5


@pytest.mark.parametrize("body", ["", "0,0.0,0.0\n"])
def test_floorplan_with_fewer_than_two_rps_names_file(tmp_path, tiny_files, body):
    _, fps = tiny_files
    fp = write(tmp_path / "fp.csv", "rp_id,x_m,y_m\n" + body)
    n = body.count("\n")
    with pytest.raises(DatasetFormatError,
                       match=f"^{re.escape(str(fp))}: floorplan needs at least 2 reference points, found {n}$"):
        load_dataset(fp, fps)


def test_non_numeric_cell_reports_row(tmp_path, tiny_files):
    fp, _ = tiny_files
    bad = write(tmp_path / "bad.csv", "rp_id,ci,ap_a\n0,0,strong\n")
    with pytest.raises(DatasetFormatError, match="row 2"):
        load_dataset(fp, bad)


def test_malformed_headers(tmp_path):
    fp = write(tmp_path / "f.csv", "rp,x,y\n0,0,0\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(fp, fp)
    good_fp = write(tmp_path / "g.csv", "rp_id,x_m,y_m\n0,0,0\n1,1,0\n")
    bad = write(tmp_path / "b.csv", "rp_id,ap_a\n")
    with pytest.raises(DatasetFormatError, match="header"):
        load_dataset(good_fp, bad)
    bad2 = write(tmp_path / "b2.csv", "rp_id,ci,bssid_a\n")
    with pytest.raises(DatasetFormatError, match="AP column"):
        load_dataset(good_fp, bad2)


@pytest.mark.parametrize("kind", ["floorplan", "fingerprint", "scan"])
def test_empty_csv_names_file(tmp_path, tiny_files, kind):
    fp, fps = tiny_files
    empty = write(tmp_path / "empty.csv", "")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(empty))}: empty {kind} file$"):
        if kind == "floorplan":
            load_dataset(empty, fps)
        elif kind == "fingerprint":
            load_dataset(fp, empty)
        else:
            load_scans(empty, ("a", "b"))


# one file of each kind whose row 3 holds `cell`; the other file of the pair is tiny_files'
CELL_FILES = {
    "floorplan": "rp_id,x_m,y_m\n0,0.0,0.0\n1,{},0.0\n",
    "fingerprint": "rp_id,ci,ap_a,ap_b,ap_c\n0,0,-40,-60,-100\n1,0,{},-50,-45\n",
    "scan": "ap_a,ap_b\n-40,-60\n{},-50\n",
}


def _load_kind(kind, path, tiny_files):
    fp, fps = tiny_files
    if kind == "floorplan":
        return load_dataset(path, fps)
    if kind == "fingerprint":
        return load_dataset(fp, path)
    return load_scans(path, ("a", "b"))


@pytest.mark.parametrize("kind", ["floorplan", "fingerprint", "scan"])
def test_oversized_cell_names_file_and_row(tmp_path, tiny_files, kind):
    # the csv module refuses a cell over its field size limit (131072 characters)
    bad = write(tmp_path / "big.csv", CELL_FILES[kind].format("9" * 200_000))
    with pytest.raises(DatasetFormatError, match=f"^row 3: {re.escape(str(bad))}: "
                       "field larger than field limit") as err:
        _load_kind(kind, bad, tiny_files)
    assert err.value.row == 3


# one file of each kind whose row on lines 3-4 has a quoted cell holding a
# line break, and whose row on line 5 has one cell too few
MULTILINE_FILES = {
    "floorplan": 'rp_id,x_m,y_m\n0,0.0,0.0\n1,"1.0\n",0.0\n2,2.0\n',
    "fingerprint": 'rp_id,ci,ap_a,ap_b,ap_c\n0,0,-40,-60,-100\n1,0,"-40\n",-50,-45\n1,0,-40,-50\n',
    "scan": 'ap_a,ap_b\n-40,-60\n"-40\n",-50\n-40\n',
}


@pytest.mark.parametrize("kind", ["floorplan", "fingerprint", "scan"])
def test_row_after_multiline_cell_names_its_file_line(tmp_path, tiny_files, kind):
    # rows are numbered by the file line they start on, as csv errors are,
    # not by their count
    bad = write(tmp_path / "multiline.csv", MULTILINE_FILES[kind])
    with pytest.raises(DatasetFormatError, match="^row 5: expected") as err:
        _load_kind(kind, bad, tiny_files)
    assert err.value.row == 5


@pytest.mark.parametrize("kind", ["floorplan", "fingerprint", "scan"])
def test_non_utf8_byte_names_file(tmp_path, tiny_files, kind):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(CELL_FILES[kind].format("-5\xff").encode("latin-1"))
    with pytest.raises(DatasetFormatError,
                       match=f"^{re.escape(str(bad))}: not UTF-8 text \\(byte 0xff: "):
        _load_kind(kind, bad, tiny_files)


# saves a dataset with a non-ASCII AP id, loads it back, then loads a UTF-8
# file the test wrote; prints the registries it read
C_LOCALE_ROUND_TRIP = """
import sys
import numpy as np
from driftloc.data import (FingerprintDataset, FloorPlan, ReferencePoint,
                           load_dataset, save_dataset)
fp, fps, utf8_fps = sys.argv[1:]
plan = FloorPlan(rps=(ReferencePoint(0, 0.0, 0.0), ReferencePoint(1, 5.0, 0.0)),
                 ap_registry=("caf\\u00e9", "b"))
save_dataset(FingerprintDataset.from_columns(plan, np.array([[-40.0, -60.0]]), [0], [0]),
             fp, fps)
print(ascii(load_dataset(fp, fps).floorplan.ap_registry))
print(ascii(load_dataset(fp, utf8_fps).floorplan.ap_registry))
"""


def test_csv_files_are_utf8_in_the_c_locale(tmp_path):
    # without an encoding, open() would follow the C locale's ASCII codec here
    fp, fps, utf8_fps = tmp_path / "fp.csv", tmp_path / "fps.csv", tmp_path / "utf8.csv"
    utf8_fps.write_bytes("rp_id,ci,ap_\u00fcber,ap_b\n1,0,-50,-70\n".encode("utf-8"))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([str(Path(data.__file__).parents[1]),
                                          os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", C_LOCALE_ROUND_TRIP, str(fp), str(fps),
                          str(utf8_fps)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["('caf\\xe9', 'b')", "('\\xfcber', 'b')"]
    assert fps.read_bytes().startswith("rp_id,ci,ap_caf\u00e9,ap_b\r\n".encode("utf-8"))


def test_negative_ci_reports_row(tmp_path, tiny_files):
    fp, _ = tiny_files
    bad = write(tmp_path / "bad.csv", "rp_id,ci,ap_a\n0,0,-40\n1,-1,-50\n")
    with pytest.raises(DatasetFormatError, match="^row 3: negative ci -1$") as err:
        load_dataset(fp, bad)
    assert err.value.row == 3


def test_scan_unexpected_leading_column_reports_row_1(tmp_path):
    scan = write(tmp_path / "scan.csv", "rp_id,floor,ap_a\n0,2,-40\n")
    with pytest.raises(DatasetFormatError,
                       match=f"^row 1: {re.escape(str(scan))}: unexpected column 'floor'$"):
        load_scans(scan, ("a",))


def test_scan_without_rows_names_file(tmp_path):
    scan = write(tmp_path / "scan.csv", "ap_a,ap_b\n\n")
    with pytest.raises(DatasetFormatError, match=f"^{re.escape(str(scan))}: no scan rows$"):
        load_scans(scan, ("a", "b"))


def test_duplicate_ap_column_reports_row_1(tmp_path, tiny_files):
    fp, _ = tiny_files
    bad = write(tmp_path / "dup.csv", "rp_id,ci,ap_a,ap_b,ap_a\n0,0,-40,-50,-60\n")
    with pytest.raises(DatasetFormatError, match="row 1:.*duplicate AP column 'ap_a'") as err:
        load_dataset(fp, bad)
    assert err.value.row == 1


def test_save_load_round_trip_bit_exact(tmp_path, tiny_files):
    ds = load_dataset(*tiny_files)
    f2, d2 = tmp_path / "f2.csv", tmp_path / "d2.csv"
    save_dataset(ds, f2, d2)
    again = load_dataset(f2, d2)
    assert again.floorplan.ap_registry == ds.floorplan.ap_registry
    assert again.floorplan.rps == ds.floorplan.rps
    assert len(again) == len(ds)
    for a, b in zip(again.fingerprints, ds.fingerprints):
        assert (a.rp_id, a.ci) == (b.rp_id, b.ci)
        np.testing.assert_array_equal(a.rssi, b.rssi)


def test_save_load_preserves_fractional_values(tmp_path):
    fp = FloorPlan(
        rps=(ReferencePoint(0, 0.1, 2.7182818284590455), ReferencePoint(1, 3.25, 0.0)),
        ap_registry=("x", "y"),
    )
    ds = FingerprintDataset(fp, (
        Fingerprint(0, 0, np.array([-49.5, -0.125])),
        Fingerprint(1, 2, np.array([-100.0, 0.0])),
    ))
    f, d = tmp_path / "f.csv", tmp_path / "d.csv"
    save_dataset(ds, f, d)
    again = load_dataset(f, d)
    assert again.floorplan.rps == fp.rps
    for a, b in zip(again.fingerprints, ds.fingerprints):
        np.testing.assert_array_equal(a.rssi, b.rssi)


def grid_dataset(n_rps=10, n_cis=3, fpr=6, n_aps=4, seed=0):
    rng = np.random.default_rng(seed)
    fp = FloorPlan(
        rps=tuple(ReferencePoint(i, float(i), 0.0) for i in range(n_rps)),
        ap_registry=tuple(f"ap{i}" for i in range(n_aps)),
    )
    fps = []
    for ci in range(n_cis):
        for rp in range(n_rps):
            for _ in range(fpr):
                fps.append(Fingerprint(rp, ci, rng.integers(-95, -30, n_aps).astype(float)))
    return FingerprintDataset(fp, tuple(fps))


def test_split_takes_whole_training_ci():
    # 10 RPs x 6 fingerprints at CI:0 with fpr=6: all of CI:0 trains,
    # the test side holds only later CIs.
    ds = grid_dataset(n_rps=10, n_cis=3, fpr=6)
    train, test = split_by_ci(ds, train_ci=0, fpr=6, seed=3)
    assert len(train) == 60
    assert all(fp.ci == 0 for fp in train.fingerprints)
    assert all(fp.ci >= 1 for fp in test.fingerprints)
    assert len(test) == len(ds) - 60


def test_split_fpr_one():
    ds = grid_dataset()
    train, _ = split_by_ci(ds, 0, fpr=1, seed=9)
    per_rp = train.by_rp()
    assert all(len(v) == 1 for v in per_rp.values())


COLUMNS = ("rssi", "rp_ids", "ci_ids")


def rows_of(ds):
    """Each row's content as a hashable (rp_id, ci, dBm...) tuple, in order."""
    return [(rp, ci, *v) for rp, ci, v in
            zip(ds.rp_ids.tolist(), ds.ci_ids.tolist(), ds.rssi.tolist())]


def test_split_deterministic():
    ds = grid_dataset()
    a1, b1 = split_by_ci(ds, 0, 3, seed=77)
    a2, b2 = split_by_ci(ds, 0, 3, seed=77)
    for x, y in ((a1, a2), (b1, b2)):
        assert len(x) == len(y)
        for col in COLUMNS:  # same rows, same order
            np.testing.assert_array_equal(getattr(x, col), getattr(y, col))


def test_split_partitions_dataset():
    ds = grid_dataset(seed=5)
    train, test = split_by_ci(ds, 0, 4, seed=1)
    everything = rows_of(ds)
    assert len(set(everything)) == len(ds)  # rows are distinct, so content names a row
    assert sorted(rows_of(train) + rows_of(test)) == sorted(everything)
    assert not set(rows_of(train)) & set(rows_of(test))
    at = {row: i for i, row in enumerate(everything)}
    for part in (train, test):  # each keeps the dataset order
        positions = [at[row] for row in rows_of(part)]
        assert positions == sorted(positions)
    counts = train.by_rp()
    assert all(len(v) <= 4 for v in counts.values())


def test_split_tolerates_shortfall():
    ds = grid_dataset(fpr=2)
    train, _ = split_by_ci(ds, 0, fpr=5, seed=0)
    assert all(len(v) == 2 for v in train.by_rp().values())


def test_split_errors():
    ds = grid_dataset(n_cis=2)
    with pytest.raises(ValueError, match="absent"):
        split_by_ci(ds, 9, 1, seed=0)
    with pytest.raises(ValueError, match="fpr"):
        split_by_ci(ds, 0, 0, seed=0)
    # an RP with no fingerprints at the training CI is an error
    fp = ds.floorplan
    missing = FingerprintDataset(
        fp, tuple(f for f in ds.fingerprints if not (f.rp_id == 3 and f.ci == 0))
    )
    with pytest.raises(ValueError, match=r"\[3\] have no fingerprints"):
        split_by_ci(missing, 0, 2, seed=0)


def test_type_invariants():
    with pytest.raises(ValueError):
        ReferencePoint(0, float("nan"), 0.0)
    with pytest.raises(ValueError, match="at least 2"):
        FloorPlan(rps=(ReferencePoint(0, 0, 0),), ap_registry=("a",))
    with pytest.raises(ValueError, match="duplicate rp_id"):
        FloorPlan(rps=(ReferencePoint(0, 0, 0), ReferencePoint(0, 1, 0)),
                  ap_registry=("a",))
    with pytest.raises(ValueError, match=r"\[-100, 0\]"):
        Fingerprint(0, 0, np.array([3.0]))
    fp = FloorPlan(rps=(ReferencePoint(0, 0, 0), ReferencePoint(1, 1, 0)),
                   ap_registry=("a", "b"))
    with pytest.raises(ValueError, match="length"):
        FingerprintDataset(fp, (Fingerprint(0, 0, np.array([-50.0])),))
    with pytest.raises(ValueError, match="unknown rp_id"):
        FingerprintDataset(fp, (Fingerprint(5, 0, np.array([-50.0, -60.0])),))


def assert_columns_match(ds, fps):
    """The columns, ``xy``, ``cis()`` and ``by_rp()`` of ``ds`` against a
    loop over the rows ``fps``."""
    coords = {rp.rp_id: (rp.x, rp.y) for rp in ds.floorplan.rps}
    assert len(ds) == len(fps)
    np.testing.assert_array_equal(ds.rssi, [f.rssi for f in fps])
    np.testing.assert_array_equal(ds.rp_ids, [f.rp_id for f in fps])
    np.testing.assert_array_equal(ds.ci_ids, [f.ci for f in fps])
    np.testing.assert_array_equal(ds.xy, [coords[f.rp_id] for f in fps])
    assert ds.rssi.dtype == ds.xy.dtype == np.float64
    assert ds.rp_ids.dtype == ds.ci_ids.dtype == np.int64
    for arr in (ds.rssi, ds.rp_ids, ds.ci_ids, ds.xy):
        assert not arr.flags.writeable
    assert ds.xy is ds.xy  # built once
    assert ds.cis() == tuple(sorted({f.ci for f in fps}))
    for ci in (None, *ds.cis(), max(ds.cis()) + 1):
        want = {rp.rp_id: [i for i, f in enumerate(fps)
                           if ci in (None, f.ci) and f.rp_id == rp.rp_id]
                for rp in ds.floorplan.rps}
        assert ds.by_rp(ci) == want
        assert list(ds.by_rp(ci)) == [rp.rp_id for rp in ds.floorplan.rps]


def csv_rows(path):
    """The rows of a fingerprint CSV, parsed cell by cell."""
    _, *rows = csv.reader(path.read_text().splitlines())
    return [Fingerprint(int(r[0]), int(r[1]), np.array(r[2:], dtype=float)) for r in rows]


def test_dataset_arrays_match_fingerprints(tmp_path):
    # unordered rp_ids in the floorplan, and the dataset not grouped by RP
    fp = FloorPlan(rps=(ReferencePoint(7, 1.5, 2.0), ReferencePoint(2, -3.0, 0.25),
                        ReferencePoint(5, 0.0, 9.0)), ap_registry=("a", "b"))
    rng = np.random.default_rng(4)
    fps = tuple(Fingerprint(int(rp), int(ci), rng.integers(-100, 0, 2).astype(float))
                for rp, ci in zip(rng.choice([7, 2, 5], 20), rng.integers(0, 4, 20)))
    ds = FingerprintDataset(fp, fps)
    assert_columns_match(ds, fps)
    assert ds.fingerprints is ds.fingerprints  # built once
    assert_columns_match(ds, ds.fingerprints)
    empty = FingerprintDataset(fp, ())
    assert empty.rssi.shape == (0, 2) and empty.xy.shape == (0, 2)
    assert empty.cis() == () and empty.by_rp() == {7: [], 2: [], 5: []}
    assert empty.fingerprints == ()

    # datasets the simulator, the CSV reader and the split build from columns
    gen, truth = generate(SimConfig(width=6.0, height=2.0, rp_spacing=2.0, n_aps=5,
                                    n_cis=3, fpr=2, removal_schedule={2: 0.4}, seed=8))
    assert_columns_match(gen, gen.fingerprints)
    paths = write_scenario(gen, truth, tmp_path)
    loaded = load_dataset(paths["floorplan"], paths["fingerprints"])
    assert_columns_match(loaded, csv_rows(paths["fingerprints"]))
    assert_columns_match(loaded, gen.fingerprints)
    for part in split_by_ci(loaded, 1, 1, seed=2):
        assert part.fingerprints is part.fingerprints
        assert_columns_match(part, part.fingerprints)


def test_column_pipeline_builds_no_fingerprint_objects(tmp_path, monkeypatch):
    built = []
    real = Fingerprint.__post_init__
    monkeypatch.setattr(Fingerprint, "__post_init__",
                        lambda self: built.append(self) or real(self))
    ds, truth = generate(SimConfig(width=9.0, height=0.5, rp_spacing=3.0, n_aps=12,
                                   n_cis=3, fpr=4, removal_schedule={2: 0.25}, seed=5))
    paths = write_scenario(ds, truth, tmp_path)
    loaded = load_dataset(paths["floorplan"], paths["fingerprints"])
    tr, te = split_by_ci(loaded, 0, 4, seed=1)
    cfg = TrainConfig(encoder=EncoderConfig(conv1_filters=4, conv2_filters=8, embed_dim=3),
                      epochs=1, batch_size=16)
    model, index = train(tr, cfg, seed=1)
    report = evaluate_over_time(model, index, te)
    assert sum(report.n_queries_per_ci.values()) == len(te)
    assert built == []
    assert len(tr.fingerprints) == len(built) == len(tr)  # the counter sees the row view


def test_from_columns_validates_whole_arrays():
    fp = FloorPlan(rps=(ReferencePoint(0, 0, 0), ReferencePoint(4, 1, 0)),
                   ap_registry=("a", "b"))
    rssi, rp_ids, ci_ids = np.array([[-50.0, -60.0], [-100.0, 0.0]]), [0, 4], [0, 3]
    ds = FingerprintDataset.from_columns(fp, rssi, rp_ids, ci_ids)
    assert ds.rssi is rssi and not rssi.flags.writeable  # kept, made read-only
    np.testing.assert_array_equal(ds.xy, [[0, 0], [1, 0]])
    for bad_rssi, match in (([[-50.0, 1.0], [-60.0, -70.0]], r"\[-100, 0\]"),
                            ([[-50.0, np.nan], [-60.0, -70.0]], "finite"),
                            ([[-50.0, -np.inf], [-60.0, -70.0]], "finite"),
                            ([[-50.0], [-60.0]], "registry length 2"),
                            ([-50.0, -60.0], "registry length 2")):
        with pytest.raises(ValueError, match=match):
            FingerprintDataset.from_columns(fp, np.array(bad_rssi), rp_ids, ci_ids)
    with pytest.raises(ValueError, match="row 1: unknown rp_id 3"):
        FingerprintDataset.from_columns(fp, np.full((2, 2), -50.0), [0, 3], ci_ids)
    with pytest.raises(ValueError, match="ci must be non-negative"):
        FingerprintDataset.from_columns(fp, np.full((2, 2), -50.0), rp_ids, [0, -1])
    with pytest.raises(ValueError, match="lengths disagree"):
        FingerprintDataset.from_columns(fp, np.full((2, 2), -50.0), [0], ci_ids)
    with pytest.raises(ValueError, match="fit in int64"):
        FingerprintDataset(fp, (Fingerprint(2**70, 0, np.array([-50.0, -60.0])),))
    with pytest.raises(ValueError, match="fit in int64"):
        FingerprintDataset(fp, (Fingerprint(0, 2**63, np.array([-50.0, -60.0])),))
    # one rule for a row object and for whole columns
    with pytest.raises(ValueError, match="ci must be non-negative"):
        Fingerprint(0, -1, np.array([-50.0]))
    with pytest.raises(ValueError, match="finite"):
        Fingerprint(0, 0, np.array([np.nan]))


def test_ci_beyond_int64_reports_row(tmp_path, tiny_files):
    fp, _ = tiny_files
    bad = write(tmp_path / "bad.csv", f"rp_id,ci,ap_a\n0,0,-40\n1,{2**63},-50\n")
    with pytest.raises(DatasetFormatError, match=f"row 3: ci {2**63} does not fit in int64"):
        load_dataset(fp, bad)
    ok = write(tmp_path / "ok.csv", f"rp_id,ci,ap_a\n1,{2**63 - 1},-50\n")
    assert load_dataset(fp, ok).cis() == (2**63 - 1,)


def test_rssi_is_immutable():
    f = Fingerprint(0, 0, np.array([-50.0, -60.0]))
    with pytest.raises(ValueError):
        f.rssi[0] = -10.0


def per_cell_rows(path, registry=None):
    """(rp_id, ci, dBm row) of each row of a CSV, every dBm cell read
    by its own parse_rssi_cell call.  With ``registry``, the row holds that
    registry's APs as a scan file aligns them; absent ones read -100."""
    header, *rows = csv.reader(path.read_text().splitlines())
    header = [h.strip() for h in header]
    aps = [j for j, col in enumerate(header) if col.startswith("ap_")]
    out = []
    for lineno, cells in enumerate(rows, start=2):
        if not cells:
            continue
        if len(cells) != len(header):
            raise DatasetFormatError(f"expected {len(header)} cells, got {len(cells)}",
                                     row=lineno)
        values = {header[j][3:]: parse_rssi_cell(cells[j], lineno, header[j]) for j in aps}
        row = [values[ap] for ap in values] if registry is None else \
            [values.get(ap, -100.0) for ap in registry]
        out.append((int(cells[0]), int(cells[1]), np.array(row, dtype=np.float64)))
    return out


def outcome(fn, *args):
    """The bytes, dtypes and shapes of ``fn``'s arrays, or its exception."""
    try:
        arrays = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def dataset_columns(floorplan, fingerprints):
    ds = load_dataset(floorplan, fingerprints)
    return ds.rssi, ds.rp_ids, ds.ci_ids


def per_cell_columns(floorplan, fingerprints):
    rows = per_cell_rows(fingerprints)
    return (np.array([r for _, _, r in rows]), np.array([rp for rp, _, _ in rows]),
            np.array([ci for _, ci, _ in rows]))


SCAN_REGISTRY = ("c", "zz", "a")  # out of column order, one AP the files lack


def scan_rows(path, registry):
    return [load_scans(path, registry)]


def per_cell_scans(path, registry):
    return [np.stack([r for _, _, r in per_cell_rows(path, registry)])]


@pytest.mark.parametrize("name", ["office-like", "uji-like"])
def test_readers_match_per_cell_parse_on_presets(tmp_path, name):
    ds, truth = generate(preset(name, seed=0))
    paths = write_scenario(ds, truth, tmp_path)
    fp, fps = paths["floorplan"], paths["fingerprints"]
    want = outcome(per_cell_columns, fp, fps)
    assert outcome(dataset_columns, fp, fps) == want
    assert want[0][2] == ds.rssi.tobytes()
    registry = ds.floorplan.ap_registry[::-1] + ("zz",)
    assert outcome(scan_rows, fps, registry) == outcome(per_cell_scans, fps, registry)


HOSTILE_CELLS = [" -50 ", "1_0", "-1_0", "nan", "inf", "-inf", "-0", "0x10", "1e400",
                 "", "\uff11", "strong", "5"]


@pytest.mark.parametrize("column", [0, 2])
@pytest.mark.parametrize("cell", HOSTILE_CELLS)
def test_readers_match_per_cell_parse_on_hostile_cells(tmp_path, tiny_files, cell, column):
    fp, _ = tiny_files
    row = ["-40", "-50", "-60"]
    row[column] = cell
    fps = write(tmp_path / "fps.csv",
                "rp_id,ci,ap_a,ap_b,ap_c\n0,0,-41,-51,-61\n1,2," + ",".join(row) + "\n")
    want = outcome(per_cell_columns, fp, fps)
    assert outcome(dataset_columns, fp, fps) == want
    assert outcome(scan_rows, fps, SCAN_REGISTRY) == outcome(per_cell_scans, fps, SCAN_REGISTRY)
    if cell in ("strong", "5"):
        assert want[0] is DatasetFormatError


@pytest.mark.parametrize("rows", [["0,0,-40,-50,-60", "1,0,-40,-50"],
                                  ["0,0,-40,-50,-60", "", "1,3,-70,-100,0", ""]])
def test_readers_match_per_cell_parse_on_short_row_and_blank_line(tmp_path, tiny_files, rows):
    fp, _ = tiny_files
    fps = write(tmp_path / "fps.csv", "\n".join(["rp_id,ci,ap_a,ap_b,ap_c"] + rows) + "\n")
    want = outcome(per_cell_columns, fp, fps)
    assert outcome(dataset_columns, fp, fps) == want
    assert outcome(scan_rows, fps, SCAN_REGISTRY) == outcome(per_cell_scans, fps, SCAN_REGISTRY)


def test_valid_rows_take_no_per_cell_parse(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(data, "parse_rssi_cell",
                        lambda *args: calls.append(args) or parse_rssi_cell(*args))
    ds, truth = generate(preset("office-like", seed=0))
    paths = write_scenario(ds, truth, tmp_path)
    loaded = load_dataset(paths["floorplan"], paths["fingerprints"])
    assert loaded.rssi.tobytes() == ds.rssi.tobytes()
    assert calls == []
    bad = write(tmp_path / "bad.csv", "rp_id,ci,ap_a,ap_b\n0,0,-40,-50\n0,0,-40,strong\n")
    with pytest.raises(DatasetFormatError, match="row 3: non-numeric rssi cell ap_b"):
        load_dataset(paths["floorplan"], bad)
    assert calls == [("-40", 3, "ap_a"), ("strong", 3, "ap_b")]  # the failing row only

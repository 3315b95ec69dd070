import argparse
import contextlib
import csv
import io
import logging
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftloc import cli
from driftloc.cli import load_scans, main
from driftloc.data import Fingerprint, load_dataset, split_by_ci
from driftloc.errors import DatasetFormatError
from driftloc.localizer import predict
from driftloc.model_io import load_model_full, save_model


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scenario")
    code = main(["simulate", "--preset", "office-like", "--seed", "5",
                 "--out", str(out),
                 "--width", "9", "--n-aps", "12", "--n-cis", "3",
                 "--rp-spacing", "3", "--fpr", "4", "--removal", "2:0.25"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def model_path(scenario_dir, tmp_path_factory):
    model = tmp_path_factory.mktemp("model") / "model.stne"
    code = main(["train",
                 "--floorplan", str(scenario_dir / "floorplan.csv"),
                 "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                 "--train-ci", "0", "--fpr", "4", "--embed-dim", "3",
                 "--epochs", "3", "--batch", "16", "--seed", "1",
                 "--out", str(model)])
    assert code == 0
    return model


def test_simulate_writes_three_csvs(scenario_dir):
    for name in ("floorplan.csv", "fingerprints.csv", "ground_truth.csv"):
        assert (scenario_dir / name).exists()


def test_simulate_overrides_reach_simconfig(tmp_path, monkeypatch):
    seen = []
    real = cli.sim.generate
    monkeypatch.setattr(cli.sim, "generate", lambda cfg: seen.append(cfg) or real(cfg))
    for extra in ([], ["--hourly-sigma-db", "0.5"]):
        assert main(["simulate", "--preset", "office-like", "--out", str(tmp_path),
                     "--width", "6", "--n-cis", "2", "--removal", "1:0.2", *extra]) == 0
    assert [c.hourly_sigma_db for c in seen] == [5.0, 0.5]
    assert all(c.width == 6.0 and c.n_cis == 2 for c in seen)
    # every number field but seed (its own flag) has a flag that reaches SimConfig
    base = cli.sim.preset("office-like")
    want = {name: getattr(base, name) + 1
            for name, kind in get_type_hints(cli.sim.SimConfig).items()
            if kind in (int, float) and name != "seed"}
    assert {"width", "n_aps", "hourly_sigma_db"} <= want.keys()  # hints resolved
    flags = [arg for name, value in want.items()
             for arg in ("--" + name.replace("_", "-"), str(value))]
    assert main(["simulate", "--preset", "office-like", "--out", str(tmp_path), *flags]) == 0
    assert {name: getattr(seen[-1], name) for name in want} == want


@pytest.mark.parametrize("n_cis, removed_at", [("3", set()), ("12", {11})])
def test_simulate_keeps_preset_removals_inside_shortened_scenario(tmp_path, n_cis,
                                                                    removed_at):
    # office-like removes 20% of APs from CI 11 onward: a 3-CI scenario
    # never reaches it, a 12-CI one does
    assert main(["simulate", "--preset", "office-like", "--out", str(tmp_path),
                 "--width", "6", "--n-cis", n_cis]) == 0
    with open(tmp_path / "ground_truth.csv", newline="") as fh:
        removed = [int(row["removed_at_ci"]) for row in csv.DictReader(fh)]
    assert set(removed) - {-1} == removed_at


def test_simulate_explicit_removal_past_last_ci_fails(tmp_path, capsys):
    code, _, err = run(["simulate", "--preset", "office-like", "--out", str(tmp_path),
                        "--width", "6", "--n-cis", "3", "--removal", "11:0.2"], capsys)
    assert code == 1 and err == "error: removal schedule ci 11 outside [0, 3)\n"


def test_simulate_removal_ci_given_twice_fails(tmp_path, capsys):
    code, _, err = run(["simulate", "--preset", "office-like", "--out", str(tmp_path),
                        "--removal", "11:0.2,11:0.5"], capsys)
    assert code == 1 and err == "error: removal schedule gives ci 11 twice\n"
    assert not (tmp_path / "fingerprints.csv").exists()


@pytest.mark.parametrize("entry", ["5", "5:", "5;0.2"])
def test_simulate_malformed_removal_entry_fails(tmp_path, capsys, entry):
    code, _, err = run(["simulate", "--preset", "office-like", "--out", str(tmp_path),
                        "--removal", entry], capsys)
    assert code == 1 and err == f"error: bad removal entry {entry!r}, want ci:frac\n"
    assert not (tmp_path / "fingerprints.csv").exists()


def test_train_then_eval(scenario_dir, model_path, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, out, err = run(["eval", "--model", str(model_path),
                          "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                          "--k", "3", "--baseline", "--report", str(report)],
                         capsys)
    assert code == 0, err
    rows = list(csv.reader(report.open()))
    assert rows[0] == ["ci", "method", "n", "mean_error_m"]
    methods = {r[1] for r in rows[1:]}
    assert methods == {"embedding-knn", "raw-knn"}
    assert "overall mean error" in out


def test_eval_with_explicit_floorplan(scenario_dir, model_path, tmp_path, capsys):
    report = tmp_path / "report.csv"
    code, _, err = run(["eval", "--model", str(model_path),
                        "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                        "--floorplan", str(scenario_dir / "floorplan.csv"),
                        "--report", str(report)], capsys)
    assert code == 0, err
    assert report.exists()


def test_predict_prints_locations(scenario_dir, model_path, tmp_path, capsys):
    # reuse the fingerprint CSV as a scan file; rp_id/ci columns are skipped
    code, out, err = run(["predict", "--model", str(model_path),
                          "--scan", str(scenario_dir / "fingerprints.csv"),
                          "--k", "3"], capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert lines[0] == "x_m,y_m,rp_id"
    first = lines[1].split(",")
    assert len(first) == 3
    float(first[0]), float(first[1]), int(first[2])


@pytest.mark.parametrize("rule", ["vote", "centroid"])
def test_predict_csv_matches_per_scan_predict(scenario_dir, model_path, tmp_path,
                                              capsys, rule):
    # the batched command prints exactly what one predict() call per scan gives
    header, *rows = (scenario_dir / "fingerprints.csv").read_text().splitlines()
    scans = tmp_path / "scans.csv"
    scans.write_text("\n".join([header] + rows * 5) + "\n")  # more than one query block
    code, out, err = run(["predict", "--model", str(model_path), "--scan", str(scans),
                          "--k", "3", "--rule", rule], capsys)
    assert code == 0, err
    model, index, extra = load_model_full(model_path)
    lines = ["x_m,y_m,rp_id"]
    for rssi in load_scans(scans, tuple(extra["ap_registry"].split(","))):
        p = predict(model, index, Fingerprint(0, 0, rssi), 3, rule)
        lines.append(f"{p.x:.4f},{p.y:.4f},{p.rp_id}")
    assert len(lines) > 2 * 96
    assert out == "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize("exc", [FloatingPointError("pre-normalization embedding collapsed to zero"),
                                 MemoryError()])
def test_predict_query_failures_exit_cleanly(scenario_dir, model_path, capsys,
                                             monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc
    monkeypatch.setattr(cli, "predict_batch", fail)
    code, out, err = run(["predict", "--model", str(model_path),
                          "--scan", str(scenario_dir / "fingerprints.csv")], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: {str(exc) or type(exc).__name__}\n"


def test_predict_partial_scan(scenario_dir, model_path, tmp_path, capsys):
    # a scan covering a subset of APs plus an unknown AP column
    fps = (scenario_dir / "fingerprints.csv").read_text().splitlines()
    header = fps[0].split(",")
    scan = tmp_path / "scan.csv"
    scan.write_text(f"{header[2]},ap_unknown\n-60,-40\n")
    code, out, err = run(["predict", "--model", str(model_path),
                          "--scan", str(scan), "--k", "1"], capsys)
    assert code == 0, err
    assert len(out.strip().splitlines()) == 2


def test_scan_duplicate_ap_column_reports_row_1(tmp_path):
    scan = tmp_path / "dup.csv"
    scan.write_text("ap_a,ap_b,ap_a\n-40,-50,-60\n")
    with pytest.raises(DatasetFormatError, match="row 1:.*duplicate AP column 'ap_a'"):
        load_scans(scan, ("a", "b"))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_predict_ignores_scan_column_order(scenario_dir, model_path, tmp_path_factory, data):
    # the same scans with their ap_ columns in any order print the same bytes
    header, *rows = [line.split(",") for line in
                     (scenario_dir / "fingerprints.csv").read_text().splitlines()[:41]]
    order = [0, 1] + [2 + j for j in data.draw(st.permutations(range(len(header) - 2)))]
    scan = tmp_path_factory.mktemp("scan") / "scan.csv"
    outputs = []
    for cols in (range(len(header)), order):
        scan.write_text("".join(",".join(r[j] for j in cols) + "\n" for r in [header] + rows))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["predict", "--model", str(model_path), "--scan", str(scan)]) == 0
        outputs.append(out.getvalue())
    assert outputs[0] == outputs[1]
    assert outputs[0].count("\n") == 41


def test_train_and_sweep_share_training_flags():
    # the nine training flags and their defaults, as both commands had them
    expected = {"--embed-dim": 5, "--alpha": 0.2, "--p-upper": 0.9,
                "--noise-sigma": 0.1, "--sigma-sel": "auto",
                "--dropout-rate": 0.25, "--epochs": 50, "--batch": 32,
                "--lr": 1e-3}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("train", "sweep-fpr"):
        flags = {opt: a.default for a in sub.choices[command]._actions
                 for opt in a.option_strings}
        assert {opt: flags.get(opt) for opt in expected} == expected
    cfg = cli._train_config(sub.choices["train"].parse_args(
        ["--floorplan", "f", "--fingerprints", "g", "--out", "o", "--noise-sigma", "0.3"]))
    assert cfg.encoder.noise_sigma == 0.3


def test_train_rp_id_beyond_int32_fails_cleanly(scenario_dir, tmp_path, capsys):
    # the model file stores rp_ids as int32; a wider id is a floorplan row error
    rows = (scenario_dir / "floorplan.csv").read_text().splitlines()
    rows[2] = str(2**70) + rows[2][rows[2].index(","):]
    floorplan = tmp_path / "floorplan.csv"
    floorplan.write_text("\n".join(rows) + "\n")
    out = tmp_path / "m.stne"
    code, _, err = run(["train", "--floorplan", str(floorplan),
                        "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                        "--fpr", "4", "--epochs", "1", "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: row 3: rp_id {2**70} does not fit in int32\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, field", [
    ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
    ("--alpha", "nan", "margin_alpha"), ("--sigma-sel", "nan", "sigma_sel"),
    ("--noise-sigma", "inf", "noise_sigma"), ("--p-upper", "nan", "p_upper")])
def test_train_non_finite_flags_fail_before_training(scenario_dir, tmp_path, capsys,
                                                    monkeypatch, flag, value, field):
    monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("training started"))
    out = tmp_path / "m.stne"
    code, _, err = run(["train", "--floorplan", str(scenario_dir / "floorplan.csv"),
                        "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                        "--fpr", "4", flag, value, "--out", str(out)], capsys)
    assert code == 1
    assert err.startswith(f"error: {field} must")
    assert not out.exists()


def _rename_first_ap(scenario_dir, tmp_path, ap_id):
    """The scenario's fingerprint CSV with its first AP column renamed to
    ap_<ap_id>, quoted where the id needs it."""
    with open(scenario_dir / "fingerprints.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    header[2] = "ap_" + ap_id
    path = tmp_path / "fingerprints.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return path


@pytest.mark.parametrize("ap_id", ["0,00", "0\n00"])
def test_train_reserved_ap_id_fails_before_training(scenario_dir, tmp_path, capsys,
                                                   monkeypatch, ap_id):
    # the model file joins AP ids with "," on one metadata line
    monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("training started"))
    out = tmp_path / "m.stne"
    code, _, err = run(["train", "--floorplan", str(scenario_dir / "floorplan.csv"),
                        "--fingerprints", str(_rename_first_ap(scenario_dir, tmp_path, ap_id)),
                        "--fpr", "4", "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: AP id {ap_id!r} contains characters reserved by the model file\n"
    assert not out.exists()


def test_ap_id_with_equals_sign_trains_evaluates_and_predicts(scenario_dir, tmp_path, capsys):
    # the model file splits a metadata line at its first "=", so a value may hold one
    fingerprints = _rename_first_ap(scenario_dir, tmp_path, "0=00")
    model = tmp_path / "m.stne"
    code, _, err = run(["train", "--floorplan", str(scenario_dir / "floorplan.csv"),
                        "--fingerprints", str(fingerprints), "--fpr", "4",
                        "--embed-dim", "3", "--epochs", "1", "--batch", "16",
                        "--out", str(model)], capsys)
    assert code == 0, err
    assert load_model_full(model)[2]["ap_registry"].startswith("0=00,")
    code, _, err = run(["eval", "--model", str(model), "--fingerprints", str(fingerprints),
                        "--baseline", "--report", str(tmp_path / "report.csv")], capsys)
    assert code == 0, err
    code, out, err = run(["predict", "--model", str(model), "--scan", str(fingerprints)],
                         capsys)
    assert code == 0, err
    assert len(out.splitlines()) == len(fingerprints.read_text().splitlines())


def test_scan_non_finite_cell_reports_row(tmp_path):
    scan = tmp_path / "scan.csv"
    scan.write_text("rp_id,ap_a,ap_b\n0,-40,-50\n0,nan,-50\n")
    with pytest.raises(DatasetFormatError, match="row 3: rssi nan out of .* ap_a"):
        load_scans(scan, ("a", "b"))


@pytest.mark.parametrize("header, row", [("rp_id,ci", "0,0"), ("ap_zzz", "-50")])
def test_predict_scan_without_registry_ap_fails(model_path, tmp_path, capsys, header, row):
    # no column the model knows: there is nothing to locate from
    scan = tmp_path / "scan.csv"
    scan.write_text(f"{header}\n{row}\n")
    code, out, err = run(["predict", "--model", str(model_path), "--scan", str(scan)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: row 1: {scan}: no ap_ column is in the registry\n"


def test_scan_short_row_reports_row(tmp_path):
    scan = tmp_path / "scan.csv"
    scan.write_text("ap_a,ap_b\n-40,-50\n-40\n")
    with pytest.raises(DatasetFormatError, match="row 3: expected 2 cells, got 1"):
        load_scans(scan, ("a", "b"))


@pytest.mark.parametrize("flags, field", [
    (["--width", "inf"], "width"),
    (["--width", "1e308", "--rp-spacing", "1e-308"], "rp_spacing"),
    (["--tx-power-dbm", "inf"], "tx_power_dbm"),
    (["--shadow-sigma-db", "nan"], "shadow_sigma_db")])
def test_simulate_bad_config_fails_cleanly(tmp_path, capsys, flags, field):
    out = tmp_path / "scenario"
    code, stdout, err = run(["simulate", "--preset", "office-like", "--out", str(out),
                             *flags], capsys)
    assert code == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert field in err and "Traceback" not in err
    assert not out.exists()


def test_gradcheck_passes(capsys):
    code, out, _ = run(["gradcheck", "--seed", "3"], capsys)
    assert code == 0
    assert "max relative gradient error" in out


@pytest.mark.parametrize("level, want", [(logging.DEBUG, 2), (logging.INFO, 0)])
def test_train_logs_each_epoch_once_at_debug(scenario_dir, tmp_path, caplog, level, want):
    # per-epoch loss is -vv detail: one DEBUG record per epoch, none at -v
    caplog.set_level(level, logger="driftloc")
    assert main(["train", "--floorplan", str(scenario_dir / "floorplan.csv"),
                 "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                 "--fpr", "4", "--embed-dim", "3", "--epochs", "2", "--batch", "16",
                 "--out", str(tmp_path / "m.stne")]) == 0
    epochs = [r for r in caplog.records if "epoch" in r.getMessage()]
    assert len(epochs) == want and all(r.levelno == logging.DEBUG for r in epochs)


def test_sweep_fpr(scenario_dir, tmp_path, capsys):
    report = tmp_path / "sweep.csv"
    code, out, err = run(["sweep-fpr",
                          "--floorplan", str(scenario_dir / "floorplan.csv"),
                          "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                          "--fprs", "1,2", "--repeats", "1", "--seed", "2",
                          "--embed-dim", "3", "--epochs", "2", "--batch", "16",
                          "--report", str(report)], capsys)
    assert code == 0, err
    rows = list(csv.reader(report.open()))
    assert rows[0] == ["fpr", "ci", "mean_error_m"]
    assert [r for r in rows if r[1] == "overall"]


def test_eval_without_training_ci(scenario_dir, model_path, tmp_path, capsys):
    # fingerprints from later CIs only: eval scores everything, and the
    # baseline (which needs the training partition) is refused
    lines = (scenario_dir / "fingerprints.csv").read_text().splitlines()
    later = [lines[0]] + [l for l in lines[1:] if l.split(",")[1] != "0"]
    fps = tmp_path / "later.csv"
    fps.write_text("\n".join(later) + "\n")

    report = tmp_path / "r.csv"
    code, _, err = run(["eval", "--model", str(model_path),
                        "--fingerprints", str(fps), "--report", str(report)],
                       capsys)
    assert code == 0, err
    rows = list(csv.reader(report.open()))
    assert {r[0] for r in rows[1:]} == {"1", "2"}

    code, _, err = run(["eval", "--model", str(model_path),
                        "--fingerprints", str(fps), "--baseline",
                        "--report", str(report)], capsys)
    assert code == 1
    assert "baseline" in err


def _without_first_training_row(scenario_dir, tmp_path):
    """The scenario's fingerprint CSV without its first CI-0 row of RP 0."""
    lines = (scenario_dir / "fingerprints.csv").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if line.split(",")[:2] == ["0", "0"])
    fps = tmp_path / "cut.csv"
    fps.write_text("\n".join(lines[:first] + lines[first + 1:]) + "\n")
    return fps


@pytest.mark.parametrize("fpr", ["4", "2"])
def test_eval_refuses_a_csv_whose_training_rows_changed(scenario_dir, tmp_path, capsys, fpr):
    # At fpr 4 every CI-0 row trained, so the replay picks one row fewer for
    # RP 0; at fpr 2 it picks the index's rp_ids in order, but other rows.
    floorplan = scenario_dir / "floorplan.csv"
    model = tmp_path / "m.stne"
    code, _, err = run(["train", "--floorplan", str(floorplan),
                        "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                        "--fpr", fpr, "--embed-dim", "3", "--epochs", "1", "--batch", "16",
                        "--seed", "1", "--out", str(model)], capsys)
    assert code == 0, err
    cut = _without_first_training_row(scenario_dir, tmp_path)
    _, index, extra = load_model_full(model)
    replayed, _ = split_by_ci(load_dataset(floorplan, cut), 0, int(fpr),
                              int(extra["split_seed"]))
    assert np.array_equal(replayed.rp_ids, index.rp_ids) == (fpr == "2")
    report = tmp_path / "r.csv"
    code, out, err = run(["eval", "--model", str(model), "--fingerprints", str(cut),
                          "--baseline", "--report", str(report)], capsys)
    assert code == 1 and out == ""
    assert err == ("error: the fingerprints at training ci 0 are not the ones this "
                   "model was trained on; evaluate on the CSV it was trained from\n")
    assert not report.exists()


def test_eval_replay_check_changes_no_report_byte(scenario_dir, model_path, tmp_path,
                                                  capsys, monkeypatch):
    # on the CSV the model trained from, the check passes and the report
    # and stdout are those of an eval without it
    outputs = []
    for check in (cli._check_replay, lambda *args: None):
        monkeypatch.setattr(cli, "_check_replay", check)
        report = tmp_path / "r.csv"
        code, out, err = run(["eval", "--model", str(model_path), "--fingerprints",
                              str(scenario_dir / "fingerprints.csv"), "--baseline",
                              "--report", str(report)], capsys)
        assert code == 0, err
        outputs.append((report.read_bytes(), out))
    assert outputs[0] == outputs[1]


def test_sweep_fpr_names_an_absent_train_ci(scenario_dir, tmp_path, capsys):
    code, out, err = run(["sweep-fpr", "--floorplan", str(scenario_dir / "floorplan.csv"),
                          "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                          "--fprs", "1", "--train-ci", "9",
                          "--report", str(tmp_path / "s.csv")], capsys)
    assert code == 1 and out == ""
    assert err == "error: train_ci 9 absent from dataset (has (0, 1, 2))\n"


def test_predict_with_model_lacking_registry_fails(scenario_dir, model_path, tmp_path, capsys):
    # a model saved without the AP registry cannot align scan columns
    model, index, _ = load_model_full(model_path)
    bare = tmp_path / "bare.stne"
    save_model(model, index, bare)
    code, out, err = run(["predict", "--model", str(bare),
                          "--scan", str(scenario_dir / "fingerprints.csv")], capsys)
    assert code == 1 and out == ""
    assert err == "error: model file lacks the AP registry; cannot align scans\n"


def test_eval_with_another_registry_fails(scenario_dir, model_path, tmp_path, capsys):
    fingerprints = _rename_first_ap(scenario_dir, tmp_path, "zz")
    report = tmp_path / "r.csv"
    code, out, err = run(["eval", "--model", str(model_path), "--fingerprints",
                          str(fingerprints), "--report", str(report)], capsys)
    assert code == 1 and out == ""
    assert err == ("error: fingerprint CSV registry does not match the model's "
                   "training registry\n")
    assert not report.exists()


def test_missing_file_fails_cleanly(capsys):
    code, _, err = run(["eval", "--model", "nope.stne",
                        "--fingerprints", "nope.csv", "--report", "r.csv"],
                       capsys)
    assert code == 1
    assert "error:" in err


def test_malformed_dataset_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("rp_id,x_m\n0,0\n")
    code, _, err = run(["train", "--floorplan", str(bad),
                        "--fingerprints", str(bad), "--seed", "0",
                        "--out", str(tmp_path / "m.stne")], capsys)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("cell, message", [
    (b"9" * 200_000, "row 3: {}: field larger than field limit (131072)"),
    (b"-5\xff", "{}: not UTF-8 text (byte 0xff: invalid start byte)")])
def test_train_on_unreadable_csv_cell_fails_cleanly(scenario_dir, tmp_path, capsys,
                                                   cell, message):
    # the scenario's fingerprint CSV with row 3's first dBm cell replaced
    rows = (scenario_dir / "fingerprints.csv").read_bytes().split(b"\r\n")
    cells = rows[2].split(b",")
    rows[2] = b",".join(cells[:2] + [cell] + cells[3:])
    fingerprints = tmp_path / "fingerprints.csv"
    fingerprints.write_bytes(b"\r\n".join(rows))
    out = tmp_path / "m.stne"
    code, _, err = run(["train", "--floorplan", str(scenario_dir / "floorplan.csv"),
                        "--fingerprints", str(fingerprints), "--fpr", "4",
                        "--out", str(out)], capsys)
    assert code == 1
    assert err == f"error: {message.format(fingerprints)}\n"
    assert not out.exists()


def test_determinism_across_runs(scenario_dir, tmp_path):
    m1, m2 = tmp_path / "m1.stne", tmp_path / "m2.stne"
    for m in (m1, m2):
        code = main(["train",
                     "--floorplan", str(scenario_dir / "floorplan.csv"),
                     "--fingerprints", str(scenario_dir / "fingerprints.csv"),
                     "--fpr", "4", "--embed-dim", "3", "--epochs", "2",
                     "--batch", "16", "--seed", "9", "--out", str(m)])
        assert code == 0
    assert m1.read_bytes() == m2.read_bytes()

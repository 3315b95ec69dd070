import csv
import re

import numpy as np
import pytest

from driftloc import evaluate, localizer, nn
from driftloc.data import (Fingerprint, FingerprintDataset, FloorPlan,
                           ReferencePoint, split_by_ci)
from driftloc.encoder import EncoderConfig
from driftloc.evaluate import (EvalReport, _report, _run_eval,
                               evaluate_baseline_over_time, evaluate_over_time,
                               fpr_sweep, write_report_csv, write_sweep_csv)
from driftloc.localizer import (Prediction, TrainConfig, baseline_predict_batch,
                                predict, train)
from driftloc.simulate import SimConfig, generate


def pred_at(x, y):
    return Prediction(x=x, y=y, rp_id=0, neighbor_rps=((0, 0.0),))


def report_of(*pairs):
    """_report over one CI-0 query per (prediction, true rp_id) pair; RP 0
    is at (0, 0) and RP 1 at (2, 3)."""
    floorplan = FloorPlan(rps=(ReferencePoint(0, 0.0, 0.0), ReferencePoint(1, 2.0, 3.0)),
                          ap_registry=("a",))
    test = FingerprintDataset(floorplan, tuple(Fingerprint(rp, 0, np.array([-50.0]))
                                               for _, rp in pairs))
    return _report([pred for pred, _ in pairs], test, "m")


def test_error_zero_at_truth():
    rep = report_of((pred_at(2.0, 3.0), 1))
    assert rep.per_ci_mean_error == {0: 0.0}
    assert rep.overall_mean_error == 0.0


def test_error_three_four_five():
    rep = report_of((pred_at(3.0, 4.0), 0))
    assert rep.per_ci_mean_error == {0: 5.0}
    assert rep.overall_mean_error == 5.0


def test_mean_of_errors_is_arithmetic():
    rep = report_of((pred_at(3.0, 0.0), 0), (pred_at(0.0, 0.0), 0))
    assert rep.per_ci_mean_error == {0: 1.5}
    assert rep.overall_mean_error == 1.5
    assert rep.n_queries_per_ci == {0: 2}


def small_cfg():
    return TrainConfig(
        encoder=EncoderConfig(conv1_filters=8, conv2_filters=12, fc_units=24,
                              embed_dim=3, dropout_rate=0.1),
        p_upper=0.5,
        epochs=4, batch_size=16,
    )


@pytest.fixture(scope="module")
def scenario():
    cfg = SimConfig(width=12.0, height=0.5, rp_spacing=3.0, n_aps=12,
                    n_cis=3, fpr=4, seed=33)
    ds, _ = generate(cfg)
    return ds


@pytest.fixture(scope="module")
def trained(scenario):
    tr, te = split_by_ci(scenario, 0, 4, seed=2)
    model, index = train(tr, small_cfg(), seed=9)
    return tr, te, model, index


def test_memorization_gives_zero_error(trained):
    tr, _, model, index = trained
    rep = evaluate_over_time(model, index, tr, k=1)
    assert rep.per_ci_mean_error[0] == 0.0


def test_report_shape_and_weighted_overall(trained):
    _, te, model, index = trained
    rep = evaluate_over_time(model, index, te, k=3)
    assert set(rep.cis()) == set(te.cis())
    assert sum(rep.n_queries_per_ci.values()) == len(te)
    weighted = sum(rep.per_ci_mean_error[c] * rep.n_queries_per_ci[c]
                   for c in rep.cis()) / len(te)
    assert abs(weighted - rep.overall_mean_error) <= 1e-9


def test_side_by_side_same_queries(trained):
    tr, te, model, index = trained
    a = evaluate_over_time(model, index, te, k=3)
    b = evaluate_baseline_over_time(tr, te, k=3)
    assert a.n_queries_per_ci == b.n_queries_per_ci
    assert a.method_label != b.method_label


@pytest.mark.parametrize("rule", ["vote", "centroid"])
def test_batched_harness_matches_per_scan_loop(trained, rule, monkeypatch):
    tr, te, model, index = trained
    test = FingerprintDataset(te.floorplan, te.fingerprints * 5)  # spans several query blocks
    # KNN blocks of 96 embedding and 24 raw-RSSI queries, the last one partial
    # (the shared budget also splits the convs into smaller chunks)
    monkeypatch.setattr(nn, "_BLOCK_BYTES", 8 * len(tr) * localizer._slots(tr.floorplan.n_aps) * 24)
    for width in (index.embed_dim, tr.floorplan.n_aps):
        rows = nn._BLOCK_BYTES // (8 * len(tr) * localizer._slots(width))
        assert 1 < rows and len(test) > 2 * rows and len(test) % rows
    pairs = [
        (evaluate_over_time(model, index, test, 3, rule),
         _run_eval(lambda fp: predict(model, index, fp, 3, rule), test, "embedding-knn")),
        (evaluate_baseline_over_time(tr, test, 3, rule),
         _run_eval(lambda fp: baseline_predict_batch(tr, fp.rssi[None, :], 3, rule)[0],
                   test, "raw-knn")),
    ]
    for batched, single in pairs:
        assert batched.method_label == single.method_label
        assert batched.n_queries_per_ci == single.n_queries_per_ci
        assert batched.cis() == single.cis()
        for ci in batched.cis():
            assert batched.per_ci_mean_error[ci] == pytest.approx(
                single.per_ci_mean_error[ci], rel=0.0, abs=1e-12)


def test_report_csv_schema(tmp_path, trained):
    tr, te, model, index = trained
    a = evaluate_over_time(model, index, te, k=3)
    b = evaluate_baseline_over_time(tr, te, k=3)
    path = tmp_path / "report.csv"
    write_report_csv([a, b], path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["ci", "method", "n", "mean_error_m"]
    methods = {r[1] for r in rows[1:]}
    assert methods == {"embedding-knn", "raw-knn"}
    assert len(rows) == 1 + 2 * len(a.cis())


def test_fpr_sweep_table_shape(scenario, tmp_path):
    reports = fpr_sweep(scenario, fprs=[1, 2], cfg=small_cfg(), repeats=2,
                        seed=4, train_ci=0, k=1)
    assert list(reports) == [1, 2]
    assert reports[1].cis() == reports[2].cis()
    path = tmp_path / "sweep.csv"
    write_sweep_csv(reports, path)
    rows = list(csv.reader(path.open()))
    assert rows[0] == ["fpr", "ci", "mean_error_m"]
    overall_rows = [r for r in rows[1:] if r[1] == "overall"]
    assert len(overall_rows) == 2


def test_fpr_sweep_averages_per_repeat_reports(scenario):
    # each FPR's report rebuilt from its repeats' own split, train and
    # evaluate runs, summed in repeat order
    cfg, seed, repeats = small_cfg(), 4, 2
    reports = fpr_sweep(scenario, fprs=[2, 1], cfg=cfg, repeats=repeats, seed=seed, k=1)
    assert list(reports) == [2, 1]
    for fpr, got in reports.items():
        runs = []
        for rep in range(repeats):
            split_seed, train_seed = (
                int(s) for s in np.random.SeedSequence([seed, fpr, rep]).generate_state(2))
            tr, te = split_by_ci(scenario, 0, fpr, split_seed)
            runs.append(evaluate_over_time(*train(tr, cfg, train_seed), te, k=1))
        assert got == EvalReport(
            per_ci_mean_error={ci: (runs[0].per_ci_mean_error[ci]
                                    + runs[1].per_ci_mean_error[ci]) / repeats
                               for ci in runs[0].cis()},
            overall_mean_error=(runs[0].overall_mean_error
                                + runs[1].overall_mean_error) / repeats,
            n_queries_per_ci=runs[0].n_queries_per_ci,
            method_label="embedding-knn",
        )


def test_write_sweep_csv_text(tmp_path):
    # FPR 6 has no CI-0 row: every RP's fingerprints there went to training
    reports = {
        1: EvalReport({0: 1.25, 2: 3.0}, 2.125, {0: 4, 2: 4}, "embedding-knn"),
        6: EvalReport({2: 0.5}, 0.5, {2: 4}, "embedding-knn"),
    }
    path = tmp_path / "sweep.csv"
    write_sweep_csv(reports, path)
    assert path.read_bytes() == (
        b"fpr,ci,mean_error_m\r\n1,0,1.250000\r\n1,2,3.000000\r\n1,overall,2.125000\r\n"
        b"6,2,0.500000\r\n6,overall,0.500000\r\n")


def test_fpr_sweep_rejects_unavailable_fpr(scenario):
    with pytest.raises(ValueError, match="exceeds"):
        fpr_sweep(scenario, fprs=[99], cfg=small_cfg(), repeats=1, seed=0)


def test_fpr_sweep_names_an_absent_train_ci_before_training(scenario, monkeypatch):
    # split_by_ci's check and wording, not a count of 0 fingerprints per RP
    trained = _counting(monkeypatch, evaluate, "train")
    with pytest.raises(ValueError, match=re.escape(
            f"train_ci 9 absent from dataset (has {scenario.cis()})")):
        fpr_sweep(scenario, fprs=[1], cfg=small_cfg(), repeats=1, seed=0, train_ci=9)
    assert trained == []


def test_fpr_sweep_rejects_repeated_fpr_before_training(scenario, monkeypatch):
    # a repeated FPR would add its errors twice but divide by repeats once
    monkeypatch.setattr(evaluate, "train", lambda *a, **kw: pytest.fail("training started"))
    with pytest.raises(ValueError, match=r"distinct; repeated: \[1\]"):
        fpr_sweep(scenario, fprs=[1, 1], cfg=small_cfg(), repeats=1, seed=0)


def _counting(monkeypatch, module, name):
    """Record the calls of ``module.name`` while still making them."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def _bad_k_message(k):
    return "^k must be >= 1$" if k < 1 else f"^k={k} exceeds index size "


@pytest.mark.parametrize("k", [0, 10**6])
def test_bad_k_refused_before_any_embedding(trained, monkeypatch, k):
    tr, te, model, index = trained
    encoded = _counting(monkeypatch, localizer, "encode_batch")
    normalized = _counting(monkeypatch, localizer, "normalize_rows")
    with pytest.raises(ValueError, match=_bad_k_message(k)):
        evaluate_over_time(model, index, te, k=k)
    with pytest.raises(ValueError, match=_bad_k_message(k)):
        evaluate_baseline_over_time(tr, te, k=k)
    assert encoded == [] and normalized == []


def test_fpr_sweep_refuses_bad_k_before_training(scenario, monkeypatch):
    # the smallest index a sweep builds holds min(fprs) entries per RP
    trained = _counting(monkeypatch, evaluate, "train")
    split = _counting(monkeypatch, evaluate, "split_by_ci")
    smallest = len(scenario.floorplan.rps) * 2
    for k in (0, smallest + 1):
        with pytest.raises(ValueError, match=_bad_k_message(k)):
            fpr_sweep(scenario, fprs=[3, 2], cfg=small_cfg(), repeats=1, seed=0, k=k)
    assert trained == [] and split == []


def test_fpr_sweep_deterministic(scenario):
    r1 = fpr_sweep(scenario, fprs=[1], cfg=small_cfg(), repeats=1, seed=8, k=1)
    r2 = fpr_sweep(scenario, fprs=[1], cfg=small_cfg(), repeats=1, seed=8, k=1)
    assert r1 == r2


def test_eval_report_window_mean():
    rep = EvalReport(per_ci_mean_error={1: 2.0, 2: 4.0},
                     overall_mean_error=3.0,
                     n_queries_per_ci={1: 10, 2: 30},
                     method_label="x")
    assert rep.window_mean([1, 2]) == pytest.approx((2.0 * 10 + 4.0 * 30) / 40)
    with pytest.raises(ValueError):
        rep.window_mean([7])

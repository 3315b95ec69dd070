"""Self-test of the benchmark harness at tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench

Covers the workload generators, the independent KNN checker (including
that a wrong prediction counts as a failure) and the span self-time
arithmetic.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import driftloc  # noqa: E402
from driftloc import localizer  # noqa: E402
from driftloc.encoder import EncoderConfig  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((HERE / "metric_map.json").read_text())


def tiny_sim(two_d: bool):
    def sim(seed):
        return driftloc.SimConfig(width=4.0 if two_d else 6.0, height=4.0 if two_d else 0.5,
                                  rp_spacing=2.0 if two_d else 1.0, n_aps=16, n_cis=4, fpr=3,
                                  removal_schedule={2: 0.3}, seed=seed)
    return sim


TINY_TRAIN = localizer.TrainConfig(encoder=EncoderConfig(conv1_filters=4, conv2_filters=8),
                                   epochs=1, batch_size=8)


def tiny(name, tmp_path):
    wl = workloads.WORKLOADS[name](driftloc, tmp_path, sim=tiny_sim(name == "uji-predict"),
                                   train_cfg=TINY_TRAIN)
    wl.pool_size, wl.scans_per_load, wl.trace_units = 12, 5, 2
    return wl


# ---- contract ---------------------------------------------------------------

def test_contract_names_agree():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    mapped = [name for group in METRIC_MAP["per_layer"] for name in group["metrics"]]
    assert sorted(m["name"] for m in CONTRACT["per_layer"]) == sorted(mapped)
    assert {m["name"] for m in CONTRACT["end_to_end"]} == set(METRIC_MAP["end_to_end"])
    for group in METRIC_MAP["per_layer"]:
        assert set(group["on"]) <= set(workloads.WORKLOADS)


# ---- checker ----------------------------------------------------------------

def test_decide_tie_rules():
    xs, ys = [10.0, 11.0, 12.0, 13.0], [0.0, 1.0, 2.0, 3.0]
    # majority wins; coordinates of the winner's first neighbour
    assert oracle.decide(np.array([0.1, 0.2, 0.3, 0.4]), [5, 7, 7, 5], xs, ys, 3) == (7, 11.0, 1.0)
    # equal votes and equal mean distance: lowest rp_id
    assert oracle.decide(np.array([0.1, 0.1, 0.9, 0.9]), [9, 4, 1, 1], xs, ys, 2)[0] == 4
    # equal votes: smaller mean distance wins over lower rp_id
    assert oracle.decide(np.array([0.2, 0.1, 0.9, 0.9]), [1, 2, 3, 3], xs, ys, 2)[0] == 2
    # a distance tie at the k-th place is broken by rp_id, then position
    assert oracle.decide(np.array([0.1, 0.2, 0.2, 0.2]), [3, 8, 6, 6], xs, ys, 2) == (3, 10.0, 0.0)


def test_decide_matches_driftloc_on_tie_heavy_inputs():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(3, 12))
        dists = np.round(rng.random(n) * 4) / 4  # many exact ties
        rps = rng.integers(0, 4, size=n)
        xs, ys = rng.random(n), rng.random(n)
        k = int(rng.integers(1, n + 1))
        want = localizer._knn_decide(dists, rps, xs, ys, k, "vote")
        got = oracle.decide(dists, rps.tolist(), xs.tolist(), ys.tolist(), k)
        assert got == (want.rp_id, want.x, want.y)


def test_oracle_embedding_matches_driftloc():
    cfg = EncoderConfig(conv1_filters=4, conv2_filters=8)
    model = driftloc.encoder.init_model(cfg, 4, seed=5)
    rssi = np.random.default_rng(1).uniform(-100.0, 0.0, size=(7, 14))
    want = driftloc.encoder.encode_batch(
        model, [driftloc.preprocess.image_from_rssi(r) for r in rssi])
    assert np.abs(oracle.embed(model.params, rssi, 4) - want).max() <= oracle.EMBED_TOL


def test_expect_counts_every_wrong_answer():
    truth = np.array([[1, 0.0, 0.0], [2, 1.0, 0.0], [3, 2.0, 0.0]])
    e = oracle.Expect(3)
    e.observe([0, 1, 2], truth)
    e.observe([0, 1, 2], truth)
    assert e.failures(truth) == 0
    e.observe([1], [[3, 2.0, 0.0]])          # a later answer that changed
    assert e.failures(truth) == 1
    wrong_first = oracle.Expect(3)
    wrong_first.observe([0], [[9, 9.0, 9.0]])
    wrong_first.observe([0], [[9, 9.0, 9.0]])  # repeated wrong answer counts twice
    assert wrong_first.failures(truth) == 2


# ---- spans ------------------------------------------------------------------

def _span(start, end, parent):
    return SimpleNamespace(start=start, end=end, parent=parent)


def test_self_times_partition_the_root():
    s = [_span(0, 10, -1), _span(1, 4, 0), _span(2, 3, 1), _span(5, 6, 0), _span(8, 12, 0)]
    selfs = spans.self_times(s)
    assert selfs[:4] == [4, 2, 1, 1]
    assert selfs[0] + selfs[1] + selfs[2] + selfs[3] + 2 == 10  # last child clipped to the root


def test_self_times_merge_overlapping_children():
    s = [_span(0, 10, -1), _span(1, 5, 0), _span(3, 7, 0)]
    assert spans.self_times(s)[0] == 4


def test_tracer_request_ids_and_parents():
    t = spans.Tracer()
    with t.span(spans.ROOT):
        for _ in range(2):
            with t.span("sampler.make_batch"):
                with t.span("sampler.sample_triplet"):
                    pass
            with t.span("encoder.train_step"):
                pass
    got = [(s.name, s.parent, s.req) for s in t.spans]
    assert got == [(spans.ROOT, -1, -1),
                   ("sampler.make_batch", 0, 0), ("sampler.sample_triplet", 1, 0),
                   ("encoder.train_step", 0, 0),
                   ("sampler.make_batch", 0, 1), ("sampler.sample_triplet", 4, 1),
                   ("encoder.train_step", 0, 1)]


def test_absent_binding_is_reported_not_raised():
    absent = set()
    with spans.installed(spans.Tracer(), [("driftloc.nn", "no_such_kernel", "nn.x", None)], absent):
        pass
    assert absent == {"driftloc.nn.no_such_kernel"}


# ---- workloads --------------------------------------------------------------

def test_setup_is_deterministic_per_seed(tmp_path):
    a, b = tiny("uji-predict", tmp_path), tiny("uji-predict", tmp_path)
    a.setup(3)
    b.setup(3)
    assert [f.rp_id for f in a.pool] == [f.rp_id for f in b.pool]
    assert all(np.array_equal(x.rssi, y.rssi) for x, y in zip(a.pool, b.pool))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_clean(name, tmp_path):
    rec, info, metrics = run.measure(tiny(name, tmp_path), seed=1, seconds=0)
    assert rec.attempted > 0 and rec.failed == 0
    assert set(metrics) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v > 0 for v in metrics.values())
    assert {"err_pre_m", "err_post_m"} <= set(info)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    wl = tiny(name, tmp_path)
    rec, metrics = run.traced(wl, seed=1, seconds=0, out_dir=tmp_path)
    assert rec.failed == 0
    assert {m["name"] for m in CONTRACT["per_layer"]} <= set(metrics)
    assert metrics["bench.absent_bindings"] == 0
    assert 0.0 <= metrics["bench.unaccounted_frac"] < 1.0
    # self times of the traced section add up to its wall time
    lines = (tmp_path / f"spans-{name}-seed1.jsonl").read_text().splitlines()
    recs = [SimpleNamespace(**json.loads(x)) for x in lines]
    root = next(i for i, s in enumerate(recs) if s.name == spans.ROOT)
    section = recs[root:]  # parent indices count from the section's first span
    total = sum(spans.self_times(section))
    assert total == pytest.approx(section[0].end - section[0].start, rel=1e-9)


def test_office_train_waste_ratios(tmp_path):
    wl = tiny("office-train", tmp_path)
    _, metrics = run.traced(wl, seed=1, seconds=0, out_dir=tmp_path)
    # 3 images per triplet plus one per fingerprint for the index
    assert metrics["preprocess.images_per_fingerprint"] == pytest.approx(
        (3 * wl.n_triplets + wl.n_train_fps) / wl.n_train_fps)
    assert metrics["data.by_rp_calls_per_triplet"] == pytest.approx(1.0)
    assert metrics["encoder.encode_calls"] == 0  # the index build is not a query encode


# ---- a wrong answer is a failure, not a crash -------------------------------

def _wrong_first_call(module, attr, monkeypatch):
    original = getattr(module, attr)
    calls = []

    def wrong(*a, **kw):
        p = original(*a, **kw)
        calls.append(1)
        if len(calls) == 1:
            return localizer.Prediction(x=p.x + 100.0, y=p.y, rp_id=p.rp_id + 1000,
                                        neighbor_rps=p.neighbor_rps)
        return p
    monkeypatch.setattr(module, attr, wrong)


def test_wrong_eval_prediction_counts(tmp_path, monkeypatch):
    wl = tiny("office-eval", tmp_path)
    wl.setup(1)
    rec = workloads.Record()
    _wrong_first_call(driftloc.evaluate, "predict", monkeypatch)
    wl.unit(rec)
    wl.finish(rec)
    assert rec.failed == 1


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_report_is_checked_when_the_harness_stops_predicting_per_query(tmp_path, monkeypatch, shift):
    wl = tiny("office-eval", tmp_path)
    wl.setup(1)

    def batched(model, index, test, k=3, rule="vote"):
        # answers without calling driftloc.evaluate.predict, as a batched harness would
        report = driftloc.evaluate._run_eval(
            lambda fp: localizer.predict(model, index, fp, k, rule), test, "embedding-knn")
        per_ci = dict(report.per_ci_mean_error)
        if 1 in per_ci:
            per_ci[1] += shift
        return driftloc.EvalReport(per_ci, report.overall_mean_error,
                                   report.n_queries_per_ci, report.method_label)
    monkeypatch.setattr(driftloc.evaluate, "evaluate_over_time", batched)
    rec = workloads.Record()
    wl.unit(rec)
    wl.finish(rec)
    assert wl.reports["embedding"]
    n_ci1 = sum(1 for f in wl.test_set.fingerprints if f.ci == 1)
    assert rec.failed == (n_ci1 if shift else 0)


def test_wrong_online_prediction_counts(tmp_path, monkeypatch):
    wl = tiny("uji-predict", tmp_path)
    wl.setup(1)
    rec = workloads.Record()
    _wrong_first_call(driftloc.localizer, "predict", monkeypatch)
    wl.unit(rec)
    wl.finish(rec)
    assert rec.failed == 1


def _wrong_conv_at(batch_size, monkeypatch):
    """A conv kernel that is wrong, and deterministic, for one batch size only."""
    original = driftloc.nn.conv2d_forward

    def conv(x, w, b):
        out, cache = original(x, w, b)
        return (-out if len(x) == batch_size else out), cache
    monkeypatch.setattr(driftloc.nn, "conv2d_forward", conv)


@pytest.mark.parametrize("name", ["office-eval", "uji-predict"])
def test_wrong_single_image_kernel_counts(name, tmp_path, monkeypatch):
    wl = tiny(name, tmp_path)
    wl.setup(1)
    rec = workloads.Record()
    _wrong_conv_at(1, monkeypatch)
    wl.unit(rec)
    wl.finish(rec)
    assert rec.failed > 0


def test_wrong_index_counts(tmp_path, monkeypatch):
    wl = tiny("office-train", tmp_path)
    wl.setup(1)
    rec = workloads.Record()
    _wrong_conv_at(wl.n_train_fps, monkeypatch)  # the infer-mode index build
    wl.unit(rec)
    wl.finish(rec)
    assert rec.failed == 1


def test_nondeterministic_training_counts(tmp_path, monkeypatch):
    wl = tiny("office-train", tmp_path)
    wl.setup(1)
    rec = workloads.Record()
    wl.unit(rec)
    original = localizer.train

    def perturbed(*a, **kw):
        model, index = original(*a, **kw)
        model.params["fc2_b"] = model.params["fc2_b"] + 1.0
        return model, index
    monkeypatch.setattr(localizer, "train", perturbed)
    wl.unit(rec)
    assert rec.failed == 1


def test_missing_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "office-train", "--seed", "1", "--seconds", "1"]) == 2
    assert "{" not in capsys.readouterr().out

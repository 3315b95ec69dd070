"""The benchmark's three workloads.

Each is single-process and closed-loop with one caller: every call starts
after the previous one returns.  A workload builds its inputs from the seed
in ``setup`` (timed, repeated by the harness), runs one ``unit`` of timed
work per loop iteration, and checks outputs and computes untimed accuracy
in ``finish``.  The benchmark calls driftloc through module attributes
(``localizer.train``, ``evaluate.evaluate_over_time``, ...) so that the
tracer's wrappers on those attributes see the calls.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import oracle

K = 3  # neighbours per query, the CLI default
EMBED_SAMPLE = 256  # answered queries whose embedding is checked even when the answer is right


class Record:
    """Timed samples in seconds per key, plus operation counts."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0

    def call(self, key: str, fn, *args, ops: int = 1):
        """Time ``fn(*args)`` and record the time per operation; an exception
        counts ``ops`` failed operations and returns None."""
        self.attempted += ops
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            traceback.print_exc(limit=4, file=sys.stderr)
            self.failed += ops
            return None
        self.samples[key].append((time.perf_counter() - t0) / ops)
        return out

    def median(self, key: str) -> float:
        return float(np.median(self.samples[key]))

    def fastest(self, key: str) -> float:
        if not self.samples[key]:
            raise LookupError(f"no successful {key!r} call")
        return fastest(self.samples[key])


def fastest(samples) -> float:
    """The smallest sample, which every end-to-end timing uses.  On a shared
    virtual machine every call slows by 20-40% for seconds at a time.  The
    fastest call is the one least touched by that, and it varies less from
    run to run than the median or the 10th percentile does."""
    return float(min(samples))


def tail(samples) -> tuple[float, float]:
    """The highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, float(np.percentile(samples, q))
    return 50.0, float(np.median(samples))


def removal_ci(sim) -> int:
    return min(sim.removal_schedule)


def error_split(errors: np.ndarray, cis: np.ndarray, cut: int) -> tuple[float, float]:
    """Query-weighted mean error before / from collection instance ``cut``."""
    pre, post = errors[cis < cut], errors[cis >= cut]
    return float(pre.mean()), float(post.mean())


def rssi_rows(fingerprints) -> np.ndarray:
    return np.stack([f.rssi for f in fingerprints])


def index_failures(model, index, train_set) -> int:
    """1 if the index is not the oracle's embedding of the training
    fingerprints, row for row, with their RPs and coordinates; else 0."""
    fps = train_set.fingerprints
    want = oracle.embed(model.params, rssi_rows(fps), model.input_side)
    coords = {rp.rp_id: (rp.x, rp.y) for rp in train_set.floorplan.rps}
    got = np.asarray(index.embeddings, dtype=np.float64)
    ok = (got.shape == want.shape
          and np.abs(got - want).max() <= oracle.INDEX_TOL
          and np.array_equal(index.rp_ids, [f.rp_id for f in fps])
          and np.allclose(np.stack([index.xs, index.ys], axis=1),
                          [coords[f.rp_id] for f in fps], rtol=1e-6))
    if not ok:
        print("index differs from the oracle's embedding of the training set", file=sys.stderr)
    return 0 if ok else 1


def embedding_truth(driftloc, model, index, fingerprints, answers: np.ndarray):
    """Oracle answers for embedding-KNN queries over the program's index,
    and the number of checked queries whose driftloc embedding is wrong.

    Queries are embedded by ``oracle.embed``.  driftloc's single-image
    embedding, the one ``predict`` makes, is checked against it on an evenly
    spaced sample of EMBED_SAMPLE answered queries and on every query whose
    answer disagrees.  Where it is within ``oracle.EMBED_TOL``, an answer can
    only disagree on a distance tie at rounding level, and the decision from
    driftloc's embedding stands.
    """
    idx = (index.embeddings, index.rp_ids, index.xs, index.ys)
    emb = oracle.embed(model.params, rssi_rows(fingerprints), model.input_side)
    truth = oracle.knn(emb, *idx, K)
    seen = np.flatnonzero(~np.isnan(answers[:, 0]))
    wrong = set(seen[np.any(answers[seen] != truth[seen], axis=1)].tolist())
    sample = set(seen[::max(1, len(seen) // EMBED_SAMPLE)].tolist())
    bad = 0
    for q in sorted(wrong | sample):
        own = driftloc.encode_batch(model, [driftloc.to_image(fingerprints[q])])
        if np.abs(own[0] - emb[q]).max() > oracle.EMBED_TOL:
            bad += q not in wrong  # a wrong answer already counts as a failure
        elif q in wrong:
            truth[q] = oracle.knn(own, *idx, K)[0]
    return truth, bad


def baseline_truth(train_set, fingerprints) -> np.ndarray:
    coords = {rp.rp_id: (rp.x, rp.y) for rp in train_set.floorplan.rps}
    rps = [f.rp_id for f in train_set.fingerprints]
    table = oracle.normalized_rssi(rssi_rows(train_set.fingerprints))
    queries = oracle.normalized_rssi(rssi_rows(fingerprints))
    return oracle.knn(queries, table, rps, [coords[r][0] for r in rps],
                      [coords[r][1] for r in rps], K)


def errors_of(answers: np.ndarray, fingerprints, floorplan) -> np.ndarray:
    coords = {rp.rp_id: (rp.x, rp.y) for rp in floorplan.rps}
    truth = np.array([coords[f.rp_id] for f in fingerprints])
    return np.hypot(answers[:, 1] - truth[:, 0], answers[:, 2] - truth[:, 1])


class Workload:
    name = ""
    trace_units = 1   # units per traced section
    min_units = 2     # units every run makes, whatever --seconds says

    def __init__(self, driftloc, work: Path, sim=None, train_cfg=None):
        """``sim(seed)`` and ``train_cfg`` replace the preset scenario and the
        default training configuration; the self-test uses them to run at
        tiny size."""
        self.d = driftloc
        self.work = work
        self._sim = sim
        self._train_cfg = train_cfg
        # Check state lives across set-ups: the harness may set up again
        # between units, and the same seed rebuilds identical inputs.
        self.answers = None
        self.model_bytes = None
        self.first_model = None
        self.cursor = 0

    def sim(self, seed: int):
        return self._sim(seed) if self._sim else self.d.simulate.preset(self.preset, seed)

    def train_cfg(self, epochs: int):
        return self._train_cfg or self.d.localizer.TrainConfig(epochs=epochs)

    # n_train_fps / n_triplets feed the per-layer waste ratios
    n_train_fps = 0
    n_triplets = 0


class OfficeTrain(Workload):
    """Offline phase: ``train()`` on CI 0 of office-like.  Every training
    uses the same seed and must save byte-identical models; the save is a
    check and is not timed, so no model_io cost mixes into this workload."""

    name = "office-train"
    preset = "office-like"
    epochs = 1   # one train() call takes ~1.2 s on one x86-64 VM core

    def setup(self, seed: int) -> None:
        d = self.d
        self.seed = seed
        self.cfg = self.sim(seed)
        dataset, _ = d.simulate.generate(self.cfg)
        self.train_set, self.test_set = d.data.split_by_ci(dataset, 0, self.cfg.fpr, seed)
        self.tcfg = self.train_cfg(self.epochs)
        batches = max(1, math.ceil(len(self.train_set) / self.tcfg.batch_size))
        self.n_train_fps = len(self.train_set)
        self.n_triplets = self.tcfg.epochs * batches * self.tcfg.batch_size

    def unit(self, rec: Record) -> None:
        d = self.d
        out = rec.call("train", d.localizer.train, self.train_set, self.tcfg, self.seed)
        if out is None:
            return
        model, index = out
        if self.first_model is None:
            self.first_model = (model, index)
        path = self.work / "office-train.stne"
        d.model_io.save_model(model, index, path)
        data = path.read_bytes()
        if self.model_bytes is None:
            self.model_bytes = data
        elif data != self.model_bytes:
            print("office-train: same seed, different model bytes", file=sys.stderr)
            rec.failed += 1

    def finish(self, rec: Record) -> dict[str, tuple[float, str]]:
        info: dict[str, tuple[float, str]] = {}
        if self.first_model is not None:
            rec.failed += index_failures(*self.first_model, self.train_set)
            report = self.d.evaluate.evaluate_over_time(*self.first_model, self.test_set, K)
            cut = removal_ci(self.cfg)
            info["err_pre_m"] = (report.window_mean([c for c in report.cis() if c < cut]), "m")
            info["err_post_m"] = (report.window_mean([c for c in report.cis() if c >= cut]), "m")
        if rec.samples["train"]:
            n = len(rec.samples["train"])
            info[f"train_triplets_per_s (median of {n} train() calls)"] = (
                self.n_triplets / rec.median("train"), "triplets/s")
        return info

    def end_to_end(self, rec: Record) -> dict[str, float]:
        # train() is office-train's only timed call, so aux_ms is its time
        return {"work_per_s": self.n_triplets / rec.fastest("train"),
                "aux_ms": rec.fastest("train") * 1e3}


class OfficeEval(Workload):
    """Longitudinal harness: ``evaluate_over_time`` over every office-like
    test query, then ``evaluate_baseline_over_time``, as ``driftloc eval
    --baseline`` does, on a dataset written to CSV and loaded back.  Each
    unit calls both on one test CI (294 queries), cycling through the CIs,
    so the samples of both calls spread evenly over the run."""

    name = "office-eval"
    preset = "office-like"
    epochs = 1

    def setup(self, seed: int) -> None:
        d = self.d
        self.cfg = self.sim(seed)
        dataset, truth = d.simulate.generate(self.cfg)
        paths = d.simulate.write_scenario(dataset, truth, self.work / "scenario")
        loaded = d.data.load_dataset(paths["floorplan"], paths["fingerprints"])
        self.train_set, self.test_set = d.data.split_by_ci(loaded, 0, self.cfg.fpr, seed)
        self.model, self.index = d.localizer.train(self.train_set, self.train_cfg(self.epochs), seed)
        fps = self.test_set.fingerprints
        self.cis = np.array([f.ci for f in fps])
        self.parts = [np.flatnonzero(self.cis == ci) for ci in np.unique(self.cis)]
        self.part_sets = [d.data.FingerprintDataset(self.test_set.floorplan,
                                                    tuple(fps[i] for i in idx))
                          for idx in self.parts]
        self.trace_units = len(self.parts)  # a traced section is one pass over every test CI
        if self.answers is None:
            n = len(fps)
            self.answers = {"embedding": oracle.Expect(n), "baseline": oracle.Expect(n)}
            self.reports = {"embedding": [], "baseline": []}

    def _captured(self, rec: Record, method: str, attr: str, fn, part: int, *args):
        """Run one harness call on test CI ``part``, collecting each per-query
        prediction it makes through ``driftloc.evaluate.<attr>`` when that
        binding is used."""
        ev, idx = self.d.evaluate, self.parts[part]
        got: list[tuple[int, float, float]] = []
        original = getattr(ev, attr, None)
        if original is not None:
            def capture(*a, **kw):
                p = original(*a, **kw)
                got.append((p.rp_id, p.x, p.y))
                return p
            setattr(ev, attr, capture)
        try:
            report = rec.call(method, fn, *args, ops=len(idx))
        finally:
            if original is not None:
                setattr(ev, attr, original)
        if report is None:
            return
        if len(got) == len(idx):
            self.answers[method].observe(idx, got)
        else:
            # the harness no longer predicts query by query: check its report
            self.reports[method].append((part, report))

    def unit(self, rec: Record) -> None:
        ev = self.d.evaluate
        part = self.cursor % len(self.part_sets)
        self.cursor += 1
        test = self.part_sets[part]
        self._captured(rec, "embedding", "predict", ev.evaluate_over_time, part,
                       self.model, self.index, test, K)
        self._captured(rec, "baseline", "baseline_predict_with_index",
                       ev.evaluate_baseline_over_time, part, self.train_set, test, K)

    def _report_failures(self, reports, truth) -> int:
        """Queries in CIs whose reported mean error disagrees with the oracle."""
        err = errors_of(truth, self.test_set.fingerprints, self.test_set.floorplan)
        failed = 0
        for part, report in reports:
            idx = self.parts[part]
            ci = int(self.cis[idx[0]])
            got = report.per_ci_mean_error.get(ci, math.nan)
            if not math.isclose(got, float(err[idx].mean()), rel_tol=1e-9, abs_tol=1e-12):
                failed += len(idx)
        return failed

    def finish(self, rec: Record) -> dict[str, tuple[float, str]]:
        d, fps = self.d, self.test_set.fingerprints
        emb = self.answers["embedding"]
        rec.failed += index_failures(self.model, self.index, self.train_set)
        emb_truth, bad = embedding_truth(d, self.model, self.index, fps, emb.first)
        rec.failed += bad
        truth = {"embedding": emb_truth, "baseline": baseline_truth(self.train_set, fps)}
        for method, expect in self.answers.items():
            rec.failed += expect.failures(truth[method])
            rec.failed += self._report_failures(self.reports[method], truth[method])
        errors = errors_of(truth["embedding"], fps, self.test_set.floorplan)
        pre, post = error_split(errors, self.cis, removal_ci(self.cfg))
        info = {"err_pre_m": (pre, "m"), "err_post_m": (post, "m")}
        for method, label in (("embedding", "eval_queries_per_s"), ("baseline", "baseline_queries_per_s")):
            if rec.samples[method]:
                info[f"{label} (median of {len(rec.samples[method])} per-CI calls)"] = (
                    1.0 / rec.median(method), "queries/s")
        return info

    def end_to_end(self, rec: Record) -> dict[str, float]:
        return {"work_per_s": 1.0 / rec.fastest("embedding"),
                "aux_ms": rec.fastest("baseline") * len(self.test_set) * 1e3}


class UjiPredict(Workload):
    """Online path: each unit is one ``driftloc predict`` invocation, a
    ``load_model_full`` followed by single-scan ``predict`` calls over a
    seeded order of uji-like test scans."""

    name = "uji-predict"
    preset = "uji-like"
    epochs = 1
    pool_size = 2048      # distinct test scans, cycled in a seeded order
    scans_per_load = 50
    trace_units = 20      # 20 loads and 1000 predict calls per traced section

    def setup(self, seed: int) -> None:
        d = self.d
        self.cfg = self.sim(seed)
        dataset, _ = d.simulate.generate(self.cfg)
        self.train_set, test_set = d.data.split_by_ci(dataset, 0, self.cfg.fpr, seed)
        self.model, self.index = d.localizer.train(self.train_set, self.train_cfg(self.epochs), seed)
        self.path = self.work / "uji.stne"
        d.model_io.save_model(self.model, self.index, self.path)
        order = np.random.default_rng(seed).permutation(len(test_set))[:self.pool_size]
        self.pool = [test_set.fingerprints[i] for i in order]
        self.floorplan = dataset.floorplan
        if self.answers is None:
            self.answers = oracle.Expect(len(self.pool))

    def _same_as_saved(self, model, index) -> bool:
        a, b = self.index, index
        return (all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("embeddings", "rp_ids", "xs", "ys"))
                and model.params.keys() == self.model.params.keys()
                and all(np.array_equal(v, model.params[k]) for k, v in self.model.params.items()))

    def unit(self, rec: Record) -> None:
        d = self.d
        out = rec.call("load", d.model_io.load_model_full, self.path)
        if out is None:
            return
        model, index, _ = out
        if not self._same_as_saved(model, index):
            print("uji-predict: loaded model differs from the saved one", file=sys.stderr)
            rec.failed += 1
        keys, got = [], []
        for _ in range(self.scans_per_load):
            key = self.cursor % len(self.pool)
            self.cursor += 1
            p = rec.call("predict", d.localizer.predict, model, index, self.pool[key], K)
            if p is not None:
                keys.append(key)
                got.append((p.rp_id, p.x, p.y))
        if keys:
            self.answers.observe(keys, got)

    def finish(self, rec: Record) -> dict[str, tuple[float, str]]:
        rec.failed += index_failures(self.model, self.index, self.train_set)
        seen = self.answers.seen()
        scans = [self.pool[i] for i in seen]
        truth = np.full((len(self.pool), 3), np.nan)
        truth[seen], bad = embedding_truth(self.d, self.model, self.index, scans,
                                           self.answers.first[seen])
        rec.failed += bad
        rec.failed += self.answers.failures(truth)
        errors = errors_of(truth[seen], scans, self.floorplan)
        pre, post = error_split(errors, np.array([f.ci for f in scans]), removal_ci(self.cfg))
        info = {"err_pre_m": (pre, "m"), "err_post_m": (post, "m")}
        if rec.samples["predict"]:
            ms = np.array(rec.samples["predict"]) * 1e3
            info[f"predict_p50_ms (of {len(ms)} calls)"] = (float(np.median(ms)), "ms")
            for q in sorted({99.0, tail(ms)[0]}):
                info[f"predict_p{q:g}_ms (of {len(ms)} calls)"] = (float(np.percentile(ms, q)), "ms")
        if rec.samples["load"]:
            info[f"model_load_ms (median of {len(rec.samples['load'])} loads)"] = (
                rec.median("load") * 1e3, "ms")
        return info

    def end_to_end(self, rec: Record) -> dict[str, float]:
        return {"work_per_s": 1.0 / rec.fastest("predict"),
                "aux_ms": rec.fastest("load") * 1e3}


WORKLOADS = {w.name: w for w in (OfficeTrain, OfficeEval, UjiPredict)}

"""Acceptance suite: one test per criterion, one printed line per run.

Criteria 8 and 9 train real models on simulated scenarios and take about
a minute each; they carry the ``slow`` marker, so ``pytest -m "not slow"``
skips them.  Everything else completes in seconds.  Run with ``-s`` to
see the per-criterion lines as they pass.
"""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from knn_oracle import oracle_baseline_predict, oracle_embedding_predict

from driftloc.augment import apply_ap_dropout, draw_turnoff_fraction
from driftloc.cli import run_gradcheck
from driftloc.data import split_by_ci
from driftloc.encoder import (EncoderConfig, _forward, encode_batch,
                              init_model, train_step, triplet_loss)
from driftloc.errors import ModelFormatError
from driftloc.evaluate import (evaluate_baseline_over_time, evaluate_over_time,
                               fpr_sweep)
from driftloc.localizer import (EmbeddingIndex, TrainConfig, _knn_decide,
                                baseline_predict_batch, predict, train)
from driftloc.model_io import load_model, save_model
from driftloc.nn import AdamState
from driftloc.preprocess import image_from_rssi, image_side, normalize_rows, to_image
from driftloc.sampler import build_pmf_table, make_batch, rp_members, sample_triplet
from driftloc.simulate import SimConfig, generate, preset


def criterion(n, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {n}: FAIL — {desc}")
                raise
            print(f"criterion {n}: PASS — {desc}")
        return wrapper
    return deco


# --- 1: gradient correctness -------------------------------------------------

@criterion(1, "backprop matches central finite differences (<= 1e-4, 10 seeds)")
def test_criterion_1_gradient_correctness():
    sides = [3, 4, 5]
    for seed in range(10):
        err = run_gradcheck(seed=seed, side=sides[seed % 3], embed_dim=3)
        assert err <= 1e-4, f"seed {seed}: max relative error {err:.3e}"


# --- 2: embedding normalization ----------------------------------------------

@criterion(2, "1000 random embeddings have unit norm within 1e-9")
def test_criterion_2_unit_norm():
    cfg = EncoderConfig(conv1_filters=8, conv2_filters=12, fc_units=24,
                        embed_dim=5, dropout_rate=0.25, noise_sigma=0.1)
    model = init_model(cfg, 5, seed=0)
    rng = np.random.default_rng(1)
    for i in range(1000):
        img = rng.random(25)
        if i % 5 == 0:  # the stochastic forward of training
            e = _forward(model, img[None], rng)[0][0]
        else:
            e = encode_batch(model, [img])[0]
        assert abs(np.linalg.norm(e) - 1.0) <= 1e-9


# --- 3: triplet-loss unit suite ----------------------------------------------

@criterion(3, "triplet-loss boundary/degenerate/hinged examples are exact")
def test_criterion_3_triplet_loss_examples():
    # anchor == positive, negative gap exactly alpha: loss 0
    ea = np.array([1.0, 0.0])
    en = np.array([0.6, 0.8])
    alpha = float(((ea - en) ** 2).sum())
    assert triplet_loss(ea, ea.copy(), en, alpha) == 0.0
    # all three equal: both distances vanish, loss is alpha
    e = np.array([0.6, 0.8])
    assert triplet_loss(e, e, e, 0.2) == 0.2
    # hand-evaluated distances: raw = 2 - 4 + 0.2 = -1.8, hinged to 0
    assert triplet_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                        np.array([-1.0, 0.0]), 0.2) == 0.0


# --- 4: sampler distribution -------------------------------------------------

@criterion(4, "negative draws match the Gaussian-kernel pmf on a 5x5 grid")
def test_criterion_4_sampler_distribution():
    from driftloc.data import (Fingerprint, FingerprintDataset, FloorPlan,
                               ReferencePoint)
    rps = tuple(ReferencePoint(r * 5 + c, float(c), float(r))
                for r in range(5) for c in range(5))
    fp = FloorPlan(rps=rps, ap_registry=tuple(f"a{i}" for i in range(4)))
    rng0 = np.random.default_rng(0)
    ds = FingerprintDataset(fp, tuple(
        Fingerprint(rp.rp_id, 0, rng0.integers(-95, -30, 4).astype(float))
        for rp in rps))
    pmfs = build_pmf_table(fp, sigma_sel=2.0)
    ids = [rp.rp_id for rp in fp.rps]
    members = rp_members(ds)
    rp_of = [f.rp_id for f in ds.fingerprints]

    # anchors are uniform, so the negative-RP marginal is the pmf mixture
    mixture = np.zeros(len(ids))
    for row in pmfs:
        mixture += row
    mixture /= len(ids)

    rng = np.random.default_rng(4)
    n_draws = 10_000
    counts = dict.fromkeys(ids, 0)
    anchor_hits = 0
    for _ in range(n_draws):
        a, _, n = sample_triplet(members, pmfs, rng)
        counts[rp_of[n]] += 1
        anchor_hits += rp_of[n] == rp_of[a]
    assert anchor_hits == 0
    observed = np.array([counts[i] for i in ids], dtype=float)
    expected = mixture * n_draws
    assert expected.min() > 5.0
    res = stats.chisquare(observed, expected)
    assert res.pvalue > 0.01, f"chi-square p={res.pvalue:.4f}"

    # strict monotonicity: strictly nearer RPs get strictly higher mass
    pos = fp.positions()
    for a_idx, pmf in enumerate(pmfs):
        sq = ((pos - pos[a_idx]) ** 2).sum(axis=1)
        for i in range(len(ids)):
            for j in range(len(ids)):
                if a_idx in (i, j):
                    continue
                if sq[i] < sq[j]:
                    assert pmf[i] > pmf[j]


# --- 5: augmentation counts --------------------------------------------------

@criterion(5, "dropout zeroes exactly floor(p*v); turn-off mean is 0.45 +- 0.01")
def test_criterion_5_augmentation_counts():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n_real = int(rng.integers(1, 40))
        rssi = np.full(n_real, -100.0)
        n_vis = int(rng.integers(0, n_real + 1))
        vis = rng.choice(n_real, size=n_vis, replace=False)
        rssi[vis] = rng.integers(-99, 0, size=n_vis)
        img = image_from_rssi(rssi)
        v = int((img > 0).sum())
        p = float(rng.random())
        out = apply_ap_dropout(img, p, rng)
        assert v - int((out > 0).sum()) == math.floor(p * v)

    rng = np.random.default_rng(6)
    draws = np.array([draw_turnoff_fraction(0.90, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.45) <= 0.01


# --- 6: KNN oracle equivalence -----------------------------------------------

@criterion(6, "embedding and raw KNN match the brute-force oracle exactly")
def test_criterion_6_knn_oracle_equivalence():
    cfg = SimConfig(width=12.0, height=6.0, rp_spacing=3.0, n_aps=12,
                    n_cis=3, fpr=5, seed=60)
    ds, _ = generate(cfg)
    tr, te = split_by_ci(ds, 0, 3, seed=0)
    tcfg = TrainConfig(
        encoder=EncoderConfig(conv1_filters=8, conv2_filters=12, fc_units=24,
                              embed_dim=4, dropout_rate=0.1),
        p_upper=0.5,
        epochs=3, batch_size=16)
    model, index = train(tr, tcfg, seed=61)

    queries = (te.fingerprints + tr.fingerprints)[:200]
    assert len(queries) == 200
    for i, fp in enumerate(queries):
        k = (i % 5) + 1
        rule = "vote" if i % 2 == 0 else "centroid"
        got = predict(model, index, fp, k, rule)
        q = encode_batch(model, [to_image(fp)])[0]
        x, y, rp, nb = oracle_embedding_predict(index, q, k, rule)
        assert (got.x, got.y, got.rp_id) == (x, y, rp)
        assert list(got.neighbor_rps) == [(r, d) for r, d, _, _ in nb]
        bgot = baseline_predict_batch(tr, fp.rssi[None, :], k, rule)[0]
        bx, by, brp, bnb = oracle_baseline_predict(tr, fp, k, rule)
        assert (bgot.x, bgot.y, bgot.rp_id) == (bx, by, brp)
        assert list(bgot.neighbor_rps) == [(r, d) for r, d, _, _ in bnb]

    # crafted exact ties (duplicate embeddings, integer coordinates):
    # the tie-break cascade must agree with the oracle too
    e = np.array([[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]],
                 dtype=np.float32)
    tie_index = EmbeddingIndex(
        embeddings=e,
        rp_ids=np.array([7, 7, 2, 2, 9], dtype=np.int32),
        xs=np.array([0, 0, 3, 3, 6], dtype=np.float32),
        ys=np.array([0, 0, 4, 4, 8], dtype=np.float32))
    rng = np.random.default_rng(62)
    for _ in range(50):
        q = rng.normal(size=3)
        q /= np.linalg.norm(q)
        for k in (2, 4, 5):
            diff = tie_index.embeddings.astype(np.float64) - q
            dists = np.sqrt((diff * diff).sum(axis=1))
            got = _knn_decide(dists, tie_index.rp_ids, tie_index.xs,
                              tie_index.ys, k, "vote")
            x, y, rp, _ = oracle_embedding_predict(tie_index, q, k, "vote")
            assert (got.x, got.y, got.rp_id) == (x, y, rp)


# --- 7: training convergence -------------------------------------------------

@criterion(7, "200 steps on a separable 3-RP set: loss < alpha/10, acc >= 95%")
def test_criterion_7_training_convergence():
    cfg = SimConfig(width=20.0, height=0.5, rp_spacing=10.0, n_aps=20,
                    n_cis=2, fpr=4, shadow_sigma_db=0.0, drift_sigma_db=0.0,
                    seed=7)
    ds, _ = generate(cfg)
    tr, te = split_by_ci(ds, 0, 4, seed=1)
    assert len(tr.floorplan.rps) == 3

    ecfg = EncoderConfig(embed_dim=3, dropout_rate=0.0, noise_sigma=0.0)
    p_upper = 0.5  # dropout keeps hinges live
    n_real = tr.floorplan.n_aps
    model = init_model(ecfg, image_side(n_real), seed=3)
    pixels = normalize_rows(tr.rssi)
    arrays = (pixels, rp_members(tr), build_pmf_table(tr.floorplan))
    opt = AdamState(lr=1e-3)
    srng, trng = np.random.default_rng(11), np.random.default_rng(12)
    loss = None
    for _ in range(200):
        _, batch = make_batch(*arrays, 32, p_upper, srng)
        model, opt, loss = train_step(model, batch, opt, trng)
    alpha = ecfg.margin_alpha
    assert loss < alpha / 10, f"final mean batch loss {loss:.4f}"

    emb = encode_batch(model, pixels).astype(np.float32)
    coords = {rp.rp_id: (rp.x, rp.y) for rp in tr.floorplan.rps}
    index = EmbeddingIndex(
        embeddings=emb,
        rp_ids=np.array([f.rp_id for f in tr.fingerprints], dtype=np.int32),
        xs=np.array([coords[f.rp_id][0] for f in tr.fingerprints], dtype=np.float32),
        ys=np.array([coords[f.rp_id][1] for f in tr.fingerprints], dtype=np.float32))
    correct = sum(predict(model, index, fp, k=1).rp_id == fp.rp_id
                  for fp in te.fingerprints)
    assert correct / len(te) >= 0.95, f"accuracy {correct}/{len(te)}"


# --- 8: drift-resilience trend ------------------------------------------------

DRIFT_SEED = 42
DRIFT_TRAIN_SEED = 200
DRIFT_SPLIT_SEED = 100
PRE_WINDOW = range(1, 11)
POST_WINDOW = range(12, 16)


@pytest.mark.slow
@criterion(8, "office-like: encoder beats raw KNN after AP removal and "
              "stays within 2x its own pre-removal error")
def test_criterion_8_drift_resilience_trend():
    ds, _ = generate(preset("office-like", seed=DRIFT_SEED))
    tr, te = split_by_ci(ds, 0, 6, seed=DRIFT_SPLIT_SEED)
    tcfg = TrainConfig(encoder=EncoderConfig(embed_dim=8, margin_alpha=0.5),
                       epochs=60)
    model, index = train(tr, tcfg, seed=DRIFT_TRAIN_SEED)
    rep = evaluate_over_time(model, index, te, k=7)
    base = evaluate_baseline_over_time(tr, te, k=7)

    enc_post = rep.window_mean(POST_WINDOW)
    enc_pre = rep.window_mean(PRE_WINDOW)
    base_post = base.window_mean(POST_WINDOW)
    assert enc_post <= base_post, (
        f"post-removal: encoder {enc_post:.3f} m vs baseline {base_post:.3f} m")
    assert enc_post <= 2.0 * enc_pre, (
        f"post {enc_post:.3f} m > 2x pre {enc_pre:.3f} m")


# --- 9: FPR plateau -----------------------------------------------------------

SWEEP_SCENARIO = dict(width=9.0, height=9.0, rp_spacing=3.0, n_aps=16,
                      n_cis=8, fpr=6, tx_power_dbm=-30.0,
                      path_loss_exponent=5.0, shadow_sigma_db=3.0,
                      drift_sigma_db=1.5, removal_schedule={5: 0.2}, seed=77)


@pytest.mark.slow
@criterion(9, "FPR sweep: 1 FPR is worst; 4 vs 6 FPR differ by <= 10%")
def test_criterion_9_fpr_plateau():
    ds, _ = generate(SimConfig(**SWEEP_SCENARIO))
    # batch >= train size: every FPR variant gets the same optimizer steps
    tcfg = TrainConfig(encoder=EncoderConfig(embed_dim=5), epochs=25,
                       batch_size=96)
    reports = fpr_sweep(ds, [1, 2, 4, 6], tcfg, repeats=10, seed=13, k=3)
    e = {fpr: report.overall_mean_error for fpr, report in reports.items()}
    assert e[1] > e[4], f"fpr=1 ({e[1]:.3f}) not worse than fpr=4 ({e[4]:.3f})"
    rel = abs(e[4] - e[6]) / e[4]
    assert rel <= 0.10, f"fpr 4 vs 6 differ by {rel:.1%}"


# --- 10: determinism and persistence -------------------------------------------

@criterion(10, "seeded training is byte-identical; save/load/predict round-trips; "
               "corruption is rejected")
def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg = SimConfig(width=18.0, height=0.5, rp_spacing=3.0, n_aps=12,
                    n_cis=3, fpr=5, seed=10)
    ds, _ = generate(cfg)
    tr, te = split_by_ci(ds, 0, 3, seed=1)
    tcfg = TrainConfig(
        encoder=EncoderConfig(conv1_filters=8, conv2_filters=12, fc_units=24,
                              embed_dim=4, dropout_rate=0.1),
        p_upper=0.5,
        epochs=3, batch_size=16)

    p1, p2 = tmp_path / "a.stne", tmp_path / "b.stne"
    for p in (p1, p2):
        model, index = train(tr, tcfg, seed=17)
        save_model(model, index, p)
    assert p1.read_bytes() == p2.read_bytes()

    model, index = train(tr, tcfg, seed=17)
    loaded_model, loaded_index = load_model(p1)
    queries = (te.fingerprints + tr.fingerprints)[:100]
    assert len(queries) == 100
    for fp in queries:
        a = predict(model, index, fp, k=3)
        b = predict(loaded_model, loaded_index, fp, k=3)
        assert (a.x, a.y, a.rp_id, a.neighbor_rps) == (b.x, b.y, b.rp_id, b.neighbor_rps)

    raw = bytearray(p1.read_bytes())
    raw[len(raw) // 3] ^= 0x40
    p1.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(p1)


# --- 11: preprocessing suite ----------------------------------------------------

@criterion(11, "normalization endpoints and square padding are exact")
def test_criterion_11_preprocessing():
    assert normalize_rows([[-100.0]])[0, 0] == 0.0
    assert normalize_rows([[0.0]])[0, 0] == 1.0
    assert normalize_rows([[-50.0]])[0, 0] == 0.5

    for n, side, pads in ((5, 3, 4), (9, 3, 0), (10, 4, 6)):
        flat = image_from_rssi(np.full(n, -50.0))
        assert flat.size == side * side
        assert flat.size - n == pads
        assert np.all(flat[n:] == 0.0)

    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 60))
        rssi = rng.integers(-100, 1, size=n).astype(float)
        flat = image_from_rssi(rssi)
        s = image_side(n)
        assert flat.size == s * s
        assert (s - 1) ** 2 < n <= s * s
        img = flat.reshape(s, s)
        cells = normalize_rows(rssi[:, None])[:, 0]  # each value as a one-cell row
        for i in range(n):
            assert img[i // s, i % s] == cells[i]
        assert np.all(flat[n:] == 0.0)

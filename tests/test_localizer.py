import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knn_oracle import oracle_baseline_predict, oracle_decide, oracle_embedding_predict

from driftloc import localizer, nn
from driftloc.data import (Fingerprint, FingerprintDataset, FloorPlan, ReferencePoint,
                           split_by_ci)
from driftloc.encoder import BLOCK_ROWS, EncoderConfig, encode_batch, init_model, train_step
from driftloc.errors import ModelFormatError
from driftloc.localizer import (EmbeddingIndex, TrainConfig,
                                baseline_predict_batch, predict, predict_batch,
                                train)
from driftloc.model_io import load_model, load_model_full, save_model
from driftloc.nn import AdamState
from driftloc.preprocess import image_side, normalize_rows, to_image
from driftloc.simulate import SimConfig, generate, preset


def small_train_config(**kw):
    defaults = dict(
        encoder=EncoderConfig(conv1_filters=8, conv2_filters=12, fc_units=24,
                              embed_dim=3, dropout_rate=0.1),
        p_upper=0.5,
        epochs=4,
        batch_size=16,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def baseline_one(tr, scan, k):
    return baseline_predict_batch(tr, scan.rssi[None, :], k)[0]


@pytest.fixture(scope="module")
def sim_split():
    cfg = SimConfig(width=12.0, height=0.5, rp_spacing=3.0, n_aps=12,
                    n_cis=3, fpr=4, seed=21)
    ds, _ = generate(cfg)
    return split_by_ci(ds, 0, 4, seed=5)


@pytest.fixture(scope="module")
def trained(sim_split):
    tr, _ = sim_split
    return train(tr, small_train_config(), seed=77)


def test_index_cardinality(sim_split, trained):
    tr, _ = sim_split
    _, index = trained
    assert len(index) == len(tr)


def test_train_deterministic(sim_split):
    tr, _ = sim_split
    m1, i1 = train(tr, small_train_config(), seed=3)
    m2, i2 = train(tr, small_train_config(), seed=3)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name], m2.params[name])
    np.testing.assert_array_equal(i1.embeddings, i2.embeddings)
    np.testing.assert_array_equal(i1.rp_ids, i2.rp_ids)


def test_single_entry_index_always_wins(trained, sim_split):
    tr, te = sim_split
    model, index = trained
    solo = EmbeddingIndex(embeddings=index.embeddings[:1],
                          rp_ids=index.rp_ids[:1],
                          xs=index.xs[:1], ys=index.ys[:1])
    for fp in te.fingerprints[:5]:
        assert predict(model, solo, fp, k=1).rp_id == int(index.rp_ids[0])


def test_training_scan_maps_to_its_rp(trained, sim_split):
    tr, _ = sim_split
    model, index = trained
    # query identical to a training fingerprint: embedding distance 0
    fp = tr.fingerprints[3]
    pred = predict(model, index, fp, k=1)
    assert pred.rp_id == fp.rp_id
    assert pred.neighbor_rps[0][1] <= 1e-6


def test_predict_matches_oracle(trained, sim_split):
    tr, te = sim_split
    model, index = trained
    for k in (1, 3, 5):
        for rule in ("vote", "centroid"):
            for fp in te.fingerprints[:40]:
                got = predict(model, index, fp, k, rule)
                q = encode_batch(model, [to_image(fp)])[0]
                x, y, rp, nb = oracle_embedding_predict(index, q, k, rule)
                assert got.rp_id == rp
                assert got.x == x and got.y == y
                assert list(got.neighbor_rps) == [(r, d) for r, d, _, _ in nb]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 200), k=st.integers(1, 7),
       rule=st.sampled_from(["vote", "centroid"]), p_missing=st.floats(0.0, 1.0),
       n_known=st.integers(0, 200))
def test_batch_matches_single(trained, sim_split, seed, m, k, rule, p_missing, n_known):
    # Batched and one-row embeddings are not bitwise equal (fc1 runs as a
    # GEMM for a block and as a GEMV for one row), so distances, and the
    # centroid coordinates weighted by them, agree to rounding level only.
    tr, te = sim_split
    model, index = trained
    rng = np.random.default_rng(seed)
    rows = rng.uniform(-100.0, 0.0, size=(m, tr.floorplan.n_aps))
    rows[rng.random(rows.shape) < p_missing] = -100.0
    known = np.stack([f.rssi for f in tr.fingerprints + te.fingerprints])
    n_known = min(n_known, m)
    rows[:n_known] = known[rng.integers(0, len(known), size=n_known)]

    batch = predict_batch(model, index, rows, k, rule)
    assert len(batch) == m
    for row, got in zip(rows, batch):
        want = predict(model, index, Fingerprint(0, 0, row), k, rule)
        assert got.rp_id == want.rp_id
        assert [r for r, _ in got.neighbor_rps] == [r for r, _ in want.neighbor_rps]
        assert np.allclose([d for _, d in got.neighbor_rps],
                           [d for _, d in want.neighbor_rps], rtol=0.0, atol=1e-12)
        if rule == "vote":
            assert (got.x, got.y) == (want.x, want.y)
        else:
            assert got.x == pytest.approx(want.x, abs=1e-9)
            assert got.y == pytest.approx(want.y, abs=1e-9)


def test_predict_batch_of_no_rows(trained, sim_split):
    tr, _ = sim_split
    model, index = trained
    assert predict_batch(model, index, np.empty((0, tr.floorplan.n_aps))) == []


def test_index_tie_order_is_built_once(trained):
    _, index = trained
    order = np.argsort(index.rp_ids, kind="stable")
    columns, rp_ids, xs, ys = index.knn
    np.testing.assert_array_equal(columns, index.embeddings[order].T.astype(np.float64))
    assert columns.flags.c_contiguous and columns.dtype == np.float64
    for got, col in ((rp_ids, index.rp_ids), (xs, index.xs), (ys, index.ys)):
        np.testing.assert_array_equal(got, col[order])
        assert got.dtype == col.dtype
    assert not any(a.flags.writeable for a in index.knn)


def test_conv_weights_are_gemm_ready(tmp_path, trained):
    model, index = trained
    save_model(model, index, tmp_path / "m.stne")
    loaded, _ = load_model(tmp_path / "m.stne")
    fresh = init_model(model.config, model.input_side, seed=0)
    for m in (fresh, model, loaded):
        for name in ("conv1_w", "conv2_w"):
            w = m.params[name]
            assert np.shares_memory(nn._gemm_weight(w), w), name


def test_load_casts_and_lays_out_each_conv_weight_in_one_copy(tmp_path, trained, monkeypatch):
    # the loader hands over the file's float32 values and gemm_layout's
    # one copy is also the float64 cast
    model, index = trained
    save_model(model, index, tmp_path / "m.stne")
    calls = []
    layout = nn.gemm_layout

    def recording_layout(w):
        out = layout(w)
        calls.append((w.dtype, out))
        return out

    monkeypatch.setattr(nn, "gemm_layout", recording_layout)
    loaded, _ = load_model(tmp_path / "m.stne")
    assert [dtype for dtype, _ in calls] == [np.float32, np.float32]
    assert calls[0][1] is loaded.params["conv1_w"] and calls[1][1] is loaded.params["conv2_w"]
    for name, p in loaded.params.items():
        assert p.dtype == np.float64 and not p.flags.writeable, name
        np.testing.assert_array_equal(p, model.params[name])


def test_trained_and_loaded_params_are_read_only(tmp_path, trained):
    model, index = trained
    save_model(model, index, tmp_path / "m.stne")
    loaded, _ = load_model(tmp_path / "m.stne")
    # both come from the constructor, on read-only float32 parameters
    assert model.params.keys() == loaded.params.keys()
    for name, p in model.params.items():
        q = loaded.params[name]
        assert p.dtype == q.dtype == np.float64 and p.strides == q.strides, name
        assert not p.flags.writeable and not q.flags.writeable, name
        assert p.tobytes(order="A") == q.tobytes(order="A"), name
    batch = np.full((3, 2, loaded.input_side ** 2), 0.5)
    for m in (model, loaded):
        for name, p in m.params.items():
            with pytest.raises(ValueError, match="read-only"):
                p += 0.0
        opt = AdamState()
        with pytest.raises(ValueError, match="read-only"):
            train_step(m, batch, opt, np.random.default_rng(0))
        assert opt.step == 0 and not opt.m


def test_predict_batch_validations(trained, sim_split):
    tr, _ = sim_split
    model, index = trained
    rows = np.full((2, tr.floorplan.n_aps), -50.0)
    with pytest.raises(ValueError, match="2-D"):
        predict_batch(model, index, rows[0])
    with pytest.raises(ValueError, match="finite"):
        predict_batch(model, index, np.where(rows == -50.0, np.nan, rows))
    assert predict_batch(model, index, rows[:0]) == []
    with pytest.raises(ValueError, match="exceeds"):
        predict_batch(model, index, rows, k=len(index) + 1)


def test_baseline_matches_oracle(sim_split):
    tr, te = sim_split
    for k in (1, 4):
        for fp in te.fingerprints[:40]:
            got = baseline_one(tr, fp, k)
            x, y, rp, nb = oracle_baseline_predict(tr, fp, k)
            assert got.rp_id == rp
            assert (got.x, got.y) == (x, y)
            assert list(got.neighbor_rps) == [(r, d) for r, d, _, _ in nb]


def test_baseline_training_scan_exact_hit(sim_split):
    tr, _ = sim_split
    fp = tr.fingerprints[0]
    assert baseline_one(tr, fp, k=1).rp_id == fp.rp_id


def test_tie_breaks_with_duplicate_entries():
    # two RPs with bitwise-identical embeddings: vote ties, mean distances
    # tie, so the lowest rp_id must win; entry order must not matter
    e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    index = EmbeddingIndex(embeddings=e,
                           rp_ids=np.array([9, 9, 4, 4], dtype=np.int32),
                           xs=np.array([0, 0, 3, 3], dtype=np.float32),
                           ys=np.array([0, 0, 4, 4], dtype=np.float32))
    from driftloc.localizer import _knn_decide
    q = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    diff = index.embeddings.astype(np.float64) - q
    dists = np.sqrt((diff * diff).sum(axis=1))
    pred = _knn_decide(dists, index.rp_ids, index.xs, index.ys, k=4, rule="vote")
    assert pred.rp_id == 4
    assert (pred.x, pred.y) == (3.0, 4.0)
    x, y, rp, _ = oracle_embedding_predict(index, q, 4, "vote")
    assert (x, y, rp) == (pred.x, pred.y, pred.rp_id)


halves = st.integers(-4, 4).map(lambda v: v / 2)


@st.composite
def tied_knn_cases(draw):
    """A table of few distinct rows quantized to halves, so distances tie
    exactly, with repeated rows and rp_ids; queries spanning several
    blocks of ``rows`` queries, and a budget that makes such blocks."""
    d = draw(st.integers(1, 3))
    vec = st.lists(halves, min_size=d, max_size=d)
    pool = draw(st.lists(vec, min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    table = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    rp_ids = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), np.int32)
    xs, ys = (np.array(draw(st.lists(halves, min_size=n, max_size=n))) for _ in "xy")
    m = draw(st.integers(1, 10))
    queries = np.array(draw(st.lists(st.sampled_from(pool) | vec, min_size=m, max_size=m)))
    rows = draw(st.integers(1, 4))
    per_query = 8 * n * localizer._slots(d)  # scratch bytes of one query
    budget = rows * per_query + draw(st.integers(0, per_query - 1))
    return table, rp_ids, xs, ys, queries, rows, budget


@settings(max_examples=300, deadline=None)
@given(case=tied_knn_cases(), data=st.data(), rule=st.sampled_from(["vote", "centroid"]))
def test_knn_blocks_exact_on_ties(case, data, rule):
    # Every field of every prediction equals the oracle's, whatever the
    # block size: ties at a row's k-th place must not reorder neighbours.
    table, rp_ids, xs, ys, queries, rows, budget = case
    m, (n, d) = len(queries), table.shape
    k = data.draw(st.integers(1, n), label="k")
    tied = localizer._tie_table(table, rp_ids, xs, ys)
    per_query = 8 * n * localizer._slots(d)
    default = nn._BLOCK_BYTES
    runs = []
    for bytes_, step in ((budget, rows), (1, 1), (default, default // per_query)):
        blocks = []
        top_k = localizer._top_k

        def recording_top_k(dists, k):
            blocks.append(len(dists))
            return top_k(dists, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn, "WORKERS", 1)  # one worker, so the blocks come in order
            mp.setattr(nn, "_BLOCK_BYTES", bytes_)
            mp.setattr(localizer, "_top_k", recording_top_k)
            runs.append(localizer._knn_blocks(queries, tied, k, rule))
        assert blocks == [min(step, m - lo) for lo in range(0, m, step)]
        assert blocks[0] == 1 or blocks[0] * per_query <= bytes_  # the scratch fits
    assert runs[0] == runs[1] == runs[2]  # drawn, one-row and default blocks
    for q, got in zip(queries, runs[0]):
        dists = [float(np.sqrt(((row - q) ** 2).sum())) for row in table]
        x, y, rp, nb = oracle_decide(dists, rp_ids.tolist(), xs.tolist(), ys.tolist(), k, rule)
        assert (got.x, got.y, got.rp_id) == (x, y, rp)
        assert got.neighbor_rps == tuple((r, dist) for r, dist, _, _ in nb)


@settings(max_examples=200, deadline=None)
@given(case=tied_knn_cases(), data=st.data(), rule=st.sampled_from(["vote", "centroid"]))
def test_knn_paths_exact_on_ties_on_two_workers(case, data, rule):
    # The same tied cases, their query blocks split over two workers: the
    # table itself, an embedding index of it and the raw-RSSI baseline over
    # it give the oracle's answer for every query, in query order.
    table, rp_ids, xs, ys, queries, rows, budget = case
    n, d = table.shape
    k = data.draw(st.integers(1, n), label="k")
    # the table and queries as dBm scans, -70 to -30 in steps of 5
    scans, query_scans = -50.0 + 10.0 * table, -50.0 + 10.0 * queries
    floorplan = FloorPlan(tuple(ReferencePoint(r, r / 2, -r) for r in range(4)),
                          tuple(f"ap{j}" for j in range(d)))
    train_set = FingerprintDataset(floorplan, [Fingerprint(int(r), 0, v)
                                               for r, v in zip(rp_ids, scans)])
    model = init_model(EncoderConfig(conv1_filters=2, conv2_filters=3, filter_size=1,
                                     fc_units=4, embed_dim=2, dropout_rate=0.0,
                                     noise_sigma=0.0), image_side(d), seed=n)
    model.params["fc2_b"][:] = 1.0  # no embedding collapses to zero
    index = EmbeddingIndex(encode_batch(model, normalize_rows(scans)).astype(np.float32),
                           rp_ids, xs, ys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn, "WORKERS", 2)
        mp.setattr(nn, "_BLOCK_BYTES", budget)
        got = localizer._knn_blocks(queries, localizer._tie_table(table, rp_ids, xs, ys),
                                    k, rule)
        q_emb = encode_batch(model, normalize_rows(query_scans))
        got_emb = predict_batch(model, index, query_scans, k, rule)
        got_raw = baseline_predict_batch(train_set, query_scans, k, rule)
    for i, q in enumerate(queries):
        dists = [float(np.sqrt(((row - q) ** 2).sum())) for row in table]
        want = oracle_decide(dists, rp_ids.tolist(), xs.tolist(), ys.tolist(), k, rule)
        for pred, (x, y, rp, nb) in (
                (got[i], want),
                (got_emb[i], oracle_embedding_predict(index, q_emb[i], k, rule)),
                (got_raw[i], oracle_baseline_predict(train_set, Fingerprint(0, 0, query_scans[i]),
                                                     k, rule))):
            assert (pred.x, pred.y, pred.rp_id) == (x, y, rp)
            assert pred.neighbor_rps == tuple((r, dist) for r, dist, _, _ in nb)


@pytest.mark.parametrize("widths", [range(1, 8), range(8, 129), range(129, 301), (512, 1000)],
                         ids=["sequential", "eight-sums", "recursive", "wide"])
def test_column_kernel_keeps_numpys_summation_bits(widths, monkeypatch):
    # The column kernel adds each query's d squared differences in the
    # order of numpy's pairwise sum over a contiguous row.  If a numpy
    # release changes that order, these distances stop being bit-equal.
    rng = np.random.default_rng(16)
    m, n = 5, 7
    for d in widths:
        table, queries = rng.normal(size=(n, d)), rng.normal(size=(m, d))
        want = np.sqrt(np.square(table[None] - queries[:, None]).sum(-1))
        per_query = 8 * n * localizer._slots(d)
        for budget, step in ((1, 1), (2 * per_query, 2), (nn._BLOCK_BYTES, m)):
            monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
            assert min(nn.per_block(per_query), m) == step
            scratch = np.empty((localizer._slots(d), step, n))
            blocks = [localizer._distances(queries[lo:lo + step], table.T.copy(), scratch).copy()
                      for lo in range(0, m, step)]
            assert [len(b) for b in blocks] == [min(step, m - lo) for lo in range(0, m, step)]
            assert np.array_equal(np.concatenate(blocks), want), (d, budget)


def test_train_refuses_empty_training_set(sim_split, monkeypatch):
    # rp_members refuses it before any sampling or training step
    tr, _ = sim_split
    steps = []
    monkeypatch.setattr(localizer, "train_step", lambda *a: steps.append(a))
    with pytest.raises(ValueError, match="^empty training set$"):
        train(tr.from_columns(tr.floorplan, tr.rssi[:0], tr.rp_ids[:0], tr.ci_ids[:0]),
              small_train_config(), seed=0)
    assert steps == []


def test_baseline_refuses_scans_of_another_width(sim_split):
    tr, te = sim_split
    for rows in (te.rssi[:, :-1], np.hstack([te.rssi, te.rssi[:, :1]])):
        with pytest.raises(ValueError, match="^scan is not aligned to the training registry$"):
            baseline_predict_batch(tr, rows)


def test_all_missing_baseline_scan(sim_split):
    # an all -100 scan normalizes to the zero vector; the prediction is
    # still well-defined and matches the oracle's tie-break outcome
    tr, _ = sim_split
    scan = Fingerprint(tr.fingerprints[0].rp_id, 0,
                       np.full(tr.floorplan.n_aps, -100.0))
    got = baseline_one(tr, scan, k=3)
    x, y, rp, _ = oracle_baseline_predict(tr, scan, 3)
    assert (got.x, got.y, got.rp_id) == (x, y, rp)


def test_predict_validations(trained, sim_split):
    tr, te = sim_split
    model, index = trained
    fp = te.fingerprints[0]
    with pytest.raises(ValueError, match="k"):
        predict(model, index, fp, k=0)
    with pytest.raises(ValueError, match="exceeds"):
        predict(model, index, fp, k=len(index) + 1)
    with pytest.raises(ValueError, match="rule"):
        predict(model, index, fp, k=1, rule="median")
    with pytest.raises(ValueError, match="non-empty"):
        EmbeddingIndex(embeddings=np.zeros((0, 3), dtype=np.float32),
                       rp_ids=np.zeros(0, dtype=np.int32),
                       xs=np.zeros(0, dtype=np.float32),
                       ys=np.zeros(0, dtype=np.float32))


def test_rp_ids_beyond_int32_rejected():
    # the model file stores rp_ids as int32; a wider id must not wrap.  A
    # floorplan cannot hold one, and an index built directly rejects one.
    with pytest.raises(ValueError, match="int32"):
        ReferencePoint(2**31, 3.0, 0.0)
    with pytest.raises(ValueError, match="int32"):
        EmbeddingIndex(embeddings=np.eye(2, dtype=np.float32),
                       rp_ids=np.array([0, 2**31]), xs=np.zeros(2), ys=np.zeros(2))


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["learning_rate", "sigma_sel", "p_upper"])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_dropout_trained_predictions_survive_ap_loss():
    # the augmentation-trained encoder keeps >= 80% of predictions
    # unchanged when 10% of a query's visible APs go silent
    cfg = SimConfig(width=20.0, height=10.0, rp_spacing=10.0, n_aps=24,
                    n_cis=3, fpr=6, tx_power_dbm=-35.0,
                    path_loss_exponent=4.0, shadow_sigma_db=1.0,
                    drift_sigma_db=0.5, seed=88)
    ds, _ = generate(cfg)
    tr, te = split_by_ci(ds, 0, 6, seed=8)
    model, index = train(tr, TrainConfig(epochs=150), seed=99)

    rng = np.random.default_rng(123)
    unchanged = 0
    for fp in te.fingerprints:
        before = predict(model, index, fp, k=3)
        visible = np.flatnonzero(fp.rssi > -100.0)
        drop = rng.choice(visible, size=int(0.1 * visible.size), replace=False)
        rssi = fp.rssi.copy()
        rssi[drop] = -100.0
        after = predict(model, index, Fingerprint(fp.rp_id, fp.ci, rssi), k=3)
        unchanged += after.rp_id == before.rp_id
    assert unchanged / len(te) >= 0.80


def test_centroid_rule_interpolates(trained, sim_split):
    tr, te = sim_split
    model, index = trained
    fp = te.fingerprints[0]
    pred = predict(model, index, fp, k=3, rule="centroid")
    # the weighted centroid lies within the hull of the neighbor coordinates
    rp_x = {int(r): float(x) for r, x in zip(index.rp_ids, index.xs)}
    nb_x = [rp_x[rp] for rp, _ in pred.neighbor_rps]
    assert min(nb_x) - 1e-9 <= pred.x <= max(nb_x) + 1e-9


# --- persistence ------------------------------------------------------------

def test_save_load_round_trip(tmp_path, trained, sim_split):
    tr, te = sim_split
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path, extra={"ap_registry": ",".join(tr.floorplan.ap_registry)})
    loaded_model, loaded_index, extra = load_model_full(path)
    for name in model.params:
        np.testing.assert_array_equal(model.params[name], loaded_model.params[name])
    np.testing.assert_array_equal(index.embeddings, loaded_index.embeddings)
    np.testing.assert_array_equal(index.rp_ids, loaded_index.rp_ids)
    np.testing.assert_array_equal(index.xs, loaded_index.xs)
    assert extra["ap_registry"] == ",".join(tr.floorplan.ap_registry)
    assert loaded_model.config == model.config
    for fp in te.fingerprints[:20]:
        a = predict(model, index, fp, k=3)
        b = predict(loaded_model, loaded_index, fp, k=3)
        assert (a.x, a.y, a.rp_id, a.neighbor_rps) == (b.x, b.y, b.rp_id, b.neighbor_rps)


def test_same_seed_byte_identical_files(tmp_path, sim_split):
    tr, _ = sim_split
    p1, p2 = tmp_path / "a.stne", tmp_path / "b.stne"
    for p, seed in ((p1, 11), (p2, 11)):
        model, index = train(tr, small_train_config(), seed=seed)
        save_model(model, index, p)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("encoder, exact", [
    (EncoderConfig(), True),
    (EncoderConfig(conv1_filters=7, conv2_filters=19, filter_size=3), False),
])
def test_model_does_not_depend_on_conv_chunking(tmp_path, monkeypatch, encoder, exact):
    # one-image conv chunks against the default budget
    ds, _ = generate(preset("office-like", 21))
    tr, te = split_by_ci(ds, 0, 6, 21)
    runs = []
    for budget in (1, nn._BLOCK_BYTES):
        monkeypatch.setattr(nn, "_BLOCK_BYTES", budget)
        model, index = train(tr, TrainConfig(encoder=encoder, epochs=1), seed=21)
        path = tmp_path / f"{budget}.stne"
        save_model(model, index, path)
        runs.append((path.read_bytes(), predict_batch(model, index, te.rssi[:300], rule="centroid")))
    (bytes_a, preds_a), (bytes_b, preds_b) = runs
    if exact:
        assert bytes_a == bytes_b and preds_a == preds_b
    else:
        # conv2's (K, F) = (63, 19) GEMM takes a different BLAS kernel for one
        # image's 16 rows than for 96 images: the outputs agree to rounding
        for a, b in zip(preds_a, preds_b):
            assert a.rp_id == b.rp_id
            assert [r for r, _ in a.neighbor_rps] == [r for r, _ in b.neighbor_rps]
            np.testing.assert_allclose([d for _, d in a.neighbor_rps],
                                       [d for _, d in b.neighbor_rps], rtol=0, atol=1e-12)
            assert (a.x, a.y) == pytest.approx((b.x, b.y), rel=0, abs=1e-12)


def test_corruption_detected(tmp_path, trained):
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="checksum"):
        load_model(path)


def test_truncation_detected(tmp_path, trained):
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path)
    path.write_bytes(path.read_bytes()[:50])
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_future_version_rejected(tmp_path, trained):
    import struct, zlib
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path)
    raw = bytearray(path.read_bytes())[:-4]
    raw[4:8] = struct.pack("<I", 99)
    raw += struct.pack("<I", zlib.crc32(bytes(raw)))
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="version 99"):
        load_model(path)


def test_bad_magic_rejected(tmp_path, trained):
    import struct, zlib
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path)
    raw = bytearray(path.read_bytes())[:-4]
    raw[0:4] = b"NOPE"
    raw += struct.pack("<I", zlib.crc32(bytes(raw)))
    path.write_bytes(bytes(raw))
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(path)


def test_index_block_layout(tmp_path, trained):
    # each entry is embed_dim float32, int32 rp_id, float32 x, float32 y
    import struct
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path)
    block = b"".join(
        index.embeddings[i].astype("<f4").tobytes()
        + struct.pack("<iff", int(index.rp_ids[i]), float(index.xs[i]), float(index.ys[i]))
        for i in range(len(index)))
    raw = path.read_bytes()[:-4]
    assert raw.endswith(struct.pack("<I", len(index)) + block)


def test_oversized_index_count_rejected(tmp_path, trained):
    # a CRC-valid file claiming 2**31 - 1 index entries fails as a format
    # error before anything of that size is allocated
    import struct, tracemalloc, zlib
    model, index = trained
    path = tmp_path / "model.stne"
    save_model(model, index, path)
    raw = bytearray(path.read_bytes())[:-4]
    at = len(raw) - len(index) * (4 * index.embed_dim + 12) - 4
    assert struct.unpack("<I", raw[at:at + 4])[0] == len(index)
    raw[at:at + 4] = struct.pack("<I", 0x7FFFFFFF)
    raw += struct.pack("<I", zlib.crc32(bytes(raw)))
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_train_runs_the_network_on_bounded_blocks(monkeypatch):
    # office-like CI 0 has 294 training rows; the index build must not run
    # the network on all of them at once; one worker keeps the block order
    monkeypatch.setattr(nn, "WORKERS", 1)
    ds, _ = generate(preset("office-like", 0))
    tr, _ = split_by_ci(ds, 0, 6, seed=0)
    assert len(tr) == 294
    conv1_rows = []
    conv = nn.conv2d_forward

    def recording_conv(x, w, b):
        if x.shape[1] == 1:
            conv1_rows.append(len(x))
        return conv(x, w, b)

    monkeypatch.setattr(nn, "conv2d_forward", recording_conv)
    train(tr, TrainConfig(epochs=1), seed=1)
    assert max(conv1_rows) <= BLOCK_ROWS == 96
    assert conv1_rows[-4:] == [96, 96, 96, 6]  # the index build

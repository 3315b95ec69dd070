import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from knn_oracle import oracle_baseline_predict, oracle_embedding_predict

from driftloc import nn
from driftloc.data import Fingerprint, ReferencePoint, split_by_ci
from driftloc.encoder import BLOCK_ROWS, EncoderConfig, encode_batch, init_model, train_step
from driftloc.errors import ModelFormatError
from driftloc.localizer import (EmbeddingIndex, TrainConfig,
                                baseline_predict_batch, predict, predict_batch,
                                train)
from driftloc.model_io import load_model, load_model_full, save_model
from driftloc.nn import AdamState
from driftloc.preprocess import to_image
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
    np.testing.assert_array_equal(index.tie_order, np.argsort(index.rp_ids, kind="stable"))
    np.testing.assert_array_equal(index.table, index.embeddings.astype(np.float64))
    assert not index.tie_order.flags.writeable and not index.table.flags.writeable


def test_conv_weights_are_gemm_ready(tmp_path, trained):
    model, index = trained
    save_model(model, index, tmp_path / "m.stne")
    loaded, _ = load_model(tmp_path / "m.stne")
    fresh = init_model(model.config, model.input_side, seed=0)
    for m in (fresh, model, loaded):
        for name in ("conv1_w", "conv2_w"):
            w = m.params[name]
            assert np.shares_memory(nn._gemm_weight(w), w), name


def test_trained_and_loaded_params_are_read_only(tmp_path, trained):
    model, index = trained
    save_model(model, index, tmp_path / "m.stne")
    loaded, _ = load_model(tmp_path / "m.stne")
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
    # the network on all of them at once
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
